//===--- Typing.cpp -----------------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "parse/Typing.h"

#include "support/Casting.h"

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace dpo;

namespace {

using FunctionTypeMap = std::unordered_map<std::string, Type>;

/// [lex.icon]: an integer literal has the first type of its list that
/// can represent its value. Unsuffixed decimal: int, long; hexadecimal,
/// octal or binary: int, unsigned int, long, unsigned long; `u`: unsigned
/// int, unsigned long; `l` and `ll` likewise from long and long long. A
/// literal no signed type of its list holds takes the unsigned one.
/// Synthesized literals (no spelling) are decimal. Character literals are
/// char.
Type integerLiteralType(const IntegerLiteral *Lit) {
  std::string_view Spelling = Lit->spelling();
  if (!Spelling.empty() && Spelling.front() == '\'')
    return Type(BuiltinKind::Char);
  std::string Lower(Spelling);
  for (char &C : Lower)
    C = (char)std::tolower((unsigned char)C);
  bool IsU = Lower.find('u') != std::string::npos;
  bool IsLL = Lower.find("ll") != std::string::npos;
  bool IsL = !IsLL && Lower.find('l') != std::string::npos;
  bool Decimal = Lower.size() < 2 || Lower[0] != '0' ||
                 !(std::isdigit((unsigned char)Lower[1]) || Lower[1] == 'x' ||
                   Lower[1] == 'b');
  uint64_t V = Lit->value();
  if (IsLL)
    return Type(IsU || (!Decimal && V > INT64_MAX) ? BuiltinKind::ULongLong
                                                   : BuiltinKind::LongLong);
  if (IsU)
    return Type(!IsL && V <= UINT32_MAX ? BuiltinKind::UInt
                                        : BuiltinKind::ULong);
  if (!IsL && V <= INT32_MAX)
    return Type(BuiltinKind::Int);
  if (!IsL && !Decimal && V <= UINT32_MAX)
    return Type(BuiltinKind::UInt);
  return Type(V <= INT64_MAX ? BuiltinKind::Long : BuiltinKind::ULong);
}

Type unaryType(UnaryOpKind Op, const Type &Operand) {
  switch (Op) {
  case UnaryOpKind::Deref:
    return Operand.pointee();
  case UnaryOpKind::AddrOf:
    return Operand.pointerTo();
  case UnaryOpKind::Not:
    return Type(BuiltinKind::Int);
  default:
    return Operand;
  }
}

unsigned integerRank(BuiltinKind Kind) {
  switch (Kind) {
  case BuiltinKind::Bool: return 1;
  case BuiltinKind::Char:
  case BuiltinKind::UChar: return 2;
  case BuiltinKind::Short:
  case BuiltinKind::UShort: return 3;
  case BuiltinKind::Int:
  case BuiltinKind::UInt: return 4;
  case BuiltinKind::Long:
  case BuiltinKind::ULong: return 5;
  case BuiltinKind::LongLong:
  case BuiltinKind::ULongLong: return 6;
  default: return 4;
  }
}

Type binaryType(BinaryOpKind Op, const Type &L, const Type &R) {
  switch (Op) {
  case BinaryOpKind::LT:
  case BinaryOpKind::GT:
  case BinaryOpKind::LE:
  case BinaryOpKind::GE:
  case BinaryOpKind::EQ:
  case BinaryOpKind::NE:
  case BinaryOpKind::LAnd:
  case BinaryOpKind::LOr:
    return Type(BuiltinKind::Int);
  case BinaryOpKind::Comma:
    return R;
  default:
    break;
  }
  if (isAssignmentOp(Op))
    return L;
  if (L.isPointer())
    return R.isPointer() ? Type(BuiltinKind::Long) : L;
  if (R.isPointer())
    return R;
  if (L.kind() == BuiltinKind::Double || R.kind() == BuiltinKind::Double)
    return Type(BuiltinKind::Double);
  if (L.kind() == BuiltinKind::Float || R.kind() == BuiltinKind::Float)
    return Type(BuiltinKind::Float);
  // Integer promotion: pick the larger rank; unsigned wins ties.
  unsigned RankL = integerRank(L.kind());
  unsigned RankR = integerRank(R.kind());
  const Type &Winner = RankL > RankR    ? L
                       : RankR > RankL  ? R
                       : L.isUnsigned() ? L
                                        : R;
  if (integerRank(Winner.kind()) < 4)
    return Type(BuiltinKind::Int);
  return Winner;
}

Type callType(const std::string &Name, const std::vector<Expr *> &Args,
              const FunctionTypeMap &Functions) {
  auto It = Functions.find(Name);
  if (It != Functions.end())
    return It->second;
  // Common CUDA/libm intrinsics.
  if (Name == "sqrtf" || Name == "ceilf" || Name == "floorf" ||
      Name == "fabsf" || Name == "fminf" || Name == "fmaxf" ||
      Name == "powf" || Name == "expf" || Name == "logf" ||
      Name == "tanhf" || Name == "__fdividef")
    return Type(BuiltinKind::Float);
  if (Name == "sqrt" || Name == "ceil" || Name == "floor" || Name == "fabs" ||
      Name == "pow" || Name == "exp" || Name == "log" || Name == "tanh")
    return Type(BuiltinKind::Double);
  if (Name == "min" || Name == "max") {
    if (!Args.empty())
      return Args.front()->type();
    return Type(BuiltinKind::Int);
  }
  if (Name == "atomicAdd" || Name == "atomicMax" || Name == "atomicMin" ||
      Name == "atomicExch" || Name == "atomicCAS" || Name == "atomicOr" ||
      Name == "atomicSub") {
    if (!Args.empty() && Args.front()->type().isPointer())
      return Args.front()->type().pointee();
    return Type(BuiltinKind::Int);
  }
  if (Name == "__syncthreads" || Name == "__threadfence" ||
      Name == "__threadfence_block" || Name == "__syncwarp")
    return Type(BuiltinKind::Void);
  // Warp/block collectives: values round-trip through 64-bit VM slots.
  if (Name == "__shfl_sync" || Name == "__shfl_up_sync" ||
      Name == "__shfl_down_sync" || Name == "__shfl_xor_sync" ||
      Name == "__block_reduce_add" || Name == "__block_reduce_min" ||
      Name == "__block_reduce_max")
    return Type(BuiltinKind::LongLong);
  if (Name == "__ballot_sync")
    return Type(BuiltinKind::UInt);
  return Type(BuiltinKind::Int);
}

/// Walks a unit in declaration order, keeping one scope per function (its
/// parameters), compound statement and for statement. A name resolves to
/// its innermost, latest declaration.
class TypeAssigner {
public:
  TypeAssigner() {
    // CUDA built-in variables available inside kernels. Declaring them at
    // file scope is harmless for our subset and keeps typing simple.
    for (const char *Name : {"threadIdx", "blockIdx", "blockDim", "gridDim"})
      Names.push_back({Name, Type(BuiltinKind::Dim3)});
    Names.push_back({"warpSize", Type(BuiltinKind::Int)});
    Functions["dim3"] = Type(BuiltinKind::Dim3);
  }

  void unit(TranslationUnit *TU) {
    for (Decl *D : TU->decls()) {
      if (auto *V = dyn_cast<VarDecl>(D))
        var(V);
      else if (auto *F = dyn_cast<FunctionDecl>(D))
        function(F);
    }
  }

  void function(FunctionDecl *F) {
    size_t Scope = Names.size();
    for (VarDecl *P : F->params())
      var(P);
    Functions[F->name()] = F->returnType();
    if (F->body())
      stmt(F->body());
    Names.resize(Scope);
  }

  void expr(Expr *E) {
    if (!E)
      return;
    switch (E->kind()) {
    case StmtKind::IntegerLit:
      E->setType(integerLiteralType(cast<IntegerLiteral>(E)));
      break;
    case StmtKind::FloatLit: {
      std::string_view S = cast<FloatLiteral>(E)->spelling();
      bool IsFloat = !S.empty() && (S.back() == 'f' || S.back() == 'F');
      E->setType(Type(IsFloat ? BuiltinKind::Float : BuiltinKind::Double));
      break;
    }
    case StmtKind::DeclRef:
      E->setType(lookup(cast<DeclRefExpr>(E)->name()));
      break;
    case StmtKind::Member: {
      // dim3 components are unsigned; other members are treated as int.
      auto *M = cast<MemberExpr>(E);
      expr(M->base());
      const Type &Base = M->base()->type();
      bool Dim3 = (M->isArrow() ? Base.pointee() : Base).isDim3();
      E->setType(Type(Dim3 ? BuiltinKind::UInt : BuiltinKind::Int));
      break;
    }
    case StmtKind::ArraySubscript: {
      auto *Sub = cast<ArraySubscriptExpr>(E);
      expr(Sub->base());
      expr(Sub->index());
      E->setType(Sub->base()->type().pointee());
      break;
    }
    case StmtKind::Call: {
      auto *Call = cast<CallExpr>(E);
      expr(Call->callee());
      for (Expr *Arg : Call->args())
        expr(Arg);
      E->setType(callType(Call->calleeName(), Call->args(), Functions));
      break;
    }
    case StmtKind::Unary: {
      auto *U = cast<UnaryOperator>(E);
      expr(U->operand());
      E->setType(unaryType(U->op(), U->operand()->type()));
      break;
    }
    case StmtKind::Binary: {
      auto *Bin = cast<BinaryOperator>(E);
      expr(Bin->lhs());
      expr(Bin->rhs());
      E->setType(
          binaryType(Bin->op(), Bin->lhs()->type(), Bin->rhs()->type()));
      break;
    }
    case StmtKind::Conditional: {
      auto *C = cast<ConditionalOperator>(E);
      expr(C->cond());
      expr(C->trueExpr());
      expr(C->falseExpr());
      E->setType(C->trueExpr()->type());
      break;
    }
    case StmtKind::Cast:
      expr(cast<CastExpr>(E)->operand());
      break;
    case StmtKind::Paren:
      expr(cast<ParenExpr>(E)->inner());
      E->setType(cast<ParenExpr>(E)->inner()->type());
      break;
    case StmtKind::Launch: {
      auto *L = cast<LaunchExpr>(E);
      expr(L->gridDim());
      expr(L->blockDim());
      expr(L->sharedMem());
      expr(L->stream());
      for (Expr *Arg : L->args())
        expr(Arg);
      break;
    }
    default:
      // Bool/string literals and sizeof keep the type their node was built
      // with, as they do in the parser.
      break;
    }
  }

  void stmt(Stmt *S) {
    if (!S)
      return;
    if (auto *E = dyn_cast<Expr>(S)) {
      expr(E);
      return;
    }
    switch (S->kind()) {
    case StmtKind::Compound: {
      size_t Scope = Names.size();
      for (Stmt *Child : cast<CompoundStmt>(S)->body())
        stmt(Child);
      Names.resize(Scope);
      break;
    }
    case StmtKind::DeclS:
      for (VarDecl *V : cast<DeclStmt>(S)->decls())
        var(V);
      break;
    case StmtKind::If: {
      auto *If = cast<IfStmt>(S);
      expr(If->cond());
      stmt(If->thenStmt());
      stmt(If->elseStmt());
      break;
    }
    case StmtKind::For: {
      auto *For = cast<ForStmt>(S);
      size_t Scope = Names.size();
      stmt(For->init());
      expr(For->cond());
      expr(For->inc());
      stmt(For->body());
      Names.resize(Scope);
      break;
    }
    case StmtKind::While:
      expr(cast<WhileStmt>(S)->cond());
      stmt(cast<WhileStmt>(S)->body());
      break;
    case StmtKind::Do:
      stmt(cast<DoStmt>(S)->body());
      expr(cast<DoStmt>(S)->cond());
      break;
    case StmtKind::Return:
      expr(cast<ReturnStmt>(S)->value());
      break;
    default:
      break;
    }
  }

private:
  /// Undeclared names (function names included) are `int`.
  const Type &lookup(std::string_view Name) const {
    static const Type Undeclared(BuiltinKind::Int);
    for (auto It = Names.rbegin(); It != Names.rend(); ++It)
      if (It->first == Name)
        return It->second;
    return Undeclared;
  }

  void var(VarDecl *V) {
    for (Expr *Dim : V->arrayDims())
      expr(Dim);
    if (V->init())
      expr(V->init());
    // Arrays decay to pointers for typing purposes.
    Names.push_back(
        {V->name(), V->isArray() ? V->type().pointerTo() : V->type()});
  }

  /// Every name in scope, innermost last; a scope is a suffix, closed by
  /// truncating to the size it opened at. Declarations outlive their
  /// typing walk, so the views stay valid.
  std::vector<std::pair<std::string_view, Type>> Names;
  FunctionTypeMap Functions;
};

} // namespace

void dpo::assignTypes(TranslationUnit *TU) { TypeAssigner().unit(TU); }

void dpo::assignTypes(FunctionDecl *F) { TypeAssigner().function(F); }

void dpo::assignTypes(Stmt *S) { TypeAssigner().stmt(S); }
