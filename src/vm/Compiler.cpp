//===--- Compiler.cpp ---------------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "ast/Walk.h"
#include "support/Casting.h"
#include "vm/Peephole.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace dpo;

namespace {

/// Where a named variable lives.
enum class StorageKind {
  Slot,        ///< One local slot.
  Dim3Slots,   ///< Three consecutive local slots.
  FrameScalar, ///< Addressable scalar in frame memory.
  FrameArray,  ///< Array in frame memory (decays to a pointer value).
  SharedScalar,
  SharedArray,
  GlobalScalar,
  GlobalArray,
};

struct VarInfo {
  StorageKind Kind = StorageKind::Slot;
  unsigned Slot = 0;    ///< For Slot/Dim3Slots.
  uint64_t Offset = 0;  ///< Frame/shared offset or global address.
  Type Ty;              ///< Declared type (arrays: decayed pointer type).
  Type ElemTy;          ///< For arrays: the element type.
};

/// An lvalue: either a local slot or a memory address left on the stack.
struct LValue {
  bool IsSlot = false;
  unsigned Slot = 0;
  Type Ty; ///< Type of the object (load/store width).
};

unsigned typeWidth(const Type &T) {
  unsigned W = T.storeSizeBytes();
  return W == 0 ? 8 : W;
}

bool isFloatTy(const Type &T) { return T.isFloating(); }

class FunctionCompiler;

class ProgramCompiler {
public:
  ProgramCompiler(const TranslationUnit *TU, DiagnosticEngine &Diags)
      : TU(TU), Diags(Diags) {}

  VmProgram compile();

  /// Registers one launch site and returns its 1-based ordinal (the
  /// Launch instruction's C operand). Sites are named
  /// "<caller>-><kernel>#<n>" with n counting that caller/kernel pair in
  /// emission order, so recompiling the same source reproduces the same
  /// site names — the stability the profile artifact depends on.
  unsigned launchSite(const std::string &Caller, const std::string &Kernel) {
    std::string Pair = Caller + "->" + Kernel;
    unsigned Ordinal = SiteOrdinals[Pair]++;
    Program.LaunchSiteNames.push_back(Pair + "#" + std::to_string(Ordinal));
    return (unsigned)Program.LaunchSiteNames.size();
  }

  const TranslationUnit *TU;
  DiagnosticEngine &Diags;
  VmProgram Program;
  /// Function name -> declared signature (param types, returns value).
  std::unordered_map<std::string, const FunctionDecl *> Signatures;
  /// (caller, kernel) pair -> next per-pair launch-site ordinal.
  std::unordered_map<std::string, unsigned> SiteOrdinals;
};

class FunctionCompiler {
public:
  FunctionCompiler(ProgramCompiler &PC, const FunctionDecl *F, FuncDef &Out)
      : PC(PC), F(F), Out(Out) {}

  void compile();

private:
  //===--- Emission helpers -----------------------------------------------===//

  unsigned emit(Op Code, int64_t A = 0, int64_t B = 0) {
    Out.Code.push_back({Code, A, B});
    return Out.Code.size() - 1;
  }
  unsigned here() const { return Out.Code.size(); }
  void patch(unsigned Index, int64_t Target) { Out.Code[Index].A = Target; }
  void error(SourceLocation Loc, const std::string &Message) {
    PC.Diags.error(Loc, Message);
  }

  //===--- Scopes ----------------------------------------------------------===//

  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  void declareVar(const std::string &Name, VarInfo Info) {
    Scopes.back()[Name] = std::move(Info);
  }
  const VarInfo *lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return &Found->second;
    }
    return nullptr;
  }

  unsigned allocSlot() { return Out.NumLocals++; }
  unsigned allocSlots(unsigned N) {
    unsigned Base = Out.NumLocals;
    Out.NumLocals += N;
    return Base;
  }
  uint64_t allocFrame(unsigned Bytes) {
    uint64_t Offset = (Out.FrameBytes + 7u) & ~7u;
    Out.FrameBytes = Offset + Bytes;
    return Offset;
  }
  uint64_t allocShared(unsigned Bytes) {
    uint64_t Offset = (Out.SharedBytes + 7u) & ~7u;
    Out.SharedBytes = Offset + Bytes;
    return Offset;
  }

  //===--- Type utilities --------------------------------------------------===//

  /// The arithmetic common type of a binary operation.
  static Type commonType(const Type &L, const Type &R) {
    if (L.isPointer())
      return L;
    if (R.isPointer())
      return R;
    if (L.kind() == BuiltinKind::Double || R.kind() == BuiltinKind::Double)
      return Type(BuiltinKind::Double);
    if (L.kind() == BuiltinKind::Float || R.kind() == BuiltinKind::Float)
      return Type(BuiltinKind::Float);
    unsigned WL = typeWidth(L);
    unsigned WR = typeWidth(R);
    if (WL < 4 && WR < 4)
      return Type(BuiltinKind::Int);
    if (WL == WR)
      return L.isUnsigned() ? L : R;
    return WL > WR ? L : R;
  }

  /// Emits conversion of the stack top from \p From to \p To.
  void convert(const Type &From, const Type &To) {
    if (isFloatTy(From) && !isFloatTy(To)) {
      emit(Op::F2I);
      normalizeInt(To);
      return;
    }
    if (!isFloatTy(From) && isFloatTy(To)) {
      emit(From.isUnsigned() ? Op::U2F : Op::I2F);
      if (To.kind() == BuiltinKind::Float)
        emit(Op::F2Single);
      return;
    }
    if (isFloatTy(From) && isFloatTy(To)) {
      if (To.kind() == BuiltinKind::Float)
        emit(Op::F2Single);
      return;
    }
    normalizeInt(To);
  }

  /// Wraps the integer stack top to the width/signedness of \p T.
  void normalizeInt(const Type &T) {
    if (T.isPointer() || !T.isInteger())
      return;
    unsigned W = typeWidth(T);
    if (W >= 8)
      return;
    emit(Op::TruncI, W, T.isUnsigned() ? 0 : 1);
  }

  //===--- Loads and stores ------------------------------------------------===//

  Op loadOp(const Type &T) {
    if (T.isPointer())
      return Op::LdI64;
    switch (T.kind()) {
    case BuiltinKind::Bool:
    case BuiltinKind::UChar: return Op::LdU8;
    case BuiltinKind::Char: return Op::LdI8;
    case BuiltinKind::Short: return Op::LdI16;
    case BuiltinKind::UShort: return Op::LdU16;
    case BuiltinKind::Int: return Op::LdI32;
    case BuiltinKind::UInt: return Op::LdU32;
    case BuiltinKind::Float: return Op::LdF32;
    case BuiltinKind::Double: return Op::LdF64;
    default: return Op::LdI64;
    }
  }

  Op storeOp(const Type &T) {
    if (T.isPointer())
      return Op::StI64;
    switch (T.kind()) {
    case BuiltinKind::Bool:
    case BuiltinKind::UChar:
    case BuiltinKind::Char: return Op::StI8;
    case BuiltinKind::Short:
    case BuiltinKind::UShort: return Op::StI16;
    case BuiltinKind::Int:
    case BuiltinKind::UInt: return Op::StI32;
    case BuiltinKind::Float: return Op::StF32;
    case BuiltinKind::Double: return Op::StF64;
    default: return Op::StI64;
    }
  }

  //===--- Implementation --------------------------------------------------===//

  void collectAddressTaken();
  void declareLocal(const VarDecl *D);
  void compileStmt(const Stmt *S);
  void compileCompound(const CompoundStmt *S);
  /// Compiles an expression; returns slots pushed (1, or 3 for dim3).
  unsigned compileExpr(const Expr *E);
  /// Compiles an expression and coerces it to exactly one slot of type T.
  void compileScalar(const Expr *E, const Type &T);
  /// Compiles an expression as a dim3 (3 slots), coercing scalars.
  void compileDim3(const Expr *E);
  std::optional<LValue> compileLValue(const Expr *E);
  void compileBinary(const BinaryOperator *B);
  void compileAssignment(const BinaryOperator *B, bool WantValue);
  void compileIncDec(const UnaryOperator *U, bool WantValue);
  unsigned compileCall(const CallExpr *Call);
  void compileLaunch(const LaunchExpr *L);
  void compileArithmetic(BinaryOpKind OpKind, const Type &OpTy);
  void loadFromLValue(const LValue &LV);

  ProgramCompiler &PC;
  const FunctionDecl *F;
  FuncDef &Out;
  std::vector<std::unordered_map<std::string, VarInfo>> Scopes;
  std::unordered_set<std::string> AddressTaken;
  /// Break/continue jump targets (indices to patch).
  struct LoopContext {
    std::vector<unsigned> Breaks;
    std::vector<unsigned> Continues;
  };
  std::vector<LoopContext> Loops;
  unsigned Scratch = 0; ///< Scratch local for stack shuffles.
};

//===----------------------------------------------------------------------===//
// ProgramCompiler
//===----------------------------------------------------------------------===//

VmProgram ProgramCompiler::compile() {
  // Pass 1: globals and signatures.
  for (const Decl *D : TU->decls()) {
    if (const auto *Var = dyn_cast<VarDecl>(D)) {
      unsigned Size = typeWidth(Var->type());
      uint64_t Count = 1;
      for (const Expr *Dim : Var->arrayDims()) {
        const auto *Lit = dyn_cast<IntegerLiteral>(Dim);
        if (!Lit) {
          Diags.error(Var->loc(),
                      "global array dimensions must be integer literals");
          return {};
        }
        Count *= Lit->value();
      }
      unsigned Offset = (Program.GlobalImage.size() + 7u) & ~7u;
      Program.GlobalImage.resize(Offset + Size * Count, 0);
      Program.GlobalOffsets[Var->name()] = Offset;
      // Scalar initializers: integer literals only (enough for counters).
      if (Var->init() && !Var->isArray()) {
        if (const auto *Lit = dyn_cast<IntegerLiteral>(Var->init())) {
          uint64_t V = Lit->value();
          for (unsigned I = 0; I < Size && I < 8; ++I)
            Program.GlobalImage[Offset + I] = (V >> (8 * I)) & 0xFF;
        }
      }
      continue;
    }
    if (const auto *Fn = dyn_cast<FunctionDecl>(D)) {
      if (!Signatures.count(Fn->name()) || Fn->isDefinition())
        Signatures[Fn->name()] = Fn;
    }
  }

  // Reserve function indices in declaration order (definitions only).
  for (const Decl *D : TU->decls()) {
    const auto *Fn = dyn_cast<FunctionDecl>(D);
    if (!Fn || !Fn->isDefinition())
      continue;
    if (Program.FunctionIndex.count(Fn->name())) {
      Diags.error(Fn->loc(), "duplicate definition of '" + Fn->name() + "'");
      return {};
    }
    FuncDef Def;
    Def.Name = Fn->name();
    Def.IsKernel = Fn->isKernel();
    Def.ReturnsValue = !Fn->returnType().isVoid();
    for (const VarDecl *P : Fn->params()) {
      Def.ParamTypes.push_back(P->type());
      Def.NumParamSlots += P->type().isDim3() ? 3 : 1;
    }
    Program.FunctionIndex[Fn->name()] = Program.Functions.size();
    Program.Functions.push_back(std::move(Def));
  }

  // Pass 2: compile bodies.
  for (const Decl *D : TU->decls()) {
    const auto *Fn = dyn_cast<FunctionDecl>(D);
    if (!Fn || !Fn->isDefinition())
      continue;
    FuncDef &Def = Program.Functions[Program.FunctionIndex[Fn->name()]];
    FunctionCompiler FC(*this, Fn, Def);
    FC.compile();
    if (Diags.hasErrors())
      return {};
  }
  return std::move(Program);
}

//===----------------------------------------------------------------------===//
// FunctionCompiler
//===----------------------------------------------------------------------===//

void FunctionCompiler::collectAddressTaken() {
  forEachExpr(const_cast<CompoundStmt *>(F->body()), [&](Expr *E) {
    const auto *U = dyn_cast<UnaryOperator>(E);
    if (!U || U->op() != UnaryOpKind::AddrOf)
      return;
    const Expr *Operand = U->operand();
    while (const auto *P = dyn_cast<ParenExpr>(Operand))
      Operand = P->inner();
    if (const auto *Ref = dyn_cast<DeclRefExpr>(Operand))
      AddressTaken.insert(Ref->name());
  });
}

void FunctionCompiler::declareLocal(const VarDecl *D) {
  VarInfo Info;
  Info.Ty = D->type();

  if (D->isArray()) {
    uint64_t Count = 1;
    for (const Expr *Dim : D->arrayDims()) {
      const auto *Lit = dyn_cast<IntegerLiteral>(Dim);
      if (!Lit) {
        error(D->loc(), "array dimensions must be integer literals in '" +
                            D->name() + "'");
        return;
      }
      Count *= Lit->value();
    }
    Info.ElemTy = D->type();
    Info.Ty = D->type().pointerTo();
    unsigned Bytes = typeWidth(Info.ElemTy) * Count;
    if (D->isShared()) {
      Info.Kind = StorageKind::SharedArray;
      Info.Offset = allocShared(Bytes);
    } else {
      Info.Kind = StorageKind::FrameArray;
      Info.Offset = allocFrame(Bytes);
    }
    declareVar(D->name(), Info);
    return;
  }

  if (D->type().isDim3()) {
    Info.Kind = StorageKind::Dim3Slots;
    Info.Slot = allocSlots(3);
    declareVar(D->name(), Info);
    if (D->init()) {
      compileDim3(D->init());
      emit(Op::StoreLocal, Info.Slot + 2);
      emit(Op::StoreLocal, Info.Slot + 1);
      emit(Op::StoreLocal, Info.Slot + 0);
    }
    return;
  }

  if (D->isShared()) {
    Info.Kind = StorageKind::SharedScalar;
    Info.Offset = allocShared(typeWidth(D->type()));
    declareVar(D->name(), Info);
    return; // Shared scalars have no per-thread initializer semantics.
  }

  if (AddressTaken.count(D->name())) {
    Info.Kind = StorageKind::FrameScalar;
    Info.Offset = allocFrame(typeWidth(D->type()));
    declareVar(D->name(), Info);
    if (D->init()) {
      emit(Op::FrameAddr, Info.Offset);
      compileScalar(D->init(), D->type());
      emit(storeOp(D->type()));
    }
    return;
  }

  Info.Kind = StorageKind::Slot;
  Info.Slot = allocSlot();
  declareVar(D->name(), Info);
  if (D->init()) {
    compileScalar(D->init(), D->type());
    emit(Op::StoreLocal, Info.Slot);
  }
}

void FunctionCompiler::compile() {
  collectAddressTaken();
  pushScope();

  // Parameters first (slot layout must match FuncDef::NumParamSlots).
  for (const VarDecl *P : F->params()) {
    VarInfo Info;
    Info.Ty = P->type();
    if (P->type().isDim3()) {
      Info.Kind = StorageKind::Dim3Slots;
      Info.Slot = allocSlots(3);
    } else {
      Info.Kind = StorageKind::Slot;
      Info.Slot = allocSlot();
      if (AddressTaken.count(P->name()))
        error(P->loc(), "address-taken parameters are not supported ('" +
                            P->name() + "')");
    }
    declareVar(P->name(), Info);
  }
  Scratch = allocSlot();

  compileCompound(F->body());
  emit(Op::RetVoid);
  popScope();
}

void FunctionCompiler::compileCompound(const CompoundStmt *S) {
  pushScope();
  for (const Stmt *Child : S->body())
    compileStmt(Child);
  popScope();
}

void FunctionCompiler::compileStmt(const Stmt *S) {
  if (!S)
    return;
  if (const auto *E = dyn_cast<Expr>(S)) {
    // Assignments and ++/-- as statements avoid materializing a value.
    if (const auto *B = dyn_cast<BinaryOperator>(E)) {
      if (isAssignmentOp(B->op())) {
        compileAssignment(B, /*WantValue=*/false);
        return;
      }
    }
    if (const auto *U = dyn_cast<UnaryOperator>(E)) {
      switch (U->op()) {
      case UnaryOpKind::PreInc:
      case UnaryOpKind::PreDec:
      case UnaryOpKind::PostInc:
      case UnaryOpKind::PostDec:
        compileIncDec(U, /*WantValue=*/false);
        return;
      default:
        break;
      }
    }
    unsigned Pushed = compileExpr(E);
    for (unsigned I = 0; I < Pushed; ++I)
      emit(Op::Pop);
    return;
  }

  switch (S->kind()) {
  case StmtKind::Compound:
    compileCompound(cast<CompoundStmt>(S));
    return;
  case StmtKind::DeclS:
    for (const VarDecl *D : cast<DeclStmt>(S)->decls())
      declareLocal(D);
    return;
  case StmtKind::Null:
    return;
  case StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    compileScalar(If->cond(), Type(BuiltinKind::Int));
    unsigned JumpElse = emit(Op::JmpIfZero);
    compileStmt(If->thenStmt());
    if (If->elseStmt()) {
      unsigned JumpEnd = emit(Op::Jmp);
      patch(JumpElse, here());
      compileStmt(If->elseStmt());
      patch(JumpEnd, here());
    } else {
      patch(JumpElse, here());
    }
    return;
  }
  case StmtKind::While: {
    const auto *While = cast<WhileStmt>(S);
    Loops.emplace_back();
    unsigned Top = here();
    compileScalar(While->cond(), Type(BuiltinKind::Int));
    unsigned Exit = emit(Op::JmpIfZero);
    compileStmt(While->body());
    emit(Op::Jmp, Top);
    patch(Exit, here());
    for (unsigned Break : Loops.back().Breaks)
      patch(Break, here());
    for (unsigned Continue : Loops.back().Continues)
      patch(Continue, Top);
    Loops.pop_back();
    return;
  }
  case StmtKind::Do: {
    const auto *Do = cast<DoStmt>(S);
    Loops.emplace_back();
    unsigned Top = here();
    compileStmt(Do->body());
    unsigned CondAt = here();
    compileScalar(Do->cond(), Type(BuiltinKind::Int));
    emit(Op::JmpIfNotZero, Top);
    for (unsigned Break : Loops.back().Breaks)
      patch(Break, here());
    for (unsigned Continue : Loops.back().Continues)
      patch(Continue, CondAt);
    Loops.pop_back();
    return;
  }
  case StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    pushScope();
    if (For->init())
      compileStmt(For->init());
    Loops.emplace_back();
    unsigned Top = here();
    unsigned Exit = 0;
    bool HasCond = For->cond() != nullptr;
    if (HasCond) {
      compileScalar(For->cond(), Type(BuiltinKind::Int));
      Exit = emit(Op::JmpIfZero);
    }
    compileStmt(For->body());
    unsigned IncAt = here();
    if (For->inc()) {
      const Stmt *IncStmt = For->inc();
      compileStmt(IncStmt);
    }
    emit(Op::Jmp, Top);
    if (HasCond)
      patch(Exit, here());
    for (unsigned Break : Loops.back().Breaks)
      patch(Break, here());
    for (unsigned Continue : Loops.back().Continues)
      patch(Continue, IncAt);
    Loops.pop_back();
    popScope();
    return;
  }
  case StmtKind::Break: {
    if (Loops.empty()) {
      error(S->loc(), "'break' outside of a loop");
      return;
    }
    Loops.back().Breaks.push_back(emit(Op::Jmp));
    return;
  }
  case StmtKind::Continue: {
    if (Loops.empty()) {
      error(S->loc(), "'continue' outside of a loop");
      return;
    }
    Loops.back().Continues.push_back(emit(Op::Jmp));
    return;
  }
  case StmtKind::Return: {
    const auto *Ret = cast<ReturnStmt>(S);
    if (Ret->value()) {
      compileScalar(Ret->value(), F->returnType());
      emit(Op::Ret);
    } else {
      emit(Op::RetVoid);
    }
    return;
  }
  default:
    error(S->loc(), "unsupported statement in VM compilation");
  }
}

void FunctionCompiler::loadFromLValue(const LValue &LV) {
  if (LV.IsSlot) {
    emit(Op::LoadLocal, LV.Slot);
    return;
  }
  emit(loadOp(LV.Ty));
}

std::optional<LValue> FunctionCompiler::compileLValue(const Expr *E) {
  while (const auto *P = dyn_cast<ParenExpr>(E))
    E = P->inner();

  if (const auto *Ref = dyn_cast<DeclRefExpr>(E)) {
    const VarInfo *Info = lookup(Ref->name());
    if (!Info) {
      auto GlobalIt = PC.Program.GlobalOffsets.find(Ref->name());
      if (GlobalIt != PC.Program.GlobalOffsets.end()) {
        emit(Op::PushI, GlobalBase + GlobalIt->second);
        LValue LV;
        LV.Ty = Ref->type();
        return LV;
      }
      error(Ref->loc(), "use of undeclared variable '" + Ref->name() + "'");
      return std::nullopt;
    }
    switch (Info->Kind) {
    case StorageKind::Slot: {
      LValue LV;
      LV.IsSlot = true;
      LV.Slot = Info->Slot;
      LV.Ty = Info->Ty;
      return LV;
    }
    case StorageKind::FrameScalar: {
      emit(Op::FrameAddr, Info->Offset);
      LValue LV;
      LV.Ty = Info->Ty;
      return LV;
    }
    case StorageKind::SharedScalar: {
      emit(Op::SharedBase);
      emit(Op::PushI, Info->Offset);
      emit(Op::AddI);
      LValue LV;
      LV.Ty = Info->Ty;
      return LV;
    }
    default:
      error(Ref->loc(), "expression is not assignable: '" + Ref->name() + "'");
      return std::nullopt;
    }
  }

  if (const auto *Sub = dyn_cast<ArraySubscriptExpr>(E)) {
    Type ElemTy = Sub->base()->type().pointee();
    compileScalar(Sub->base(), Sub->base()->type());
    compileScalar(Sub->index(), Type(BuiltinKind::Long));
    emit(Op::PushI, typeWidth(ElemTy));
    emit(Op::MulI);
    emit(Op::AddI);
    LValue LV;
    LV.Ty = ElemTy;
    return LV;
  }

  if (const auto *U = dyn_cast<UnaryOperator>(E)) {
    if (U->op() == UnaryOpKind::Deref) {
      compileScalar(U->operand(), U->operand()->type());
      LValue LV;
      LV.Ty = U->operand()->type().pointee();
      return LV;
    }
  }

  if (const auto *M = dyn_cast<MemberExpr>(E)) {
    const Expr *Base = M->base();
    while (const auto *P = dyn_cast<ParenExpr>(Base))
      Base = P->inner();
    const auto *Ref = dyn_cast<DeclRefExpr>(Base);
    if (Ref && !M->isArrow()) {
      const VarInfo *Info = lookup(Ref->name());
      if (Info && Info->Kind == StorageKind::Dim3Slots) {
        unsigned Comp = M->member() == "x"   ? 0
                        : M->member() == "y" ? 1
                                             : 2;
        LValue LV;
        LV.IsSlot = true;
        LV.Slot = Info->Slot + Comp;
        LV.Ty = Type(BuiltinKind::UInt);
        return LV;
      }
    }
    error(M->loc(), "unsupported member lvalue '." + M->member() + "'");
    return std::nullopt;
  }

  error(E->loc(), "expression is not assignable");
  return std::nullopt;
}

void FunctionCompiler::compileArithmetic(BinaryOpKind OpKind,
                                         const Type &OpTy) {
  bool FloatOp = isFloatTy(OpTy);
  bool Unsigned = OpTy.isUnsigned() || OpTy.isPointer();
  switch (OpKind) {
  case BinaryOpKind::Add:
    emit(FloatOp ? Op::AddF : Op::AddI);
    break;
  case BinaryOpKind::Sub:
    emit(FloatOp ? Op::SubF : Op::SubI);
    break;
  case BinaryOpKind::Mul:
    emit(FloatOp ? Op::MulF : Op::MulI);
    break;
  case BinaryOpKind::Div:
    emit(FloatOp ? Op::DivF : (Unsigned ? Op::DivU : Op::DivI));
    break;
  case BinaryOpKind::Rem:
    emit(Unsigned ? Op::RemU : Op::RemI);
    break;
  case BinaryOpKind::Shl:
    emit(Op::Shl);
    break;
  case BinaryOpKind::Shr:
    emit(Unsigned ? Op::ShrU : Op::ShrI);
    break;
  case BinaryOpKind::BitAnd:
    emit(Op::BitAnd);
    break;
  case BinaryOpKind::BitOr:
    emit(Op::BitOr);
    break;
  case BinaryOpKind::BitXor:
    emit(Op::BitXor);
    break;
  case BinaryOpKind::LT:
    emit(FloatOp ? Op::CmpLTF : (Unsigned ? Op::CmpLTU : Op::CmpLTI));
    break;
  case BinaryOpKind::LE:
    emit(FloatOp ? Op::CmpLEF : (Unsigned ? Op::CmpLEU : Op::CmpLEI));
    break;
  case BinaryOpKind::GT:
    emit(FloatOp ? Op::CmpGTF : (Unsigned ? Op::CmpGTU : Op::CmpGTI));
    break;
  case BinaryOpKind::GE:
    emit(FloatOp ? Op::CmpGEF : (Unsigned ? Op::CmpGEU : Op::CmpGEI));
    break;
  case BinaryOpKind::EQ:
    emit(FloatOp ? Op::CmpEQF : Op::CmpEQ);
    break;
  case BinaryOpKind::NE:
    emit(FloatOp ? Op::CmpNEF : Op::CmpNE);
    break;
  default:
    assert(false && "not an arithmetic operator");
  }
}

void FunctionCompiler::compileScalar(const Expr *E, const Type &T) {
  if (E->type().isDim3() && !T.isDim3()) {
    // dim3 -> scalar: take .x (CUDA would reject this; our passes never
    // generate it, but be lenient for tests).
    unsigned Pushed = compileExpr(E);
    for (unsigned I = 1; I < Pushed; ++I)
      emit(Op::Pop); // Keep x (pushed first? x,y,z: z on top) -> pop z, y.
    return;
  }
  unsigned Pushed = compileExpr(E);
  (void)Pushed;
  assert(Pushed == 1 && "scalar expression pushed multiple slots");
  convert(E->type(), T);
}

void FunctionCompiler::compileDim3(const Expr *E) {
  if (E->type().isDim3()) {
    unsigned Pushed = compileExpr(E);
    (void)Pushed;
    assert(Pushed == 3 && "dim3 expression must push three slots");
    return;
  }
  compileScalar(E, Type(BuiltinKind::UInt));
  emit(Op::PushI, 1);
  emit(Op::PushI, 1);
}

void FunctionCompiler::compileAssignment(const BinaryOperator *B,
                                         bool WantValue) {
  // dim3 = dim3 (whole-value copy).
  if (B->op() == BinaryOpKind::Assign && B->lhs()->type().isDim3()) {
    const Expr *LHS = B->lhs();
    while (const auto *P = dyn_cast<ParenExpr>(LHS))
      LHS = P->inner();
    const auto *Ref = dyn_cast<DeclRefExpr>(LHS);
    const VarInfo *Info = Ref ? lookup(Ref->name()) : nullptr;
    if (!Info || Info->Kind != StorageKind::Dim3Slots) {
      error(B->loc(), "unsupported dim3 assignment target");
      return;
    }
    compileDim3(B->rhs());
    emit(Op::StoreLocal, Info->Slot + 2);
    emit(Op::StoreLocal, Info->Slot + 1);
    emit(Op::StoreLocal, Info->Slot + 0);
    if (WantValue)
      error(B->loc(), "dim3 assignment cannot produce a value");
    return;
  }

  std::optional<LValue> LV = compileLValue(B->lhs());
  if (!LV)
    return;

  if (B->op() == BinaryOpKind::Assign) {
    if (LV->IsSlot) {
      compileScalar(B->rhs(), LV->Ty);
      if (WantValue)
        emit(Op::Dup);
      emit(Op::StoreLocal, LV->Slot);
      return;
    }
    // Stack: [addr]. Compute value, store; re-load for WantValue via Dup
    // of the address first.
    if (WantValue)
      emit(Op::Dup); // [addr, addr]
    compileScalar(B->rhs(), LV->Ty);
    emit(storeOp(LV->Ty)); // pops value+addr
    if (WantValue)
      emit(loadOp(LV->Ty));
    return;
  }

  // Compound assignment.
  BinaryOpKind BaseOp = compoundAssignBaseOp(B->op());
  Type OpTy = commonType(LV->Ty, B->rhs()->type());
  if (LV->Ty.isPointer())
    OpTy = LV->Ty;

  if (LV->IsSlot) {
    emit(Op::LoadLocal, LV->Slot);
    convert(LV->Ty, OpTy);
    if (LV->Ty.isPointer()) {
      compileScalar(B->rhs(), Type(BuiltinKind::Long));
      emit(Op::PushI, typeWidth(LV->Ty.pointee()));
      emit(Op::MulI);
    } else {
      compileScalar(B->rhs(), OpTy);
    }
    compileArithmetic(BaseOp, OpTy);
    convert(OpTy, LV->Ty);
    if (WantValue)
      emit(Op::Dup);
    emit(Op::StoreLocal, LV->Slot);
    return;
  }

  // Memory compound assignment. Stack: [addr].
  emit(Op::Dup);         // [addr, addr]
  emit(loadOp(LV->Ty));  // [addr, old]
  convert(LV->Ty, OpTy);
  if (LV->Ty.isPointer()) {
    compileScalar(B->rhs(), Type(BuiltinKind::Long));
    emit(Op::PushI, typeWidth(LV->Ty.pointee()));
    emit(Op::MulI);
  } else {
    compileScalar(B->rhs(), OpTy);
  }
  compileArithmetic(BaseOp, OpTy); // [addr, new]
  convert(OpTy, LV->Ty);
  if (WantValue) {
    emit(Op::StoreLocal, Scratch);
    emit(Op::LoadLocal, Scratch); // [addr, new]
    emit(storeOp(LV->Ty));
    emit(Op::LoadLocal, Scratch);
    return;
  }
  emit(storeOp(LV->Ty));
}

void FunctionCompiler::compileIncDec(const UnaryOperator *U, bool WantValue) {
  std::optional<LValue> LV = compileLValue(U->operand());
  if (!LV)
    return;
  bool IsInc = U->op() == UnaryOpKind::PreInc || U->op() == UnaryOpKind::PostInc;
  bool IsPost = U->isPostfix();
  int64_t Delta = LV->Ty.isPointer() ? typeWidth(LV->Ty.pointee()) : 1;

  if (LV->IsSlot) {
    emit(Op::LoadLocal, LV->Slot); // [old]
    if (WantValue && IsPost)
      emit(Op::Dup);
    if (isFloatTy(LV->Ty)) {
      emit(Op::PushF, /*bits=*/0); // Patched below via double encoding.
      Out.Code.back().A = 0;
      double D = IsInc ? 1.0 : -1.0;
      int64_t Bits;
      static_assert(sizeof(Bits) == sizeof(D));
      __builtin_memcpy(&Bits, &D, 8);
      Out.Code.back().A = Bits;
      emit(Op::AddF);
    } else {
      emit(Op::PushI, IsInc ? Delta : -Delta);
      emit(Op::AddI);
      normalizeInt(LV->Ty);
    }
    if (WantValue && !IsPost)
      emit(Op::Dup);
    emit(Op::StoreLocal, LV->Slot);
    return;
  }

  // Memory: [addr].
  emit(Op::Dup);        // [addr, addr]
  emit(loadOp(LV->Ty)); // [addr, old]
  if (WantValue && IsPost) {
    emit(Op::StoreLocal, Scratch);
    emit(Op::LoadLocal, Scratch);
  }
  if (isFloatTy(LV->Ty)) {
    double D = IsInc ? 1.0 : -1.0;
    int64_t Bits;
    __builtin_memcpy(&Bits, &D, 8);
    emit(Op::PushF, Bits);
    emit(Op::AddF);
  } else {
    emit(Op::PushI, IsInc ? Delta : -Delta);
    emit(Op::AddI);
    normalizeInt(LV->Ty);
  }
  if (WantValue && !IsPost) {
    emit(Op::StoreLocal, Scratch);
    emit(Op::LoadLocal, Scratch);
    emit(storeOp(LV->Ty));
    emit(Op::LoadLocal, Scratch);
    return;
  }
  emit(storeOp(LV->Ty)); // []
  if (WantValue && IsPost)
    emit(Op::LoadLocal, Scratch);
}

void FunctionCompiler::compileBinary(const BinaryOperator *B) {
  BinaryOpKind OpKind = B->op();

  if (isAssignmentOp(OpKind)) {
    compileAssignment(B, /*WantValue=*/true);
    return;
  }

  if (OpKind == BinaryOpKind::Comma) {
    unsigned Pushed = compileExpr(B->lhs());
    for (unsigned I = 0; I < Pushed; ++I)
      emit(Op::Pop);
    compileExpr(B->rhs());
    return;
  }

  if (OpKind == BinaryOpKind::LAnd || OpKind == BinaryOpKind::LOr) {
    bool IsAnd = OpKind == BinaryOpKind::LAnd;
    compileScalar(B->lhs(), Type(BuiltinKind::Int));
    unsigned Short = emit(IsAnd ? Op::JmpIfZero : Op::JmpIfNotZero);
    compileScalar(B->rhs(), Type(BuiltinKind::Int));
    unsigned Short2 = emit(IsAnd ? Op::JmpIfZero : Op::JmpIfNotZero);
    emit(Op::PushI, IsAnd ? 1 : 0);
    unsigned End = emit(Op::Jmp);
    patch(Short, here());
    patch(Short2, here());
    emit(Op::PushI, IsAnd ? 0 : 1);
    patch(End, here());
    return;
  }

  const Type &LT = B->lhs()->type();
  const Type &RT = B->rhs()->type();

  // Pointer arithmetic.
  if ((OpKind == BinaryOpKind::Add || OpKind == BinaryOpKind::Sub) &&
      (LT.isPointer() || RT.isPointer())) {
    if (LT.isPointer() && RT.isPointer()) {
      // Pointer difference in elements.
      compileScalar(B->lhs(), LT);
      compileScalar(B->rhs(), RT);
      emit(Op::SubI);
      emit(Op::PushI, typeWidth(LT.pointee()));
      emit(Op::DivI);
      return;
    }
    const Expr *PtrSide = LT.isPointer() ? B->lhs() : B->rhs();
    const Expr *IntSide = LT.isPointer() ? B->rhs() : B->lhs();
    compileScalar(PtrSide, PtrSide->type());
    compileScalar(IntSide, Type(BuiltinKind::Long));
    emit(Op::PushI, typeWidth(PtrSide->type().pointee()));
    emit(Op::MulI);
    if (OpKind == BinaryOpKind::Sub)
      emit(Op::SubI);
    else
      emit(Op::AddI);
    return;
  }

  // Pointer comparisons.
  if (LT.isPointer() || RT.isPointer()) {
    compileScalar(B->lhs(), LT);
    compileScalar(B->rhs(), RT);
    compileArithmetic(OpKind, Type(BuiltinKind::ULong));
    return;
  }

  Type OpTy = commonType(LT, RT);
  compileScalar(B->lhs(), OpTy);
  compileScalar(B->rhs(), OpTy);
  compileArithmetic(OpKind, OpTy);
  // Arithmetic results wrap to the common type's width.
  switch (OpKind) {
  case BinaryOpKind::Add:
  case BinaryOpKind::Sub:
  case BinaryOpKind::Mul:
  case BinaryOpKind::Shl:
    if (!isFloatTy(OpTy))
      normalizeInt(OpTy);
    break;
  default:
    break;
  }
}

void FunctionCompiler::compileLaunch(const LaunchExpr *L) {
  auto It = PC.Program.FunctionIndex.find(L->kernel());
  if (It == PC.Program.FunctionIndex.end()) {
    error(L->loc(), "launch of unknown kernel '" + L->kernel() + "'");
    return;
  }
  const FuncDef &Callee = PC.Program.Functions[It->second];
  if (!Callee.IsKernel) {
    error(L->loc(), "'" + L->kernel() +
                        "' is not a __global__ kernel and cannot be launched");
    return;
  }
  if (L->args().size() != Callee.ParamTypes.size()) {
    error(L->loc(), "kernel '" + L->kernel() + "' expects " +
                        std::to_string(Callee.ParamTypes.size()) +
                        " arguments, got " + std::to_string(L->args().size()));
    return;
  }
  unsigned ArgSlots = 0;
  for (size_t I = 0; I < L->args().size(); ++I) {
    const Type &ParamTy = Callee.ParamTypes[I];
    if (ParamTy.isDim3()) {
      compileDim3(L->args()[I]);
      ArgSlots += 3;
    } else {
      compileScalar(L->args()[I], ParamTy);
      ArgSlots += 1;
    }
  }
  compileDim3(L->gridDim());
  compileDim3(L->blockDim());
  unsigned Idx = emit(Op::Launch, It->second, ArgSlots);
  Out.Code[Idx].C = PC.launchSite(F->name(), L->kernel());
}

unsigned FunctionCompiler::compileCall(const CallExpr *Call) {
  std::string Name = Call->calleeName();
  const auto &Args = Call->args();

  auto CompileArgsAsDoubles = [&](unsigned Count) {
    for (unsigned I = 0; I < Count && I < Args.size(); ++I)
      compileScalar(Args[I], Type(BuiltinKind::Double));
  };

  // dim3 constructor in expression position.
  if (Name == "dim3") {
    for (unsigned I = 0; I < 3; ++I) {
      if (I < Args.size())
        compileScalar(Args[I], Type(BuiltinKind::UInt));
      else
        emit(Op::PushI, 1);
    }
    return 3;
  }

  if (Name == "__syncthreads") {
    emit(Op::SyncThreads);
    emit(Op::PushI, 0);
    return 1;
  }
  if (Name == "__syncwarp" || Name == "__threadfence" ||
      Name == "__threadfence_block" || Name == "__threadfence_system") {
    emit(Op::ThreadFence);
    emit(Op::PushI, 0);
    return 1;
  }

  // Warp/block collectives (cooperative block mode; see vm/VM.cpp).
  // __shfl_sync(mask, value, lane) and the up/down/xor variants lower to
  // WarpShfl with A = mode; __ballot_sync(mask, pred) to WarpBallot;
  // __block_reduce_add/min/max(value) to BlockReduce with A = kind. Values
  // travel as 64-bit slots, so the result type is long long (ballot: the
  // 32-lane bitmask as unsigned).
  {
    int ShflMode = Name == "__shfl_sync"        ? 0
                   : Name == "__shfl_up_sync"   ? 1
                   : Name == "__shfl_down_sync" ? 2
                   : Name == "__shfl_xor_sync"  ? 3
                                                : -1;
    if (ShflMode >= 0 && Args.size() == 3) {
      compileScalar(Args[0], Type(BuiltinKind::UInt));
      compileScalar(Args[1], Type(BuiltinKind::LongLong));
      compileScalar(Args[2], Type(BuiltinKind::UInt));
      emit(Op::WarpShfl, ShflMode);
      return 1;
    }
  }
  if (Name == "__ballot_sync" && Args.size() == 2) {
    compileScalar(Args[0], Type(BuiltinKind::UInt));
    compileScalar(Args[1], Type(BuiltinKind::LongLong));
    emit(Op::WarpBallot);
    return 1;
  }
  {
    int ReduceKind = Name == "__block_reduce_add"   ? 0
                     : Name == "__block_reduce_min" ? 1
                     : Name == "__block_reduce_max" ? 2
                                                    : -1;
    if (ReduceKind >= 0 && Args.size() == 1) {
      compileScalar(Args[0], Type(BuiltinKind::LongLong));
      emit(Op::BlockReduce, ReduceKind);
      return 1;
    }
  }

  // Speculation guard intrinsic: __dpo_spec_guard(n, k) -> n <= k
  // (unsigned), counted in VmStats::SpecGuardPass/Fail. Printed source
  // carries a #define so it stays valid CUDA outside the VM.
  if (Name == "__dpo_spec_guard" && Args.size() == 2) {
    compileScalar(Args[0], Type(BuiltinKind::ULongLong));
    compileScalar(Args[1], Type(BuiltinKind::ULongLong));
    emit(Op::SpecGuard);
    return 1;
  }

  // Atomics: atomicOp(ptr, value...).
  auto CompileAtomic = [&](Op AtomicOp, unsigned ValueArgs) -> unsigned {
    Type Pointee = Args[0]->type().pointee();
    unsigned Width = typeWidth(Pointee);
    compileScalar(Args[0], Args[0]->type());
    for (unsigned I = 1; I <= ValueArgs; ++I)
      compileScalar(Args[I], Pointee);
    emit(AtomicOp, Width, Pointee.isUnsigned() ? 0 : 1);
    return 1;
  };
  if (Name == "atomicAdd" && Args.size() == 2)
    return CompileAtomic(Op::AtomicAdd, 1);
  if (Name == "atomicSub" && Args.size() == 2) {
    Type Pointee = Args[0]->type().pointee();
    compileScalar(Args[0], Args[0]->type());
    compileScalar(Args[1], Pointee);
    emit(Op::NegI);
    emit(Op::AtomicAdd, typeWidth(Pointee), Pointee.isUnsigned() ? 0 : 1);
    return 1;
  }
  if (Name == "atomicMax" && Args.size() == 2)
    return CompileAtomic(Op::AtomicMax, 1);
  if (Name == "atomicMin" && Args.size() == 2)
    return CompileAtomic(Op::AtomicMin, 1);
  if (Name == "atomicExch" && Args.size() == 2)
    return CompileAtomic(Op::AtomicExch, 1);
  if (Name == "atomicOr" && Args.size() == 2)
    return CompileAtomic(Op::AtomicOr, 1);
  if (Name == "atomicAnd" && Args.size() == 2)
    return CompileAtomic(Op::AtomicAnd, 1);
  if (Name == "atomicCAS" && Args.size() == 3)
    return CompileAtomic(Op::AtomicCAS, 2);

  // min/max.
  if ((Name == "min" || Name == "max") && Args.size() == 2) {
    Type OpTy = commonType(Args[0]->type(), Args[1]->type());
    compileScalar(Args[0], OpTy);
    compileScalar(Args[1], OpTy);
    if (isFloatTy(OpTy))
      emit(Op::Math2, (int64_t)(Name == "min" ? MathFn::Fmin : MathFn::Fmax));
    else if (OpTy.isUnsigned())
      emit(Name == "min" ? Op::MinU : Op::MaxU);
    else
      emit(Name == "min" ? Op::MinI : Op::MaxI);
    return 1;
  }
  if ((Name == "fminf" || Name == "fmin") && Args.size() == 2) {
    CompileArgsAsDoubles(2);
    emit(Op::Math2, (int64_t)MathFn::Fmin);
    return 1;
  }
  if ((Name == "fmaxf" || Name == "fmax") && Args.size() == 2) {
    CompileArgsAsDoubles(2);
    emit(Op::Math2, (int64_t)MathFn::Fmax);
    return 1;
  }

  // Math intrinsics.
  static const std::unordered_map<std::string, MathFn> Math1Fns = {
      {"sqrt", MathFn::Sqrt},   {"sqrtf", MathFn::Sqrt},
      {"ceil", MathFn::Ceil},   {"ceilf", MathFn::Ceil},
      {"floor", MathFn::Floor}, {"floorf", MathFn::Floor},
      {"fabs", MathFn::Fabs},   {"fabsf", MathFn::Fabs},
      {"exp", MathFn::Exp},     {"expf", MathFn::Exp},
      {"log", MathFn::Log},     {"logf", MathFn::Log},
      {"tanh", MathFn::Tanh},   {"tanhf", MathFn::Tanh},
  };
  auto MathIt = Math1Fns.find(Name);
  if (MathIt != Math1Fns.end() && Args.size() == 1) {
    CompileArgsAsDoubles(1);
    emit(Op::Math1, (int64_t)MathIt->second);
    if (!Name.empty() && Name.back() == 'f')
      emit(Op::F2Single);
    return 1;
  }
  if ((Name == "pow" || Name == "powf") && Args.size() == 2) {
    CompileArgsAsDoubles(2);
    emit(Op::Math2, (int64_t)MathFn::Pow);
    if (Name.back() == 'f')
      emit(Op::F2Single);
    return 1;
  }

  // CUDA host API.
  if (Name == "cudaMalloc" && Args.size() == 2) {
    compileScalar(Args[0], Type(BuiltinKind::Void, 2));
    compileScalar(Args[1], Type(BuiltinKind::ULong));
    emit(Op::CudaMalloc);
    return 1;
  }
  if (Name == "cudaFree" && Args.size() == 1) {
    compileScalar(Args[0], Type(BuiltinKind::Void, 1));
    emit(Op::CudaFree);
    return 1;
  }
  if (Name == "cudaMemset" && Args.size() == 3) {
    compileScalar(Args[0], Type(BuiltinKind::Void, 1));
    compileScalar(Args[1], Type(BuiltinKind::Int));
    compileScalar(Args[2], Type(BuiltinKind::ULong));
    emit(Op::CudaMemset);
    return 1;
  }
  if (Name == "cudaMemcpy" && Args.size() == 4) {
    compileScalar(Args[0], Type(BuiltinKind::Void, 1));
    compileScalar(Args[1], Type(BuiltinKind::Void, 1));
    compileScalar(Args[2], Type(BuiltinKind::ULong));
    // The direction enum is irrelevant in flat memory; compile and drop.
    if (isa<DeclRefExpr>(Args[3])) {
      emit(Op::PushI, 0);
    } else {
      compileScalar(Args[3], Type(BuiltinKind::Int));
    }
    emit(Op::CudaMemcpy);
    return 1;
  }
  if (Name == "cudaDeviceSynchronize" && Args.empty()) {
    emit(Op::CudaSync);
    emit(Op::PushI, 0);
    return 1;
  }
  if (Name == "printf") {
    // Functional no-op: evaluate and drop the arguments.
    for (const Expr *Arg : Args) {
      unsigned Pushed = compileExpr(Arg);
      for (unsigned I = 0; I < Pushed; ++I)
        emit(Op::Pop);
    }
    emit(Op::PushI, 0);
    return 1;
  }

  // User-defined function.
  auto FnIt = PC.Program.FunctionIndex.find(Name);
  if (FnIt == PC.Program.FunctionIndex.end()) {
    error(Call->loc(), "call to unknown function '" + Name + "'");
    emit(Op::PushI, 0);
    return 1;
  }
  const FuncDef &Callee = PC.Program.Functions[FnIt->second];
  if (Callee.ParamTypes.size() != Args.size()) {
    error(Call->loc(), "function '" + Name + "' expects " +
                           std::to_string(Callee.ParamTypes.size()) +
                           " arguments, got " + std::to_string(Args.size()));
    emit(Op::PushI, 0);
    return 1;
  }
  unsigned ArgSlots = 0;
  for (size_t I = 0; I < Args.size(); ++I) {
    const Type &ParamTy = Callee.ParamTypes[I];
    if (ParamTy.isDim3()) {
      compileDim3(Args[I]);
      ArgSlots += 3;
    } else {
      compileScalar(Args[I], ParamTy);
      ArgSlots += 1;
    }
  }
  emit(Op::Call, FnIt->second, ArgSlots);
  if (!Callee.ReturnsValue)
    emit(Op::PushI, 0);
  return 1;
}

unsigned FunctionCompiler::compileExpr(const Expr *E) {
  switch (E->kind()) {
  case StmtKind::IntegerLit:
    emit(Op::PushI, (int64_t)cast<IntegerLiteral>(E)->value());
    return 1;
  case StmtKind::FloatLit: {
    double D = cast<FloatLiteral>(E)->value();
    if (E->type().kind() == BuiltinKind::Float)
      D = (double)(float)D;
    int64_t Bits;
    __builtin_memcpy(&Bits, &D, 8);
    emit(Op::PushF, Bits);
    return 1;
  }
  case StmtKind::BoolLit:
    emit(Op::PushI, cast<BoolLiteral>(E)->value() ? 1 : 0);
    return 1;
  case StmtKind::StringLit:
    error(E->loc(), "string literals are only supported inside printf");
    emit(Op::PushI, 0);
    return 1;
  case StmtKind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    const VarInfo *Info = lookup(Ref->name());
    if (!Info) {
      auto GlobalIt = PC.Program.GlobalOffsets.find(Ref->name());
      if (GlobalIt != PC.Program.GlobalOffsets.end()) {
        uint64_t Addr = GlobalBase + GlobalIt->second;
        // Whole-array reference decays to its address; scalars load.
        const Decl *GD = nullptr;
        for (const Decl *D : PC.TU->decls())
          if (const auto *V = dyn_cast<VarDecl>(D))
            if (V->name() == Ref->name())
              GD = D;
        const auto *GV = dyn_cast_or_null<VarDecl>(GD);
        if (GV && GV->isArray()) {
          emit(Op::PushI, Addr);
          return 1;
        }
        emit(Op::PushI, Addr);
        emit(loadOp(Ref->type()));
        return 1;
      }
      error(Ref->loc(), "use of undeclared variable '" + Ref->name() + "'");
      emit(Op::PushI, 0);
      return 1;
    }
    switch (Info->Kind) {
    case StorageKind::Slot:
      emit(Op::LoadLocal, Info->Slot);
      return 1;
    case StorageKind::Dim3Slots:
      emit(Op::LoadLocal, Info->Slot + 0);
      emit(Op::LoadLocal, Info->Slot + 1);
      emit(Op::LoadLocal, Info->Slot + 2);
      return 3;
    case StorageKind::FrameScalar:
      emit(Op::FrameAddr, Info->Offset);
      emit(loadOp(Info->Ty));
      return 1;
    case StorageKind::FrameArray:
      emit(Op::FrameAddr, Info->Offset);
      return 1;
    case StorageKind::SharedScalar:
      emit(Op::SharedBase);
      emit(Op::PushI, Info->Offset);
      emit(Op::AddI);
      emit(loadOp(Info->Ty));
      return 1;
    case StorageKind::SharedArray:
      emit(Op::SharedBase);
      emit(Op::PushI, Info->Offset);
      emit(Op::AddI);
      return 1;
    default:
      emit(Op::PushI, 0);
      return 1;
    }
  }
  case StmtKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    // Built-in index variables.
    const Expr *Base = M->base();
    while (const auto *P = dyn_cast<ParenExpr>(Base))
      Base = P->inner();
    if (const auto *Ref = dyn_cast<DeclRefExpr>(Base)) {
      int Builtin = -1;
      if (Ref->name() == "threadIdx")
        Builtin = 0;
      else if (Ref->name() == "blockIdx")
        Builtin = 1;
      else if (Ref->name() == "blockDim")
        Builtin = 2;
      else if (Ref->name() == "gridDim")
        Builtin = 3;
      if (Builtin >= 0 && !lookup(Ref->name())) {
        int Comp = M->member() == "x" ? 0 : M->member() == "y" ? 1 : 2;
        emit(Op::SReg, Builtin * 4 + Comp);
        return 1;
      }
      // dim3 local component.
      const VarInfo *Info = lookup(Ref->name());
      if (Info && Info->Kind == StorageKind::Dim3Slots) {
        int Comp = M->member() == "x" ? 0 : M->member() == "y" ? 1 : 2;
        emit(Op::LoadLocal, Info->Slot + Comp);
        return 1;
      }
    }
    error(M->loc(), "unsupported member access '." + M->member() + "'");
    emit(Op::PushI, 0);
    return 1;
  }
  case StmtKind::ArraySubscript: {
    std::optional<LValue> LV = compileLValue(E);
    if (!LV)
      return 1;
    loadFromLValue(*LV);
    return 1;
  }
  case StmtKind::Call:
    return compileCall(cast<CallExpr>(E));
  case StmtKind::Launch:
    compileLaunch(cast<LaunchExpr>(E));
    emit(Op::PushI, 0);
    return 1;
  case StmtKind::Unary: {
    const auto *U = cast<UnaryOperator>(E);
    switch (U->op()) {
    case UnaryOpKind::Plus:
      return compileExpr(U->operand());
    case UnaryOpKind::Minus:
      compileScalar(U->operand(), U->type());
      emit(isFloatTy(U->type()) ? Op::NegF : Op::NegI);
      if (!isFloatTy(U->type()))
        normalizeInt(U->type());
      return 1;
    case UnaryOpKind::Not:
      compileScalar(U->operand(), Type(BuiltinKind::Int));
      emit(Op::LogicalNot);
      return 1;
    case UnaryOpKind::BitNot:
      compileScalar(U->operand(), U->type());
      emit(Op::BitNot);
      normalizeInt(U->type());
      return 1;
    case UnaryOpKind::PreInc:
    case UnaryOpKind::PreDec:
    case UnaryOpKind::PostInc:
    case UnaryOpKind::PostDec:
      compileIncDec(U, /*WantValue=*/true);
      return 1;
    case UnaryOpKind::Deref: {
      std::optional<LValue> LV = compileLValue(E);
      if (!LV)
        return 1;
      loadFromLValue(*LV);
      return 1;
    }
    case UnaryOpKind::AddrOf: {
      const Expr *Operand = U->operand();
      while (const auto *P = dyn_cast<ParenExpr>(Operand))
        Operand = P->inner();
      std::optional<LValue> LV = compileLValue(Operand);
      if (!LV)
        return 1;
      if (LV->IsSlot) {
        error(E->loc(), "cannot take the address of a register local");
        emit(Op::PushI, 0);
        return 1;
      }
      // Address already on the stack.
      return 1;
    }
    }
    return 1;
  }
  case StmtKind::Binary:
    compileBinary(cast<BinaryOperator>(E));
    return 1;
  case StmtKind::Conditional: {
    const auto *C = cast<ConditionalOperator>(E);
    compileScalar(C->cond(), Type(BuiltinKind::Int));
    unsigned JumpElse = emit(Op::JmpIfZero);
    compileScalar(C->trueExpr(), C->type());
    unsigned JumpEnd = emit(Op::Jmp);
    patch(JumpElse, here());
    compileScalar(C->falseExpr(), C->type());
    patch(JumpEnd, here());
    return 1;
  }
  case StmtKind::Cast: {
    const auto *Cast_ = cast<CastExpr>(E);
    compileScalar(Cast_->operand(), Cast_->type());
    return 1;
  }
  case StmtKind::Paren:
    return compileExpr(cast<ParenExpr>(E)->inner());
  case StmtKind::SizeofE:
    emit(Op::PushI, typeWidth(cast<SizeofExpr>(E)->queriedType()));
    return 1;
  default:
    error(E->loc(), "unsupported expression in VM compilation");
    emit(Op::PushI, 0);
    return 1;
  }
}

} // namespace

VmProgram dpo::compileProgram(const TranslationUnit *TU,
                              DiagnosticEngine &Diags,
                              const VmCompileOptions &Opts) {
  ProgramCompiler PC(TU, Diags);
  VmProgram Program = PC.compile();
  if (!Diags.hasErrors() && Opts.OptimizeBytecode)
    optimizeProgram(Program);
  return Program;
}
