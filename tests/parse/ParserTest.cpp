//===--- ParserTest.cpp - Unit tests for the parser --------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"

#include "ast/ASTPrinter.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace dpo;

namespace {

class ParserTest : public ::testing::Test {
protected:
  ASTContext Ctx;
  DiagnosticEngine Diags;

  TranslationUnit *parse(std::string_view Source) {
    TranslationUnit *TU = parseSource(Source, Ctx, Diags);
    EXPECT_NE(TU, nullptr) << Diags.str();
    return TU;
  }

  Expr *expr(std::string_view Source) {
    Expr *E = parseExprSource(Source, Ctx, Diags);
    EXPECT_NE(E, nullptr) << Diags.str();
    return E;
  }
};

TEST_F(ParserTest, EmptyTranslationUnit) {
  TranslationUnit *TU = parse("");
  EXPECT_TRUE(TU->decls().empty());
}

TEST_F(ParserTest, GlobalVariable) {
  TranslationUnit *TU = parse("int counter = 5;");
  ASSERT_EQ(TU->decls().size(), 1u);
  auto *Var = dyn_cast<VarDecl>(TU->decls()[0]);
  ASSERT_NE(Var, nullptr);
  EXPECT_EQ(Var->name(), "counter");
  ASSERT_NE(Var->init(), nullptr);
  EXPECT_EQ(cast<IntegerLiteral>(Var->init())->value(), 5u);
}

TEST_F(ParserTest, SimpleKernel) {
  TranslationUnit *TU = parse(R"(
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) data[i] += 1;
}
)");
  auto Kernels = TU->kernels();
  ASSERT_EQ(Kernels.size(), 1u);
  FunctionDecl *F = Kernels[0];
  EXPECT_EQ(F->name(), "child");
  EXPECT_TRUE(F->qualifiers().Global);
  ASSERT_EQ(F->params().size(), 2u);
  EXPECT_EQ(F->params()[0]->name(), "data");
  EXPECT_EQ(F->params()[0]->type().pointerDepth(), 1u);
  EXPECT_EQ(F->params()[1]->name(), "n");
  ASSERT_NE(F->body(), nullptr);
  EXPECT_EQ(F->body()->body().size(), 2u);
}

TEST_F(ParserTest, DeviceFunction) {
  TranslationUnit *TU = parse("__device__ int square(int x) { return x * x; }");
  auto *F = TU->findFunction("square");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->qualifiers().Device);
  EXPECT_FALSE(F->qualifiers().Global);
}

TEST_F(ParserTest, Prototype) {
  TranslationUnit *TU = parse("__global__ void child(int *data, int n);");
  auto *F = TU->findFunction("child");
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->isDefinition());
}

TEST_F(ParserTest, PreprocessorPassThrough) {
  TranslationUnit *TU = parse("#include <cstdio>\nint x;");
  ASSERT_EQ(TU->decls().size(), 2u);
  auto *Raw = dyn_cast<RawDecl>(TU->decls()[0]);
  ASSERT_NE(Raw, nullptr);
  EXPECT_EQ(Raw->text(), "#include <cstdio>");
}

TEST_F(ParserTest, LaunchStatement) {
  TranslationUnit *TU = parse(R"(
__global__ void child(int *d) { d[threadIdx.x] = 1; }
__global__ void parent(int *d, int n) {
  child<<<(n + 255) / 256, 256>>>(d);
}
)");
  auto *Parent = TU->findFunction("parent");
  ASSERT_NE(Parent, nullptr);
  ASSERT_EQ(Parent->body()->body().size(), 1u);
  auto *L = dyn_cast<LaunchExpr>(Parent->body()->body()[0]);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->kernel(), "child");
  EXPECT_EQ(L->args().size(), 1u);
  EXPECT_EQ(L->sharedMem(), nullptr);
  EXPECT_EQ(L->stream(), nullptr);
}

TEST_F(ParserTest, LaunchWithSmemAndStream) {
  TranslationUnit *TU = parse(R"(
__global__ void child(int *d) { d[0] = 1; }
__global__ void parent(int *d) {
  child<<<1, 32, 128, 0>>>(d);
}
)");
  auto *Parent = TU->findFunction("parent");
  auto *L = dyn_cast<LaunchExpr>(Parent->body()->body()[0]);
  ASSERT_NE(L, nullptr);
  ASSERT_NE(L->sharedMem(), nullptr);
  ASSERT_NE(L->stream(), nullptr);
}

TEST_F(ParserTest, Dim3Constructor) {
  TranslationUnit *TU = parse(R"(
__global__ void parent(int n) {
  dim3 grid((n + 31) / 32, 1, 1);
  dim3 block = dim3(32, 1, 1);
}
)");
  auto *Parent = TU->findFunction("parent");
  auto *DS = dyn_cast<DeclStmt>(Parent->body()->body()[0]);
  ASSERT_NE(DS, nullptr);
  VarDecl *Grid = DS->singleDecl();
  ASSERT_NE(Grid, nullptr);
  EXPECT_TRUE(Grid->type().isDim3());
  ASSERT_NE(Grid->init(), nullptr);
  auto *Call = dyn_cast<CallExpr>(Grid->init());
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->calleeName(), "dim3");
  EXPECT_EQ(Call->args().size(), 3u);
}

TEST_F(ParserTest, SharedMemoryDecl) {
  TranslationUnit *TU = parse(R"(
__global__ void k() {
  __shared__ int buffer[256];
  buffer[threadIdx.x] = 0;
}
)");
  auto *K = TU->findFunction("k");
  auto *DS = dyn_cast<DeclStmt>(K->body()->body()[0]);
  ASSERT_NE(DS, nullptr);
  VarDecl *Buf = DS->singleDecl();
  ASSERT_NE(Buf, nullptr);
  EXPECT_TRUE(Buf->isShared());
  ASSERT_EQ(Buf->arrayDims().size(), 1u);
  EXPECT_EQ(cast<IntegerLiteral>(Buf->arrayDims()[0])->value(), 256u);
}

TEST_F(ParserTest, ForLoop) {
  TranslationUnit *TU = parse(R"(
__device__ int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; ++i) s += a[i];
  return s;
}
)");
  auto *F = TU->findFunction("sum");
  auto *For = dyn_cast<ForStmt>(F->body()->body()[1]);
  ASSERT_NE(For, nullptr);
  EXPECT_NE(For->init(), nullptr);
  EXPECT_NE(For->cond(), nullptr);
  EXPECT_NE(For->inc(), nullptr);
}

TEST_F(ParserTest, WhileAndDoLoops) {
  TranslationUnit *TU = parse(R"(
__device__ void spin(int n) {
  while (n > 0) n--;
  do { n++; } while (n < 10);
}
)");
  auto *F = TU->findFunction("spin");
  EXPECT_TRUE(isa<WhileStmt>(F->body()->body()[0]));
  EXPECT_TRUE(isa<DoStmt>(F->body()->body()[1]));
}

TEST_F(ParserTest, MultiDeclarator) {
  TranslationUnit *TU = parse("__device__ void f() { int a = 1, b = 2, c; }");
  auto *F = TU->findFunction("f");
  auto *DS = dyn_cast<DeclStmt>(F->body()->body()[0]);
  ASSERT_NE(DS, nullptr);
  ASSERT_EQ(DS->decls().size(), 3u);
  EXPECT_EQ(DS->decls()[0]->name(), "a");
  EXPECT_EQ(DS->decls()[2]->name(), "c");
  EXPECT_EQ(DS->decls()[2]->init(), nullptr);
}

TEST_F(ParserTest, PointerDeclarators) {
  TranslationUnit *TU = parse("__device__ void f(int *p, int **pp) {}");
  auto *F = TU->findFunction("f");
  EXPECT_EQ(F->params()[0]->type().pointerDepth(), 1u);
  EXPECT_EQ(F->params()[1]->type().pointerDepth(), 2u);
}

// Expression-level tests.

TEST_F(ParserTest, PrecedenceMulOverAdd) {
  Expr *E = expr("a + b * c");
  auto *Add = dyn_cast<BinaryOperator>(E);
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->op(), BinaryOpKind::Add);
  auto *Mul = dyn_cast<BinaryOperator>(Add->rhs());
  ASSERT_NE(Mul, nullptr);
  EXPECT_EQ(Mul->op(), BinaryOpKind::Mul);
}

TEST_F(ParserTest, LeftAssociativity) {
  Expr *E = expr("a - b - c");
  auto *Outer = dyn_cast<BinaryOperator>(E);
  ASSERT_NE(Outer, nullptr);
  auto *Inner = dyn_cast<BinaryOperator>(Outer->lhs());
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(cast<DeclRefExpr>(Inner->lhs())->name(), "a");
  EXPECT_EQ(cast<DeclRefExpr>(Outer->rhs())->name(), "c");
}

TEST_F(ParserTest, AssignmentRightAssociative) {
  Expr *E = expr("a = b = c");
  auto *Outer = dyn_cast<BinaryOperator>(E);
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->op(), BinaryOpKind::Assign);
  auto *Inner = dyn_cast<BinaryOperator>(Outer->rhs());
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->op(), BinaryOpKind::Assign);
}

TEST_F(ParserTest, TernaryExpression) {
  Expr *E = expr("a ? b : c ? d : e");
  auto *Outer = dyn_cast<ConditionalOperator>(E);
  ASSERT_NE(Outer, nullptr);
  // Right-associative: `a ? b : (c ? d : e)`.
  EXPECT_TRUE(isa<ConditionalOperator>(Outer->falseExpr()));
}

TEST_F(ParserTest, CeilingDivisionPatternA) {
  Expr *E = expr("(N - 1) / b + 1");
  auto *Add = dyn_cast<BinaryOperator>(E);
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->op(), BinaryOpKind::Add);
  auto *Div = dyn_cast<BinaryOperator>(Add->lhs());
  ASSERT_NE(Div, nullptr);
  EXPECT_EQ(Div->op(), BinaryOpKind::Div);
}

TEST_F(ParserTest, CastExpression) {
  Expr *E = expr("(float)n / b");
  auto *Div = dyn_cast<BinaryOperator>(E);
  ASSERT_NE(Div, nullptr);
  auto *Cast = dyn_cast<CastExpr>(Div->lhs());
  ASSERT_NE(Cast, nullptr);
  EXPECT_EQ(Cast->type().kind(), BuiltinKind::Float);
}

TEST_F(ParserTest, CastOfPointer) {
  Expr *E = expr("(int *)p");
  auto *Cast = dyn_cast<CastExpr>(E);
  ASSERT_NE(Cast, nullptr);
  EXPECT_EQ(Cast->type().pointerDepth(), 1u);
}

TEST_F(ParserTest, UnaryOperators) {
  Expr *E = expr("-x + !y + ~z + *p + &q");
  EXPECT_NE(E, nullptr);
  Expr *Neg = expr("- -x");
  auto *U = dyn_cast<UnaryOperator>(Neg);
  ASSERT_NE(U, nullptr);
  EXPECT_TRUE(isa<UnaryOperator>(U->operand()));
}

TEST_F(ParserTest, PostfixOperators) {
  Expr *E = expr("a[i]++");
  auto *U = dyn_cast<UnaryOperator>(E);
  ASSERT_NE(U, nullptr);
  EXPECT_EQ(U->op(), UnaryOpKind::PostInc);
  EXPECT_TRUE(isa<ArraySubscriptExpr>(U->operand()));
}

TEST_F(ParserTest, MemberChain) {
  Expr *E = expr("blockIdx.x");
  auto *M = dyn_cast<MemberExpr>(E);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->member(), "x");
  EXPECT_EQ(cast<DeclRefExpr>(M->base())->name(), "blockIdx");
  // Built-in index variables type as unsigned.
  EXPECT_EQ(M->type().kind(), BuiltinKind::UInt);
}

TEST_F(ParserTest, CallWithArgs) {
  Expr *E = expr("min(a, b)");
  auto *Call = dyn_cast<CallExpr>(E);
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->calleeName(), "min");
  EXPECT_EQ(Call->args().size(), 2u);
}

TEST_F(ParserTest, CommaOperator) {
  Expr *E = expr("a = 1, b = 2");
  auto *Comma = dyn_cast<BinaryOperator>(E);
  ASSERT_NE(Comma, nullptr);
  EXPECT_EQ(Comma->op(), BinaryOpKind::Comma);
}

TEST_F(ParserTest, SizeofType) {
  Expr *E = expr("sizeof(unsigned int)");
  auto *S = dyn_cast<SizeofExpr>(E);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->queriedType().kind(), BuiltinKind::UInt);
}

// Type propagation tests (the bytecode compiler depends on these).

TEST_F(ParserTest, TypeOfFloatArith) {
  Expr *E = expr("1.0f + 2");
  EXPECT_EQ(E->type().kind(), BuiltinKind::Float);
}

TEST_F(ParserTest, TypeOfDoubleArith) {
  Expr *E = expr("1.0 + 2.0f");
  EXPECT_EQ(E->type().kind(), BuiltinKind::Double);
}

TEST_F(ParserTest, TypeOfComparison) {
  Expr *E = expr("1.5 < 2.5");
  EXPECT_EQ(E->type().kind(), BuiltinKind::Int);
}

TEST_F(ParserTest, TypeOfCeilCall) {
  Expr *E = expr("ceil((float)n / b)");
  EXPECT_EQ(E->type().kind(), BuiltinKind::Double);
}

// [lex.icon]: a literal takes the first type of its list that holds it.
TEST_F(ParserTest, TypeOfIntegerLiteralFollowsItsValue) {
  const std::pair<const char *, BuiltinKind> Cases[] = {
      {"2147483647", BuiltinKind::Int},
      {"2147483648", BuiltinKind::Long},
      {"4294967295", BuiltinKind::Long},
      {"0x7fffffff", BuiltinKind::Int},
      {"0xffffffff", BuiltinKind::UInt},
      {"037777777777", BuiltinKind::UInt},
      {"0x100000000", BuiltinKind::Long},
      {"0xffffffffffffffff", BuiltinKind::ULong},
      {"0", BuiltinKind::Int},
      {"0u", BuiltinKind::UInt},
      {"4294967295u", BuiltinKind::UInt},
      {"4294967296u", BuiltinKind::ULong},
      {"5l", BuiltinKind::Long},
      {"5ul", BuiltinKind::ULong},
      {"5ll", BuiltinKind::LongLong},
      {"0xffffffffffffffffll", BuiltinKind::ULongLong},
      {"'a'", BuiltinKind::Char},
  };
  for (const auto &[Spelling, Kind] : Cases)
    EXPECT_EQ(expr(Spelling)->type().kind(), Kind) << Spelling;
}

TEST_F(ParserTest, WideDecimalLiteralPromotesArithmetic) {
  // `unsigned g` meets a long literal: the division is done in long, so
  // the ceiling of 5 / 4294967295 is 1, not 5 / -1.
  TranslationUnit *TU = parse(R"(
__global__ void k(unsigned g, long *out) {
  out[0] = (g + 4294967295 - 1) / 4294967295;
}
)");
  auto *Assign = cast<BinaryOperator>(
      TU->findFunction("k")->body()->body()[0]);
  EXPECT_EQ(Assign->rhs()->type().kind(), BuiltinKind::Long);
}

TEST_F(ParserTest, ParamTypesVisibleInBody) {
  TranslationUnit *TU = parse(R"(
__global__ void k(float *data, int n) {
  data[n] = data[n] * 2.0f;
}
)");
  auto *K = TU->findFunction("k");
  // The assignment statement's LHS subscript has type float.
  auto *Assign = dyn_cast<BinaryOperator>(K->body()->body()[0]);
  ASSERT_NE(Assign, nullptr);
  EXPECT_EQ(Assign->lhs()->type().kind(), BuiltinKind::Float);
}

// Error handling.

TEST_F(ParserTest, MissingSemicolonIsError) {
  DiagnosticEngine LocalDiags;
  ASTContext LocalCtx;
  EXPECT_EQ(parseSource("__device__ void f() { int a = 1 }", LocalCtx,
                        LocalDiags),
            nullptr);
  EXPECT_TRUE(LocalDiags.hasErrors());
}

TEST_F(ParserTest, UnclosedBraceIsError) {
  DiagnosticEngine LocalDiags;
  ASTContext LocalCtx;
  EXPECT_EQ(parseSource("__device__ void f() { if (x) {", LocalCtx,
                        LocalDiags),
            nullptr);
  EXPECT_TRUE(LocalDiags.hasErrors());
}

TEST_F(ParserTest, LaunchMissingConfigIsError) {
  DiagnosticEngine LocalDiags;
  ASTContext LocalCtx;
  EXPECT_EQ(parseSource("__global__ void p() { child<<<1>>>(); }", LocalCtx,
                        LocalDiags),
            nullptr);
  EXPECT_TRUE(LocalDiags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Nesting limit: deep input ends in one located diagnostic, never a crash.
//===----------------------------------------------------------------------===//

std::string repeat(std::string_view Piece, size_t N) {
  std::string Out;
  Out.reserve(Piece.size() * N);
  for (size_t I = 0; I < N; ++I)
    Out += Piece;
  return Out;
}

/// A kernel whose second line declares y initialised by \p Init.
std::string withInit(const std::string &Init) {
  return "__global__ void k(int *a, int x) {\n  int y = " + Init + ";\n}\n";
}

/// Every shape the limit covers: recursion through brackets, operands and
/// statements, and the left folds of operator chains. The first four
/// overflowed the stack before the limit existed.
struct NestingShape {
  const char *Name;
  std::string (*Build)(size_t N);
};

// Print the name: the struct's bytes hold pointers, unstable in test names.
void PrintTo(const NestingShape &S, std::ostream *OS) { *OS << S.Name; }

const NestingShape NestingShapes[] = {
    {"parens",
     [](size_t N) {
       return withInit(std::string(N, '(') + "1" + std::string(N, ')'));
     }},
    {"sum", [](size_t N) { return withInit("1" + repeat("+1", N - 1)); }},
    {"negations", [](size_t N) { return withInit(repeat("- ", N) + "1"); }},
    {"blocks",
     [](size_t N) {
       return "__global__ void k() " + repeat("{", N) + repeat("}", N) + "\n";
     }},
    {"assignments",
     [](size_t N) { return withInit(repeat("x = ", N) + "1"); }},
    {"conditionals",
     [](size_t N) { return withInit(repeat("x ? 1 : ", N) + "1"); }},
    {"casts", [](size_t N) { return withInit(repeat("(int)", N) + "x"); }},
    {"calls", [](size_t N) {
       return withInit(repeat("f(", N) + "1" + std::string(N, ')'));
     }},
    {"subscripts", [](size_t N) { return withInit("a" + repeat("[0]", N)); }},
    {"increments",
     [](size_t N) { return withInit("a[0]" + repeat("++ ", N)); }},
    {"commas",
     [](size_t N) { return withInit("(1" + repeat(", 1", N) + ")"); }},
    {"ifs", [](size_t N) {
       return "__global__ void k(int x) {\n" + repeat("if (x) ", N) + ";\n}\n";
     }},
};

class ParserNestingTest : public ::testing::TestWithParam<NestingShape> {};

TEST_P(ParserNestingTest, HundredThousandLevelsEndInOneLocatedDiagnostic) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  EXPECT_EQ(parseSource(GetParam().Build(100000), Ctx, Diags), nullptr);
  ASSERT_EQ(Diags.errorCount(), 1u) << Diags.str().substr(0, 2000);
  const Diagnostic &D = Diags.diagnostics().front();
  EXPECT_NE(D.Message.find("nesting exceeds the parser limit of 256"),
            std::string::npos)
      << D.Message;
  EXPECT_TRUE(D.Loc.isValid());
}

TEST_P(ParserNestingTest, TwoHundredLevelsStillParse) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  EXPECT_NE(parseSource(GetParam().Build(200), Ctx, Diags), nullptr)
      << Diags.str();
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParserNestingTest,
                         ::testing::ValuesIn(NestingShapes),
                         ::testing::PrintToStringParamName());

} // namespace
