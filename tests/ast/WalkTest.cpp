//===--- WalkTest.cpp - Traversal/rewrite/clone/equivalence tests -------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ast/Walk.h"

#include "ast/ASTPrinter.h"
#include "ast/Clone.h"
#include "ast/Equivalence.h"
#include "parse/Parser.h"
#include "support/Casting.h"
#include "workloads/KernelSources.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace dpo;

namespace {

/// One token per node: its kind, with a DeclRef's name or a member's field.
std::string token(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Compound: return "{}";
  case StmtKind::DeclS: return "decl";
  case StmtKind::If: return "if";
  case StmtKind::For: return "for";
  case StmtKind::While: return "while";
  case StmtKind::Do: return "do";
  case StmtKind::Return: return "return";
  case StmtKind::Break: return "break";
  case StmtKind::Continue: return "continue";
  case StmtKind::Null: return ";";
  case StmtKind::IntegerLit: return "int";
  case StmtKind::FloatLit: return "float";
  case StmtKind::BoolLit: return "bool";
  case StmtKind::StringLit: return "str";
  case StmtKind::DeclRef: return cast<DeclRefExpr>(S)->name();
  case StmtKind::Member: return "." + cast<MemberExpr>(S)->member();
  case StmtKind::ArraySubscript: return "[]";
  case StmtKind::Call: return "call";
  case StmtKind::Unary: return "unary";
  case StmtKind::Binary: return "bin";
  case StmtKind::Conditional: return "?:";
  case StmtKind::Cast: return "cast";
  case StmtKind::Paren: return "()";
  case StmtKind::SizeofE: return "sizeof";
  case StmtKind::Launch: return "<<<>>>";
  }
  return "?";
}

/// Appends \p S's token to \p Out, space-separated.
void append(std::string &Out, const Stmt *S) {
  if (!Out.empty())
    Out += ' ';
  Out += token(S);
}

class WalkTest : public ::testing::Test {
protected:
  ASTContext Ctx;
  DiagnosticEngine Diags;

  FunctionDecl *parseFunction(std::string_view Source,
                              const std::string &Name) {
    TranslationUnit *TU = parseSource(Source, Ctx, Diags);
    EXPECT_NE(TU, nullptr) << Diags.str();
    if (!TU)
      return nullptr;
    FunctionDecl *F = TU->findFunction(Name);
    EXPECT_NE(F, nullptr);
    return F;
  }
};

TEST_F(WalkTest, CountsAllDeclRefs) {
  FunctionDecl *F = parseFunction(R"(
__global__ void k(int *d, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) d[i] = i + n;
}
)",
                                  "k");
  int Count = 0;
  forEachExpr(F->body(), [&](Expr *E) {
    if (isa<DeclRefExpr>(E))
      ++Count;
  });
  // blockIdx, blockDim, threadIdx, i, n, d, i, i, n.
  EXPECT_EQ(Count, 9);
}

TEST_F(WalkTest, VisitsLaunchOperands) {
  FunctionDecl *F = parseFunction(R"(
__global__ void c(int *d) { d[0] = 1; }
__global__ void p(int *d, int n) {
  c<<<(n + 31) / 32, 32>>>(d);
}
)",
                                  "p");
  bool SawGridN = false;
  int LaunchCount = 0;
  forEachExpr(F->body(), [&](Expr *E) {
    if (isa<LaunchExpr>(E))
      ++LaunchCount;
    if (auto *Ref = dyn_cast<DeclRefExpr>(E))
      if (Ref->name() == "n")
        SawGridN = true;
  });
  EXPECT_EQ(LaunchCount, 1);
  EXPECT_TRUE(SawGridN);
}

TEST_F(WalkTest, VisitsDeclInitializers) {
  FunctionDecl *F = parseFunction(
      "__device__ void f() { int a = 1 + 2; int buf[7]; }", "f");
  int Literals = 0;
  forEachExpr(F->body(), [&](Expr *E) {
    if (isa<IntegerLiteral>(E))
      ++Literals;
  });
  EXPECT_EQ(Literals, 3); // 1, 2, 7
}

TEST_F(WalkTest, RewriteRenamesVariable) {
  FunctionDecl *F = parseFunction(R"(
__device__ void f(int x) {
  int y = x + 1;
  y = y * x;
}
)",
                                  "f");
  rewriteExprs(F->body(), [&](Expr *E) -> Expr * {
    if (auto *Ref = dyn_cast<DeclRefExpr>(E))
      if (Ref->name() == "x")
        return Ctx.ref("renamed");
    return nullptr;
  });
  int Renamed = 0, Original = 0;
  forEachExpr(F->body(), [&](Expr *E) {
    if (auto *Ref = dyn_cast<DeclRefExpr>(E)) {
      if (Ref->name() == "renamed")
        ++Renamed;
      if (Ref->name() == "x")
        ++Original;
    }
  });
  EXPECT_EQ(Renamed, 2);
  EXPECT_EQ(Original, 0);
}

TEST_F(WalkTest, RewriteReplacesMemberExpr) {
  FunctionDecl *F = parseFunction(R"(
__global__ void k(int *d) {
  d[blockIdx.x] = blockIdx.x + 1;
}
)",
                                  "k");
  // blockIdx.x -> _bx, the exact rewrite thresholding performs.
  rewriteExprs(F->body(), [&](Expr *E) -> Expr * {
    auto *M = dyn_cast<MemberExpr>(E);
    if (!M || M->member() != "x")
      return nullptr;
    auto *Base = dyn_cast<DeclRefExpr>(M->base());
    if (!Base || Base->name() != "blockIdx")
      return nullptr;
    return Ctx.ref("_bx");
  });
  std::string Text = printStmt(F->body());
  EXPECT_EQ(Text.find("blockIdx"), std::string::npos) << Text;
  EXPECT_NE(Text.find("d[_bx] = _bx + 1;"), std::string::npos) << Text;
}

TEST_F(WalkTest, RewriteStmtsReplacesLaunchStatement) {
  FunctionDecl *F = parseFunction(R"(
__global__ void c(int *d) { d[0] = 1; }
__global__ void p(int *d, int n) {
  if (n > 0)
    c<<<n, 32>>>(d);
}
)",
                                  "p");
  rewriteStmts(F->body(), [&](Stmt *S) -> Stmt * {
    if (!isa<LaunchExpr>(S))
      return nullptr;
    return Ctx.create<NullStmt>();
  });
  int Launches = 0;
  forEachExpr(F->body(), [&](Expr *E) {
    if (isa<LaunchExpr>(E))
      ++Launches;
  });
  EXPECT_EQ(Launches, 0);
}

TEST_F(WalkTest, CloneIsDeepAndEqual) {
  FunctionDecl *F = parseFunction(R"(
__global__ void k(int *d, int n) {
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0)
      d[i] = i;
    else
      d[i] = -i;
  }
}
)",
                                  "k");
  Stmt *Copy = cloneStmt(Ctx, F->body());
  EXPECT_TRUE(structurallyEqual(F->body(), Copy));
  EXPECT_NE(static_cast<Stmt *>(F->body()), Copy);

  // Mutating the clone must not affect the original.
  rewriteExprs(Copy, [&](Expr *E) -> Expr * {
    if (auto *Ref = dyn_cast<DeclRefExpr>(E))
      if (Ref->name() == "d")
        return Ctx.ref("other");
    return nullptr;
  });
  EXPECT_FALSE(structurallyEqual(F->body(), Copy));
  std::string Original = printStmt(F->body());
  EXPECT_NE(Original.find("d[i] = i;"), std::string::npos);
}

TEST_F(WalkTest, CloneFunctionPreservesSignature) {
  FunctionDecl *F = parseFunction(
      "__global__ void k(float *data, int n) { data[n] = 1.0f; }", "k");
  FunctionDecl *Copy = cloneFunction(Ctx, F);
  EXPECT_TRUE(structurallyEqual(F, Copy));
  Copy->setName("k_clone");
  EXPECT_FALSE(structurallyEqual(F, Copy));
}

TEST_F(WalkTest, EquivalenceIgnoresParens) {
  DiagnosticEngine D2;
  Expr *A = parseExprSource("a + b * c", Ctx, D2);
  Expr *B = parseExprSource("a + (b * c)", Ctx, D2);
  Expr *C = parseExprSource("(a + b) * c", Ctx, D2);
  ASSERT_TRUE(A && B && C);
  EXPECT_TRUE(structurallyEqual(A, B));
  EXPECT_FALSE(structurallyEqual(A, C));
}

TEST_F(WalkTest, EquivalenceIgnoresLiteralSpelling) {
  DiagnosticEngine D2;
  Expr *A = parseExprSource("x & 0xFF", Ctx, D2);
  Expr *B = parseExprSource("x & 255", Ctx, D2);
  ASSERT_TRUE(A && B);
  EXPECT_TRUE(structurallyEqual(A, B));
}

TEST_F(WalkTest, RewriteStmtsDoesNotTouchNestedExprLaunch) {
  // A launch below an expression (not statement position) must not be
  // visited by rewriteStmts.
  FunctionDecl *F = parseFunction(R"(
__global__ void c(int *d) { d[0] = 1; }
__global__ void p(int *d) {
  c<<<1, 1>>>(d);
}
)",
                                  "p");
  int Visited = 0;
  rewriteStmts(F->body(), [&](Stmt *S) -> Stmt * {
    if (isa<LaunchExpr>(S))
      ++Visited;
    return nullptr;
  });
  EXPECT_EQ(Visited, 1);
}

// The pre-order visit sequence over a corpus parent: parents before
// children, children in source order, DeclStmt initializers and every
// launch operand included.
TEST_F(WalkTest, PreOrderSequenceOnCorpusParent) {
  FunctionDecl *F =
      parseFunction(kernelSourceFor(BenchmarkId::BFS), "parent");
  ASSERT_NE(F, nullptr);
  std::string Stmts, Exprs, ExprsOfStmts;
  forEachStmt(F->body(), [&](Stmt *S) {
    append(Stmts, S);
    if (isa<Expr>(S))
      append(ExprsOfStmts, S);
  });
  forEachExpr(F->body(), [&](Expr *E) { append(Exprs, E); });
  EXPECT_EQ(Stmts,
            "{} decl bin bin .x blockIdx .x blockDim .x threadIdx "
            "if bin v numF {} "
            "decl [] frontier v "
            "decl bin [] rowptr bin u int [] rowptr u "
            "if bin count int {} "
            "<<<>>> bin () bin count int int int "
            "col levels next nextSize [] rowptr u count depth");
  EXPECT_EQ(Exprs, ExprsOfStmts);
}

// Array dimensions of a declaration are walked after its initializer, and
// a launch's operands in order: grid, block, shared memory, stream, then
// the arguments.
TEST_F(WalkTest, WalksCoverArrayDimsAndEveryLaunchOperand) {
  FunctionDecl *Child = parseFunction(sharedChildProbeSource(), "child");
  ASSERT_NE(Child, nullptr);
  std::string Decl;
  forEachStmt(Child->body(), [&](Stmt *S) {
    if (isa<DeclStmt>(S) && Decl.empty())
      forEachStmt(S, [&](Stmt *Node) { append(Decl, Node); });
  });
  EXPECT_EQ(Decl, "decl int");

  FunctionDecl *F = parseFunction(R"(
__global__ void c(int *d, int n) { d[0] = n; }
__global__ void p(int *d, int g, int b, int smem, int strm, int n) {
  c<<<g, b, smem, strm>>>(d, n);
}
)",
                                  "p");
  ASSERT_NE(F, nullptr);
  std::string Launch;
  forEachExpr(F->body(), [&](Expr *E) {
    if (isa<LaunchExpr>(E))
      forEachExpr(E, [&](Expr *Node) { append(Launch, Node); });
  });
  EXPECT_EQ(Launch, "<<<>>> g b smem strm d n");
}

// rewriteStmts visits statement slots only, children first: an expression
// statement is a slot, but nothing inside an expression is.
TEST_F(WalkTest, RewriteStmtsNeverDescendsIntoExpressions) {
  FunctionDecl *F = parseFunction(kernelSourceFor(BenchmarkId::BFS), "child");
  ASSERT_NE(F, nullptr);
  std::string Visited;
  rewriteStmts(F->body(), [&](Stmt *S) -> Stmt * {
    append(Visited, S);
    return nullptr;
  });
  // decl i; if (i < count) { decl n; if (...) { next[...] = n; } }: the
  // assignment is the one expression visited; the atomics inside it and
  // inside the condition are not.
  EXPECT_EQ(Visited, "decl decl bin {} if {} if");
}

// A const root selects the const overloads, so callbacks see const nodes;
// a mutable root selects the mutable ones.
TEST_F(WalkTest, ConstRootsChooseConstOverloads) {
  FunctionDecl *F =
      parseFunction(kernelSourceFor(BenchmarkId::BFS), "parent");
  ASSERT_NE(F, nullptr);
  Stmt *Mutable = F->body();
  const Stmt *Const = F->body();
  auto ConstNodes = [](auto *Root, bool Exprs) {
    unsigned Const = 0, Total = 0;
    auto Note = [&](auto *Node) {
      Const += std::is_const_v<std::remove_pointer_t<decltype(Node)>>;
      ++Total;
    };
    if (Exprs)
      forEachExpr(Root, Note);
    else
      forEachStmt(Root, Note);
    return std::make_pair(Const, Total);
  };
  for (bool Exprs : {false, true}) {
    auto [MutConst, MutTotal] = ConstNodes(Mutable, Exprs);
    auto [ConstConst, ConstTotal] = ConstNodes(Const, Exprs);
    EXPECT_EQ(MutConst, 0u);
    EXPECT_EQ(ConstConst, ConstTotal);
    EXPECT_EQ(MutTotal, ConstTotal);
    EXPECT_GT(ConstTotal, 0u);
  }
}

} // namespace
