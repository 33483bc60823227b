//===--- SerialKernel.cpp -------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/SerialKernel.h"

#include "ast/Clone.h"
#include "ast/Walk.h"
#include "sema/Analysis.h"
#include "support/Casting.h"
#include "transform/BuiltinRewrite.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_set>

using namespace dpo;

std::string dpo::serialCallBlocker(const LaunchSite &Site,
                                   AnalysisManager &AM) {
  if (!Site.InStatementPosition)
    return "launch is not in statement position";
  if (!Site.Child || !Site.Child->isDefinition())
    return "child kernel definition not found";
  Transformability T = AM.serializability(Site.Child);
  return T.Serializable ? std::string() : T.Reasons.front();
}

namespace {

/// True if any statement below Root is a return.
bool containsReturn(const Stmt *Root) {
  bool Found = false;
  forEachStmt(Root, [&](const Stmt *S) {
    if (isa<ReturnStmt>(S))
      Found = true;
  });
  return Found;
}

bool isSyncthreadsCall(const Stmt *S) {
  const auto *Call = dyn_cast<CallExpr>(S);
  return Call && Call->calleeName() == "__syncthreads";
}

bool containsSyncthreads(const Stmt *Root) {
  bool Found = false;
  forEachStmt(Root, [&](const Stmt *S) {
    if (isSyncthreadsCall(S))
      Found = true;
  });
  return Found;
}

bool containsSharedDecl(const Stmt *Root) {
  bool Found = false;
  forEachStmt(Root, [&](const Stmt *S) {
    if (const auto *DS = dyn_cast<DeclStmt>(S))
      for (const VarDecl *D : DS->decls())
        if (D->isShared())
          Found = true;
  });
  return Found;
}

/// Decides whether the serial version of \p Child needs y/z loops: true when
/// the body touches .y/.z of an index builtin or when any launch of the
/// kernel uses a dim3 configuration (scalar configurations imply y = z = 1).
bool childNeedsAllDims(const FunctionDecl *Child,
                       const std::vector<LaunchSite> &Sites) {
  for (const char *Builtin : {"blockIdx", "threadIdx", "gridDim", "blockDim"})
    for (const char *Component : {"y", "z"})
      if (usesBuiltinComponent(Child->body(), Builtin, Component))
        return true;
  for (const LaunchSite &Site : Sites) {
    if (Site.Launch->kernel() != Child->name())
      continue;
    if (Site.Launch->gridDim()->type().isDim3() ||
        Site.Launch->blockDim()->type().isDim3())
      return true;
  }
  return false;
}

/// Picks a function name not already defined in \p TU.
std::string freshFunctionName(const TranslationUnit *TU,
                              const std::string &Base) {
  if (!TU->findFunction(Base))
    return Base;
  for (unsigned I = 1;; ++I) {
    std::string Candidate = Base + "_" + std::to_string(I);
    if (!TU->findFunction(Candidate))
      return Candidate;
  }
}

} // namespace

const std::string &
SerialKernelBuilder::ensureSerialVersion(FunctionDecl *Child,
                                         const std::vector<LaunchSite> &AllSites) {
  auto Existing = SerialNames.find(Child);
  if (Existing != SerialNames.end())
    return Existing->second;

  bool AllDims = childNeedsAllDims(Child, AllSites);
  bool HasReturn = containsReturn(Child->body());
  // Barrier-bearing children take the segmented form: the body is split at
  // __syncthreads into barrier-free segments, each its own thread loop
  // (sema::analyzeSerializability guarantees the structure fits and that
  // no early return exists).
  bool Segmented = !HasReturn && (containsSyncthreads(Child->body()) ||
                                  containsSharedDecl(Child->body()));
  std::string SerialName = freshFunctionName(TU, Child->name() + "_serial");

  // The synthesized loop/config variables must not collide with anything
  // the child declares: a child that was already transformed (e.g. the
  // coarsening pass's grid-stride loop declares `_bx`) would otherwise
  // shadow the serial driver's loop variable and read itself in its own
  // initializer.
  std::unordered_set<std::string> Taken = declaredNames(Child);
  std::string GDim = freshVarName(Taken, "_gDim");
  std::string BDim = freshVarName(Taken, "_bDim");
  std::string Bx = freshVarName(Taken, "_bx");
  std::string By = freshVarName(Taken, "_by");
  std::string Bz = freshVarName(Taken, "_bz");
  std::string Tx = freshVarName(Taken, "_tx");
  std::string Ty = freshVarName(Taken, "_ty");
  std::string Tz = freshVarName(Taken, "_tz");

  // Shared parameter tail: the original launch configuration.
  auto MakeConfigParams = [&]() {
    std::vector<VarDecl *> Params;
    for (const VarDecl *P : Child->params())
      Params.push_back(cloneVarDecl(Ctx, P));
    Params.push_back(Ctx.create<VarDecl>(Type(BuiltinKind::Dim3), GDim));
    Params.push_back(Ctx.create<VarDecl>(Type(BuiltinKind::Dim3), BDim));
    return Params;
  };

  // Index variable names per dimension, block loops then thread loops.
  std::vector<std::pair<std::string, std::string>> BlockLoops = {{Bx, "x"}};
  std::vector<std::pair<std::string, std::string>> ThreadLoops = {{Tx, "x"}};
  if (AllDims) {
    BlockLoops.insert(BlockLoops.begin(), {{Bz, "z"}, {By, "y"}});
    ThreadLoops.insert(ThreadLoops.begin(), {{Tz, "z"}, {Ty, "y"}});
  }

  std::unordered_map<std::string, BuiltinRemap> Map;
  Map["gridDim"].Whole = GDim;
  Map["blockDim"].Whole = BDim;
  Map["blockIdx"].X = Bx;
  Map["threadIdx"].X = Tx;
  if (AllDims) {
    Map["blockIdx"].Y = By;
    Map["blockIdx"].Z = Bz;
    Map["threadIdx"].Y = Ty;
    Map["threadIdx"].Z = Tz;
  }

  FunctionQualifiers Quals;
  Quals.Device = true;

  auto MakeLoop = [&](const std::string &Var, const std::string &Bound,
                      const std::string &Component, Stmt *Body) -> Stmt * {
    auto *Init = Ctx.declare(Type(BuiltinKind::UInt), Var, Ctx.intLit(0));
    auto *Cond = Ctx.binary(BinaryOpKind::LT, Ctx.ref(Var),
                            Ctx.member(Bound, Component));
    auto *Inc = Ctx.unary(UnaryOpKind::PreInc, Ctx.ref(Var));
    return Ctx.create<ForStmt>(Init, Cond, Inc, Body);
  };

  Stmt *Loops = nullptr;
  FunctionDecl *ThreadFn = nullptr;

  if (Segmented) {
    // Per block: __shared__ declarations become zero-initialized
    // block-scope locals, each barrier-free segment becomes its own
    // thread-loop nest, and barrier-bearing block-uniform for-loops are
    // hoisted to block level with their bodies segmented recursively.
    // Per-thread locals read across a segment boundary are rematerialized
    // (re-declared from their initializer) at the top of each consuming
    // segment; the transformability analysis guarantees those
    // initializers are single-assignment and depend only on parameters,
    // literals, index builtins, and other rematerializable locals.
    auto ThreadLoopNest = [&](std::vector<Stmt *> SegBody) -> Stmt * {
      Stmt *Inner = Ctx.compound(std::move(SegBody));
      for (auto It = ThreadLoops.rbegin(); It != ThreadLoops.rend(); ++It)
        Inner = MakeLoop(It->first, BDim, It->second, Inner);
      return Inner;
    };

    std::vector<const VarDecl *> RematOrder;
    std::unordered_set<std::string> RematNames;
    std::vector<Stmt *> SharedDecls;

    std::function<void(const std::vector<Stmt *> &, std::vector<Stmt *> &)>
        BuildLevel = [&](const std::vector<Stmt *> &Stmts,
                         std::vector<Stmt *> &Out) {
          std::vector<const Stmt *> SegOrig;
          std::vector<Stmt *> SegClone;

          auto Flush = [&]() {
            if (SegClone.empty()) {
              SegOrig.clear();
              return;
            }
            // Rematerialize crossing locals this segment reads: names it
            // references that an earlier segment declared, closed over the
            // initializers' own remat references, emitted in declaration
            // order.
            std::unordered_set<std::string> Declared;
            for (const Stmt *S : SegOrig)
              if (const auto *DS = dyn_cast<DeclStmt>(S))
                for (const VarDecl *D : DS->decls())
                  Declared.insert(D->name());
            std::unordered_set<std::string> Needed;
            for (const Stmt *S : SegOrig)
              forEachExpr(S, [&](const Expr *E) {
                const auto *R = dyn_cast<DeclRefExpr>(E);
                if (R && RematNames.count(R->name()) &&
                    !Declared.count(R->name()))
                  Needed.insert(R->name());
              });
            bool Changed = true;
            while (Changed) {
              Changed = false;
              for (const VarDecl *D : RematOrder) {
                if (!Needed.count(D->name()))
                  continue;
                forEachExpr(D->init(), [&](const Expr *E) {
                  const auto *R = dyn_cast<DeclRefExpr>(E);
                  if (R && RematNames.count(R->name()) &&
                      !Declared.count(R->name()) &&
                      Needed.insert(R->name()).second)
                    Changed = true;
                });
              }
            }
            std::vector<Stmt *> Body;
            for (const VarDecl *D : RematOrder)
              if (Needed.count(D->name()))
                Body.push_back(Ctx.declare(D->type(), D->name(),
                                           cloneExpr(Ctx, D->init())));
            for (Stmt *S : SegClone)
              Body.push_back(S);
            Out.push_back(ThreadLoopNest(std::move(Body)));
            SegOrig.clear();
            SegClone.clear();
          };

          for (Stmt *S : Stmts) {
            if (isSyncthreadsCall(S)) {
              Flush(); // The barrier dissolves into the segment boundary.
              continue;
            }
            if (auto *DS = dyn_cast<DeclStmt>(S)) {
              bool AnyShared = false;
              for (const VarDecl *D : DS->decls())
                AnyShared |= D->isShared();
              if (AnyShared) {
                // Block-lifetime state: hoist above all segments. Arrays
                // get an explicit zeroing loop to match the VM's
                // zero-initialized shared windows.
                for (const VarDecl *D : DS->decls()) {
                  VarDecl *Local = cloneVarDecl(Ctx, D);
                  Local->setShared(false);
                  if (!Local->isArray() && !Local->init())
                    Local->setInit(Ctx.intLit(0));
                  SharedDecls.push_back(Ctx.create<DeclStmt>(
                      std::vector<VarDecl *>{Local}));
                  if (Local->isArray()) {
                    uint64_t Count = 1;
                    for (const Expr *Dim : D->arrayDims())
                      if (const auto *Lit = dyn_cast<IntegerLiteral>(Dim))
                        Count *= Lit->value();
                    std::string Zi = freshVarName(Taken, "_zi");
                    auto *ZInit =
                        Ctx.declare(Type(BuiltinKind::UInt), Zi, Ctx.intLit(0));
                    auto *ZCond = Ctx.binary(BinaryOpKind::LT, Ctx.ref(Zi),
                                             Ctx.intLit(Count));
                    auto *ZInc = Ctx.unary(UnaryOpKind::PreInc, Ctx.ref(Zi));
                    auto *ZAssign = Ctx.binary(
                        BinaryOpKind::Assign,
                        Ctx.subscript(Ctx.ref(D->name()), Ctx.ref(Zi)),
                        Ctx.intLit(0));
                    SharedDecls.push_back(
                        Ctx.create<ForStmt>(ZInit, ZCond, ZInc, ZAssign));
                  }
                }
                continue;
              }
              // Record per-thread remat candidates as they pass by; only
              // ones actually read by a later segment are re-declared.
              for (const VarDecl *D : DS->decls())
                if (!D->isArray() && !D->type().isDim3() && D->init() &&
                    RematNames.insert(D->name()).second)
                  RematOrder.push_back(D);
            }
            if (containsSyncthreads(S)) {
              Flush();
              if (auto *For = dyn_cast<ForStmt>(S)) {
                // Block-uniform barrier loop: hoist the loop, segment its
                // body.
                std::vector<Stmt *> Inner;
                std::vector<Stmt *> BodyStmts;
                if (auto *CS = dyn_cast<CompoundStmt>(For->body()))
                  BodyStmts = CS->body();
                else
                  BodyStmts.push_back(For->body());
                BuildLevel(BodyStmts, Inner);
                Out.push_back(Ctx.create<ForStmt>(
                    cloneStmt(Ctx, For->init()), cloneExpr(Ctx, For->cond()),
                    cloneExpr(Ctx, For->inc()), Ctx.compound(Inner)));
                continue;
              }
              if (auto *CS = dyn_cast<CompoundStmt>(S)) {
                std::vector<Stmt *> Inner;
                BuildLevel(CS->body(), Inner);
                Out.push_back(Ctx.compound(Inner));
                continue;
              }
              // Unreachable when the transformability analysis accepted
              // the child; drop the statement's barrier semantics rather
              // than crash.
              SegOrig.push_back(S);
              SegClone.push_back(cloneStmt(Ctx, S));
              continue;
            }
            SegOrig.push_back(S);
            SegClone.push_back(cloneStmt(Ctx, S));
          }
          Flush();
        };

    std::vector<Stmt *> BlockStmts;
    BuildLevel(Child->body()->body(), BlockStmts);
    std::vector<Stmt *> BlockBody = std::move(SharedDecls);
    BlockBody.insert(BlockBody.end(), BlockStmts.begin(), BlockStmts.end());
    auto *PerBlock = Ctx.compound(std::move(BlockBody));
    rewriteBuiltins(Ctx, PerBlock, Map, Diags);
    Loops = PerBlock;
    for (auto It = BlockLoops.rbegin(); It != BlockLoops.rend(); ++It)
      Loops = MakeLoop(It->first, GDim, It->second, Loops);
  } else {
    // The innermost statement executed per serialized child thread.
    Stmt *PerThread = nullptr;
    if (HasReturn) {
      // Early returns force the per-thread body into its own function so
      // `return` keeps per-thread semantics.
      std::vector<VarDecl *> ThreadParams = MakeConfigParams();
      for (auto &LoopSet : {BlockLoops, ThreadLoops})
        for (const auto &[VarName, Component] : LoopSet)
          ThreadParams.push_back(
              Ctx.create<VarDecl>(Type(BuiltinKind::UInt), VarName));
      auto *ThreadBody = cast<CompoundStmt>(cloneStmt(Ctx, Child->body()));
      rewriteBuiltins(Ctx, ThreadBody, Map, Diags);
      std::string ThreadFnName =
          freshFunctionName(TU, Child->name() + "_serial_thread");
      ThreadFn = Ctx.create<FunctionDecl>(Quals, Type(BuiltinKind::Void),
                                          ThreadFnName, std::move(ThreadParams),
                                          ThreadBody);
      // Call it from the loops.
      std::vector<Expr *> CallArgs;
      for (const VarDecl *P : Child->params())
        CallArgs.push_back(Ctx.ref(P->name()));
      CallArgs.push_back(Ctx.ref(GDim));
      CallArgs.push_back(Ctx.ref(BDim));
      for (auto &LoopSet : {BlockLoops, ThreadLoops})
        for (const auto &[VarName, Component] : LoopSet)
          CallArgs.push_back(Ctx.ref(VarName));
      PerThread = Ctx.call(ThreadFnName, std::move(CallArgs));
    } else {
      auto *Body = cast<CompoundStmt>(cloneStmt(Ctx, Child->body()));
      rewriteBuiltins(Ctx, Body, Map, Diags);
      PerThread = Body;
    }

    // Wrap in loops: thread loops innermost.
    Loops = PerThread;
    for (auto It = ThreadLoops.rbegin(); It != ThreadLoops.rend(); ++It)
      Loops = MakeLoop(It->first, BDim, It->second, Loops);
    for (auto It = BlockLoops.rbegin(); It != BlockLoops.rend(); ++It)
      Loops = MakeLoop(It->first, GDim, It->second, Loops);
  }

  auto *SerialBody = Ctx.compound({Loops});
  auto *Serial = Ctx.create<FunctionDecl>(Quals, Type(BuiltinKind::Void),
                                          SerialName, MakeConfigParams(),
                                          SerialBody);

  // Insert after the child kernel definition (thread helper first so it
  // precedes its caller).
  auto It = std::find(TU->decls().begin(), TU->decls().end(),
                      static_cast<Decl *>(Child));
  assert(It != TU->decls().end() && "child kernel not in translation unit");
  ++It;
  if (ThreadFn)
    It = std::next(TU->decls().insert(It, ThreadFn));
  TU->decls().insert(It, Serial);

  return SerialNames[Child] = SerialName;
}

Expr *SerialKernelBuilder::buildSerialCall(const LaunchSite &Site) {
  LaunchExpr *L = Site.Launch;
  std::vector<Expr *> SerialArgs;
  for (Expr *Arg : L->args())
    SerialArgs.push_back(cloneExpr(Ctx, Arg));
  SerialArgs.push_back(cloneExpr(Ctx, L->gridDim()));
  SerialArgs.push_back(cloneExpr(Ctx, L->blockDim()));
  return Ctx.call(SerialNames.at(Site.Child), std::move(SerialArgs));
}
