//===--- AggregationPass.cpp ----------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Code generation: the aggregation/disaggregation skeletons of Fig. 7 are
/// built directly as AST nodes, the way the other passes build theirs,
/// then spliced into the translation unit. The nodes are the ones the
/// parser would build from the figure's text: literals keep their
/// spellings (`32u`, `4294967295u`), casts and explicit parentheses are
/// nodes of their own, and each generated function or statement list is
/// typed as that text would be on its own, so passes running after this
/// one see the same tree a print and re-parse would give them. The
/// launch's configuration and argument expressions move into the
/// generated code, each still evaluated exactly once.
///
/// One deliberate deviation from the figure: its disaggregation prologue
/// runs in every child thread, although the parent search depends only
/// on blockIdx.x. The generated child runs it in thread 0 of each block
/// and shares the result through `__shared__` slots behind one
/// `__syncthreads()` (see ensureAggKernel). A GPU runs the redundant
/// searches in lockstep, but an executor that pays for every thread's
/// copy, like the bytecode VM, ran aggregated programs at about 10x the
/// steps of the untransformed ones.
///
//===----------------------------------------------------------------------===//

#include "transform/AggregationPass.h"

#include "ast/Clone.h"
#include "ast/Walk.h"
#include "parse/Typing.h"
#include "sema/LaunchSites.h"
#include "support/Casting.h"
#include "transform/BuiltinRewrite.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace dpo;

namespace {

/// The knobs' names in macro spelling; `#ifndef` defaults are emitted.
constexpr const char *GroupSizeMacro = "_AGG_SIZE";
constexpr const char *AggThresholdMacro = "_AGG_THRESHOLD";

bool containsReturn(const Stmt *Root) {
  bool Found = false;
  forEachStmt(Root, [&](const Stmt *S) {
    if (isa<ReturnStmt>(S))
      Found = true;
  });
  return Found;
}

/// True if \p Target appears inside a loop statement under \p Root.
bool insideLoop(Stmt *Root, const Stmt *Target) {
  bool Result = false;
  forEachStmt(Root, [&](Stmt *S) {
    Stmt *LoopBody = nullptr;
    if (auto *For = dyn_cast<ForStmt>(S))
      LoopBody = For->body();
    else if (auto *While = dyn_cast<WhileStmt>(S))
      LoopBody = While->body();
    else if (auto *Do = dyn_cast<DoStmt>(S))
      LoopBody = Do->body();
    if (!LoopBody)
      return;
    forEachStmt(LoopBody, [&](const Stmt *Inner) {
      if (Inner == Target)
        Result = true;
    });
  });
  return Result;
}

class AggregationTransformer {
public:
  AggregationTransformer(ASTContext &Ctx, TranslationUnit *TU,
                         const AggregationOptions &Options,
                         DiagnosticEngine &Diags, AnalysisManager &AM)
      : Ctx(Ctx), TU(TU), Options(Options), Diags(Diags), AM(AM) {}

  AggregationResult run() {
    AggregationResult Result;
    if (Options.Granularity == AggGranularity::None)
      return Result;

    const std::vector<LaunchSite> AllSites = AM.launchSites();

    // Select eligible dynamic launch sites.
    struct SiteGen {
      LaunchSite Site;
      unsigned K = 0;
    };
    std::vector<SiteGen> Planned;
    for (const LaunchSite &Site : AllSites) {
      if (!Site.FromKernel)
        continue;
      std::string Where =
          Site.Caller->name() + " -> " + Site.Launch->kernel();
      std::string Reason;
      if (!eligible(Site, Reason)) {
        ++Result.SkippedLaunches;
        Result.SkipReasons.push_back(Where + ": " + Reason);
        continue;
      }
      SiteGen Gen;
      Gen.Site = Site;
      Gen.K = SiteCounter++;
      Planned.push_back(Gen);
    }
    if (Planned.empty())
      return Result;

    // A parent is only transformable if every host launch of it can be
    // redirected to the generated wrapper.
    for (auto It = Planned.begin(); It != Planned.end();) {
      FunctionDecl *Parent = It->Site.Caller;
      bool Ok = true;
      for (const LaunchSite &Site : AllSites) {
        if (Site.Child != Parent || Site.FromKernel)
          continue;
        if (!Site.InStatementPosition)
          Ok = false;
      }
      if (Ok) {
        ++It;
        continue;
      }
      ++Result.SkippedLaunches;
      Result.SkipReasons.push_back(
          Parent->name() +
          ": a host launch of this kernel is not in statement position");
      It = Planned.erase(It);
    }
    if (Planned.empty())
      return Result;

    if (Options.Spelling == KnobSpelling::Macro) {
      if (Options.Granularity == AggGranularity::MultiBlock)
        emitMacroDefault(Ctx, TU, GroupSizeMacro, Options.GroupSize);
      if (useAggThreshold())
        emitMacroDefault(Ctx, TU, AggThresholdMacro,
                         Options.AggregationThreshold);
    }

    // Generate the aggregated child kernel for each distinct child.
    for (const SiteGen &Gen : Planned)
      if (ensureAggKernel(Gen.Site.Child))
        ++Result.GeneratedKernels;

    // Per-site codegen. Parents are grouped in first-launch-site order: a
    // pointer-keyed map here would make the emission order of the host
    // wrappers depend on heap addresses, i.e. vary run to run.
    std::unordered_map<const Stmt *, Stmt *> Replacements;
    std::vector<std::pair<FunctionDecl *, std::vector<const SiteGen *>>>
        SitesOfParent;
    auto SitesFor =
        [&](FunctionDecl *Parent) -> std::vector<const SiteGen *> & {
      for (auto &[P, Sites] : SitesOfParent)
        if (P == Parent)
          return Sites;
      return SitesOfParent.emplace_back(Parent,
                                        std::vector<const SiteGen *>())
          .second;
    };
    for (SiteGen &Gen : Planned)
      SitesFor(Gen.Site.Caller).push_back(&Gen);

    for (const SiteGen &Gen : Planned) {
      appendParentParams(Gen.Site, Gen.K);
      Replacements[Gen.Site.Launch] = buildPartA(Gen.Site, Gen.K);
    }

    // Epilogues and (for the aggregation threshold) per-thread locals.
    for (auto &[Parent, Sites] : SitesOfParent) {
      for (const SiteGen *Gen : Sites) {
        if (useAggThreshold())
          insertThresholdLocals(Gen->Site, Gen->K);
        if (Options.Granularity != AggGranularity::Grid)
          appendEpilogue(Gen->Site, Gen->K);
      }
    }

    replaceStmts(TU, Replacements);

    // Host wrappers + host launch redirection.
    std::unordered_map<const Stmt *, Stmt *> HostRepl;
    for (auto &[Parent, Sites] : SitesOfParent) {
      generateHostWrapper(Parent, Sites);
      ++Result.GeneratedWrappers;
      for (const LaunchSite &Site : AllSites)
        if (Site.Child == Parent && !Site.FromKernel)
          HostRepl[Site.Launch] = buildWrapperCall(Parent, Site);
    }
    replaceStmts(TU, HostRepl);

    Result.TransformedLaunches = Planned.size();
    return Result;
  }

private:
  bool useAggThreshold() const {
    return Options.UseAggregationThreshold &&
           Options.Granularity == AggGranularity::Block;
  }

  bool eligible(const LaunchSite &Site, std::string &Reason) {
    if (!Site.Caller->qualifiers().Global) {
      Reason = "launches from __device__ functions are not supported";
      return false;
    }
    if (!Site.InStatementPosition) {
      Reason = "launch is not in statement position";
      return false;
    }
    if (!Site.Child || !Site.Child->isDefinition()) {
      Reason = "child kernel definition not found";
      return false;
    }
    if (Site.Launch->gridDim()->type().isDim3() ||
        Site.Launch->blockDim()->type().isDim3()) {
      Reason = "aggregation requires 1-D (scalar) launch configurations";
      return false;
    }
    if (Options.Granularity != AggGranularity::Grid &&
        containsReturn(Site.Caller->body())) {
      Reason = "parent kernel has early returns; the aggregation epilogue "
               "must post-dominate the launch";
      return false;
    }
    if (insideLoop(Site.Caller->body(), Site.Launch)) {
      Reason = "launch inside a loop could overflow the per-thread "
               "aggregation slot";
      return false;
    }
    // The generated code shares scopes with the parent's and the child's
    // own: any `_agg` name of theirs could capture or be captured. (An
    // already aggregated parent has `_agg` buffer parameters.)
    for (const FunctionDecl *F : {Site.Caller, Site.Child}) {
      std::string Reserved;
      for (const std::string &Name : usedNames(F))
        if (Name.rfind("_agg", 0) == 0 && (Reserved.empty() || Name < Reserved))
          Reserved = Name;
      if (!Reserved.empty()) {
        Reason = "'" + F->name() + "' uses the name '" + Reserved +
                 "', which aggregation reserves for generated code";
        return false;
      }
    }
    for (const FunctionDecl *F : {Site.Caller, Site.Child}) {
      if (TU->findFunction(F->name() + "_agg")) {
        Reason = "a function named '" + F->name() +
                 "_agg' already exists";
        return false;
      }
    }
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Node shorthands. Literals carry the spelling the parser would give
  // them, so the generated code prints and types as Fig. 7's text does.
  //===--------------------------------------------------------------------===//

  IntegerLiteral *lit(uint64_t Value) {
    return Ctx.create<IntegerLiteral>(Value, std::to_string(Value));
  }
  IntegerLiteral *ulit(uint64_t Value) {
    return Ctx.create<IntegerLiteral>(Value, std::to_string(Value) + "u");
  }
  /// `Array[Index]` for a named array.
  Expr *at(const std::string &Array, Expr *Index) {
    return Ctx.subscript(Ctx.ref(Array), Index);
  }
  Expr *at(const std::string &Array, const std::string &Index) {
    return at(Array, Ctx.ref(Index));
  }
  Stmt *declUInt(const std::string &Name, Expr *Init) {
    return Ctx.declare(Type(BuiltinKind::UInt), Name, Init);
  }
  Stmt *ifThen(Expr *Cond, std::vector<Stmt *> Then, Stmt *Else = nullptr) {
    return Ctx.create<IfStmt>(Cond, Ctx.compound(std::move(Then)), Else);
  }
  /// `&Array[Index]`, the address an atomic updates.
  Expr *addressOf(const std::string &Array, const std::string &Index) {
    return Ctx.unary(UnaryOpKind::AddrOf, at(Array, Index));
  }
  Expr *assign(Expr *LHS, Expr *RHS) {
    return Ctx.binary(BinaryOpKind::Assign, LHS, RHS);
  }

  /// `(unsigned int)(_aggPacked >> 32)`: a packed counter's parent count.
  Expr *packedCount() {
    Expr *Shift =
        Ctx.binary(BinaryOpKind::Shr, Ctx.ref("_aggPacked"), lit(32));
    return Ctx.castTo(Type(BuiltinKind::UInt), Ctx.paren(Shift));
  }
  /// `(unsigned int)(_aggPacked & 4294967295u)`: its grid-dimension sum.
  Expr *packedSum() {
    Expr *Mask = Ctx.binary(BinaryOpKind::BitAnd, Ctx.ref("_aggPacked"),
                            ulit(4294967295u));
    return Ctx.castTo(Type(BuiltinKind::UInt), Ctx.paren(Mask));
  }

  /// The multi-block group size in generated code.
  Expr *groupSize() {
    if (Options.Spelling == KnobSpelling::Macro)
      return Ctx.ref(GroupSizeMacro);
    return ulit(Options.GroupSize);
  }

  Expr *aggThreshold() {
    if (Options.Spelling == KnobSpelling::Macro)
      return Ctx.ref(AggThresholdMacro);
    return ulit(Options.AggregationThreshold);
  }

  /// `blockIdx.x * blockDim.x + threadIdx.x`.
  Expr *globalThreadIdx() {
    Expr *Base = Ctx.binary(BinaryOpKind::Mul, Ctx.member("blockIdx", "x"),
                            Ctx.member("blockDim", "x"));
    return Ctx.binary(BinaryOpKind::Add, Base, Ctx.member("threadIdx", "x"));
  }

  /// Group index of the current parent thread, device-side.
  Expr *groupIdx() {
    switch (Options.Granularity) {
    case AggGranularity::Warp:
      return Ctx.binary(BinaryOpKind::Div, Ctx.paren(globalThreadIdx()),
                        ulit(32));
    case AggGranularity::Block:
      return Ctx.member("blockIdx", "x");
    case AggGranularity::MultiBlock:
      return Ctx.binary(BinaryOpKind::Div, Ctx.member("blockIdx", "x"),
                        groupSize());
    case AggGranularity::Grid:
    case AggGranularity::None:
      break;
    }
    return ulit(0);
  }

  /// Maximum number of launching parents per group. \p Grid / \p Block
  /// name the dim3 values holding the parent configuration: the builtins
  /// on the device, the wrapper's parameters on the host.
  Expr *capacity(const std::string &Grid, const std::string &Block) {
    switch (Options.Granularity) {
    case AggGranularity::Warp:
      return ulit(32);
    case AggGranularity::Block:
      return Ctx.member(Block, "x");
    case AggGranularity::MultiBlock:
      return Ctx.paren(Ctx.binary(BinaryOpKind::Mul, groupSize(),
                                  Ctx.member(Block, "x")));
    case AggGranularity::Grid:
      return Ctx.paren(Ctx.binary(BinaryOpKind::Mul, Ctx.member(Grid, "x"),
                                  Ctx.member(Block, "x")));
    case AggGranularity::None:
      break;
    }
    return ulit(1);
  }
  Expr *deviceCapacity() { return capacity("gridDim", "blockDim"); }

  /// Child parameter type with const/restrict stripped (the values are
  /// staged through writable buffers).
  static Type bufferElemType(const VarDecl *P) {
    Type T = P->type();
    T.setConst(false);
    T.setRestrict(false);
    return T;
  }

  /// Generates `<child>_agg` (Fig. 7 lines 01-11) once per child kernel.
  /// Returns true if a kernel was generated by this call.
  ///
  /// Thread 0 publishes the parent index, `_aggBx` and (if the body reads
  /// it) `_aggGDimX` in top-level `__shared__` slots. The barrier after it
  /// precedes the bound guard, so every thread of the block reaches it.
  /// The parent's block size and arguments stay per-thread loads indexed
  /// by the published parent: one indexed load each, where sharing them
  /// too would grow the code more than it saves.
  bool ensureAggKernel(FunctionDecl *Child) {
    if (AggKernelNames.count(Child))
      return false;
    std::string Name = Child->name() + "_agg";

    // Disaggregation remaps: the body sees its original configuration.
    auto *Body = cast<CompoundStmt>(cloneStmt(Ctx, Child->body()));
    std::unordered_map<std::string, BuiltinRemap> Map;
    Map["blockIdx"].X = "_aggBx";
    Map["gridDim"].X = "_aggGDimX";
    Map["blockDim"].X = "_aggBDimX";
    rewriteBuiltins(Ctx, Body, Map, Diags);
    bool ReadsGridDim = false;
    forEachExpr(Body, [&](Expr *E) {
      if (const auto *Ref = dyn_cast<DeclRefExpr>(E))
        ReadsGridDim |= Ref->name() == "_aggGDimX";
    });

    const Type UIntPtr = Type(BuiltinKind::UInt).pointerTo();
    std::vector<VarDecl *> Params;
    for (size_t I = 0; I < Child->params().size(); ++I)
      Params.push_back(Ctx.create<VarDecl>(
          bufferElemType(Child->params()[I]).pointerTo(),
          "_aggArg" + std::to_string(I)));
    Params.push_back(Ctx.create<VarDecl>(UIntPtr, "_aggScanArr"));
    Params.push_back(Ctx.create<VarDecl>(UIntPtr, "_aggBDimArrP"));
    Params.push_back(
        Ctx.create<VarDecl>(Type(BuiltinKind::UInt), "_aggNumParents"));

    // The block-uniform values thread 0 publishes: shared slot, local.
    std::vector<std::pair<std::string, std::string>> Published = {
        {"_aggShParentIdx", "_aggParentIdx"}, {"_aggShBx", "_aggBx"}};
    if (ReadsGridDim)
      Published.push_back({"_aggShGDimX", "_aggGDimX"});

    std::vector<Stmt *> Stmts;
    for (const auto &[Slot, Local] : Published) {
      DeclStmt *Decl = Ctx.declare(Type(BuiltinKind::UInt), Slot);
      Decl->singleDecl()->setShared(true);
      Stmts.push_back(Decl);
    }

    // Binary search for the parent (first scan entry > blockIdx.x).
    std::vector<Stmt *> Search;
    Search.push_back(declUInt("_aggLo", ulit(0)));
    Search.push_back(declUInt("_aggHi", Ctx.ref("_aggNumParents")));
    Expr *Mid = Ctx.binary(
        BinaryOpKind::Div,
        Ctx.paren(Ctx.binary(BinaryOpKind::Add, Ctx.ref("_aggLo"),
                             Ctx.ref("_aggHi"))),
        ulit(2));
    Stmt *Narrow = ifThen(
        Ctx.binary(BinaryOpKind::LE, at("_aggScanArr", "_aggMid"),
                   Ctx.member("blockIdx", "x")),
        {assign(Ctx.ref("_aggLo"),
                Ctx.binary(BinaryOpKind::Add, Ctx.ref("_aggMid"), ulit(1)))},
        Ctx.compound({assign(Ctx.ref("_aggHi"), Ctx.ref("_aggMid"))}));
    Search.push_back(Ctx.create<WhileStmt>(
        Ctx.binary(BinaryOpKind::LT, Ctx.ref("_aggLo"), Ctx.ref("_aggHi")),
        Ctx.compound({declUInt("_aggMid", Mid), Narrow})));
    Expr *PrevEntry = at(
        "_aggScanArr",
        Ctx.binary(BinaryOpKind::Sub, Ctx.ref("_aggLo"), ulit(1)));
    Search.push_back(declUInt(
        "_aggPrevSum",
        Ctx.create<ConditionalOperator>(
            Ctx.binary(BinaryOpKind::EQ, Ctx.ref("_aggLo"), ulit(0)),
            ulit(0), PrevEntry)));
    Search.push_back(assign(Ctx.ref("_aggShParentIdx"), Ctx.ref("_aggLo")));
    Search.push_back(assign(Ctx.ref("_aggShBx"),
                            Ctx.binary(BinaryOpKind::Sub,
                                       Ctx.member("blockIdx", "x"),
                                       Ctx.ref("_aggPrevSum"))));
    if (ReadsGridDim)
      Search.push_back(assign(Ctx.ref("_aggShGDimX"),
                              Ctx.binary(BinaryOpKind::Sub,
                                         at("_aggScanArr", "_aggLo"),
                                         Ctx.ref("_aggPrevSum"))));
    Stmts.push_back(ifThen(Ctx.binary(BinaryOpKind::EQ,
                                      Ctx.member("threadIdx", "x"), ulit(0)),
                           std::move(Search)));
    Stmts.push_back(Ctx.call("__syncthreads"));

    for (const auto &[Slot, Local] : Published)
      Stmts.push_back(declUInt(Local, Ctx.ref(Slot)));
    Stmts.push_back(
        declUInt("_aggBDimX", at("_aggBDimArrP", "_aggParentIdx")));
    for (size_t I = 0; I < Child->params().size(); ++I) {
      const VarDecl *P = Child->params()[I];
      Stmts.push_back(
          Ctx.declare(bufferElemType(P), P->name(),
                      at("_aggArg" + std::to_string(I), "_aggParentIdx")));
    }
    Stmts.push_back(Ctx.create<IfStmt>(
        Ctx.binary(BinaryOpKind::LT, Ctx.member("threadIdx", "x"),
                   Ctx.ref("_aggBDimX")),
        Body, nullptr));

    FunctionQualifiers Quals;
    Quals.Global = true;
    auto *Kernel = Ctx.create<FunctionDecl>(Quals, Type(BuiltinKind::Void),
                                            Name, std::move(Params),
                                            Ctx.compound(std::move(Stmts)));
    assignTypes(Kernel);
    auto It = std::find(TU->decls().begin(), TU->decls().end(),
                        static_cast<Decl *>(Child));
    assert(It != TU->decls().end() && "child kernel not in translation unit");
    TU->decls().insert(std::next(It), Kernel);
    AggKernelNames[Child] = Name;
    return true;
  }

  /// One buffer parameter appended to the parent for site K.
  struct BufferParam {
    std::string Name;
    Type Ty;
    bool PerGroup; ///< One element per group (else one per slot).
  };

  /// Buffer parameters for site \p K, in declaration order.
  std::vector<BufferParam> bufferParams(const LaunchSite &Site,
                                        unsigned K) const {
    std::string Suffix = std::to_string(K);
    const Type UIntPtr = Type(BuiltinKind::UInt).pointerTo();
    std::vector<BufferParam> Params;
    Params.push_back({"_aggCnt" + Suffix,
                      Type(BuiltinKind::ULongLong).pointerTo(), true});
    Params.push_back({"_aggMaxB" + Suffix, UIntPtr, true});
    if (Options.Granularity != AggGranularity::Grid)
      Params.push_back({"_aggFin" + Suffix, UIntPtr, true});
    Params.push_back({"_aggScan" + Suffix, UIntPtr, false});
    Params.push_back({"_aggBDimArr" + Suffix, UIntPtr, false});
    for (size_t I = 0; I < Site.Child->params().size(); ++I)
      Params.push_back({"_aggArg" + std::to_string(I) + "_" + Suffix,
                        bufferElemType(Site.Child->params()[I]).pointerTo(),
                        false});
    return Params;
  }

  void appendParentParams(const LaunchSite &Site, unsigned K) {
    for (const BufferParam &P : bufferParams(Site, K))
      Site.Caller->params().push_back(Ctx.create<VarDecl>(P.Ty, P.Name));
  }

  /// Fig. 7 lines 14-25: the per-thread aggregation logic replacing the
  /// launch statement. The launch's configuration and argument
  /// expressions move into it, each evaluated once as before.
  Stmt *buildPartA(const LaunchSite &Site, unsigned K) {
    LaunchExpr *L = Site.Launch;
    std::string S = std::to_string(K);
    const Type ULL(BuiltinKind::ULongLong);

    // ((unsigned long long)1 << 32) + (unsigned long long)_aggG
    Expr *Increment = Ctx.binary(
        BinaryOpKind::Add,
        Ctx.paren(Ctx.binary(BinaryOpKind::Shl, Ctx.castTo(ULL, lit(1)),
                             lit(32))),
        Ctx.castTo(ULL, Ctx.ref("_aggG")));
    std::vector<Stmt *> Then;
    Then.push_back(declUInt("_aggGroupIdx", groupIdx()));
    Then.push_back(Ctx.declare(
        ULL, "_aggPacked",
        Ctx.call("atomicAdd",
                 {addressOf("_aggCnt" + S, "_aggGroupIdx"), Increment})));
    Then.push_back(declUInt("_aggParentIdx", packedCount()));
    Then.push_back(declUInt("_aggSumPrev", packedSum()));
    Then.push_back(declUInt(
        "_aggSlot",
        Ctx.binary(BinaryOpKind::Add,
                   Ctx.binary(BinaryOpKind::Mul, Ctx.ref("_aggGroupIdx"),
                              deviceCapacity()),
                   Ctx.ref("_aggParentIdx"))));
    for (size_t I = 0; I < L->args().size(); ++I) {
      std::string Local = "_aggA" + std::to_string(I);
      Then.push_back(Ctx.declare(bufferElemType(Site.Child->params()[I]),
                                 Local, L->args()[I]));
      Then.push_back(
          assign(at("_aggArg" + std::to_string(I) + "_" + S, "_aggSlot"),
                 Ctx.ref(Local)));
    }
    Then.push_back(assign(at("_aggScan" + S, "_aggSlot"),
                          Ctx.binary(BinaryOpKind::Add, Ctx.ref("_aggSumPrev"),
                                     Ctx.ref("_aggG"))));
    Then.push_back(
        assign(at("_aggBDimArr" + S, "_aggSlot"), Ctx.ref("_aggB")));
    Then.push_back(Ctx.call("atomicMax",
                            {addressOf("_aggMaxB" + S, "_aggGroupIdx"),
                             Ctx.ref("_aggB")}));
    if (useAggThreshold()) {
      Then.push_back(assign(Ctx.ref("_aggMySlot" + S), Ctx.ref("_aggSlot")));
      Then.push_back(assign(Ctx.ref("_aggMyG" + S), Ctx.ref("_aggG")));
      Then.push_back(assign(Ctx.ref("_aggMyB" + S), Ctx.ref("_aggB")));
    }

    CompoundStmt *PartA = Ctx.compound(
        {declUInt("_aggG", L->gridDim()), declUInt("_aggB", L->blockDim()),
         ifThen(Ctx.binary(BinaryOpKind::GT, Ctx.ref("_aggG"), ulit(0)),
                std::move(Then))});
    assignTypes(PartA);
    return PartA;
  }

  /// Declarations at the top of the parent used by the aggregation
  /// threshold epilogue (each thread remembers its slot/configuration).
  void insertThresholdLocals(const LaunchSite &Site, unsigned K) {
    std::string S = std::to_string(K);
    CompoundStmt *Locals =
        Ctx.compound({declUInt("_aggMySlot" + S, ulit(4294967295u)),
                      declUInt("_aggMyG" + S, ulit(0)),
                      declUInt("_aggMyB" + S, ulit(0))});
    assignTypes(Locals);
    auto &Body = Site.Caller->body()->body();
    Body.insert(Body.begin(), Locals->body().begin(), Locals->body().end());
  }

  /// The pointer to a group's segment of a per-slot buffer.
  Expr *segment(const std::string &Buffer) {
    return Ctx.binary(BinaryOpKind::Add, Ctx.ref(Buffer),
                      Ctx.binary(BinaryOpKind::Mul, Ctx.ref("_aggGroupIdx"),
                                 deviceCapacity()));
  }

  /// The aggregated launch (Fig. 7 lines 31-33).
  Expr *aggregatedLaunch(const LaunchSite &Site, unsigned K) {
    std::string S = std::to_string(K);
    std::vector<Expr *> Args;
    for (size_t I = 0; I < Site.Child->params().size(); ++I)
      Args.push_back(segment("_aggArg" + std::to_string(I) + "_" + S));
    Args.push_back(segment("_aggScan" + S));
    Args.push_back(segment("_aggBDimArr" + S));
    Args.push_back(Ctx.ref("_aggNumP"));
    return Ctx.create<LaunchExpr>(
        AggKernelNames.at(Site.Child), Ctx.ref("_aggTotal"),
        at("_aggMaxB" + S, "_aggGroupIdx"), nullptr, nullptr, std::move(Args));
  }

  /// Reads the group's packed counter into `_aggNumP` / `_aggTotal`.
  void unpackGroupCounter(std::vector<Stmt *> &Out, const std::string &S) {
    Out.push_back(Ctx.declare(Type(BuiltinKind::ULongLong), "_aggPacked",
                              at("_aggCnt" + S, "_aggGroupIdx")));
    Out.push_back(declUInt("_aggNumP", packedCount()));
    Out.push_back(declUInt("_aggTotal", packedSum()));
  }

  /// `if (_aggTotal > 0u) { <aggregated launch>; }`
  Stmt *launchIfAny(const LaunchSite &Site, unsigned K) {
    return ifThen(
        Ctx.binary(BinaryOpKind::GT, Ctx.ref("_aggTotal"), ulit(0)),
        {aggregatedLaunch(Site, K)});
  }

  /// The last arrival of a group (`_aggNFin == Arrivals`) launches.
  void launchWhenLast(std::vector<Stmt *> &Out, const LaunchSite &Site,
                      unsigned K, const std::string &Arrivals) {
    std::string S = std::to_string(K);
    Expr *Arrive = Ctx.call(
        "atomicAdd", {addressOf("_aggFin" + S, "_aggGroupIdx"), ulit(1)});
    Out.push_back(declUInt("_aggNFin",
                           Ctx.binary(BinaryOpKind::Add, Arrive, ulit(1))));
    std::vector<Stmt *> Last;
    unpackGroupCounter(Last, S);
    Last.push_back(launchIfAny(Site, K));
    Out.push_back(ifThen(
        Ctx.binary(BinaryOpKind::EQ, Ctx.ref("_aggNFin"), Ctx.ref(Arrivals)),
        std::move(Last)));
  }

  /// Appends the group-completion epilogue to the parent kernel
  /// (Fig. 7 lines 26-35).
  void appendEpilogue(const LaunchSite &Site, unsigned K) {
    std::string S = std::to_string(K);
    std::vector<Stmt *> Epilogue;
    Epilogue.push_back(Ctx.call("__threadfence"));

    if (Options.Granularity == AggGranularity::Warp) {
      // min(32u, gridDim.x * blockDim.x - _aggGroupIdx * 32u)
      Expr *Threads = Ctx.binary(BinaryOpKind::Mul, Ctx.member("gridDim", "x"),
                                 Ctx.member("blockDim", "x"));
      Expr *Before = Ctx.binary(BinaryOpKind::Mul, Ctx.ref("_aggGroupIdx"),
                                ulit(32));
      std::vector<Stmt *> Group;
      Group.push_back(declUInt("_aggTid", globalThreadIdx()));
      Group.push_back(declUInt(
          "_aggGroupIdx",
          Ctx.binary(BinaryOpKind::Div, Ctx.ref("_aggTid"), ulit(32))));
      Group.push_back(declUInt(
          "_aggGroupSize",
          Ctx.call("min", {ulit(32), Ctx.binary(BinaryOpKind::Sub, Threads,
                                                Before)})));
      launchWhenLast(Group, Site, K, "_aggGroupSize");
      Epilogue.push_back(Ctx.compound(std::move(Group)));
      spliceEpilogue(Site, std::move(Epilogue));
      return;
    }

    Epilogue.push_back(Ctx.call("__syncthreads"));

    if (useAggThreshold()) {
      // Block granularity with the Section V-B aggregation threshold: after
      // the barrier every thread sees the participant count; below the
      // threshold each participant launches its own child grid directly.
      std::vector<Stmt *> Group;
      Group.push_back(declUInt("_aggGroupIdx", Ctx.member("blockIdx", "x")));
      unpackGroupCounter(Group, S);
      std::vector<Expr *> DirectArgs;
      for (size_t I = 0; I < Site.Child->params().size(); ++I)
        DirectArgs.push_back(
            at("_aggArg" + std::to_string(I) + "_" + S, "_aggMySlot" + S));
      Stmt *Direct = ifThen(
          Ctx.binary(BinaryOpKind::NE, Ctx.ref("_aggMySlot" + S),
                     ulit(4294967295u)),
          {Ctx.create<LaunchExpr>(Site.Child->name(), Ctx.ref("_aggMyG" + S),
                                  Ctx.ref("_aggMyB" + S), nullptr, nullptr,
                                  std::move(DirectArgs))});
      Stmt *Leader = ifThen(
          Ctx.binary(BinaryOpKind::EQ, Ctx.member("threadIdx", "x"), ulit(0)),
          {launchIfAny(Site, K)});
      Group.push_back(ifThen(
          Ctx.binary(BinaryOpKind::LT, Ctx.ref("_aggNumP"), aggThreshold()),
          {Direct}, Leader));
      Epilogue.push_back(Ctx.compound(std::move(Group)));
      spliceEpilogue(Site, std::move(Epilogue));
      return;
    }

    // Block / multi-block: one thread per block bumps the group's finished
    // counter; the last block of the group launches.
    std::vector<Stmt *> Leader;
    if (Options.Granularity == AggGranularity::Block) {
      Leader.push_back(declUInt("_aggGroupIdx", Ctx.member("blockIdx", "x")));
      Leader.push_back(declUInt("_aggGroupBlocks", ulit(1)));
    } else {
      // min(G, gridDim.x - _aggGroupIdx * G)
      Expr *Left = Ctx.binary(
          BinaryOpKind::Sub, Ctx.member("gridDim", "x"),
          Ctx.binary(BinaryOpKind::Mul, Ctx.ref("_aggGroupIdx"), groupSize()));
      Leader.push_back(declUInt("_aggGroupIdx",
                                Ctx.binary(BinaryOpKind::Div,
                                           Ctx.member("blockIdx", "x"),
                                           groupSize())));
      Leader.push_back(
          declUInt("_aggGroupBlocks", Ctx.call("min", {groupSize(), Left})));
    }
    launchWhenLast(Leader, Site, K, "_aggGroupBlocks");
    Epilogue.push_back(ifThen(
        Ctx.binary(BinaryOpKind::EQ, Ctx.member("threadIdx", "x"), ulit(0)),
        std::move(Leader)));
    spliceEpilogue(Site, std::move(Epilogue));
  }

  void spliceEpilogue(const LaunchSite &Site, std::vector<Stmt *> Stmts) {
    assignTypes(Ctx.compound(Stmts));
    auto &Body = Site.Caller->body()->body();
    Body.insert(Body.end(), Stmts.begin(), Stmts.end());
  }

  /// Number of groups as a host-side expression over `_aggGrid/_aggBlock`.
  Expr *numGroupsHost() {
    Expr *GridX = Ctx.member("_aggGrid", "x");
    switch (Options.Granularity) {
    case AggGranularity::Warp: {
      // (_aggGrid.x * _aggBlock.x + 31u) / 32u
      Expr *Threads = Ctx.binary(BinaryOpKind::Mul, GridX,
                                 Ctx.member("_aggBlock", "x"));
      return Ctx.binary(
          BinaryOpKind::Div,
          Ctx.paren(Ctx.binary(BinaryOpKind::Add, Threads, ulit(31))),
          ulit(32));
    }
    case AggGranularity::Block:
      return GridX;
    case AggGranularity::MultiBlock: {
      // (_aggGrid.x + G - 1u) / G
      Expr *Sum = Ctx.binary(BinaryOpKind::Add, GridX, groupSize());
      return Ctx.binary(
          BinaryOpKind::Div,
          Ctx.paren(Ctx.binary(BinaryOpKind::Sub, Sum, ulit(1))),
          groupSize());
    }
    case AggGranularity::Grid:
    case AggGranularity::None:
      break;
    }
    return ulit(1);
  }

  /// `Count * sizeof(Elem)`.
  Expr *bufferBytes(const std::string &Count, const Type &Elem) {
    return Ctx.binary(BinaryOpKind::Mul, Ctx.ref(Count),
                      Ctx.create<SizeofExpr>(Elem));
  }

  /// Generates `void <parent>_agg(dim3, dim3, <params>)`: allocates the
  /// aggregation buffers, launches the transformed parent, and for grid
  /// granularity performs the aggregated launch from the host.
  template <typename SiteGenVec>
  void generateHostWrapper(FunctionDecl *Parent, const SiteGenVec &Sites) {
    std::string Name = Parent->name() + "_agg";
    std::vector<VarDecl *> Params = {
        Ctx.create<VarDecl>(Type(BuiltinKind::Dim3), "_aggGrid"),
        Ctx.create<VarDecl>(Type(BuiltinKind::Dim3), "_aggBlock")};
    // The parent's original parameters (appended buffer params excluded).
    size_t NumOrig = Parent->params().size();
    for (const auto *Gen : Sites)
      NumOrig -= bufferParams(Gen->Site, Gen->K).size();
    for (size_t I = 0; I < NumOrig; ++I) {
      const VarDecl *P = Parent->params()[I];
      Params.push_back(Ctx.create<VarDecl>(P->type(), P->name()));
    }

    // Size a multi-block group by the blocks it can hold, min(G,
    // _aggGrid.x), not by the knob: a grid smaller than G forms one group,
    // so the device's slot `group * G * blockDim.x + parent` stays below
    // _aggGrid.x * _aggBlock.x.
    Expr *Capacity = capacity("_aggGrid", "_aggBlock");
    if (Options.Granularity == AggGranularity::MultiBlock)
      Capacity = Ctx.paren(Ctx.binary(
          BinaryOpKind::Mul,
          Ctx.call("min", {groupSize(), Ctx.member("_aggGrid", "x")}),
          Ctx.member("_aggBlock", "x")));
    std::vector<Stmt *> Body;
    Body.push_back(declUInt("_aggNumGroups", numGroupsHost()));
    Body.push_back(declUInt("_aggSlots",
                            Ctx.binary(BinaryOpKind::Mul,
                                       Ctx.ref("_aggNumGroups"), Capacity)));
    std::vector<std::string> AllBuffers;
    for (const auto *Gen : Sites) {
      for (const BufferParam &Buf : bufferParams(Gen->Site, Gen->K)) {
        Type Elem = Buf.Ty.pointee();
        std::string Count = Buf.PerGroup ? "_aggNumGroups" : "_aggSlots";
        Body.push_back(Ctx.declare(Buf.Ty, Buf.Name, lit(0)));
        Expr *Slot = Ctx.unary(UnaryOpKind::AddrOf, Ctx.ref(Buf.Name));
        Body.push_back(Ctx.call(
            "cudaMalloc", {Ctx.castTo(Type(BuiltinKind::Void, 2), Slot),
                           bufferBytes(Count, Elem)}));
        if (Buf.PerGroup)
          Body.push_back(Ctx.call("cudaMemset", {Ctx.ref(Buf.Name), lit(0),
                                                 bufferBytes(Count, Elem)}));
        AllBuffers.push_back(Buf.Name);
      }
    }

    std::vector<Expr *> ParentArgs;
    for (const VarDecl *P : Parent->params())
      ParentArgs.push_back(Ctx.ref(P->name()));
    Body.push_back(Ctx.create<LaunchExpr>(
        Parent->name(), Ctx.ref("_aggGrid"), Ctx.ref("_aggBlock"), nullptr,
        nullptr, std::move(ParentArgs)));

    if (Options.Granularity == AggGranularity::Grid) {
      Body.push_back(Ctx.call("cudaDeviceSynchronize"));
      for (const auto *Gen : Sites)
        Body.push_back(hostAggregatedLaunch(Gen->Site, Gen->K));
    }

    Body.push_back(Ctx.call("cudaDeviceSynchronize"));
    for (const std::string &BufName : AllBuffers)
      Body.push_back(Ctx.call("cudaFree", {Ctx.ref(BufName)}));

    auto *Wrapper = Ctx.create<FunctionDecl>(
        FunctionQualifiers(), Type(BuiltinKind::Void), Name, std::move(Params),
        Ctx.compound(std::move(Body)));
    assignTypes(Wrapper);
    TU->decls().push_back(Wrapper);
    WrapperNames[Parent] = Name;
  }

  /// Grid granularity: after the parent grid finished, the host reads the
  /// site's counter and performs the one aggregated launch.
  Stmt *hostAggregatedLaunch(const LaunchSite &Site, unsigned K) {
    std::string S = std::to_string(K);
    const Type ULL(BuiltinKind::ULongLong);
    auto CopyToHost = [&](const std::string &Local, const std::string &Buf,
                          const Type &Elem) -> Stmt * {
      return Ctx.call("cudaMemcpy",
                      {Ctx.unary(UnaryOpKind::AddrOf, Ctx.ref(Local)),
                       Ctx.ref(Buf), Ctx.create<SizeofExpr>(Elem),
                       Ctx.ref("cudaMemcpyDeviceToHost")});
    };
    std::vector<Expr *> Args;
    for (size_t I = 0; I < Site.Child->params().size(); ++I)
      Args.push_back(Ctx.ref("_aggArg" + std::to_string(I) + "_" + S));
    Args.push_back(Ctx.ref("_aggScan" + S));
    Args.push_back(Ctx.ref("_aggBDimArr" + S));
    Args.push_back(Ctx.ref("_aggNumP"));
    Stmt *Launch = ifThen(
        Ctx.binary(BinaryOpKind::GT, Ctx.ref("_aggTotal"), ulit(0)),
        {Ctx.create<LaunchExpr>(AggKernelNames.at(Site.Child),
                                Ctx.ref("_aggTotal"), Ctx.ref("_aggMaxBH"),
                                nullptr, nullptr, std::move(Args))});
    return Ctx.compound({Ctx.declare(ULL, "_aggPacked", lit(0)),
                         CopyToHost("_aggPacked", "_aggCnt" + S, ULL),
                         declUInt("_aggNumP", packedCount()),
                         declUInt("_aggTotal", packedSum()),
                         declUInt("_aggMaxBH", ulit(0)),
                         CopyToHost("_aggMaxBH", "_aggMaxB" + S,
                                    Type(BuiltinKind::UInt)),
                         Launch});
  }

  /// Replaces `parent<<<g, b>>>(args)` on the host with
  /// `parent_agg(dim3(g,1,1), dim3(b,1,1), args)`.
  Stmt *buildWrapperCall(FunctionDecl *Parent, const LaunchSite &Site) {
    auto AsDim3 = [&](Expr *E) -> Expr * {
      if (E->type().isDim3())
        return E;
      auto *Ctor = Ctx.call("dim3", {E, Ctx.intLit(1), Ctx.intLit(1)});
      Ctor->setType(Type(BuiltinKind::Dim3));
      return Ctor;
    };
    std::vector<Expr *> Args;
    Args.push_back(AsDim3(Site.Launch->gridDim()));
    Args.push_back(AsDim3(Site.Launch->blockDim()));
    for (Expr *Arg : Site.Launch->args())
      Args.push_back(Arg);
    return Ctx.call(WrapperNames.at(Parent), std::move(Args));
  }

  ASTContext &Ctx;
  TranslationUnit *TU;
  const AggregationOptions &Options;
  DiagnosticEngine &Diags;
  AnalysisManager &AM;
  std::map<const FunctionDecl *, std::string> AggKernelNames;
  std::map<const FunctionDecl *, std::string> WrapperNames;
  unsigned SiteCounter = 0;
};

} // namespace

AggregationResult dpo::applyAggregation(ASTContext &Ctx, TranslationUnit *TU,
                                        const AggregationOptions &Options,
                                        DiagnosticEngine &Diags,
                                        AnalysisManager &AM) {
  AggregationTransformer Transformer(Ctx, TU, Options, Diags, AM);
  return Transformer.run();
}

std::string dpo::checkAggGroupSize(unsigned GroupSize) {
  if (GroupSize <= MaxAggGroupSize)
    return "";
  return "group size " + std::to_string(GroupSize) + " exceeds " +
         std::to_string(MaxAggGroupSize) +
         ": the group's slot capacity (group size * blockDim.x, up to 1024 "
         "threads a block) would wrap 32 bits";
}

std::string AggregationPass::repr() const {
  std::string R =
      std::string("aggregate[") + aggGranularityName(Options.Granularity);
  // aggGranularityName spells MultiBlock "multi-block"; the pipeline
  // grammar uses "multiblock" (no separator, easier to type on a CLI).
  if (Options.Granularity == AggGranularity::MultiBlock)
    R = "aggregate[multiblock:" + std::to_string(Options.GroupSize);
  if (Options.UseAggregationThreshold)
    R += ":agg-threshold=" + std::to_string(Options.AggregationThreshold);
  if (Options.Spelling == KnobSpelling::Literal)
    R += ":literal";
  return R + "]";
}

void AggregationPass::run(ASTContext &Ctx, TranslationUnit *TU,
                          AnalysisManager &AM, DiagnosticEngine &Diags) {
  Result = applyAggregation(Ctx, TU, Options, Diags, AM);
}
