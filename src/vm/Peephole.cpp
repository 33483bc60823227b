//===--- Peephole.cpp ----------------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "vm/Peephole.h"

#include "vm/SlotOps.h"

#include <cstring>
#include <vector>

using namespace dpo;

namespace {

// Folding must compute exactly what execution computes: both sides use
// the shared slot arithmetic from vm/SlotOps.h.
double asDouble(int64_t Bits) { return slotAsDouble(Bits); }
int64_t asBits(double D) { return slotFromDouble(D); }
int64_t wrapTo(int64_t V, int64_t Width, int64_t SignExtend) {
  return wrapToWidth(V, Width, SignExtend);
}

//===----------------------------------------------------------------------===//
// Value ranges: which values can an instruction leave on the stack?
//
// A per-function iterative dataflow (not just store-site pattern
// matching): an abstract interpreter walks the code simulating the
// operand stack over ranges, merges every store into per-slot
// invariants, and iterates to a fixpoint so ranges propagate through
// AddImmI / LoadLoadAddI / IncLocal chains and across loads and stores
// of other slots. Parameter slots start from the frame-entry
// normalization contract (paramNormSpec in Bytecode.h): the VM wraps
// integer parameters to their declared widths when a frame is entered,
// so an `int` parameter is a provable int32 — which is what licenses
// eliding the parameter-driven re-wraps the old analysis had to keep.
//===----------------------------------------------------------------------===//

// The interval domain and its combinators (rAdd, rMul, rTruncOf, ...)
// live in vm/SlotOps.h, and the per-opcode transfer (rangeTransfer) in
// vm/Peephole.h, so the trace former (vm/ExecIR.cpp) runs the same
// semantics and consumes the fixpoint this file publishes through
// slotInvariantRanges().
using Range = SlotRange;

/// Conservative range of the value \p I pushes, judged from the
/// instruction alone plus the per-slot invariants (empty = none).
Range producerRange(const Instr &I, const std::vector<Range> &SlotRanges) {
  if (isCompare(I.Code) || I.Code == Op::LogicalNot)
    return {true, 0, 1};
  switch (I.Code) {
  case Op::PushI:
    return {true, I.A, I.A};
  case Op::TruncI:
    return slotRangeOfTrunc(I.A, I.B);
  case Op::SReg:
    return sregRange((unsigned)I.A / 4);
  case Op::GlobalTidX:
    return slotRangeOfTrunc(4, I.B);
  case Op::LoadLocal:
    if ((uint64_t)I.A < SlotRanges.size())
      return SlotRanges[I.A];
    return {};
  default:
    return loadRange(I.Code);
  }
}

/// Per-slot store accumulator for one dataflow pass.
struct SlotAcc {
  bool Any = false;
  bool Unknown = false;
  Range R;
  void merge(const Range &V) {
    if (!V.Known) {
      Unknown = true;
      return;
    }
    if (!Any) {
      Any = true;
      R = V;
    } else {
      R.Lo = std::min(R.Lo, V.Lo);
      R.Hi = std::max(R.Hi, V.Hi);
    }
  }
};

/// The dataflow's rangeTransfer state: a plain range stack and weak
/// stores. One pass visits every path's stores, so a store joins into its
/// slot's accumulator instead of replacing the slot's range; in Linear
/// mode it joins into the running range that later loads read. An
/// unmodeled opcode poisons every slot.
struct DataflowState : AbsStack<Range, 128> {
  const std::vector<Range> *Cur = nullptr; ///< What loads read.
  std::vector<SlotAcc> Acc;                ///< Store joins (iterated mode).
  std::vector<Range> Running;              ///< Slot ranges (Linear mode).
  bool Linear = false;

  Range popR() { return pop(); }
  void pushR(const Range &R) { push(R); }
  Range slot(int64_t S) const {
    return (uint64_t)S < Cur->size() ? (*Cur)[S] : Range{};
  }
  void load(int64_t S) { push(slot(S)); }
  void store(int64_t S, const Range &V) {
    if (Linear) {
      if ((uint64_t)S < Running.size()) {
        Range &R = Running[S];
        if (!R.Known || !V.Known)
          R = Range{};
        else
          R = {true, std::min(R.Lo, V.Lo), std::max(R.Hi, V.Hi)};
      }
    } else if ((uint64_t)S < Acc.size()) {
      Acc[S].merge(V);
    }
  }
  /// The whole int32 range rather than the incremented value: the join
  /// of a loop counter's increments then stays stable across iterations.
  void incLocalI32(int64_t S, int64_t) { store(S, slotRangeOfTrunc(4, 1)); }
  void unmodeled() {
    clearStack();
    for (SlotAcc &A : Acc)
      A.Unknown = true;
    for (Range &R : Running)
      R = Range{};
  }
};

/// Entry-state range of every slot: parameters per the frame-entry
/// normalization contract, other locals zero-initialized.
std::vector<Range> slotEntryRanges(const FuncDef &F) {
  std::vector<Range> Entry(F.NumLocals);
  std::vector<uint8_t> Norm = paramNormSpec(F);
  for (unsigned S = 0; S < F.NumLocals; ++S) {
    if (S < F.NumParamSlots) {
      int64_t Lo, Hi;
      if (S < Norm.size() && paramNormRange(Norm[S], Lo, Hi))
        Entry[S] = {true, Lo, Hi};
      else
        Entry[S] = {}; // Raw 64-bit slot: pointer, long, double, opaque.
    } else {
      Entry[S] = {true, 0, 0};
    }
  }
  return Entry;
}

/// One abstract-interpretation pass over \p F with slot estimates
/// \p Cur. Returns the per-slot ranges implied by every store plus the
/// entry state. When \p TopBefore is non-null it is filled with the
/// range of the stack top *before* each instruction executes (what a
/// TruncI at that point would see).
std::vector<Range> dataflowStep(const FuncDef &F,
                                const std::vector<uint8_t> &Target,
                                const std::vector<Range> &Cur,
                                const VmProgram *Prog,
                                const std::vector<Range> &Entry,
                                std::vector<Range> *TopBefore,
                                bool NeedStores, bool Linear = false) {
  DataflowState St;
  St.Cur = &Cur;
  St.Linear = Linear;
  // Linear mode (no back edges): execution order is increasing PC, so a
  // load can only observe the entry value and stores at earlier
  // positions — one flow-sensitive pass over a running accumulation IS
  // the fixpoint, and is strictly more precise than iterating the
  // flow-insensitive merge.
  if (Linear) {
    St.Running = Entry;
    St.Cur = &St.Running;
  } else if (NeedStores) {
    St.Acc.resize(F.NumLocals);
  }

  for (size_t PC = 0; PC < F.Code.size(); ++PC) {
    if (Target[PC])
      St.clearStack(); // Merge point: predecessors' stacks are unknown here.
    if (TopBefore)
      (*TopBefore)[PC] = St.top();
    rangeTransfer(St, F.Code[PC], Prog);
  }

  if (Linear)
    return St.Running;
  if (!NeedStores)
    return {};
  const std::vector<SlotAcc> &Acc = St.Acc;
  std::vector<Range> Out(F.NumLocals);
  for (unsigned S = 0; S < F.NumLocals; ++S) {
    if (Acc[S].Unknown) {
      Out[S] = {};
      continue;
    }
    Range E = Entry[S];
    if (!Acc[S].Any) {
      Out[S] = E;
      continue;
    }
    if (!E.Known) {
      Out[S] = {};
      continue;
    }
    Out[S] = {true, std::min(E.Lo, Acc[S].R.Lo), std::max(E.Hi, Acc[S].R.Hi)};
  }
  return Out;
}

/// The per-function dataflow fixpoint: iterate dataflowStep from an
/// optimistic start, widening still-unstable slots to unknown when the
/// iteration bound is hit, and close with a verification loop that
/// guarantees the published ranges are a post-fixpoint (sound).
///
/// Run ONCE per function, on the pre-peephole bytecode: slot ranges are
/// *dynamic* invariants (bounds on the values a slot holds at runtime),
/// and every peephole rewrite preserves runtime values exactly, so the
/// fixpoint computed here stays sound across all rewrite rounds — only
/// the positional stack-top ranges (computeTopBefore) track the moving
/// instruction stream.
std::vector<Range> computeSlotFixpoint(const FuncDef &F,
                                       const std::vector<uint8_t> &Target,
                                       const VmProgram *Prog) {
  std::vector<Range> Entry = slotEntryRanges(F);
  bool HasBackEdge = false;
  for (size_t I = 0; I < F.Code.size(); ++I)
    if (isJumpOp(F.Code[I].Code) && (uint64_t)F.Code[I].A <= I)
      HasBackEdge = true;
  if (!HasBackEdge)
    return dataflowStep(F, Target, Entry, Prog, Entry, nullptr,
                        /*NeedStores=*/false, /*Linear=*/true);
  std::vector<Range> Cur = Entry;
  bool Stable = false;
  for (int It = 0; It < 4 && !Stable; ++It) {
    std::vector<Range> Next =
        dataflowStep(F, Target, Cur, Prog, Entry, nullptr, true);
    Stable = true;
    for (unsigned S = 0; S < F.NumLocals; ++S)
      if (!rangeEq(Next[S], Cur[S]))
        Stable = false;
    Cur = std::move(Next);
  }
  // Closing loop: any slot whose recomputed range escapes the published
  // one is widened to unknown; unknown only loosens inputs, so this
  // terminates (each pass pins at least one slot) with Cur >= step(Cur).
  while (!Stable) {
    std::vector<Range> Next =
        dataflowStep(F, Target, Cur, Prog, Entry, nullptr, true);
    Stable = true;
    for (unsigned S = 0; S < F.NumLocals; ++S)
      if (!rangeContains(Cur[S], Next[S])) {
        Cur[S] = {};
        Stable = false;
      }
  }
  return Cur;
}

/// One linear stack-only pass filling the range of the stack top before
/// every instruction of the *current* code, against the frozen slot
/// fixpoint (no store bookkeeping, no entry-state allocation).
std::vector<Range> computeTopBefore(const FuncDef &F,
                                    const std::vector<uint8_t> &Target,
                                    const std::vector<Range> &SlotRanges,
                                    const VmProgram *Prog) {
  std::vector<Range> TopBefore(F.Code.size());
  static const std::vector<Range> NoEntry;
  if (!F.Code.empty())
    dataflowStep(F, Target, SlotRanges, Prog, NoEntry, &TopBefore, false);
  return TopBefore;
}

//===----------------------------------------------------------------------===//
// Folding helpers
//===----------------------------------------------------------------------===//

/// Folds `A op B` for the pure integer binary opcodes. Returns false when
/// the opcode is not foldable (or would change trap semantics).
bool foldIntBinary(Op Code, int64_t A, int64_t B, int64_t &Out) {
  uint64_t UA = (uint64_t)A, UB = (uint64_t)B;
  switch (Code) {
  case Op::AddI: Out = addWrap(A, B); return true;
  case Op::SubI: Out = subWrap(A, B); return true;
  case Op::MulI: Out = mulWrap(A, B); return true;
  case Op::DivI:
    if (B == 0 || (A == INT64_MIN && B == -1))
      return false; // Preserve the runtime trap / UB guard.
    Out = A / B;
    return true;
  case Op::DivU:
    if (B == 0)
      return false;
    Out = (int64_t)(UA / UB);
    return true;
  case Op::RemI:
    if (B == 0 || (A == INT64_MIN && B == -1))
      return false;
    Out = A % B;
    return true;
  case Op::RemU:
    if (B == 0)
      return false;
    Out = (int64_t)(UA % UB);
    return true;
  case Op::Shl: Out = (int64_t)(UA << (B & 63)); return true;
  case Op::ShrI: Out = A >> (B & 63); return true;
  case Op::ShrU: Out = (int64_t)(UA >> (B & 63)); return true;
  case Op::BitAnd: Out = A & B; return true;
  case Op::BitOr: Out = A | B; return true;
  case Op::BitXor: Out = A ^ B; return true;
  case Op::CmpEQ: Out = A == B; return true;
  case Op::CmpNE: Out = A != B; return true;
  case Op::CmpLTI: Out = A < B; return true;
  case Op::CmpLEI: Out = A <= B; return true;
  case Op::CmpGTI: Out = A > B; return true;
  case Op::CmpGEI: Out = A >= B; return true;
  case Op::CmpLTU: Out = UA < UB; return true;
  case Op::CmpLEU: Out = UA <= UB; return true;
  case Op::CmpGTU: Out = UA > UB; return true;
  case Op::CmpGEU: Out = UA >= UB; return true;
  case Op::MinI: Out = A < B ? A : B; return true;
  case Op::MaxI: Out = A > B ? A : B; return true;
  case Op::MinU: Out = UA < UB ? A : B; return true;
  case Op::MaxU: Out = UA > UB ? A : B; return true;
  default:
    return false;
  }
}

/// Folds float binaries over bit-stored doubles. Produces either PushF
/// bits (arithmetic) or PushI 0/1 (comparisons).
bool foldFloatBinary(Op Code, int64_t ABits, int64_t BBits, Instr &Out) {
  double A = asDouble(ABits), B = asDouble(BBits);
  switch (Code) {
  case Op::AddF: Out = {Op::PushF, asBits(A + B), 0}; return true;
  case Op::SubF: Out = {Op::PushF, asBits(A - B), 0}; return true;
  case Op::MulF: Out = {Op::PushF, asBits(A * B), 0}; return true;
  case Op::DivF: Out = {Op::PushF, asBits(A / B), 0}; return true;
  case Op::CmpEQF: Out = {Op::PushI, A == B, 0}; return true;
  case Op::CmpNEF: Out = {Op::PushI, A != B, 0}; return true;
  case Op::CmpLTF: Out = {Op::PushI, A < B, 0}; return true;
  case Op::CmpLEF: Out = {Op::PushI, A <= B, 0}; return true;
  case Op::CmpGTF: Out = {Op::PushI, A > B, 0}; return true;
  case Op::CmpGEF: Out = {Op::PushI, A >= B, 0}; return true;
  default:
    return false;
  }
}

/// True when [PushI A; <Code>] is an arithmetic identity on the value
/// below it (x op A == x), so both instructions can be deleted.
bool isIdentityImm(Op Code, int64_t A) {
  switch (Code) {
  case Op::AddI:
  case Op::SubI:
  case Op::Shl:
  case Op::ShrI:
  case Op::ShrU:
  case Op::BitOr:
  case Op::BitXor:
    return A == 0;
  case Op::MulI:
  case Op::DivI:
  case Op::DivU:
    return A == 1;
  case Op::BitAnd:
    return A == -1;
  default:
    return false;
  }
}

/// Maps [Cmp<cc>; JmpIfZero/JmpIfNotZero] to the fused conditional jump.
/// JmpIfZero branches when the comparison is *false* — i.e. on the negated
/// condition; JmpIfNotZero branches on the condition itself.
bool fusedCompareJump(Op Cmp, bool JumpIfTrue, Op &Out) {
  switch (Cmp) {
  case Op::CmpLTI: Out = JumpIfTrue ? Op::JmpIfLTI : Op::JmpIfGEI; return true;
  case Op::CmpLEI: Out = JumpIfTrue ? Op::JmpIfLEI : Op::JmpIfGTI; return true;
  case Op::CmpGTI: Out = JumpIfTrue ? Op::JmpIfGTI : Op::JmpIfLEI; return true;
  case Op::CmpGEI: Out = JumpIfTrue ? Op::JmpIfGEI : Op::JmpIfLTI; return true;
  case Op::CmpEQ: Out = JumpIfTrue ? Op::JmpIfEQ : Op::JmpIfNE; return true;
  case Op::CmpNE: Out = JumpIfTrue ? Op::JmpIfNE : Op::JmpIfEQ; return true;
  case Op::CmpLTU: Out = JumpIfTrue ? Op::JmpIfLTU : Op::JmpIfGEU; return true;
  case Op::CmpLEU: Out = JumpIfTrue ? Op::JmpIfLEU : Op::JmpIfGTU; return true;
  case Op::CmpGTU: Out = JumpIfTrue ? Op::JmpIfGTU : Op::JmpIfLEU; return true;
  case Op::CmpGEU: Out = JumpIfTrue ? Op::JmpIfGEU : Op::JmpIfLTU; return true;
  default:
    return false;
  }
}

/// Base memory-access width for the ops that have indexed/scaled
/// superinstruction forms; 0 otherwise.
unsigned memOpWidth(Op Code) {
  switch (Code) {
  case Op::LdI32:
  case Op::LdU32:
  case Op::LdF32:
  case Op::StI32:
  case Op::StF32:
    return 4;
  case Op::LdI64:
  case Op::LdF64:
  case Op::StI64:
  case Op::StF64:
    return 8;
  default:
    return 0;
  }
}

bool idxLoadFor(Op Ld, Op &Out) {
  switch (Ld) {
  case Op::LdI32: Out = Op::LdI32Idx; return true;
  case Op::LdU32: Out = Op::LdU32Idx; return true;
  case Op::LdI64: Out = Op::LdI64Idx; return true;
  case Op::LdF32: Out = Op::LdF32Idx; return true;
  case Op::LdF64: Out = Op::LdF64Idx; return true;
  default: return false;
  }
}

bool scLoadFor(Op Ld, Op &Out) {
  switch (Ld) {
  case Op::LdI32: Out = Op::LdI32Sc; return true;
  case Op::LdU32: Out = Op::LdU32Sc; return true;
  case Op::LdI64: Out = Op::LdI64Sc; return true;
  case Op::LdF32: Out = Op::LdF32Sc; return true;
  case Op::LdF64: Out = Op::LdF64Sc; return true;
  default: return false;
  }
}

bool scStoreFor(Op St, Op &Out) {
  switch (St) {
  case Op::StI32: Out = Op::StI32Sc; return true;
  case Op::StI64: Out = Op::StI64Sc; return true;
  case Op::StF32: Out = Op::StF32Sc; return true;
  case Op::StF64: Out = Op::StF64Sc; return true;
  default: return false;
  }
}

/// Pushes exactly one value, consumes nothing, has no side effects, and
/// cannot fail — safe to commute with pending address formation (the
/// scaled-store fusion moves address formation *past* such a producer).
/// Unlike isPureProducer this must exclude Dup (it reads the stack).
bool isSafeProducer(Op Code) {
  switch (Code) {
  case Op::PushI:
  case Op::PushF:
  case Op::LoadLocal:
  case Op::SReg:
  case Op::FrameAddr:
  case Op::SharedBase:
  case Op::GlobalTidX:
  case Op::LoadLocalImmAddI:
  case Op::LoadLoadAddI:
    return true;
  default:
    return false;
  }
}

/// Opcodes that push exactly one value and have no side effects: a
/// following Pop deletes the pair.
bool isPureProducer(Op Code) {
  switch (Code) {
  case Op::PushI:
  case Op::PushF:
  case Op::LoadLocal:
  case Op::SReg:
  case Op::FrameAddr:
  case Op::SharedBase:
  case Op::Dup:
  case Op::GlobalTidX:
  case Op::LoadLocalImmAddI:
  case Op::LoadLoadAddI:
    return true;
  default:
    return false;
  }
}

/// Pure pop-1/push-1 opcodes: [op; Pop] == [Pop].
bool isPureUnary(Op Code) {
  switch (Code) {
  case Op::NegI:
  case Op::BitNot:
  case Op::LogicalNot:
  case Op::TruncI:
  case Op::I2F:
  case Op::U2F:
  case Op::F2I:
  case Op::F2Single:
  case Op::NegF:
  case Op::AddImmI:
  case Op::MulImmI:
    return true;
  default:
    return false;
  }
}

/// Pure pop-2/push-1 opcodes: [op; Pop] == [Pop; Pop]. Division and
/// remainder are excluded — their divide-by-zero trap is observable.
bool isPureBinary(Op Code) {
  if (isCompare(Code))
    return true;
  switch (Code) {
  case Op::AddI:
  case Op::SubI:
  case Op::MulI:
  case Op::Shl:
  case Op::ShrI:
  case Op::ShrU:
  case Op::BitAnd:
  case Op::BitOr:
  case Op::BitXor:
  case Op::MinI:
  case Op::MaxI:
  case Op::MinU:
  case Op::MaxU:
  case Op::AddF:
  case Op::SubF:
  case Op::MulF:
  case Op::DivF:
  case Op::MulImmAddI:
    return true;
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Pattern matching
//===----------------------------------------------------------------------===//

struct Rewrite {
  unsigned Consumed = 0;
  unsigned Produced = 0;
  Instr Repl[2];
};

/// Tries to match a rewrite starting at \p PC. Patterns are tried longest
/// first; instructions after the first matched one must not be jump
/// targets (checked through \p CanUse). Fusion rules (superinstruction
/// synthesis) only run when \p Fusions is set — folding, dead-code, and
/// TruncI-elision rounds run first so that fusions never capture an
/// instruction a cheaper rewrite would have deleted.
/// True for opcodes that begin at least one first-instruction-keyed
/// rewrite rule; positions whose first opcode is not listed can only
/// match through a second-instruction-keyed rule (see SecondKeyed).
bool firstKeyed(Op Code) {
  switch (Code) {
  case Op::PushI:
  case Op::PushF:
  case Op::LoadLocal:
  case Op::LoadLocal2:
  case Op::SReg:
  case Op::Swap:
  case Op::TruncI:
  case Op::MulImmI:
  case Op::MulImmAddI:
  case Op::LoadLocalImmAddI:
  case Op::AddImmI:
  case Op::Jmp:
  case Op::JmpIfZero:
  case Op::JmpIfNotZero:
    return true;
  default:
    return false;
  }
}

/// Second instructions that key rules regardless of the first opcode
/// (Pop absorption, TruncI elision, compare-and-branch fusion).
bool secondKeyed(Op Code) {
  switch (Code) {
  case Op::Pop:
  case Op::TruncI:
  case Op::JmpIfZero:
  case Op::JmpIfNotZero:
    return true;
  default:
    return false;
  }
}

bool matchAt(const std::vector<Instr> &C, size_t PC, size_t N,
             const std::vector<uint8_t> &Target,
             const std::vector<Range> &SlotRanges,
             const std::vector<Range> &TopBefore, bool Fusions,
             Rewrite &RW) {
  // Fast reject: most positions start no pattern at all.
  if (!firstKeyed(C[PC].Code) &&
      (PC + 1 >= N || Target[PC + 1] || !secondKeyed(C[PC + 1].Code)))
    return false;
  // Bounds and jump-target checks, split so each rule tests opcodes
  // first and pays the (loop) target scan only on a near-match.
  auto Win = [&](size_t Len) { return PC + Len <= N; };
  auto NoTargets = [&](size_t Len) {
    for (size_t I = 1; I < Len; ++I)
      if (Target[PC + I])
        return false;
    return true;
  };
  auto CanUse = [&](size_t Len) { return Win(Len) && NoTargets(Len); };
  const Instr &I0 = C[PC];

  if (Fusions) {
  // --- 7-wide: the global-thread-id idiom -------------------------------
  //   blockIdx.x * blockDim.x + threadIdx.x
  //   SReg(bIdx.x) SReg(bDim.x) MulI TruncI(4,_) SReg(tIdx.x) AddI TruncI(4,s)
  // and the commuted form
  //   threadIdx.x + blockIdx.x * blockDim.x
  //   SReg(tIdx.x) SReg(bIdx.x) SReg(bDim.x) MulI TruncI(4,_) AddI TruncI(4,s)
  // Both wrap to 32 bits exactly as GlobalTidX(B = sign of final trunc)
  // does: truncation is a ring homomorphism, so the intermediate wrap of
  // the product does not change the low 32 bits of the sum.
  if (I0.Code == Op::SReg && CanUse(7)) {
    const Instr *W = &C[PC];
    bool MulFirst = W[0].Code == Op::SReg && W[0].A == 4 + 0 && // blockIdx.x
                    W[1].Code == Op::SReg && W[1].A == 8 + 0 && // blockDim.x
                    W[2].Code == Op::MulI &&                    //
                    W[3].Code == Op::TruncI && W[3].A == 4 &&   //
                    W[4].Code == Op::SReg && W[4].A == 0 &&     // threadIdx.x
                    W[5].Code == Op::AddI &&                    //
                    W[6].Code == Op::TruncI && W[6].A == 4;
    bool TidFirst = W[0].Code == Op::SReg && W[0].A == 0 &&     // threadIdx.x
                    W[1].Code == Op::SReg && W[1].A == 4 + 0 && // blockIdx.x
                    W[2].Code == Op::SReg && W[2].A == 8 + 0 && // blockDim.x
                    W[3].Code == Op::MulI &&                    //
                    W[4].Code == Op::TruncI && W[4].A == 4 &&   //
                    W[5].Code == Op::AddI &&                    //
                    W[6].Code == Op::TruncI && W[6].A == 4;
    if (MulFirst || TidFirst) {
      RW = {7, 1, {{Op::GlobalTidX, 0, W[6].B}, {}}};
      return true;
    }
  }

  // --- 5-wide: loop-counter increment -----------------------------------
  //   LoadLocal s; PushI d; AddI; TruncI(4,1); StoreLocal s
  if (I0.Code == Op::LoadLocal && Win(5) && C[PC + 1].Code == Op::PushI &&
      C[PC + 2].Code == Op::AddI && C[PC + 3].Code == Op::TruncI &&
      C[PC + 3].A == 4 && C[PC + 3].B == 1 &&
      C[PC + 4].Code == Op::StoreLocal && C[PC + 4].A == I0.A &&
      NoTargets(5)) {
    RW = {5, 1, {{Op::IncLocalI32, I0.A, C[PC + 1].A}, {}}};
    return true;
  }

  // --- 4-wide: 64-bit counter increment ---------------------------------
  //   LoadLocal s; PushI d; AddI; StoreLocal s
  if (I0.Code == Op::LoadLocal && Win(4) && C[PC + 1].Code == Op::PushI &&
      C[PC + 2].Code == Op::AddI && C[PC + 3].Code == Op::StoreLocal &&
      C[PC + 3].A == I0.A && NoTargets(4)) {
    RW = {4, 1, {{Op::IncLocalI64, I0.A, C[PC + 1].A}, {}}};
    return true;
  }

  // --- 4-wide: LoadLocal-indexed load -----------------------------------
  //   LoadLocal base; LoadLocal idx; MulImmAddI w; Ld<T>  (w == width<T>)
  // The idx local's TruncI, if the type needed one, was already elided by
  // the dataflow (otherwise the window does not match) — this is the
  // Ld-with-fused-address-formation the store-site-local analysis could
  // not unlock.
  if (I0.Code == Op::LoadLocal && Win(4) &&
      C[PC + 1].Code == Op::LoadLocal && C[PC + 2].Code == Op::MulImmAddI &&
      NoTargets(4)) {
    Op Fused;
    if (idxLoadFor(C[PC + 3].Code, Fused) &&
        C[PC + 2].A == (int64_t)memOpWidth(C[PC + 3].Code)) {
      RW = {4, 1, {{Fused, I0.A, C[PC + 1].A}, {}}};
      return true;
    }
  }

  // --- 3-wide: indexed/scaled addressing --------------------------------
  //   LoadLocal2 a,b; MulImmAddI w; Ld<T>   ->  Ld<T>Idx a,b
  if (I0.Code == Op::LoadLocal2 && Win(3) &&
      C[PC + 1].Code == Op::MulImmAddI && NoTargets(3)) {
    Op Fused;
    if (idxLoadFor(C[PC + 2].Code, Fused) &&
        C[PC + 1].A == (int64_t)memOpWidth(C[PC + 2].Code)) {
      RW = {3, 1, {{Fused, I0.A, I0.B}, {}}};
      return true;
    }
  }
  //   MulImmAddI w; P; St<T>  ->  P; St<T>Sc   (P a safe producer: the
  // address formation commutes past the value push and fuses into the
  // store, leaving [base, idx, value] for St<T>Sc).
  if (I0.Code == Op::MulImmAddI && Win(3) &&
      isSafeProducer(C[PC + 1].Code) && NoTargets(3)) {
    Op Fused;
    if (scStoreFor(C[PC + 2].Code, Fused) &&
        I0.A == (int64_t)memOpWidth(C[PC + 2].Code)) {
      RW = {3, 2, {C[PC + 1], {Fused, 0, 0}}};
      return true;
    }
  }
  } // Fusions (wide patterns)

  // --- 3-wide -----------------------------------------------------------
  if (Win(3) &&
      (I0.Code == Op::PushI || I0.Code == Op::PushF ||
       I0.Code == Op::LoadLocal || I0.Code == Op::LoadLocalImmAddI) &&
      CanUse(3)) {
    const Instr &I1 = C[PC + 1];
    const Instr &I2 = C[PC + 2];
    // Constant folding.
    if (I0.Code == Op::PushI && I1.Code == Op::PushI) {
      int64_t Folded;
      if (foldIntBinary(I2.Code, I0.A, I1.A, Folded)) {
        RW = {3, 1, {{Op::PushI, Folded, 0}, {}}};
        return true;
      }
    }
    if ((I0.Code == Op::PushF || I0.Code == Op::PushI) &&
        (I1.Code == Op::PushF || I1.Code == Op::PushI) &&
        (I0.Code == Op::PushF || I1.Code == Op::PushF)) {
      Instr Folded;
      if (foldFloatBinary(I2.Code, I0.A, I1.A, Folded)) {
        RW = {3, 1, {Folded, {}}};
        return true;
      }
    }
    if (Fusions) {
      // LoadLocal a; LoadLocal b; AddI  ->  LoadLoadAddI a, b
      if (I0.Code == Op::LoadLocal && I1.Code == Op::LoadLocal &&
          I2.Code == Op::AddI) {
        RW = {3, 1, {{Op::LoadLoadAddI, I0.A, I1.A}, {}}};
        return true;
      }
      // LoadLocal s; PushI k; AddI  ->  LoadLocalImmAddI s, k
      if (I0.Code == Op::LoadLocal && I1.Code == Op::PushI &&
          I2.Code == Op::AddI) {
        RW = {3, 1, {{Op::LoadLocalImmAddI, I0.A, I1.A}, {}}};
        return true;
      }
      // LoadLocalImmAddI s,d; TruncI(4,1); StoreLocal s  ->  IncLocalI32
      // (arises when the 3-wide fusion above outruns the 5-wide counter
      // pattern in an earlier round).
      if (I0.Code == Op::LoadLocalImmAddI && I1.Code == Op::TruncI &&
          I1.A == 4 && I1.B == 1 && I2.Code == Op::StoreLocal &&
          I2.A == I0.A) {
        RW = {3, 1, {{Op::IncLocalI32, I0.A, I0.B}, {}}};
        return true;
      }
    }
  }

  // --- 2-wide -----------------------------------------------------------
  if (CanUse(2)) {
    const Instr &I1 = C[PC + 1];

    // Pure producer followed by Pop: both die.
    if (isPureProducer(I0.Code) && I1.Code == Op::Pop) {
      RW = {2, 0, {{}, {}}};
      return true;
    }
    // Pop absorption through pure operators — lets dead expression trees
    // unravel one layer per round:
    //   [pop1/push1 op; Pop] == [Pop]
    //   [pop2/push1 op; Pop] == [Pop; Pop]
    if (I1.Code == Op::Pop && isPureUnary(I0.Code)) {
      RW = {2, 1, {{Op::Pop, 0, 0}, {}}};
      return true;
    }
    if (I1.Code == Op::Pop && isPureBinary(I0.Code)) {
      RW = {2, 2, {{Op::Pop, 0, 0}, {Op::Pop, 0, 0}}};
      return true;
    }
    // LoadLocal2 a,b; Pop  ->  LoadLocal a
    if (I0.Code == Op::LoadLocal2 && I1.Code == Op::Pop) {
      RW = {2, 1, {{Op::LoadLocal, I0.A, 0}, {}}};
      return true;
    }
    // Swap; Swap cancels.
    if (I0.Code == Op::Swap && I1.Code == Op::Swap) {
      RW = {2, 0, {{}, {}}};
      return true;
    }
    // Constant condition jumps.
    if (I0.Code == Op::PushI &&
        (I1.Code == Op::JmpIfZero || I1.Code == Op::JmpIfNotZero)) {
      bool Taken = (I1.Code == Op::JmpIfZero) == (I0.A == 0);
      if (Taken)
        RW = {2, 1, {{Op::Jmp, I1.A, 0}, {}}};
      else
        RW = {2, 0, {{}, {}}};
      return true;
    }
    // Constant unary folds.
    if (I0.Code == Op::PushI) {
      switch (I1.Code) {
      case Op::NegI:
        if (I0.A != INT64_MIN) {
          RW = {2, 1, {{Op::PushI, -I0.A, 0}, {}}};
          return true;
        }
        break;
      case Op::BitNot:
        RW = {2, 1, {{Op::PushI, ~I0.A, 0}, {}}};
        return true;
      case Op::LogicalNot:
        RW = {2, 1, {{Op::PushI, I0.A == 0, 0}, {}}};
        return true;
      case Op::TruncI:
        RW = {2, 1, {{Op::PushI, wrapTo(I0.A, I1.A, I1.B), 0}, {}}};
        return true;
      case Op::I2F:
        RW = {2, 1, {{Op::PushF, asBits((double)I0.A), 0}, {}}};
        return true;
      case Op::U2F:
        RW = {2, 1, {{Op::PushF, asBits((double)(uint64_t)I0.A), 0}, {}}};
        return true;
      case Op::AddImmI:
        RW = {2, 1, {{Op::PushI, addWrap(I0.A, I1.A), 0}, {}}};
        return true;
      case Op::MulImmI:
        RW = {2, 1, {{Op::PushI, mulWrap(I0.A, I1.A), 0}, {}}};
        return true;
      default:
        break;
      }
    }
    if (I0.Code == Op::PushF) {
      switch (I1.Code) {
      case Op::NegF:
        RW = {2, 1, {{Op::PushF, asBits(-asDouble(I0.A)), 0}, {}}};
        return true;
      case Op::F2Single:
        RW = {2, 1,
              {{Op::PushF, asBits((double)(float)asDouble(I0.A)), 0}, {}}};
        return true;
      case Op::F2I:
        RW = {2, 1, {{Op::PushI, (int64_t)asDouble(I0.A), 0}, {}}};
        return true;
      default:
        break;
      }
    }
    // Arithmetic identities: [PushI k; op] that leaves x unchanged.
    if (I0.Code == Op::PushI && isIdentityImm(I1.Code, I0.A)) {
      RW = {2, 0, {{}, {}}};
      return true;
    }
    if (Fusions) {
      // Immediate-operand arithmetic.
      if (I0.Code == Op::PushI && I1.Code == Op::AddI) {
        RW = {2, 1, {{Op::AddImmI, I0.A, 0}, {}}};
        return true;
      }
      if (I0.Code == Op::PushI && I1.Code == Op::SubI && I0.A != INT64_MIN) {
        RW = {2, 1, {{Op::AddImmI, -I0.A, 0}, {}}};
        return true;
      }
      if (I0.Code == Op::PushI && I1.Code == Op::MulI) {
        RW = {2, 1, {{Op::MulImmI, I0.A, 0}, {}}};
        return true;
      }
      // MulImmI k; AddI  ->  MulImmAddI k   (array address formation)
      if (I0.Code == Op::MulImmI && I1.Code == Op::AddI) {
        RW = {2, 1, {{Op::MulImmAddI, I0.A, 0}, {}}};
        return true;
      }
      // MulImmAddI w; Ld<T>  ->  Ld<T>Sc   (scaled load: the address
      // formation folds into the memory access when the scale is the
      // element width).
      if (I0.Code == Op::MulImmAddI) {
        Op Fused;
        if (scLoadFor(I1.Code, Fused) &&
            I0.A == (int64_t)memOpWidth(I1.Code)) {
          RW = {2, 1, {{Fused, 0, 0}, {}}};
          return true;
        }
      }
      // LoadLocalImmAddI s,d; StoreLocal s  ->  IncLocalI64 s,d
      if (I0.Code == Op::LoadLocalImmAddI && I1.Code == Op::StoreLocal &&
          I1.A == I0.A) {
        RW = {2, 1, {{Op::IncLocalI64, I0.A, I0.B}, {}}};
        return true;
      }
    }
    // Redundant re-normalization: producer already fits the trunc width.
    if (I1.Code == Op::TruncI &&
        slotRangeFits(producerRange(I0, SlotRanges), I1.A, I1.B)) {
      RW = {2, 1, {I0, {}}};
      return true;
    }
    // TruncI(w1,_); TruncI(w2,s2) with w2 <= w1: the second wrap alone
    // yields the same low bytes (wrapping preserves low bytes).
    if (I0.Code == Op::TruncI && I1.Code == Op::TruncI && I1.A <= I0.A) {
      RW = {2, 1, {I1, {}}};
      return true;
    }
    if (Fusions) {
      // Compare-and-branch fusion.
      if (I1.Code == Op::JmpIfZero || I1.Code == Op::JmpIfNotZero) {
        Op Fused;
        if (fusedCompareJump(I0.Code, I1.Code == Op::JmpIfNotZero, Fused)) {
          RW = {2, 1, {{Fused, I1.A, 0}, {}}};
          return true;
        }
      }
      // Paired local loads — but never when the second load could feed a
      // wider fusion one position later (LoadLoadAddI, LoadLocalImmAddI,
      // or the counter patterns all start with LoadLocal and end in
      // AddI). Pending TruncIs between the loads and the AddI are looked
      // through: the dataflow usually elides them a round later, and the
      // wider fusion must still get its chance then.
      if (I0.Code == Op::LoadLocal && I1.Code == Op::LoadLocal) {
        size_t K = PC + 2;
        if (K < N && C[K].Code == Op::TruncI)
          ++K;
        bool BlocksWiderFusion = false;
        if (K < N &&
            (C[K].Code == Op::LoadLocal || C[K].Code == Op::PushI)) {
          ++K;
          if (K < N && C[K].Code == Op::TruncI)
            ++K;
          BlocksWiderFusion = K < N && C[K].Code == Op::AddI;
        }
        if (!BlocksWiderFusion) {
          RW = {2, 1, {{Op::LoadLocal2, I0.A, I1.A}, {}}};
          return true;
        }
      }
    }
  }

  // --- 1-wide -----------------------------------------------------------
  // Wraps to >= 8 bytes are identities.
  if (I0.Code == Op::TruncI && I0.A >= 8) {
    RW = {1, 0, {{}, {}}};
    return true;
  }
  // Dataflow-driven re-normalization elision: the value on top of the
  // stack here (tracked through AddImmI/LoadLoadAddI/... chains by the
  // abstract interpreter) provably already fits the requested width.
  if (I0.Code == Op::TruncI && PC < TopBefore.size() &&
      slotRangeFits(TopBefore[PC], I0.A, I0.B)) {
    RW = {1, 0, {{}, {}}};
    return true;
  }
  if ((I0.Code == Op::AddImmI && I0.A == 0) ||
      (I0.Code == Op::MulImmI && I0.A == 1)) {
    RW = {1, 0, {{}, {}}};
    return true;
  }
  // Jump to the next instruction.
  if (I0.Code == Op::Jmp && (uint64_t)I0.A == PC + 1) {
    RW = {1, 0, {{}, {}}};
    return true;
  }
  if ((I0.Code == Op::JmpIfZero || I0.Code == Op::JmpIfNotZero) &&
      (uint64_t)I0.A == PC + 1) {
    RW = {1, 1, {{Op::Pop, 0, 0}, {}}};
    return true;
  }

  return false;
}

bool runRound(FuncDef &F, const VmProgram *Prog,
              const std::vector<Range> &SlotRanges, bool Fusions,
              bool WantTopBefore) {
  const std::vector<Instr> &Code = F.Code;
  size_t N = Code.size();
  std::vector<uint8_t> Target = computeJumpTargetFlags(F);
  // The chain-tracking stack walk runs in the early rounds of each
  // phase, where virtually all chained-TruncI elisions land; later
  // rounds fall back to the cheap producer-based rule (matchAt guards on
  // TopBefore's size), keeping compile throughput flat.
  std::vector<Range> TopBefore;
  if (WantTopBefore)
    TopBefore = computeTopBefore(F, Target, SlotRanges, Prog);

  std::vector<Instr> Out;
  Out.reserve(N);
  std::vector<uint32_t> Map(N + 1, 0);
  bool Changed = false;

  size_t PC = 0;
  while (PC < N) {
    Rewrite RW;
    if (matchAt(Code, PC, N, Target, SlotRanges, TopBefore, Fusions, RW)) {
      for (unsigned I = 0; I < RW.Consumed; ++I)
        Map[PC + I] = (uint32_t)Out.size();
      for (unsigned I = 0; I < RW.Produced; ++I)
        Out.push_back(RW.Repl[I]);
      PC += RW.Consumed;
      Changed = true;
    } else {
      Map[PC] = (uint32_t)Out.size();
      Out.push_back(Code[PC]);
      ++PC;
    }
  }
  Map[N] = (uint32_t)Out.size();

  if (!Changed)
    return false;
  for (Instr &I : Out)
    if (isJumpOp(I.Code)) {
      // A malformed out-of-range target (compiler bug, hand-built
      // program) is kept as-is for Device::validateProgram to report.
      if ((uint64_t)I.A <= N)
        I.A = Map[I.A];
    }
  F.Code = std::move(Out);
  return true;
}

} // namespace

std::vector<SlotRange> dpo::slotInvariantRanges(const FuncDef &F,
                                                const VmProgram *Program) {
  return computeSlotFixpoint(F, computeJumpTargetFlags(F), Program);
}

PeepholeStats dpo::optimizeFunction(FuncDef &F, const VmProgram *Program) {
  PeepholeStats Stats;
  Stats.InstrsBefore = (unsigned)F.Code.size();
  // Phase 1a: constant folding, dead-code elimination, and identity
  // cleanup with no range information — cheap rounds that typically
  // shrink raw bytecode substantially before any dataflow runs.
  // Capped without a fixpoint-termination pass: phase 1b's rule set is a
  // strict superset, so anything 1a leaves behind is picked up there.
  const std::vector<Range> NoRanges;
  for (int R = 0; R < 1 && runRound(F, Program, NoRanges, false, false); ++R)
    ++Stats.Rounds;
  // The slot-range fixpoint runs once, on the normalized (much smaller)
  // code; its invariants are dynamic facts that every semantics-
  // preserving rewrite keeps true (see computeSlotFixpoint).
  std::vector<Range> SlotRanges =
      computeSlotFixpoint(F, computeJumpTargetFlags(F), Program);
  // Phase 1b: range-driven rewriting to a (bounded) fixpoint — TruncI
  // elision through the per-slot invariants and the chain-tracking stack
  // walk, plus every fusion rule (the folding phase above already
  // exposed the clean base sequences, so fusions no longer compete with
  // cheaper rewrites). The stack walk runs in the first rounds, where
  // virtually all chained elisions land; later rounds keep the cheap
  // producer-based elision rule.
  unsigned Phase2Rounds = 0;
  while (Stats.Rounds < 32 &&
         runRound(F, Program, SlotRanges, true, Phase2Rounds++ < 2))
    ++Stats.Rounds;
  Stats.InstrsAfter = (unsigned)F.Code.size();
  return Stats;
}

PeepholeStats dpo::optimizeProgram(VmProgram &Program) {
  PeepholeStats Total;
  for (FuncDef &F : Program.Functions)
    Total += optimizeFunction(F, &Program);
  return Total;
}
