//===--- ExecIR.cpp - bytecode -> decoded-IR lowering --------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "vm/ExecIR.h"
#include "vm/Peephole.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

using namespace dpo;

const char *dpo::execOpName(uint16_t Code) {
  if (Code < NumOpcodes)
    return opName((Op)Code);
  static const char *const Names[] = {
#define DPO_XOP_NAME(name) #name,
      DPO_FOR_EACH_XOPCODE(DPO_XOP_NAME)
#undef DPO_XOP_NAME
  };
  unsigned Idx = Code - NumOpcodes;
  return Idx < NumExecOpcodes - NumOpcodes ? Names[Idx] : "<bad-xop>";
}

namespace {

bool isPush(Op Code) { return Code == Op::PushI || Code == Op::PushF; }

bool fusedJumpFor(Op Jump, XOp &Out) {
  switch (Jump) {
  case Op::JmpIfLTI: Out = XOp::JmpLLLTI; return true;
  case Op::JmpIfGEI: Out = XOp::JmpLLGEI; return true;
  case Op::JmpIfLEI: Out = XOp::JmpLLLEI; return true;
  case Op::JmpIfGTI: Out = XOp::JmpLLGTI; return true;
  case Op::JmpIfEQ: Out = XOp::JmpLLEQ; return true;
  case Op::JmpIfNE: Out = XOp::JmpLLNE; return true;
  case Op::JmpIfLTU: Out = XOp::JmpLLLTU; return true;
  case Op::JmpIfGEU: Out = XOp::JmpLLGEU; return true;
  case Op::JmpIfLEU: Out = XOp::JmpLLLEU; return true;
  case Op::JmpIfGTU: Out = XOp::JmpLLGTU; return true;
  default: return false;
  }
}

int64_t packSlots(int64_t Lo, int64_t Hi) {
  return (int64_t)((uint64_t)(uint32_t)Lo | ((uint64_t)(uint32_t)Hi << 32));
}

/// Tries to fuse the pair starting at \p PC into one decoded
/// instruction. The second instruction must not be a jump target (the
/// caller checks), and the first must be unable to jump, trap, or fail —
/// true for all the producers below — so both always retire together and
/// the fused Cost of 2 keeps step accounting exact.
bool fusePair(const Instr &I0, const Instr &I1, ExecInstr &Out) {
  switch (I1.Code) {
  case Op::StoreLocal:
    switch (I0.Code) {
    case Op::PushI:
    case Op::PushF:
      Out.Code = (uint16_t)XOp::StoreLocalImm;
      Out.A = I1.A;
      Out.B = I0.A;
      return true;
    case Op::LoadLocal:
      Out.Code = (uint16_t)XOp::CopyLocal;
      Out.A = I1.A;
      Out.B = I0.A;
      return true;
    case Op::GlobalTidX:
      Out.Code = (uint16_t)XOp::GlobalTidStore;
      Out.A = I1.A;
      Out.B = I0.B;
      return true;
    default:
      return false;
    }
  case Op::LoadLocal:
    // StoreLocal s; LoadLocal s — a tee: keep the top, store a copy.
    if (I0.Code == Op::StoreLocal && I0.A == I1.A) {
      Out.Code = (uint16_t)XOp::TeeLocal;
      Out.A = I0.A;
      return true;
    }
    return false;
  case Op::PushI:
  case Op::PushF:
    if (isPush(I0.Code)) {
      Out.Code = (uint16_t)XOp::Push2;
      Out.A = I0.A;
      Out.B = I1.A;
      return true;
    }
    return false;
  case Op::TruncI:
    switch (I0.Code) {
    case Op::AddI:
      Out.Code = (uint16_t)XOp::AddTrunc;
      Out.A = (I1.A << 1) | (I1.B != 0);
      return true;
    case Op::MulImmI:
      Out.Code = (uint16_t)XOp::MulImmTrunc;
      Out.A = I0.A;
      Out.B = (I1.A << 1) | (I1.B != 0);
      return true;
    case Op::LoadLocalImmAddI:
      if (I0.B >= INT32_MIN && I0.B <= INT32_MAX) {
        Out.Code = (uint16_t)XOp::LoadImmAddTrunc;
        Out.A = packSlots(I0.A, I0.B); // slot | (imm32 << 32)
        Out.B = (I1.A << 1) | (I1.B != 0);
        return true;
      }
      return false;
    default:
      return false;
    }
  case Op::MulImmAddI:
    if (I0.Code == Op::TruncI) {
      Out.Code = (uint16_t)XOp::TruncMulAdd;
      Out.A = I1.A;
      Out.B = (I0.A << 1) | (I0.B != 0);
      return true;
    }
    return false;
  case Op::LoadLoadAddI:
    if (I0.Code == Op::LoadLocal) {
      Out.Code = (uint16_t)XOp::LoadLLAdd;
      Out.A = packSlots(I0.A, I1.A);
      Out.B = I1.B;
      return true;
    }
    return false;
  default: {
    XOp Fused;
    if (I0.Code == Op::LoadLocal2 && fusedJumpFor(I1.Code, Fused)) {
      Out.Code = (uint16_t)Fused;
      Out.A = I1.A; // Jump target (remapped by the caller's fixup pass).
      Out.B = packSlots(I0.A, I0.B);
      return true;
    }
    return false;
  }
  }
}

//===----------------------------------------------------------------------===//
// Trace formation.
//
// A trace is a straight-line superblock walked out of the bytecode from a
// loop head (a back-edge target): forward conditionals become guards that
// side-exit into the baseline region (predicted not-taken, unless the
// fall-through slot holds the unconditional Jmp of a break/continue
// diamond — then the guard is inverted and the taken edge is walked),
// forward unconditional jumps fold away, and the head's own back edge
// closes the trace into a loop. Along the walked path an abstract
// evaluator tracks value ranges (seeded from the peephole's
// whole-function slot invariants and refined by every guard's fall-through
// condition), which licenses eliding provably-identity TruncIs, and the
// baseline pair fuser runs once more over the straightened stream —
// inside a trace there are no jump-target barriers, so it fuses across
// what used to be basic-block boundaries. Function entry is not a head
// (see vm/README.md for why).
//
// Step accounting is exact by construction: every emitted element carries
// the step cost of the bytecode instructions it covers, and the cost of a
// folded instruction (forward Jmp, elided TruncI) rides on the NEXT
// emitted element — the folded instruction executes before it on the
// original path, so by the time any element retires, exactly the original
// number of steps has been charged. TraceEnter costs 0 and can never trip
// the step budget; a TraceExit trampoline costs 0 unless its guard was
// inverted, in which case it retires the folded Jmp the exit path would
// have executed.
//===----------------------------------------------------------------------===//

constexpr unsigned MaxTraceElems = 192; ///< Walk cap per trace.
constexpr unsigned MaxHeads = 16;       ///< Loop heads per function.
constexpr unsigned MaxPending = 64;     ///< Folded-cost rider cap.

/// The inverse predicate, for turning a backward taken-edge into a
/// fall-through-into-TraceLoop guard.
Op invertCondJump(Op C) {
  switch (C) {
  case Op::JmpIfZero: return Op::JmpIfNotZero;
  case Op::JmpIfNotZero: return Op::JmpIfZero;
  case Op::JmpIfLTI: return Op::JmpIfGEI;
  case Op::JmpIfGEI: return Op::JmpIfLTI;
  case Op::JmpIfLEI: return Op::JmpIfGTI;
  case Op::JmpIfGTI: return Op::JmpIfLEI;
  case Op::JmpIfEQ: return Op::JmpIfNE;
  case Op::JmpIfNE: return Op::JmpIfEQ;
  case Op::JmpIfLTU: return Op::JmpIfGEU;
  case Op::JmpIfGEU: return Op::JmpIfLTU;
  case Op::JmpIfLEU: return Op::JmpIfGTU;
  case Op::JmpIfGTU: return Op::JmpIfLEU;
  default: return C;
  }
}

bool isCompareOp(Op C) {
  switch (C) {
  case Op::CmpEQ: case Op::CmpNE:
  case Op::CmpLTI: case Op::CmpLEI: case Op::CmpGTI: case Op::CmpGEI:
  case Op::CmpLTU: case Op::CmpLEU: case Op::CmpGTU: case Op::CmpGEU:
  case Op::CmpEQF: case Op::CmpNEF:
  case Op::CmpLTF: case Op::CmpLEF: case Op::CmpGTF: case Op::CmpGEF:
    return true;
  default:
    return false;
  }
}

/// Mirrors the peephole's sregRange: runGrid rejects blocks over 1024
/// threads, so threadIdx stays below 1024 and blockDim in [1, 1024].
SlotRange traceSregRange(unsigned Builtin) {
  if (Builtin == 0)
    return {true, 0, 1023};
  if (Builtin == 2)
    return {true, 1, 1024};
  return {true, 0, (int64_t)UINT32_MAX};
}

/// One abstract stack value: its range plus slot provenance — Slot >= 0
/// means "this value is the current content of local slot Slot", which
/// is what makes a guard on the value refine the slot's range. Any write
/// to the slot scrubs the provenance (the range stays valid: it bounds
/// the value, which still exists on the stack).
struct AbsVal {
  SlotRange R;
  int32_t Slot = -1;
};

/// Abstract evaluator state for one trace walk: a bounded value stack
/// (suffix semantics — overflow drops all knowledge, pops of unknown
/// depth return unknown) plus strong per-path slot ranges, seeded from
/// the whole-function invariants and narrowed by stores and guards.
struct AbsEval {
  static constexpr unsigned Cap = 64;
  AbsVal S[Cap];
  unsigned Sp = 0;
  std::vector<SlotRange> Slots;

  void push(AbsVal V) {
    if (Sp == Cap)
      clearStack(); // Conservative: deeper values become unknown.
    else
      S[Sp++] = V;
  }
  void pushR(SlotRange R) { push({R, -1}); }
  AbsVal pop() { return Sp ? S[--Sp] : AbsVal{}; }
  SlotRange popR() { return pop().R; }
  void popN(unsigned N) { Sp = N >= Sp ? 0 : Sp - N; }
  AbsVal top() const { return Sp ? S[Sp - 1] : AbsVal{}; }
  void clearStack() { Sp = 0; }

  SlotRange slot(int64_t Idx) const {
    return (uint64_t)Idx < Slots.size() ? Slots[Idx] : SlotRange{};
  }
  void setSlot(int64_t Idx, SlotRange R) {
    if ((uint64_t)Idx < Slots.size())
      Slots[Idx] = R;
  }
  void scrubSlot(int64_t Idx) {
    for (unsigned I = 0; I < Sp; ++I)
      if (S[I].Slot == (int32_t)Idx)
        S[I].Slot = -1;
  }
  void writeSlot(int64_t Idx, SlotRange R) {
    scrubSlot(Idx);
    setSlot(Idx, R);
  }
  void clearAll() {
    clearStack();
    for (SlotRange &R : Slots)
      R = {};
  }
};

/// Intersects slot \p Slot's range with [\p NLo, \p NHi]. Unknown
/// promotes to full int64 first; an empty intersection means the path is
/// dead — skip rather than publish a wrong range.
void clampSlot(AbsEval &St, int32_t Slot, int64_t NLo, int64_t NHi) {
  if (Slot < 0)
    return;
  SlotRange Cur = St.slot(Slot);
  if (!Cur.Known)
    Cur = {true, INT64_MIN, INT64_MAX};
  Cur.Lo = std::max(Cur.Lo, NLo);
  Cur.Hi = std::min(Cur.Hi, NHi);
  if (Cur.Lo > Cur.Hi)
    return;
  St.setSlot(Slot, Cur);
}

/// Pops a forward guard's operands and refines slot ranges with the
/// FALL-THROUGH condition (the guard predicted not-taken: its predicate
/// is false on the path that stays in the trace).
void applyGuard(AbsEval &St, Op C) {
  if (C == Op::JmpIfZero) {
    AbsVal V = St.pop(); // Fall through: value != 0 — trim a 0 endpoint.
    if (V.R.Known && V.R.Lo == 0)
      clampSlot(St, V.Slot, 1, INT64_MAX);
    else if (V.R.Known && V.R.Hi == 0)
      clampSlot(St, V.Slot, INT64_MIN, -1);
    return;
  }
  if (C == Op::JmpIfNotZero) {
    AbsVal V = St.pop(); // Fall through: value == 0.
    if (!V.R.Known || (V.R.Lo <= 0 && V.R.Hi >= 0))
      clampSlot(St, V.Slot, 0, 0);
    return;
  }
  AbsVal R = St.pop(), L = St.pop();
  Op SC = C;
  switch (C) {
  case Op::JmpIfLTU: case Op::JmpIfGEU: case Op::JmpIfLEU: case Op::JmpIfGTU:
    // Unsigned predicates coincide with the signed ones only when both
    // sides are provably nonnegative.
    if (!(L.R.Known && R.R.Known && L.R.Lo >= 0 && R.R.Lo >= 0))
      return;
    SC = C == Op::JmpIfLTU   ? Op::JmpIfLTI
         : C == Op::JmpIfGEU ? Op::JmpIfGEI
         : C == Op::JmpIfLEU ? Op::JmpIfLEI
                             : Op::JmpIfGTI;
    break;
  default:
    break;
  }
  switch (SC) {
  case Op::JmpIfLTI: // Fall through: L >= R.
    if (R.R.Known)
      clampSlot(St, L.Slot, R.R.Lo, INT64_MAX);
    if (L.R.Known)
      clampSlot(St, R.Slot, INT64_MIN, L.R.Hi);
    break;
  case Op::JmpIfGEI: // Fall through: L < R.
    if (R.R.Known && R.R.Hi > INT64_MIN)
      clampSlot(St, L.Slot, INT64_MIN, R.R.Hi - 1);
    if (L.R.Known && L.R.Lo < INT64_MAX)
      clampSlot(St, R.Slot, L.R.Lo + 1, INT64_MAX);
    break;
  case Op::JmpIfLEI: // Fall through: L > R.
    if (R.R.Known && R.R.Lo < INT64_MAX)
      clampSlot(St, L.Slot, R.R.Lo + 1, INT64_MAX);
    if (L.R.Known && L.R.Hi > INT64_MIN)
      clampSlot(St, R.Slot, INT64_MIN, L.R.Hi - 1);
    break;
  case Op::JmpIfGTI: // Fall through: L <= R.
    if (R.R.Known)
      clampSlot(St, L.Slot, INT64_MIN, R.R.Hi);
    if (L.R.Known)
      clampSlot(St, R.Slot, L.R.Lo, INT64_MAX);
    break;
  case Op::JmpIfNE: // Fall through: L == R — intersect both ways.
    if (R.R.Known)
      clampSlot(St, L.Slot, R.R.Lo, R.R.Hi);
    if (L.R.Known)
      clampSlot(St, R.Slot, L.R.Lo, L.R.Hi);
    break;
  default: // JmpIfEQ fall-through (L != R) carries no interval.
    break;
  }
}

/// The abstract transfer for one non-control instruction on the trace
/// path. Mirrors the peephole dataflow (vm/Peephole.cpp dataflowStep)
/// but with strong per-path slot updates — inside a trace there are no
/// merge points, so a store's range replaces the slot's outright.
void applyTransfer(AbsEval &St, const Instr &I, const VmProgram *Prog) {
  if (isCompareOp(I.Code)) {
    St.popN(2);
    St.pushR({true, 0, 1});
    return;
  }
  switch (I.Code) {
  case Op::PushI:
  case Op::PushF:
    St.pushR({true, I.A, I.A});
    break;
  case Op::LoadLocal:
    St.push({St.slot(I.A), (int32_t)I.A});
    break;
  case Op::StoreLocal: {
    AbsVal V = St.pop();
    St.writeSlot(I.A, V.R);
    break;
  }
  case Op::Dup:
    St.push(St.top());
    break;
  case Op::Pop:
    St.pop();
    break;
  case Op::Swap: {
    AbsVal A = St.pop(), B = St.pop();
    St.push(A);
    St.push(B);
    break;
  }
  case Op::LdI8:
    St.pop();
    St.pushR(slotRangeOfTrunc(1, 1));
    break;
  case Op::LdU8:
    St.pop();
    St.pushR(slotRangeOfTrunc(1, 0));
    break;
  case Op::LdI16:
    St.pop();
    St.pushR(slotRangeOfTrunc(2, 1));
    break;
  case Op::LdU16:
    St.pop();
    St.pushR(slotRangeOfTrunc(2, 0));
    break;
  case Op::LdI32:
    St.pop();
    St.pushR(slotRangeOfTrunc(4, 1));
    break;
  case Op::LdU32:
    St.pop();
    St.pushR(slotRangeOfTrunc(4, 0));
    break;
  case Op::LdI64:
  case Op::LdF32:
  case Op::LdF64:
    St.pop();
    St.pushR({});
    break;
  case Op::StI8: case Op::StI16: case Op::StI32: case Op::StI64:
  case Op::StF32: case Op::StF64:
    St.popN(2);
    break;
  case Op::FrameAddr:
  case Op::SharedBase:
    St.pushR({});
    break;
  case Op::AddI: {
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(rAdd(L, R));
    break;
  }
  case Op::SubI: {
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(rSub(L, R));
    break;
  }
  case Op::MulI: {
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(rMul(L, R));
    break;
  }
  case Op::DivI: {
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(rDivPos(L, R));
    break;
  }
  case Op::RemI:
  case Op::RemU: {
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(rRemPos(L, R));
    break;
  }
  case Op::DivU: {
    // Nonnegative int64 ranges behave identically under / and u/.
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(L.Known && L.Lo >= 0 ? rDivPos(L, R) : SlotRange{});
    break;
  }
  case Op::MinI: {
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(rMinI(L, R));
    break;
  }
  case Op::MaxI: {
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(rMaxI(L, R));
    break;
  }
  case Op::MinU:
  case Op::MaxU: {
    // Sound only when both sides are provably nonnegative.
    SlotRange R = St.popR(), L = St.popR();
    if (L.Known && R.Known && L.Lo >= 0 && R.Lo >= 0)
      St.pushR(I.Code == Op::MinU ? rMinI(L, R) : rMaxI(L, R));
    else
      St.pushR({});
    break;
  }
  case Op::BitAnd: {
    SlotRange R = St.popR(), L = St.popR();
    if (L.Known && R.Known && L.Lo >= 0 && R.Lo >= 0)
      St.pushR({true, 0, std::min(L.Hi, R.Hi)});
    else
      St.pushR({});
    break;
  }
  case Op::Shl: case Op::ShrI: case Op::ShrU:
  case Op::BitOr: case Op::BitXor:
    St.popN(2);
    St.pushR({});
    break;
  case Op::BitNot: {
    SlotRange V = St.popR();
    St.pushR(V.Known ? SlotRange{true, ~V.Hi, ~V.Lo} : SlotRange{});
    break;
  }
  case Op::NegI: {
    SlotRange V = St.popR();
    if (V.Known && V.Lo != INT64_MIN)
      St.pushR({true, -V.Hi, -V.Lo});
    else
      St.pushR({});
    break;
  }
  case Op::LogicalNot:
    St.pop();
    St.pushR({true, 0, 1});
    break;
  case Op::AddF: case Op::SubF: case Op::MulF: case Op::DivF:
  case Op::Math2:
    St.popN(2);
    St.pushR({});
    break;
  case Op::NegF: case Op::I2F: case Op::U2F: case Op::F2I:
  case Op::F2Single: case Op::Math1:
    St.pop();
    St.pushR({});
    break;
  case Op::TruncI:
    St.pushR(rTruncOf(St.popR(), I.A, I.B));
    break;
  case Op::Call:
    St.popN((unsigned)I.B);
    if (!Prog)
      St.clearStack(); // Unknown callee arity: stay conservative.
    else if ((uint64_t)I.A < Prog->Functions.size() &&
             Prog->Functions[I.A].ReturnsValue)
      St.pushR({});
    // Callees run in their own frames: caller slots survive the call.
    break;
  case Op::SReg:
    St.pushR(traceSregRange((unsigned)I.A / 4));
    break;
  case Op::SyncThreads:
  case Op::ThreadFence:
  case Op::CudaSync:
    break;
  case Op::WarpShfl:
    St.popN(3);
    St.pushR({});
    break;
  case Op::WarpBallot:
    St.popN(2);
    St.pushR(slotRangeOfTrunc(4, 0));
    break;
  case Op::BlockReduce:
    St.pop();
    St.pushR({});
    break;
  case Op::AtomicAdd: case Op::AtomicMax: case Op::AtomicMin:
  case Op::AtomicExch: case Op::AtomicOr: case Op::AtomicAnd:
    St.popN(2);
    St.pushR(I.A == 4 ? slotRangeOfTrunc(4, I.B != 0) : SlotRange{});
    break;
  case Op::AtomicCAS:
    St.popN(3);
    St.pushR(I.A == 4 ? slotRangeOfTrunc(4, I.B != 0) : SlotRange{});
    break;
  case Op::Launch:
    St.popN(6 + (unsigned)I.B);
    break;
  case Op::SpecGuard:
    St.popN(2);
    St.pushR({true, 0, 1});
    break;
  case Op::CudaMalloc:
    St.popN(2);
    St.pushR({true, 0, 0});
    break;
  case Op::CudaFree:
    St.pop();
    St.pushR({true, 0, 0});
    break;
  case Op::CudaMemset:
    St.popN(3);
    St.pushR({true, 0, 0});
    break;
  case Op::CudaMemcpy:
    St.popN(4);
    St.pushR({true, 0, 0});
    break;
  case Op::LoadLocal2:
    St.push({St.slot(I.A), (int32_t)I.A});
    St.push({St.slot(I.B), (int32_t)I.B});
    break;
  case Op::LoadLocalImmAddI:
    St.pushR(rAddConst(St.slot(I.A), I.B));
    break;
  case Op::LoadLoadAddI:
    St.pushR(rAdd(St.slot(I.A), St.slot(I.B)));
    break;
  case Op::AddImmI:
    St.pushR(rAddConst(St.popR(), I.A));
    break;
  case Op::MulImmI:
    St.pushR(rMul(St.popR(), {true, I.A, I.A}));
    break;
  case Op::MulImmAddI: {
    SlotRange Y = St.popR(), X = St.popR();
    St.pushR(rAdd(X, rMul(Y, {true, I.A, I.A})));
    break;
  }
  case Op::IncLocalI32:
    St.writeSlot(I.A, rTruncOf(rAddConst(St.slot(I.A), I.B), 4, 1));
    break;
  case Op::IncLocalI64:
    St.writeSlot(I.A, rAddConst(St.slot(I.A), I.B));
    break;
  case Op::GlobalTidX:
    St.pushR(slotRangeOfTrunc(4, I.B));
    break;
  case Op::LdI32Idx:
    St.pushR(slotRangeOfTrunc(4, 1));
    break;
  case Op::LdU32Idx:
    St.pushR(slotRangeOfTrunc(4, 0));
    break;
  case Op::LdI64Idx: case Op::LdF32Idx: case Op::LdF64Idx:
    St.pushR({});
    break;
  case Op::LdI32Sc:
    St.popN(2);
    St.pushR(slotRangeOfTrunc(4, 1));
    break;
  case Op::LdU32Sc:
    St.popN(2);
    St.pushR(slotRangeOfTrunc(4, 0));
    break;
  case Op::LdI64Sc: case Op::LdF32Sc: case Op::LdF64Sc:
    St.popN(2);
    St.pushR({});
    break;
  case Op::StI32Sc: case Op::StI64Sc: case Op::StF32Sc: case Op::StF64Sc:
    St.popN(3);
    break;
  default:
    // Unmodeled opcode: drop every piece of knowledge (sound).
    St.clearAll();
    break;
  }
}

/// One walked trace element: a bytecode instruction, the step cost it
/// retires (own cost plus any folded riders), and for guards the bytecode
/// PC of the side exit.
struct TraceElem {
  uint16_t Code = 0;
  int64_t A = 0, B = 0;
  uint32_t C = 0; ///< Launch-site ordinal (Op::Launch only).
  unsigned Cost = 0;
  int32_t Exit = -1;
  /// Steps the side-exit trampoline itself retires: nonzero when the
  /// exit path crosses a folded instruction (the unconditional Jmp of an
  /// inverted break-shaped guard) that the in-trace path never executes.
  unsigned ExitCost = 0;
};

struct TraceBuild {
  std::vector<TraceElem> Elems;
  bool Viable = false; ///< Walk produced a well-formed trace.
  bool Closed = false; ///< Ends with a TraceLoop back to the body start.
  bool Bail = false;   ///< Ends with a synthetic Jmp into the baseline.
  unsigned CloseCost = 0;
  unsigned BailPC = 0;   ///< Bytecode PC the bail jump resumes at.
  unsigned BailCost = 0; ///< Folded riders charged on the bail jump.
  /// Baseline decoded dispatches the walked path would execute — the
  /// bar a trace must beat to be kept.
  unsigned BaselineDispatches = 0;
};

/// Walks the predicted path from \p Head, folding forward jumps, turning
/// forward conditionals into side-exit guards, eliding provably-identity
/// TruncIs, and closing on the head's own back edge.
TraceBuild walkTrace(const FuncDef &F, const VmProgram &Program,
                     const std::vector<SlotRange> &Invariants,
                     const std::vector<uint32_t> &Map, unsigned Head) {
  TraceBuild T;
  size_t N = F.Code.size();
  AbsEval St;
  St.Slots = Invariants;
  unsigned Pending = 0; // Folded steps riding on the next emitted element.
  uint32_t LastMap = UINT32_MAX;
  auto CountDispatch = [&](unsigned PC) {
    if (Map[PC] != LastMap) {
      ++T.BaselineDispatches;
      LastMap = Map[PC];
    }
  };
  auto BailAt = [&](unsigned BPC) {
    // A bail must land on a PC that STARTS a decoded instruction. If BPC
    // is the second half of a baseline-fused pair, Map[BPC] is the fused
    // instruction, which would re-execute the first half the trace
    // already covered. Rewind one bytecode instruction: the walk reached
    // a pair's second half only by falling through from its first half
    // (second halves are never jump targets), which was either the last
    // emitted element (un-emit it, keep its folded riders) or an elided
    // TruncI (drop its rider — the fused pair re-executes it).
    if (BPC > 0 && Map[BPC] == Map[BPC - 1]) {
      if (Pending)
        --Pending;
      else {
        Pending = T.Elems.back().Cost - 1;
        T.Elems.pop_back();
      }
      --BPC;
    }
    T.Bail = true;
    T.BailPC = BPC;
    T.BailCost = Pending;
    T.Viable = true;
  };
  unsigned PC = Head;
  for (;;) {
    if (PC >= N)
      return {}; // Validation forbids this; stay safe regardless.
    if (T.Elems.size() >= MaxTraceElems || Pending >= MaxPending) {
      BailAt(PC);
      return T;
    }
    const Instr &I = F.Code[PC];
    if (I.Code == Op::Jmp) {
      unsigned Tgt = (unsigned)I.A;
      if (Tgt == Head) { // The loop's own back edge: close.
        CountDispatch(PC);
        T.Closed = true;
        T.CloseCost = 1 + Pending;
        T.Viable = true;
        return T;
      }
      if (Tgt > PC) { // Forward: fold it, charge the next element.
        CountDispatch(PC);
        ++Pending;
        PC = Tgt;
        continue;
      }
      BailAt(PC); // Backward to some other loop: not our path.
      return T;
    }
    if (isJumpOp(I.Code)) {
      unsigned Tgt = (unsigned)I.A;
      if (Tgt == Head) {
        // Backward conditional to our head: invert it so the loop path
        // falls through into TraceLoop and the exit path side-exits to
        // the original fall-through.
        CountDispatch(PC);
        TraceElem E;
        E.Code = (uint16_t)invertCondJump(I.Code);
        E.A = I.A;
        E.B = I.B;
        E.Cost = 1 + Pending;
        E.Exit = (int32_t)(PC + 1);
        Pending = 0;
        T.Elems.push_back(E);
        T.Closed = true;
        T.CloseCost = 0;
        T.Viable = true;
        return T;
      }
      if (Tgt <= PC) { // Backward to another head: hand off.
        BailAt(PC);
        return T;
      }
      // Forward conditional: pick the predicted edge. The default is
      // fall-through (not-taken), but the `JmpIf -> continue-label; Jmp
      // exit` shape compilers emit for break/continue edges makes the
      // TAKEN edge the one that stays in the loop. Detect it by an
      // unconditional Jmp in the fall-through slot jumping past the
      // conditional's own target: invert the guard, side-exit through
      // the folded Jmp's target (its step rides on the trampoline), and
      // keep walking at the taken target.
      CountDispatch(PC);
      TraceElem E;
      E.Cost = 1 + Pending;
      Pending = 0;
      if (PC + 1 < N && F.Code[PC + 1].Code == Op::Jmp &&
          (unsigned)F.Code[PC + 1].A > Tgt) {
        E.Code = (uint16_t)invertCondJump(I.Code);
        E.A = I.A;
        E.B = I.B;
        E.Exit = (int32_t)(unsigned)F.Code[PC + 1].A;
        E.ExitCost = 1; // The folded Jmp retires on the exit path only.
        T.Elems.push_back(E);
        applyGuard(St, (Op)E.Code);
        PC = Tgt;
        continue;
      }
      E.Code = (uint16_t)I.Code;
      E.A = I.A;
      E.B = I.B;
      E.Exit = (int32_t)Tgt;
      T.Elems.push_back(E);
      applyGuard(St, I.Code);
      ++PC;
      continue;
    }
    if (I.Code == Op::Ret || I.Code == Op::RetVoid || I.Code == Op::Trap) {
      CountDispatch(PC);
      TraceElem E;
      E.Code = (uint16_t)I.Code;
      E.A = I.A;
      E.B = I.B;
      E.Cost = 1 + Pending;
      T.Elems.push_back(E);
      T.Viable = true;
      return T;
    }
    if (I.Code == Op::TruncI && slotRangeFits(St.top().R, I.A, I.B)) {
      // Provably the identity on this path: skip it. The abstract state
      // is untouched — value and slot provenance both survive.
      CountDispatch(PC);
      ++Pending;
      ++PC;
      continue;
    }
    CountDispatch(PC);
    TraceElem E;
    E.Code = (uint16_t)I.Code;
    E.A = I.A;
    E.B = I.B;
    E.C = I.C;
    E.Cost = 1 + Pending;
    Pending = 0;
    T.Elems.push_back(E);
    applyTransfer(St, I, &Program);
    ++PC;
  }
}

/// Runs the baseline pair fuser over the straightened element stream.
/// Traces have no interior jump targets, so pairs fuse across what used
/// to be basic-block boundaries; a guard may be the second half (its
/// side exit transfers), never the first (it could leave the trace).
void fuseTraceElems(std::vector<TraceElem> &Elems) {
  std::vector<TraceElem> Out;
  Out.reserve(Elems.size());
  size_t N = Elems.size();
  for (size_t I = 0; I < N;) {
    if (I + 1 < N && Elems[I].Code < NumOpcodes &&
        Elems[I + 1].Code < NumOpcodes && Elems[I].Exit < 0 &&
        Elems[I].Cost + Elems[I + 1].Cost <= 255) {
      Instr I0{(Op)Elems[I].Code, Elems[I].A, Elems[I].B};
      Instr I1{(Op)Elems[I + 1].Code, Elems[I + 1].A, Elems[I + 1].B};
      ExecInstr E;
      if (fusePair(I0, I1, E)) {
        TraceElem F;
        F.Code = E.Code;
        F.A = E.A;
        F.B = E.B;
        F.Cost = Elems[I].Cost + Elems[I + 1].Cost;
        F.Exit = Elems[I + 1].Exit;
        F.ExitCost = Elems[I + 1].ExitCost;
        Out.push_back(F);
        I += 2;
        continue;
      }
    }
    Out.push_back(Elems[I]);
    ++I;
  }
  Elems = std::move(Out);
}

/// Appends one kept trace to \p Out: TraceEnter, the body (guard targets
/// patched to their TraceExit trampolines), the closing TraceLoop or
/// bail jump, then the trampolines. Records the head's baseline index ->
/// TraceEnter mapping for the caller's retarget pass.
void emitTrace(const TraceBuild &T, unsigned Head,
               const std::vector<uint32_t> &Map, ExecFunc &Out,
               std::unordered_map<uint32_t, uint32_t> &EnterOf) {
  // Unique (side-exit PC, trampoline cost) pairs, first-use order. The
  // cost keys the dedup because an inverted break-shaped guard charges
  // its folded Jmp on the trampoline while a plain guard charges nothing.
  std::vector<std::pair<int32_t, unsigned>> Exits;
  for (const TraceElem &E : T.Elems) {
    std::pair<int32_t, unsigned> Key{E.Exit, E.ExitCost};
    if (E.Exit >= 0 &&
        std::find(Exits.begin(), Exits.end(), Key) == Exits.end())
      Exits.push_back(Key);
  }
  unsigned EnterIdx = (unsigned)Out.Code.size();
  unsigned TrampBase = EnterIdx + 1 + (unsigned)T.Elems.size() +
                       (T.Closed ? 1 : 0) + (T.Bail ? 1 : 0);
  ExecInstr En;
  En.Code = (uint16_t)XOp::TraceEnter;
  En.Cost = 0;
  Out.Code.push_back(En);
  for (const TraceElem &E : T.Elems) {
    ExecInstr X;
    X.Code = E.Code;
    X.A = E.A;
    X.B = E.B;
    X.C = E.C;
    X.Cost = (uint8_t)E.Cost;
    if (E.Exit >= 0) {
      std::pair<int32_t, unsigned> Key{E.Exit, E.ExitCost};
      unsigned Pos = (unsigned)(std::find(Exits.begin(), Exits.end(), Key) -
                                Exits.begin());
      X.A = TrampBase + Pos;
    } else if (E.Code < NumOpcodes && (Op)E.Code == Op::SReg) {
      // Pre-split the dim*4+component encoding, as the baseline does.
      X.A = (unsigned)E.A / 4;
      X.B = (unsigned)E.A % 4;
    }
    Out.Code.push_back(X);
  }
  if (T.Closed) {
    ExecInstr L;
    L.Code = (uint16_t)XOp::TraceLoop;
    L.A = EnterIdx + 1;
    L.Cost = (uint8_t)T.CloseCost;
    Out.Code.push_back(L);
  }
  if (T.Bail) {
    ExecInstr B;
    B.Code = (uint16_t)Op::Jmp;
    B.A = Map[T.BailPC];
    B.Cost = (uint8_t)T.BailCost;
    Out.Code.push_back(B);
  }
  for (const auto &[XPC, XCost] : Exits) {
    ExecInstr Tp;
    Tp.Code = (uint16_t)XOp::TraceExit;
    Tp.A = Map[XPC];
    Tp.Cost = (uint8_t)XCost;
    Out.Code.push_back(Tp);
  }
  EnterOf[Map[Head]] = EnterIdx;
}

/// Forms traces for every loop head of \p F and appends the kept ones
/// after the baseline region, then retargets every jump aimed at a kept
/// head into its trace. Bail jumps and side-exit trampolines are
/// retargeted too, so traces chain into each other (an outer loop's trace
/// bails into its inner loop's, an exited loop re-enters on the next back
/// edge).
void formTraces(const FuncDef &F, const VmProgram &Program,
                const std::vector<uint32_t> &Map, ExecFunc &Out,
                ExecDecodeStats &Stats) {
  size_t N = F.Code.size();
  std::vector<unsigned> Heads;
  for (size_t PC = 0; PC < N && Heads.size() < MaxHeads; ++PC) {
    const Instr &I = F.Code[PC];
    if (isJumpOp(I.Code) && (uint64_t)I.A <= PC &&
        std::find(Heads.begin(), Heads.end(), (unsigned)I.A) == Heads.end())
      Heads.push_back((unsigned)I.A); // A back-edge target: a loop head.
  }

  // Whole-function slot invariants: sound at any point of any
  // activation, so sound to seed a trace head with however control got
  // there. Guards narrow them further along the walked path.
  std::vector<SlotRange> Invariants = slotInvariantRanges(F, &Program);

  std::unordered_map<uint32_t, uint32_t> EnterOf;
  for (unsigned Head : Heads) {
    TraceBuild T = walkTrace(F, Program, Invariants, Map, Head);
    if (!T.Viable)
      continue;
    fuseTraceElems(T.Elems);
    // Keep only traces that dispatch strictly less than the baseline
    // path they cover (TraceLoop skips TraceEnter, so the steady-state
    // loop path is body + closing jump).
    unsigned PathDispatch = (unsigned)T.Elems.size() + (T.Closed ? 1 : 0) +
                            (T.Bail ? 1 : 0);
    if (std::getenv("DPO_TRACE_DUMP")) {
      std::fprintf(stderr, "%s ", PathDispatch >= T.BaselineDispatches
                                      ? "DROP"
                                      : "KEEP");
      std::fprintf(stderr,
                   "trace head=%u closed=%d bail=%d bailpc=%u base=%u "
                   "path=%u elems=%zu\n",
                   Head, (int)T.Closed, (int)T.Bail, T.BailPC,
                   T.BaselineDispatches, PathDispatch, T.Elems.size());
      for (const TraceElem &E : T.Elems)
        std::fprintf(stderr, "  %-18s A=%lld B=%lld cost=%u exit=%d\n",
                     execOpName(E.Code), (long long)E.A, (long long)E.B,
                     E.Cost, E.Exit);
    }
    if (PathDispatch >= T.BaselineDispatches)
      continue;
    emitTrace(T, Head, Map, Out, EnterOf);
    ++Stats.TracesFormed;
  }
  Stats.TraceInstrs += Out.Code.size() - Out.TraceBase;
  if (EnterOf.empty())
    return;

  // Retarget: any jump whose (already remapped) target is a kept head's
  // baseline index enters the trace instead. Trace-internal operands
  // (guard trampolines, TraceLoop) point at or past TraceBase and are
  // never touched; bail jumps and trampolines point below it and chain.
  for (ExecInstr &E : Out.Code)
    if (execOpIsJump(E.Code) && (uint64_t)E.A < Out.TraceBase) {
      auto It = EnterOf.find((uint32_t)E.A);
      if (It != EnterOf.end())
        E.A = It->second;
    }
}

ExecFunc decodeFunction(const FuncDef &F, const VmProgram &Program,
                        const void *const *Handlers, ExecDecodeStats &Stats) {
  ExecFunc Out;
  Out.NumLocals = F.NumLocals;
  Out.NumParamSlots = F.NumParamSlots;
  Out.FrameBytes = F.FrameBytes;
  Out.IsKernel = F.IsKernel;
  Out.ReturnsValue = F.ReturnsValue;

  size_t N = F.Code.size();
  std::vector<uint8_t> Target = computeJumpTargetFlags(F);
  std::vector<uint32_t> Map(N + 1, 0);
  Out.Code.reserve(N);

  size_t PC = 0;
  while (PC < N) {
    ExecInstr E;
    if (PC + 1 < N && !Target[PC + 1] &&
        fusePair(F.Code[PC], F.Code[PC + 1], E)) {
      E.Cost = 2;
      Map[PC] = Map[PC + 1] = (uint32_t)Out.Code.size();
      Out.Code.push_back(E);
      PC += 2;
      ++Stats.FusedPairs;
      continue;
    }
    const Instr &I = F.Code[PC];
    E.Code = (uint16_t)I.Code;
    E.A = I.A;
    E.B = I.B;
    E.C = I.C;
    if (I.Code == Op::SReg) {
      // Pre-split the dim*4+component encoding.
      E.A = (unsigned)I.A / 4;
      E.B = (unsigned)I.A % 4;
    }
    Map[PC] = (uint32_t)Out.Code.size();
    Out.Code.push_back(E);
    ++PC;
  }
  Map[N] = (uint32_t)Out.Code.size();

  for (ExecInstr &E : Out.Code)
    if (execOpIsJump(E.Code))
      E.A = Map[E.A]; // Validation guarantees the target is in range.

  Stats.InstrsIn += N;
  Stats.InstrsOut += Out.Code.size();
  Out.TraceBase = (unsigned)Out.Code.size();

  if (N)
    formTraces(F, Program, Map, Out, Stats);

  if (Handlers)
    for (ExecInstr &E : Out.Code)
      E.Handler = Handlers[E.Code];
  return Out;
}

} // namespace

ExecProgram dpo::decodeProgram(const VmProgram &Program,
                               const void *const *Handlers) {
  ExecProgram Exec;
  Exec.Functions.reserve(Program.Functions.size());
  for (const FuncDef &F : Program.Functions)
    Exec.Functions.push_back(decodeFunction(F, Program, Handlers, Exec.Stats));
  return Exec;
}
