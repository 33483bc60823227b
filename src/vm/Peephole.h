//===--- Peephole.h - Bytecode peephole optimizer ------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A window-based bytecode optimizer run at the end of vm/Compiler.cpp:
///
///  - constant-folds PushI/PushF chains through the pure arithmetic,
///    comparison, logical, and truncation opcodes;
///  - deletes dead stack shuffles (Dup/Pop, producer/Pop, Swap/Swap) and
///    arithmetic identities (+0, *1, <<0, |0, ^0);
///  - elides redundant TruncI instructions using a *per-function
///    dataflow*: an abstract interpreter tracks value ranges through the
///    operand stack (AddImmI / LoadLoadAddI / MulImmAddI chains, loads,
///    division by positive constants) and iterates per-slot invariants
///    to a fixpoint; parameter slots start from the VM's frame-entry
///    normalization contract (paramSlotNorm in Bytecode.h), so
///    parameter-driven re-wraps are elidable too;
///  - fuses hot sequences into the superinstructions declared after
///    Op::Trap in vm/Bytecode.h — most importantly the global-thread-id
///    idiom `blockIdx.x * blockDim.x + threadIdx.x`, immediate-operand
///    arithmetic, paired local loads, loop-counter increments,
///    compare-and-branch, and the LoadLocal-indexed / scaled
///    address-formation loads and stores the dataflow unlocks.
///
/// The per-opcode range semantics the dataflow runs (rangeTransfer) live
/// in this header, so the trace former in vm/ExecIR.cpp runs them too.
///
/// Fusion never crosses a jump target, and every pass rebuilds the jump
/// operands through an old-index -> new-index map, so control flow is
/// preserved exactly. The pass is semantics-preserving by construction;
/// tests/vm/FuzzEquivalenceTest.cpp additionally proves it dynamically by
/// running every fuzzed program with the optimizer on and off.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_VM_PEEPHOLE_H
#define DPO_VM_PEEPHOLE_H

#include "vm/Bytecode.h"
#include "vm/SlotOps.h"

#include <vector>

namespace dpo {

struct PeepholeStats {
  unsigned InstrsBefore = 0;
  unsigned InstrsAfter = 0;
  unsigned Rounds = 0;

  PeepholeStats &operator+=(const PeepholeStats &O) {
    InstrsBefore += O.InstrsBefore;
    InstrsAfter += O.InstrsAfter;
    Rounds = Rounds > O.Rounds ? Rounds : O.Rounds;
    return *this;
  }
};

//===----------------------------------------------------------------------===//
// Value ranges: the per-opcode abstract semantics of the bytecode.
//
// Two analyses reason about the ranges of stack values and local slots to
// prove TruncIs the identity: the peephole's whole-function dataflow
// (vm/Peephole.cpp) and the trace former's walk along one predicted path
// (vm/ExecIR.cpp). Both run rangeTransfer below; what differs between
// them lives in their state types.
//===----------------------------------------------------------------------===//

/// True for the binary comparisons: pop two operands, push 0 or 1.
inline bool isCompare(Op C) {
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

/// Range of an SReg read (\p Builtin = 0 threadIdx, 1 blockIdx, 2
/// blockDim, 3 gridDim). runGrid rejects blocks over 1024 threads, so
/// threadIdx components stay below 1024 and blockDim components at or
/// below 1024 whenever a thread executes; blockIdx/gridDim span uint32.
inline SlotRange sregRange(unsigned Builtin) {
  if (Builtin == 0)
    return {true, 0, 1023};
  if (Builtin == 2)
    return {true, 1, 1024};
  return {true, 0, (int64_t)UINT32_MAX};
}

/// Range of the value a device-memory load pushes: its element type's
/// value set; unknown for 64-bit and floating-point elements.
inline SlotRange loadRange(Op Code) {
  switch (Code) {
  case Op::LdI8: return slotRangeOfTrunc(1, 1);
  case Op::LdU8: return slotRangeOfTrunc(1, 0);
  case Op::LdI16: return slotRangeOfTrunc(2, 1);
  case Op::LdU16: return slotRangeOfTrunc(2, 0);
  case Op::LdI32: case Op::LdI32Idx: case Op::LdI32Sc:
    return slotRangeOfTrunc(4, 1);
  case Op::LdU32: case Op::LdU32Idx: case Op::LdU32Sc:
    return slotRangeOfTrunc(4, 0);
  default:
    return {};
  }
}

/// Bounded abstract operand stack. Popping past the known region yields
/// unknown (Value{}), which keeps an arity mismatch conservative instead
/// of wrong; overflow drops every value (deeper values become unknown).
/// A fixed array: both analyses run once per function per round, so the
/// walk stays allocation-free.
template <class Value, unsigned Cap> struct AbsStack {
  Value S[Cap];
  unsigned Sp = 0;
  void push(const Value &V) {
    if (Sp == Cap)
      Sp = 0;
    else
      S[Sp++] = V;
  }
  Value pop() { return Sp ? S[--Sp] : Value{}; }
  void popN(unsigned N) { Sp = N >= Sp ? 0 : Sp - N; }
  Value top() const { return Sp ? S[Sp - 1] : Value{}; }
  void clearStack() { Sp = 0; }
};

/// Applies the range semantics of \p I to \p St: what the instruction
/// pops, the range of what it pushes, and which slots it writes. \p Prog,
/// when given, supplies callee arity so a Call keeps the stack below its
/// arguments. \p St is an AbsStack of some Value plus these hooks:
///  - pushR(R) / popR(): push or pop a value known only by its range;
///  - load(S) / slot(S): push local slot S / read its range;
///  - store(S, R): a write of range R to slot S;
///  - incLocalI32(S, Imm): IncLocalI32, whose written range each analysis
///    chooses (see the state types);
///  - unmodeled(): an opcode this function does not model.
template <class State>
void rangeTransfer(State &St, const Instr &I, const VmProgram *Prog) {
  if (isCompare(I.Code)) {
    St.popN(2); // Int and float comparisons alike: pop 2, push 0/1.
    St.pushR({true, 0, 1});
    return;
  }
  auto Replace = [&St](unsigned Pops, SlotRange R) {
    St.popN(Pops);
    St.pushR(R);
  };
  auto Binary = [&St](SlotRange (*Fn)(const SlotRange &, const SlotRange &)) {
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(Fn(L, R));
  };
  switch (I.Code) {
  case Op::PushI: case Op::PushF:
    St.pushR({true, I.A, I.A});
    break;
  case Op::LoadLocal:
    St.load(I.A);
    break;
  case Op::LoadLocal2:
    St.load(I.A);
    St.load(I.B);
    break;
  case Op::StoreLocal:
    St.store(I.A, St.popR());
    break;
  case Op::Dup:
    St.push(St.top());
    break;
  case Op::Pop:
    St.pop();
    break;
  case Op::Swap: {
    auto A = St.pop(), B = St.pop();
    St.push(A);
    St.push(B);
    break;
  }
  case Op::LdI8: case Op::LdU8: case Op::LdI16: case Op::LdU16:
  case Op::LdI32: case Op::LdU32: case Op::LdI64: case Op::LdF32:
  case Op::LdF64:
    Replace(1, loadRange(I.Code));
    break;
  case Op::LdI32Idx: case Op::LdU32Idx: case Op::LdI64Idx: case Op::LdF32Idx:
  case Op::LdF64Idx:
    St.pushR(loadRange(I.Code));
    break;
  case Op::LdI32Sc: case Op::LdU32Sc: case Op::LdI64Sc: case Op::LdF32Sc:
  case Op::LdF64Sc:
    Replace(2, loadRange(I.Code));
    break;
  case Op::StI8: case Op::StI16: case Op::StI32: case Op::StI64:
  case Op::StF32: case Op::StF64:
    St.popN(2);
    break;
  case Op::StI32Sc: case Op::StI64Sc: case Op::StF32Sc: case Op::StF64Sc:
    St.popN(3);
    break;
  case Op::FrameAddr: case Op::SharedBase:
    St.pushR({});
    break;
  case Op::AddI:
    Binary(rAdd);
    break;
  case Op::SubI:
    Binary(rSub);
    break;
  case Op::MulI:
    Binary(rMul);
    break;
  case Op::DivI:
    Binary(rDivPos);
    break;
  case Op::RemI: case Op::RemU:
    Binary(rRemPos);
    break;
  case Op::MinI:
    Binary(rMinI);
    break;
  case Op::MaxI:
    Binary(rMaxI);
    break;
  case Op::DivU: {
    // Nonnegative int64 ranges behave identically under / and u/.
    SlotRange R = St.popR(), L = St.popR();
    St.pushR(L.Known && L.Lo >= 0 ? rDivPos(L, R) : SlotRange{});
    break;
  }
  case Op::MinU: case Op::MaxU: case Op::BitAnd: {
    // Unsigned min/max and bitwise and are bounded only when both sides
    // are provably nonnegative.
    SlotRange R = St.popR(), L = St.popR();
    if (!(L.Known && R.Known && L.Lo >= 0 && R.Lo >= 0))
      St.pushR({});
    else if (I.Code == Op::BitAnd)
      St.pushR({true, 0, std::min(L.Hi, R.Hi)});
    else
      St.pushR(I.Code == Op::MinU ? rMinI(L, R) : rMaxI(L, R));
    break;
  }
  case Op::Shl: case Op::ShrI: case Op::ShrU: case Op::BitOr: case Op::BitXor:
  case Op::AddF: case Op::SubF: case Op::MulF: case Op::DivF: case Op::Math2:
    Replace(2, {});
    break;
  case Op::BitNot: {
    SlotRange V = St.popR();
    St.pushR(V.Known ? SlotRange{true, ~V.Hi, ~V.Lo} : SlotRange{});
    break;
  }
  case Op::NegI: {
    SlotRange V = St.popR();
    St.pushR(V.Known && V.Lo != INT64_MIN ? SlotRange{true, -V.Hi, -V.Lo}
                                          : SlotRange{});
    break;
  }
  case Op::LogicalNot:
    Replace(1, {true, 0, 1});
    break;
  case Op::NegF: case Op::I2F: case Op::U2F: case Op::F2I: case Op::F2Single:
  case Op::Math1: case Op::BlockReduce:
    Replace(1, {});
    break;
  case Op::TruncI:
    St.pushR(rTruncOf(St.popR(), I.A, I.B));
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
  case Op::LoadLocalImmAddI:
    St.pushR(rAddConst(St.slot(I.A), I.B));
    break;
  case Op::LoadLoadAddI:
    St.pushR(rAdd(St.slot(I.A), St.slot(I.B)));
    break;
  case Op::IncLocalI32:
    St.incLocalI32(I.A, I.B);
    break;
  case Op::IncLocalI64:
    St.store(I.A, rAddConst(St.slot(I.A), I.B));
    break;
  case Op::SReg:
    St.pushR(sregRange((unsigned)I.A / 4));
    break;
  case Op::GlobalTidX:
    St.pushR(slotRangeOfTrunc(4, I.B));
    break;
  case Op::Jmp: case Op::Ret: case Op::RetVoid: case Op::Trap:
    St.clearStack();
    break;
  case Op::JmpIfZero: case Op::JmpIfNotZero:
    St.pop();
    break;
  case Op::JmpIfLTI: case Op::JmpIfGEI: case Op::JmpIfLEI: case Op::JmpIfGTI:
  case Op::JmpIfEQ: case Op::JmpIfNE: case Op::JmpIfLTU: case Op::JmpIfGEU:
  case Op::JmpIfLEU: case Op::JmpIfGTU:
    St.popN(2);
    break;
  case Op::Call:
    // Callees run in their own frames: caller slots survive the call.
    St.popN((unsigned)I.B);
    if (!Prog)
      St.clearStack(); // Unknown callee arity: stay conservative.
    else if ((uint64_t)I.A < Prog->Functions.size() &&
             Prog->Functions[I.A].ReturnsValue)
      St.pushR({});
    break;
  case Op::SyncThreads: case Op::ThreadFence: case Op::CudaSync:
    break;
  case Op::WarpShfl:
    Replace(3, {});
    break;
  case Op::WarpBallot:
    Replace(2, slotRangeOfTrunc(4, 0));
    break;
  case Op::AtomicAdd: case Op::AtomicMax: case Op::AtomicMin:
  case Op::AtomicExch: case Op::AtomicOr: case Op::AtomicAnd:
    Replace(2, I.A == 4 ? slotRangeOfTrunc(4, I.B != 0) : SlotRange{});
    break;
  case Op::AtomicCAS:
    Replace(3, I.A == 4 ? slotRangeOfTrunc(4, I.B != 0) : SlotRange{});
    break;
  case Op::Launch:
    St.popN(6 + (unsigned)I.B);
    break;
  case Op::SpecGuard:
    Replace(2, {true, 0, 1});
    break;
  case Op::CudaMalloc:
    Replace(2, {true, 0, 0});
    break;
  case Op::CudaFree:
    Replace(1, {true, 0, 0});
    break;
  case Op::CudaMemset:
    Replace(3, {true, 0, 0});
    break;
  case Op::CudaMemcpy:
    Replace(4, {true, 0, 0});
    break;
  default:
    St.unmodeled();
    break;
  }
}

/// Optimizes one function in place. Runs folding/fusion rounds to a
/// fixpoint (bounded), preserving observable semantics exactly.
/// \p Program, when given, lets the dataflow model Call stack effects
/// (callee arity/return) instead of conservatively clearing its state.
PeepholeStats optimizeFunction(FuncDef &F, const VmProgram *Program = nullptr);

/// Optimizes every function of \p Program in place.
PeepholeStats optimizeProgram(VmProgram &Program);

/// The per-slot dataflow fixpoint of \p F, published for reuse outside
/// the peephole (the trace former in vm/ExecIR.cpp seeds trace-entry
/// slot states from it). Entry [s] bounds every value local slot s can
/// hold at ANY point of any activation of \p F — a dynamic whole-function
/// invariant, so it is sound to assume at a trace head regardless of how
/// control reached it. \p Program, when given, models Call stack effects
/// precisely (callee arity/return) instead of conservatively.
std::vector<SlotRange> slotInvariantRanges(const FuncDef &F,
                                           const VmProgram *Program = nullptr);

} // namespace dpo

#endif // DPO_VM_PEEPHOLE_H
