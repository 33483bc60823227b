//===--- SlotOps.h - Shared slot-value arithmetic ------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bit-level semantics of VM stack slots, shared by the interpreter
/// (vm/VM.cpp) and the peephole constant folder (vm/Peephole.cpp). Keeping
/// one definition makes "folding computes exactly what execution computes"
/// a structural property instead of a hand-maintained invariant.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_VM_SLOTOPS_H
#define DPO_VM_SLOTOPS_H

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace dpo {

/// Doubles travel bit-stored in int64 slots.
inline double slotAsDouble(int64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, 8);
  return D;
}

inline int64_t slotFromDouble(double D) {
  int64_t Bits;
  std::memcpy(&Bits, &D, 8);
  return Bits;
}

/// Wrapping (two's-complement) int64 arithmetic: the VM's integers wrap
/// like the hardware's.
inline int64_t addWrap(int64_t A, int64_t B) {
  return (int64_t)((uint64_t)A + (uint64_t)B);
}
inline int64_t subWrap(int64_t A, int64_t B) {
  return (int64_t)((uint64_t)A - (uint64_t)B);
}
inline int64_t mulWrap(int64_t A, int64_t B) {
  return (int64_t)((uint64_t)A * (uint64_t)B);
}

/// Two's-complement wrap of \p V to \p Width bytes, sign- or zero-extended
/// back to int64 — exactly what Op::TruncI computes.
inline int64_t wrapToWidth(int64_t V, int64_t Width, int64_t SignExtend) {
  if (Width == 1)
    return SignExtend ? (int64_t)(int8_t)V : (int64_t)(uint8_t)V;
  if (Width == 2)
    return SignExtend ? (int64_t)(int16_t)V : (int64_t)(uint16_t)V;
  if (Width == 4)
    return SignExtend ? (int64_t)(int32_t)V : (int64_t)(uint32_t)V;
  return V;
}

/// Closed interval of values a stack slot / local can hold: the domain of
/// rangeTransfer (vm/Peephole.h), which both range analyses run — the
/// peephole's whole-function dataflow (vm/Peephole.cpp, which publishes
/// per-slot dynamic invariants) and the trace former (vm/ExecIR.cpp,
/// which refines those invariants along the not-taken edges of trace
/// guards). Unknown (Known == false) means "any int64".
struct SlotRange {
  bool Known = false;
  int64_t Lo = 0, Hi = 0;
};

/// The value set Op::TruncI with (\p Width, \p SignExtend) maps onto.
inline SlotRange slotRangeOfTrunc(int64_t Width, int64_t SignExtend) {
  switch (Width) {
  case 1:
    return SignExtend ? SlotRange{true, -128, 127} : SlotRange{true, 0, 255};
  case 2:
    return SignExtend ? SlotRange{true, -32768, 32767}
                      : SlotRange{true, 0, 65535};
  case 4:
    return SignExtend ? SlotRange{true, INT32_MIN, INT32_MAX}
                      : SlotRange{true, 0, (int64_t)UINT32_MAX};
  default:
    return {};
  }
}

/// True when every value in \p R is a fixed point of wrapToWidth(·,
/// \p Width, \p SignExtend) — i.e. the TruncI is provably the identity.
inline bool slotRangeFits(const SlotRange &R, int64_t Width,
                          int64_t SignExtend) {
  SlotRange T = slotRangeOfTrunc(Width, SignExtend);
  return R.Known && T.Known && R.Lo >= T.Lo && R.Hi <= T.Hi;
}

//===----------------------------------------------------------------------===//
// Interval combinators. Every derived range is conservative: any
// possible int64 overflow in a bound computation makes the result
// unknown rather than wrong.
//===----------------------------------------------------------------------===//

inline bool rangeEq(const SlotRange &A, const SlotRange &B) {
  if (A.Known != B.Known)
    return false;
  return !A.Known || (A.Lo == B.Lo && A.Hi == B.Hi);
}

/// True when \p Inner is contained in \p Outer (unknown contains all).
inline bool rangeContains(const SlotRange &Outer, const SlotRange &Inner) {
  if (!Outer.Known)
    return true;
  return Inner.Known && Inner.Lo >= Outer.Lo && Inner.Hi <= Outer.Hi;
}

// Overflow-checked int64 arithmetic.
inline bool addChecked(int64_t A, int64_t B, int64_t &Out) {
  if (B > 0 && A > INT64_MAX - B)
    return false;
  if (B < 0 && A < INT64_MIN - B)
    return false;
  Out = A + B;
  return true;
}
inline bool mulChecked(int64_t A, int64_t B, int64_t &Out) {
  if (A == 0 || B == 0) {
    Out = 0;
    return true;
  }
  if ((A == INT64_MIN && B == -1) || (B == INT64_MIN && A == -1))
    return false;
  int64_t R = (int64_t)((uint64_t)A * (uint64_t)B);
  if (R / B != A)
    return false;
  Out = R;
  return true;
}

inline SlotRange rAdd(const SlotRange &A, const SlotRange &B) {
  if (!A.Known || !B.Known)
    return {};
  SlotRange R{true, 0, 0};
  if (!addChecked(A.Lo, B.Lo, R.Lo) || !addChecked(A.Hi, B.Hi, R.Hi))
    return {};
  return R;
}
inline SlotRange rAddConst(const SlotRange &A, int64_t K) {
  return rAdd(A, {true, K, K});
}
inline SlotRange rSub(const SlotRange &A, const SlotRange &B) {
  if (!A.Known || !B.Known)
    return {};
  if (B.Hi == INT64_MIN || B.Lo == INT64_MIN) // -INT64_MIN overflows
    return {};
  SlotRange R{true, 0, 0};
  if (!addChecked(A.Lo, -B.Hi, R.Lo) || !addChecked(A.Hi, -B.Lo, R.Hi))
    return {};
  return R;
}
inline SlotRange rMul(const SlotRange &A, const SlotRange &B) {
  if (!A.Known || !B.Known)
    return {};
  int64_t C[4];
  if (!mulChecked(A.Lo, B.Lo, C[0]) || !mulChecked(A.Lo, B.Hi, C[1]) ||
      !mulChecked(A.Hi, B.Lo, C[2]) || !mulChecked(A.Hi, B.Hi, C[3]))
    return {};
  SlotRange R{true, C[0], C[0]};
  for (int I = 1; I < 4; ++I) {
    R.Lo = std::min(R.Lo, C[I]);
    R.Hi = std::max(R.Hi, C[I]);
  }
  return R;
}
/// Signed division by a provably positive divisor (quotients are
/// monotone in each operand over positive divisors, so the four corners
/// bound the result).
inline SlotRange rDivPos(const SlotRange &A, const SlotRange &B) {
  if (!A.Known || !B.Known || B.Lo <= 0)
    return {};
  int64_t C[4] = {A.Lo / B.Lo, A.Lo / B.Hi, A.Hi / B.Lo, A.Hi / B.Hi};
  SlotRange R{true, C[0], C[0]};
  for (int I = 1; I < 4; ++I) {
    R.Lo = std::min(R.Lo, C[I]);
    R.Hi = std::max(R.Hi, C[I]);
  }
  return R;
}
inline SlotRange rRemPos(const SlotRange &A, const SlotRange &B) {
  if (!A.Known || !B.Known || B.Lo <= 0 || A.Lo < 0)
    return {};
  return {true, 0, std::min(A.Hi, B.Hi - 1)};
}
inline SlotRange rMinI(const SlotRange &A, const SlotRange &B) {
  if (!A.Known || !B.Known)
    return {};
  return {true, std::min(A.Lo, B.Lo), std::min(A.Hi, B.Hi)};
}
inline SlotRange rMaxI(const SlotRange &A, const SlotRange &B) {
  if (!A.Known || !B.Known)
    return {};
  return {true, std::max(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
}
inline SlotRange rTruncOf(const SlotRange &V, int64_t Width,
                          int64_t SignExtend) {
  if (slotRangeFits(V, Width, SignExtend))
    return V;
  return slotRangeOfTrunc(Width, SignExtend);
}

} // namespace dpo

#endif // DPO_VM_SLOTOPS_H
