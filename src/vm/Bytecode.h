//===--- Bytecode.h - Instruction set for the GPU bytecode VM ----------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small stack bytecode for functionally executing the CUDA-C subset.
/// Values are 8-byte slots interpreted as int64 or double per instruction;
/// unsigned semantics get dedicated opcodes. dim3 values occupy three
/// consecutive slots/locals. The VM exists to prove that transformed
/// kernels compute exactly what the originals compute — it is a functional
/// model, not a timing model (timing lives in src/sim).
///
/// The opcode set is defined once through DPO_FOR_EACH_OPCODE so the
/// enum, the printable names, and the interpreter's dispatch table cannot
/// drift out of sync. The opcodes after Trap are *superinstructions*:
/// they are never emitted by the AST compiler directly, only synthesized
/// by the peephole optimizer (vm/Peephole.cpp) from the base sequences
/// they replace, and they carry identical semantics.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_VM_BYTECODE_H
#define DPO_VM_BYTECODE_H

#include "ast/Type.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace dpo {

// clang-format off
#define DPO_FOR_EACH_OPCODE(X)                                                \
  /* Constants and locals. */                                                 \
  X(PushI)      /* A = imm (int64) */                                         \
  X(PushF)      /* A = imm (double, bit-stored) */                            \
  X(LoadLocal)  /* A = local slot index */                                    \
  X(StoreLocal)                                                               \
  X(Dup)                                                                      \
  X(Pop)                                                                      \
  X(Swap)                                                                     \
  /* Device memory (address on stack below value for stores). */              \
  X(LdI8) X(LdU8) X(LdI16) X(LdU16) X(LdI32) X(LdU32) X(LdI64)                \
  X(LdF32) X(LdF64)                                                           \
  X(StI8) X(StI16) X(StI32) X(StI64) X(StF32) X(StF64)                        \
  /* Frame memory: push the address of an address-taken local (A = its       \
     frame-memory offset). */                                                 \
  X(FrameAddr)                                                                \
  /* Integer arithmetic (top = rhs). */                                       \
  X(AddI) X(SubI) X(MulI) X(DivI) X(DivU) X(RemI) X(RemU)                     \
  X(Shl) X(ShrI) X(ShrU)                                                      \
  X(BitAnd) X(BitOr) X(BitXor) X(BitNot) X(NegI)                              \
  /* Integer comparisons -> 0/1. */                                           \
  X(CmpEQ) X(CmpNE) X(CmpLTI) X(CmpLEI) X(CmpGTI) X(CmpGEI)                   \
  X(CmpLTU) X(CmpLEU) X(CmpGTU) X(CmpGEU)                                     \
  X(LogicalNot)                                                               \
  /* Floating point (doubles on the stack). */                                \
  X(AddF) X(SubF) X(MulF) X(DivF) X(NegF)                                     \
  X(CmpEQF) X(CmpNEF) X(CmpLTF) X(CmpLEF) X(CmpGTF) X(CmpGEF)                 \
  /* Conversions. */                                                          \
  X(I2F)      /* int64 -> double */                                           \
  X(U2F)      /* uint64 -> double */                                          \
  X(F2I)      /* double -> int64 (truncating) */                              \
  X(F2Single) /* double -> float precision -> double */                       \
  X(TruncI)   /* A = byte width, B = 1 if sign-extend: wrap to width */       \
  /* Control flow (A = absolute instruction index). */                        \
  X(Jmp) X(JmpIfZero) X(JmpIfNotZero)                                         \
  /* Calls. A = function index, B = argument slot count (dim3 expanded). */   \
  X(Call)                                                                     \
  X(Ret)     /* Return with a value on the stack. */                          \
  X(RetVoid)                                                                  \
  /* Special registers. A encodes dim*4+component (dim: 0 threadIdx,         \
     1 blockIdx, 2 blockDim, 3 gridDim; component 0..2). */                   \
  X(SReg)                                                                     \
  /* Shared memory: push this block's shared segment base address. */         \
  X(SharedBase)                                                               \
  /* Barriers / fences. */                                                    \
  X(SyncThreads)                                                              \
  X(ThreadFence) /* No-op in the sequential VM (memory is coherent). */       \
  /* Warp/block collectives (cooperative block mode). WarpShfl: A = mode     \
     (0 idx, 1 up, 2 down, 3 xor), stack [mask, value, lane] -> [result].    \
     WarpBallot: stack [mask, predicate] -> [lane bitmask]. BlockReduce:     \
     A = kind (0 add, 1 min, 2 max), stack [value] -> [block-wide result].   \
     Each parks the thread like SyncThreads; the cooperative scheduler       \
     resolves the group and deposits results (see vm/VM.cpp). */             \
  X(WarpShfl)                                                                 \
  X(WarpBallot)                                                               \
  X(BlockReduce)                                                              \
  /* Atomics (address, value on stack; push old value). Width in A (4 or     \
     8), B = 1 for signed element types. */                                   \
  X(AtomicAdd) X(AtomicMax) X(AtomicMin) X(AtomicExch) X(AtomicCAS)           \
  X(AtomicOr) X(AtomicAnd)                                                    \
  /* Kernel launch. A = function index, B = argument slot count. The stack   \
     holds [args..., gridX, gridY, gridZ, blockX, blockY, blockZ] with the   \
     block dims on top. */                                                    \
  X(Launch)                                                                   \
  /* Host-only intrinsics. */                                                 \
  X(CudaMalloc)      /* [ptrAddr, bytes] -> 0 */                              \
  X(CudaFree)        /* [ptr] -> 0 */                                         \
  X(CudaMemset)      /* [ptr, value, bytes] -> 0 */                           \
  X(CudaMemcpy)      /* [dst, src, bytes, kind] -> 0 */                       \
  X(CudaSync)        /* Drain pending launches. */                            \
  /* Math intrinsics. A selects the function (MathFn). */                     \
  X(Math1) /* One double operand. */                                          \
  X(Math2) /* Two double operands. */                                         \
  X(MinI) X(MaxI) X(MinU) X(MaxU)                                             \
  /* Speculation guard: [n, k] -> [n <= k] (unsigned compare), counting       \
     the pass/fail outcome in VmStats so speculative-serialization hit        \
     rates are observable. Emitted for __dpo_spec_guard(n, k) calls. */       \
  X(SpecGuard)                                                                \
  X(Trap) /* A = trap message index; aborts execution. */                     \
  /*===--- Superinstructions (synthesized by vm/Peephole.cpp only) ---===*/   \
  /* Fused local/immediate pushes and arithmetic. */                          \
  X(LoadLocal2)      /* push locals[A]; push locals[B] */                     \
  X(LoadLocalImmAddI)/* push locals[A] + B */                                 \
  X(LoadLoadAddI)    /* push locals[A] + locals[B] */                         \
  X(AddImmI)         /* top += A */                                           \
  X(MulImmI)         /* top *= A */                                           \
  X(MulImmAddI)      /* [x, y] -> [x + y*A]  (array address formation) */     \
  X(IncLocalI32)     /* locals[A] = (int32)(locals[A] + B) */                 \
  X(IncLocalI64)     /* locals[A] += B */                                     \
  X(GlobalTidX)      /* push blockIdx.x*blockDim.x+threadIdx.x wrapped to    \
                        uint32 (B=0) or int32 (B=1) */                        \
  /* Fused compare-and-branch (pop rhs, pop lhs; A = target). */              \
  X(JmpIfLTI) X(JmpIfGEI) X(JmpIfLEI) X(JmpIfGTI)                             \
  X(JmpIfEQ) X(JmpIfNE)                                                       \
  X(JmpIfLTU) X(JmpIfGEU) X(JmpIfLEU) X(JmpIfGTU)                             \
  /* LoadLocal-indexed addressing: addr = locals[A] + locals[B]*width,       \
     with the element width taken from the opcode and both the add and the  \
     scale wrapping exactly as the base sequence                             \
     [LoadLocal2 A,B; MulImmAddI width; Ld/St] wraps. Synthesized by the    \
     dataflow peephole once the index local is provably normalized.  */      \
  X(LdI32Idx) X(LdU32Idx) X(LdI64Idx) X(LdF32Idx) X(LdF64Idx)                 \
  /* Scaled access with base and index on the stack:                         \
     Ld*Sc: [base, idx] -> [load(base + idx*width)];                         \
     St*Sc: [base, idx, value] -> [] (store to base + idx*width).            \
     Replaces [MulImmAddI width; Ld/St] when width matches the element. */   \
  X(LdI32Sc) X(LdU32Sc) X(LdI64Sc) X(LdF32Sc) X(LdF64Sc)                      \
  X(StI32Sc) X(StI64Sc) X(StF32Sc) X(StF64Sc)
// clang-format on

enum class Op : uint8_t {
#define DPO_OPCODE_ENUM(name) name,
  DPO_FOR_EACH_OPCODE(DPO_OPCODE_ENUM)
#undef DPO_OPCODE_ENUM
};

/// Number of opcodes (also the size of the interpreter's dispatch table).
constexpr unsigned NumOpcodes = 0
#define DPO_OPCODE_COUNT(name) +1
    DPO_FOR_EACH_OPCODE(DPO_OPCODE_COUNT)
#undef DPO_OPCODE_COUNT
    ;

/// Printable opcode mnemonic (for disassembly, tests, and diagnostics).
inline const char *opName(Op Code) {
  static const char *const Names[NumOpcodes] = {
#define DPO_OPCODE_NAME(name) #name,
      DPO_FOR_EACH_OPCODE(DPO_OPCODE_NAME)
#undef DPO_OPCODE_NAME
  };
  return (unsigned)Code < NumOpcodes ? Names[(unsigned)Code] : "<bad-op>";
}

/// True for every opcode whose A operand is an absolute instruction index
/// (the peephole pass remaps these when instructions move).
inline bool isJumpOp(Op Code) {
  switch (Code) {
  case Op::Jmp:
  case Op::JmpIfZero:
  case Op::JmpIfNotZero:
  case Op::JmpIfLTI:
  case Op::JmpIfGEI:
  case Op::JmpIfLEI:
  case Op::JmpIfGTI:
  case Op::JmpIfEQ:
  case Op::JmpIfNE:
  case Op::JmpIfLTU:
  case Op::JmpIfGEU:
  case Op::JmpIfLEU:
  case Op::JmpIfGTU:
    return true;
  default:
    return false;
  }
}

/// Marks every instruction index that is the target of some jump —
/// positions no fusion window may cross. Shared by the peephole
/// (vm/Peephole.cpp) and the decoder (vm/ExecIR.cpp) so the two layers
/// cannot drift on what counts as a jump target.
template <class FuncT>
inline std::vector<uint8_t> computeJumpTargetFlags(const FuncT &F) {
  std::vector<uint8_t> Target(F.Code.size() + 1, 0);
  for (const auto &I : F.Code)
    if (isJumpOp(I.Code) && (uint64_t)I.A <= F.Code.size())
      Target[I.A] = 1;
  return Target;
}

/// Element width in bytes of the indexed/scaled load-store
/// superinstructions (the scale the fused MulImmAddI applied), 0 for
/// every other opcode.
inline unsigned idxOpWidth(Op Code) {
  switch (Code) {
  case Op::LdI32Idx:
  case Op::LdU32Idx:
  case Op::LdF32Idx:
  case Op::LdI32Sc:
  case Op::LdU32Sc:
  case Op::LdF32Sc:
  case Op::StI32Sc:
  case Op::StF32Sc:
    return 4;
  case Op::LdI64Idx:
  case Op::LdF64Idx:
  case Op::LdI64Sc:
  case Op::LdF64Sc:
  case Op::StI64Sc:
  case Op::StF64Sc:
    return 8;
  default:
    return 0;
  }
}

enum class MathFn : uint8_t {
  Sqrt, Ceil, Floor, Fabs, Exp, Log, Pow, Fmin, Fmax, Tanh,
};

/// How a Device executes validated bytecode (see vm/ExecIR.h):
///  - Decoded: lower to the fixed-width decoded execution IR at load time,
///    form superblock traces across basic-block boundaries, and run the
///    direct-threaded decoded loop. Every caller runs this engine;
///  - Bytecode: interpret the portable bytecode directly. The reference
///    engine the equivalence suites compare Decoded against; only code
///    selects it.
/// Auto is another spelling of Decoded, not a third behaviour. Both
/// engines retire identical step counts (decoded fusions and traces carry
/// the step cost of the instructions they replace), so VmStats, grid
/// logs, and the empirical tuner's pricing are bit-identical across them.
enum class ExecMode : uint8_t { Decoded, Bytecode, Auto = Decoded };

/// The engine's lower-case name, for diagnostics.
inline const char *execModeName(ExecMode Mode) {
  return Mode == ExecMode::Bytecode ? "bytecode" : "decoded";
}

struct Instr {
  Op Code;
  int64_t A = 0;
  int64_t B = 0;
  /// Launch-site ordinal for Op::Launch (1-based index into
  /// VmProgram::LaunchSiteNames; 0 = no site attached). Other opcodes
  /// leave it 0. Carried in the instruction so every execution engine
  /// (bytecode, decoded, traced) tags grid-log records identically.
  uint32_t C = 0;
};

/// One compiled function.
struct FuncDef {
  std::string Name;
  bool IsKernel = false;
  bool ReturnsValue = false;
  /// Total local slots (params first; dim3 params use 3 slots each).
  unsigned NumLocals = 0;
  /// Slot count occupied by parameters.
  unsigned NumParamSlots = 0;
  /// Parameter types in source order (dim3 expands to 3 slots).
  std::vector<Type> ParamTypes;
  /// Bytes of frame memory for address-taken locals.
  unsigned FrameBytes = 0;
  /// Bytes of shared memory statically declared in this function.
  unsigned SharedBytes = 0;
  std::vector<Instr> Code;
};

/// Entry normalization spec for one parameter slot: 0 = the slot is
/// taken raw (pointers, 8-byte integers, doubles, opaque types), else
/// (width << 1) | signExtend — exactly the TruncI the compiler's
/// normalizeInt would emit for the type.
///
/// The VM wraps every parameter slot to its declared width when a frame
/// is entered (host launch, device launch, and Call all funnel through
/// the same copy), mirroring the hardware ABI where an `int` parameter
/// simply *is* 32 bits. This makes parameter slots carry the same
/// invariant as normalized locals, which is what lets the peephole's
/// dataflow elide parameter-driven TruncIs (vm/Peephole.cpp).
inline uint8_t paramSlotNorm(const Type &T) {
  if (T.isPointer() || !T.isInteger())
    return 0;
  unsigned W = T.storeSizeBytes();
  if (W == 0 || W >= 8)
    return 0;
  return (uint8_t)((W << 1) | (T.isUnsigned() ? 0 : 1));
}

/// Slot range a normalized parameter can hold after frame entry, as
/// closed [Lo, Hi] bounds. Returns false when the slot is raw.
inline bool paramNormRange(uint8_t Norm, int64_t &Lo, int64_t &Hi) {
  if (!Norm)
    return false;
  unsigned W = Norm >> 1;
  bool SignExtend = (Norm & 1) != 0;
  int64_t Half = (int64_t)1 << (8 * W - 1);
  if (SignExtend) {
    Lo = -Half;
    Hi = Half - 1;
  } else {
    Lo = 0;
    Hi = 2 * Half - 1;
  }
  return true;
}

/// Per-slot entry normalization for a whole function, dim3 parameters
/// expanded to three unsigned-32 slots. The vector has
/// \p F.NumParamSlots entries (empty when the function takes none).
inline std::vector<uint8_t> paramNormSpec(const FuncDef &F) {
  std::vector<uint8_t> Spec;
  Spec.reserve(F.NumParamSlots);
  for (const Type &T : F.ParamTypes) {
    if (T.isDim3()) {
      for (int I = 0; I < 3; ++I)
        Spec.push_back((uint8_t)((4 << 1) | 0)); // uint32 components
    } else {
      Spec.push_back(paramSlotNorm(T));
    }
  }
  return Spec;
}

/// A compiled translation unit.
struct VmProgram {
  std::vector<FuncDef> Functions;
  std::unordered_map<std::string, unsigned> FunctionIndex;
  std::vector<std::string> TrapMessages;
  /// Initial device-memory image for globals (offset from GlobalBase).
  std::vector<uint8_t> GlobalImage;
  /// Global variable name -> offset in GlobalImage.
  std::unordered_map<std::string, unsigned> GlobalOffsets;
  /// Stable launch-site names, indexed by Instr::C - 1 on Op::Launch.
  /// A site is "<caller>-><kernel>#<ordinal>" in source emission order,
  /// so the same source always yields the same site names — the key the
  /// profile subsystem (src/profile) aggregates grid logs under.
  std::vector<std::string> LaunchSiteNames;

  const FuncDef *find(const std::string &Name) const {
    auto It = FunctionIndex.find(Name);
    return It == FunctionIndex.end() ? nullptr : &Functions[It->second];
  }
};

} // namespace dpo

#endif // DPO_VM_BYTECODE_H
