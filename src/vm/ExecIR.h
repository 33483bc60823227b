//===--- ExecIR.h - Decoded-operand execution IR -------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The middle layer of the VM's three-layer pipeline
///
///     bytecode (Bytecode.h)  --decode-->  ExecIR  --dispatch-->  VM.cpp
///
/// The portable stack bytecode stays the compile/serialization target;
/// at Device construction, validated bytecode is lowered once into a
/// fixed-width decoded instruction array that the hot loop executes:
///
///  - every decoded instruction carries the *handler address* of its
///    opcode (direct threading): the dispatch `goto *I->Handler` needs no
///    table indexing per step on computed-goto builds;
///  - operands are pre-resolved at decode time: SReg's dim/component
///    split, packed flag words, and the like are unpacked into the A/B
///    fields so the handlers do no per-step operand arithmetic;
///  - hot adjacent pairs are fused into decode-only instructions
///    (XOp::StoreLocalImm, XOp::CopyLocal, XOp::GlobalTidStore). Fusion
///    never crosses a jump target, jump operands are rebuilt through an
///    old-index -> new-index map, and each fused instruction carries the
///    *step cost* of the pair it replaced, so decoded execution retires
///    exactly the same VmStats::Steps, grid-log records, and tuner
///    pricing as the bytecode interpreter on every successful run. The
///    one boundary where the engines can differ is a step-limit abort
///    whose budget falls inside a fused pair: the bytecode engine
///    retires the first half before failing, the decoded engine retires
///    neither — both fail the run, and the flushed counts differ by at
///    most one sub-instruction;
///  - on top of the pair-fused baseline, the decoder forms *traces*:
///    straight-line superblocks that follow the predicted path across
///    basic-block boundaries from every loop head (forward conditionals
///    are predicted not-taken — unless the fall-through is a break-shaped
///    unconditional jump past the conditional's target, in which case the
///    guard is inverted and the taken edge walked — and the head's own
///    back edge closes the loop). Trace code is appended
///    after the baseline region (ExecFunc::TraceBase); entry happens by
///    retargeting every jump to a head at its XOp::TraceEnter, so the
///    baseline region stays intact for side exits and fresh frames start
///    at PC 0 on both engines. Inside a trace, control flow is known,
///    which licenses the rewrite the peephole cannot do: branch-aware
///    range refinement (a not-taken guard narrows the slot invariants
///    published by slotInvariantRanges, eliding now-provably-identity
///    TruncIs), after which the pair fuser runs again across the erased
///    block boundaries. Function-entry traces and a frame-local
///    store-to-load forwarder were removed as not paying their way
///    (measurements in vm/README.md). Guards side-exit through
///    XOp::TraceExit trampolines into the baseline region with the
///    operand stack already exact; step accounting stays exact because
///    every trace element carries the step cost of the bytecode
///    instructions it covers (synthetic trace jumps cost 0, and a
///    folded-away instruction's cost rides on the next element that
///    retires after it on the original path). A step-limit abort whose
///    budget falls inside a multi-instruction element diverges by at
///    most the covered sub-instructions, exactly as with fused pairs.
///
/// Every caller runs the decoded loop with traces. The bytecode
/// interpreter (ExecMode::Bytecode) stays as the reference: the ExecIR,
/// fuzz, equivalence, and differential suites run each case on both
/// engines and demand identical payloads and step counts.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_VM_DECODEDIR_H
#define DPO_VM_DECODEDIR_H

#include "vm/Bytecode.h"

#include <cstdint>
#include <vector>

namespace dpo {

/// Decode-only opcodes, numbered directly after the bytecode opcode set
/// so one dense dispatch table serves both. They are synthesized by the
/// decoder only — never serialized, never seen by the peephole. Each
/// fuses one hot adjacent pair (both instructions always retire
/// together: the first of a fused pair can never jump, trap, or fail),
/// executes in one dispatch, and charges the step cost of both:
///
///   StoreLocalImm     locals[A] = B                [PushI/PushF; StoreLocal]
///   CopyLocal         locals[A] = locals[B]        [LoadLocal; StoreLocal]
///   GlobalTidStore    locals[A] = tid wrapped by B [GlobalTidX; StoreLocal]
///   TeeLocal          locals[A] = stack top        [StoreLocal s; LoadLocal s]
///   Push2             push A; push B               [PushI/F; PushI/F]
///   AddTrunc          wrap(l+r) per A              [AddI; TruncI]
///   MulImmTrunc       wrap(top*A) per B            [MulImmI; TruncI]
///   TruncMulAdd       x + wrap(y)*A per B          [TruncI; MulImmAddI]
///   LoadImmAddTrunc   wrap(locals+imm), packed A   [LoadLocalImmAddI; TruncI]
///   LoadLLAdd         push l[x]; push l[a]+l[b]    [LoadLocal; LoadLoadAddI]
///   JmpLL<cc>         branch on l[a] <cc> l[b]     [LoadLocal2; JmpIf<cc>]
///
/// Width/sign operands pack as (width << 1) | signExtend, exactly the
/// TruncI encoding; two slot indices pack as lo | (hi << 32).
///
/// The trace layer adds three more decode-only forms:
///
///   TraceEnter        count a trace entry, fall through       (cost 0)
///   TraceLoop         count an iteration, jump to A           (cost 0)
///   TraceExit         count a side exit, jump to baseline A   (cost 0/1)
///
/// TraceEnter is the retarget destination for every jump into the trace
/// (it sits immediately before the body, so it needs no operand);
/// TraceLoop is the loop-closing jump back to the first body element;
/// TraceExit is the per-(target, cost) trampoline guards branch to. All
/// three are synthetic — no bytecode instruction corresponds to them —
/// so they cost 0 steps, with one exception: when a guard was inverted,
/// the unconditional Jmp it folded executes only on the exit path, so
/// that trampoline charges the Jmp's step (cost 1). Trampolines can
/// therefore trip the step budget exactly where the baseline's Jmp
/// would have.
#define DPO_FOR_EACH_XOPCODE(X)                                               \
  X(StoreLocalImm) X(CopyLocal) X(GlobalTidStore) X(TeeLocal) X(Push2)        \
  X(AddTrunc) X(MulImmTrunc) X(TruncMulAdd) X(LoadImmAddTrunc) X(LoadLLAdd)   \
  X(JmpLLLTI) X(JmpLLGEI) X(JmpLLLEI) X(JmpLLGTI) X(JmpLLEQ) X(JmpLLNE)       \
  X(JmpLLLTU) X(JmpLLGEU) X(JmpLLLEU) X(JmpLLGTU)                             \
  X(TraceEnter) X(TraceLoop) X(TraceExit)

enum class XOp : uint16_t {
  BaseMarker = NumOpcodes - 1,
#define DPO_XOP_ENUM(name) name,
  DPO_FOR_EACH_XOPCODE(DPO_XOP_ENUM)
#undef DPO_XOP_ENUM
  Count
};

/// Size of the decoded engine's dispatch table.
constexpr unsigned NumExecOpcodes = (unsigned)XOp::Count;

/// Printable mnemonic covering both opcode spaces.
const char *execOpName(uint16_t Code);

/// True when the decoded instruction's A operand is a code index (base
/// jump ops, the fused JmpLL family, and the trace jumps). In the
/// baseline region A holds a bytecode PC until the decoder's remap pass;
/// in the trace region A is emitted as a final decoded index directly.
inline bool execOpIsJump(uint16_t Code) {
  if (Code < NumOpcodes)
    return isJumpOp((Op)Code);
  return (Code >= (uint16_t)XOp::JmpLLLTI &&
          Code <= (uint16_t)XOp::JmpLLGTU) ||
         Code == (uint16_t)XOp::TraceLoop || Code == (uint16_t)XOp::TraceExit;
}

/// One decoded instruction. 32 bytes, fixed width, cache-line aligned in
/// pairs. On switch-fallback builds Handler stays null and dispatch
/// switches on Code.
struct ExecInstr {
  const void *Handler = nullptr; ///< Direct-threaded dispatch target.
  int64_t A = 0;
  int64_t B = 0;
  uint16_t Code = 0; ///< Op value, or XOp value for decode-only forms.
  uint8_t Cost = 1;  ///< Bytecode steps this instruction accounts for.
  /// Launch-site ordinal, copied verbatim from Instr::C on Op::Launch
  /// (0 elsewhere). Fits in the struct's padding — decoding stays 32B.
  uint32_t C = 0;
};

static_assert(sizeof(ExecInstr) == 32, "decoded instructions are fixed-width");

/// One decoded function. Field names shared with FuncDef on purpose: the
/// interpreter handler bodies (VMHandlers.inc) compile against either.
struct ExecFunc {
  std::vector<ExecInstr> Code;
  unsigned NumLocals = 0;
  unsigned NumParamSlots = 0;
  unsigned FrameBytes = 0;
  bool IsKernel = false;
  bool ReturnsValue = false;
  /// First trace-region index; Code[0, TraceBase) is the baseline
  /// (pair-fused, one-to-one accountable) region. == Code.size() when no
  /// traces were kept.
  unsigned TraceBase = 0;
};

struct ExecDecodeStats {
  uint64_t InstrsIn = 0;  ///< Bytecode instructions decoded.
  uint64_t InstrsOut = 0; ///< Baseline decoded instructions emitted.
  uint64_t FusedPairs = 0;
  uint64_t TracesFormed = 0; ///< Superblock traces kept (profitable).
  uint64_t TraceInstrs = 0;  ///< Decoded instructions in trace regions.
};

/// A decoded program: one ExecFunc per bytecode function, same indices.
struct ExecProgram {
  std::vector<ExecFunc> Functions;
  ExecDecodeStats Stats;
  bool empty() const { return Functions.empty(); }
};

/// Lowers validated bytecode into the decoded execution IR.
/// \p Handlers maps every value in [0, NumExecOpcodes) to the decoded
/// interpreter's handler address; pass nullptr on switch-fallback builds
/// (Handler fields stay null). Superblock traces are formed after each
/// function's baseline region. The bytecode must already have passed
/// Device validation — the decoder assumes in-range jump targets, slots,
/// and callee indices.
ExecProgram decodeProgram(const VmProgram &Program,
                          const void *const *Handlers);

} // namespace dpo

#endif // DPO_VM_DECODEDIR_H
