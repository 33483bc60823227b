//===--- VM.h - Execution engine for the GPU bytecode -------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional execution of compiled programs against a flat device memory.
///
/// Execution model:
///  - blocks of a grid run sequentially in blockIdx order (deterministic);
///  - threads within a block run round-robin between barriers: each thread
///    executes until it hits __syncthreads, finishes, or errors; a barrier
///    releases when every live thread has arrived (threads that already
///    returned are not waited for — lenient reconvergence, which matches
///    what aggregation's max-blockDim masking relies on);
///  - device-side launches are enqueued and executed after the launching
///    grid completes (a valid linearization of CUDA's guarantee that child
///    grids finish before their parent grid is considered complete);
///  - host functions execute as a single pseudo-thread with access to the
///    cudaMalloc/cudaMemcpy/cudaDeviceSynchronize intrinsics;
///  - *independent grids of the pending-launch queue run concurrently*
///    across a worker-thread pool (setWorkers / DPO_VM_WORKERS; default
///    1). The queue drains in waves: every grid currently queued is
///    independent (children always enqueue behind the whole queue), so
///    one wave executes them all concurrently, then appends each grid's
///    buffered children in wave-slot order — exactly the sequential FIFO
///    linearization. Atomics are real hardware atomics on device memory
///    (vm/AtomicMem.h), and plain aligned accesses are single-copy-atomic,
///    so racy-but-convergent kernels (BFS frontier claims, SSSP
///    atomicMin relaxations) produce their deterministic payloads at any
///    worker count; per-thread step *interleavings* — and therefore step
///    totals of racy programs — are only guaranteed reproducible in
///    single-worker mode, which keeps the bit-exact step-accounting
///    contract.
///
/// Performance design (see src/vm/README.md for the full story). The VM
/// is a three-layer pipeline: portable bytecode (Bytecode.h, the compile
/// and serialization target) is validated once at device construction,
/// lowered into the fixed-width decoded execution IR (ExecIR.h) with
/// direct-threaded handler addresses and fused immediate forms, and
/// dispatched by the decoded loop. Key properties:
///  - two engines: the decoded loop every caller runs and the bytecode
///    interpreter the equivalence suites check it against
///    (ExecMode::Bytecode, selected only in code), both compiled from
///    the same handler bodies (VMHandlers.inc) and both using
///    computed-goto threaded dispatch on GCC/Clang with a plain switch
///    fallback elsewhere; decoded fusions carry the step
///    cost of the pair they replace, so VmStats, grid logs, and tuner
///    pricing are identical across engines;
///  - thread contexts (operand stack, frame stack, locals arena, frame
///    memory) come from a per-device pool reused across every block and
///    grid, so steady-state execution performs no heap allocation per
///    thread; the pool is indexed by block-nesting depth so host-side
///    cudaDeviceSynchronize can re-enter the engine safely;
///  - bytecode is validated once at device construction (jump targets,
///    local-slot indices, callee indices), letting the hot loops drop
///    per-step bounds checks;
///  - integer parameter slots are wrapped to their declared widths at
///    frame entry (see paramSlotNorm in Bytecode.h), mirroring the
///    hardware ABI and licensing the peephole's parameter-range
///    assumptions.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_VM_VM_H
#define DPO_VM_VM_H

#include "vm/Bytecode.h"
#include "vm/Compiler.h"
#include "vm/ExecIR.h"
#include "vm/SlotOps.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dpo {

struct Dim3V {
  uint32_t X = 1, Y = 1, Z = 1;
  uint64_t count() const { return (uint64_t)X * Y * Z; }
};

/// One completed grid's measurement, recorded when the grid log is
/// enabled. The empirical tuner prices parallel execution from these:
/// Steps is the grid's *exclusive* work (nested grids subtract theirs),
/// and MaxThreadSteps is the slowest single thread — the measured
/// divergence/critical path that a sequential interpreter's aggregate
/// step count cannot see.
struct GridRecord {
  uint64_t Blocks = 0;
  uint64_t Threads = 0;
  uint64_t Steps = 0;          ///< Bytecode steps retired by this grid only.
  uint64_t MaxThreadSteps = 0; ///< Steps of the slowest thread.
  uint32_t BlockDim = 0;
  /// Launch-site ordinal (1-based into VmProgram::LaunchSiteNames) of the
  /// Op::Launch that enqueued this grid; 0 for host launches and grids
  /// with no recorded site. The profile subsystem keys histograms on it.
  uint32_t Site = 0;
  bool FromHost = false; ///< Launched by the host (or a host pseudo-thread).
};

/// Execution statistics; tests use these to check that, e.g., thresholding
/// reduces the number of dynamic launches.
struct VmStats {
  uint64_t GridsLaunched = 0;
  uint64_t DeviceLaunches = 0;
  uint64_t HostLaunches = 0;
  uint64_t BlocksExecuted = 0;
  uint64_t ThreadsExecuted = 0;
  uint64_t Steps = 0;
  uint64_t LargestGridBlocks = 0;
  // Trace-layer counters (zero unless the traced decoded engine runs;
  // purely observational — Steps stays bit-identical across engines).
  uint64_t TraceEntries = 0;   ///< TraceEnter retirements.
  uint64_t TraceIters = 0;     ///< TraceLoop back edges taken.
  uint64_t TraceSideExits = 0; ///< Guard side exits into the baseline.
  // Speculative-serialization guard outcomes (Op::SpecGuard). Pass means
  // the small-grid assumption held (the serialized path runs); Fail means
  // the guarded fallback launch runs. Counted identically by every
  // engine — the guard is one retired step in all of them.
  uint64_t SpecGuardPass = 0;
  uint64_t SpecGuardFail = 0;
};

bool operator==(const VmStats &A, const VmStats &B);
bool operator==(const GridRecord &A, const GridRecord &B);

/// A Device's flat memory image: a demand-zero anonymous mapping. Pages
/// are committed on first touch, so the image size is a bound rather
/// than a cost — a Device pays for the memory its program touches. The
/// mapping never moves for the image's lifetime. A failed map leaves an
/// empty image (size() == 0).
class DeviceImage {
public:
  explicit DeviceImage(uint64_t Bytes);
  ~DeviceImage();
  DeviceImage(const DeviceImage &) = delete;
  DeviceImage &operator=(const DeviceImage &) = delete;

  uint8_t *data() { return Base; }
  const uint8_t *data() const { return Base; }
  uint64_t size() const { return Size; }

  /// Zeroes [Off, Off + Bytes) (in bounds). Large ranges are zeroed
  /// without touching them: their page-aligned interior is released to
  /// the kernel, which zero-fills it again on the next access.
  void zero(uint64_t Off, uint64_t Bytes);

private:
  uint8_t *Base = nullptr;
  uint64_t Size = 0;
};

class Device {
public:
  /// Memory image size of a Device built without an explicit size (and
  /// of every buildDevice device). A bound, not a cost (DeviceImage).
  static constexpr uint64_t DefaultMemoryBytes = 256ull << 20;

  /// \p Mode picks the execution engine: the traced decoded-IR loop, or
  /// the bytecode interpreter it is tested against. The engine is fixed
  /// for the Device's lifetime. An image of \p MemoryBytes that cannot
  /// be mapped, or that cannot hold the program's globals, never throws:
  /// every launch fails with the diagnostic instead, like invalid
  /// bytecode.
  explicit Device(VmProgram Program,
                  uint64_t MemoryBytes = DefaultMemoryBytes,
                  ExecMode Mode = ExecMode::Decoded);
  ~Device();

  ExecMode execMode() const {
    return UseDecoded ? ExecMode::Decoded : ExecMode::Bytecode;
  }
  /// Decode statistics (all zero when running the bytecode engine).
  const ExecDecodeStats &decodeStats() const { return Exec.Stats; }

  /// Allocates device memory (8-byte aligned, zero-initialized).
  uint64_t alloc(uint64_t Bytes);

  // Typed accessors (bounds-checked; abort the calling test on violation).
  void writeI32(uint64_t Addr, int32_t V);
  void writeU32(uint64_t Addr, uint32_t V);
  void writeI64(uint64_t Addr, int64_t V);
  void writeF32(uint64_t Addr, float V);
  void writeF64(uint64_t Addr, double V);
  int32_t readI32(uint64_t Addr) const;
  uint32_t readU32(uint64_t Addr) const;
  int64_t readI64(uint64_t Addr) const;
  float readF32(uint64_t Addr) const;
  double readF64(uint64_t Addr) const;

  /// Copies a whole int32 array in/out.
  uint64_t allocI32(const std::vector<int32_t> &Values);
  std::vector<int32_t> readI32Array(uint64_t Addr, size_t Count) const;

  // Bulk typed-buffer host hooks. The workload harnesses use these to
  // stage datasets (CSR graphs, SAT formulas, tessellation inputs) into
  // device memory and to read payload arrays back
  // (src/workloads/Differential.h, src/workloads/KernelSources.h).
  uint64_t allocI64(const std::vector<int64_t> &Values);
  uint64_t allocF32(const std::vector<float> &Values);
  uint64_t allocF64(const std::vector<double> &Values);
  std::vector<int64_t> readI64Array(uint64_t Addr, size_t Count) const;
  std::vector<float> readF32Array(uint64_t Addr, size_t Count) const;
  std::vector<double> readF64Array(uint64_t Addr, size_t Count) const;
  void writeI32Array(uint64_t Addr, const std::vector<int32_t> &Values);
  void writeI64Array(uint64_t Addr, const std::vector<int64_t> &Values);
  void writeF64Array(uint64_t Addr, const std::vector<double> &Values);
  /// Fills \p Count elements with one value (per-round array resets).
  void fillI32(uint64_t Addr, size_t Count, int32_t V);
  void fillI64(uint64_t Addr, size_t Count, int64_t V);

  /// Launches a kernel from the host and runs to completion (including all
  /// device-side launches). Args are slot values: ints/addresses as int64,
  /// doubles bit-cast, dim3 parameters as three consecutive slots.
  bool launchKernel(const std::string &Name, Dim3V Grid, Dim3V Block,
                    const std::vector<int64_t> &Args);

  /// Runs a host function (e.g. a generated `<parent>_agg` wrapper).
  bool callHost(const std::string &Name, const std::vector<int64_t> &Args);

  /// True if the program defines a __global__ kernel named \p Name.
  bool hasKernel(const std::string &Name) const;
  /// True if the program defines a host function named \p Name. Callers
  /// that run transformed programs use this to pick the entry point: the
  /// aggregation pass replaces direct parent launches with a generated
  /// `<parent>_agg` host wrapper.
  bool hasHostFunction(const std::string &Name) const;

  const std::string &error() const { return LastError; }
  const VmStats &stats() const { return Stats; }
  void resetStats() { Stats = VmStats(); }

  /// Per-grid measurement records (off by default — the hot loop only
  /// pays per-grid/per-block bookkeeping when enabled).
  void setGridLogEnabled(bool Enabled) { GridLogEnabled = Enabled; }
  const std::vector<GridRecord> &gridLog() const { return GridLog; }
  void clearGridLog() { GridLog.clear(); }

  /// The loaded program (profile harvesting resolves GridRecord::Site
  /// ordinals against its LaunchSiteNames).
  const VmProgram &program() const { return Program; }

  /// Maximum bytecode steps per top-level call (guards against runaway
  /// loops in tests).
  void setStepLimit(uint64_t Limit) { StepLimit = Limit; }

  /// Sets the worker count for draining independent grids concurrently,
  /// through resolveWorkers (support/Parallel.h): 0 re-resolves from the
  /// DPO_VM_WORKERS environment variable (absent or invalid = 1), and
  /// every value is capped at MaxWorkers (64). 1 is the deterministic
  /// sequential mode: step counts, stats, and grid logs are bit-identical
  /// to the pre-concurrency device. Must not be called while a launch is
  /// running.
  void setWorkers(unsigned N);
  /// The resolved worker count (>= 1).
  unsigned workers() const { return Workers; }

private:
  struct PendingLaunch {
    unsigned Func;
    Dim3V Grid, Block;
    std::vector<int64_t> Args;
    uint32_t Site = 0;     ///< Launch-site ordinal (0 = host / unknown).
    bool FromHost = false; ///< Enqueued by the host / a host pseudo-thread.
  };

  /// One call frame. Locals live in the owning thread's locals arena at
  /// [LocalsBase, LocalsBase + Functions[Func].NumLocals).
  struct Frame {
    unsigned Func = 0;
    unsigned PC = 0;
    unsigned LocalsBase = 0;
    unsigned FrameMemBytes = 0;
    uint64_t FrameMemBase = 0;
  };

  enum class ThreadState { Ready, AtBarrier, AtCollective, Done, Failed };

  /// Which collective a thread is parked at (meaningful in state
  /// AtCollective; the parked frame's Func/PC identifies the site).
  enum class CollKind : uint8_t { Shfl, Ballot, Reduce };

  /// Reusable per-thread execution state. All vectors retain capacity
  /// across reset(), so steady-state runs allocate nothing.
  struct ThreadCtx {
    std::vector<int64_t> Stack; ///< Operand stack storage (capacity).
    size_t StackTop = 0;        ///< Live operand count.
    std::vector<Frame> Frames;
    std::vector<int64_t> LocalsArena;
    Dim3V ThreadIdx;
    ThreadState State = ThreadState::Ready;
    uint64_t StackMemBase = 0; ///< Addressable frame memory, one region
                               ///< per pool slot, reused across blocks.
    uint64_t StackMemUsed = 0;
    uint64_t StepsRetired = 0; ///< This thread's own steps (grid log).

    // Collective-park payload (state AtCollective): the contributed
    // value, the lane/delta operand (shuffle), the participation mask,
    // and which collective opcode parked here. Written by the handler,
    // consumed by Device::coopRelease.
    int64_t CollVal = 0;
    int64_t CollArg = 0;
    uint64_t CollMask = 0;
    CollKind CollOp = CollKind::Shfl;
    uint8_t CollMode = 0; ///< Shuffle mode / reduction kind (Instr A).

    void reset() {
      StackTop = 0;
      Frames.clear();
      LocalsArena.clear();
      State = ThreadState::Ready;
      StackMemUsed = 0;
      StepsRetired = 0;
    }
  };

  /// Thread contexts for one nesting level of block execution. Depth > 0
  /// only occurs when a host function's cudaDeviceSynchronize drains
  /// launches while its own pseudo-thread is still live.
  struct BlockPool {
    std::vector<ThreadCtx> Threads;
  };

  /// Everything one executing worker mutates while running a grid. One
  /// instance per worker thread (index 0 is the main thread), so the
  /// interpreter's hot paths touch no shared mutable device state:
  /// stats accumulate into per-worker shards merged deterministically
  /// after each top-level call, child launches buffer into Pending and
  /// are sequenced by the scheduler, and context/argument pools are
  /// worker-private. GridSteps/CurGridMaxThreadSteps implement the
  /// per-grid exclusive accounting the grid log reports (saved, zeroed,
  /// and restored around each runGrid, so a host pseudo-thread's nested
  /// drain never leaks child steps into the parent's record).
  struct WorkerCtx {
    std::vector<std::unique_ptr<BlockPool>> Pools;
    unsigned PoolDepth = 0;
    /// Recycled argument buffers for device-side launches: the hot
    /// parent-launches-children path performs no per-launch allocation
    /// in steady state.
    std::vector<std::vector<int64_t>> ArgPool;
    /// Children enqueued by the grid this worker is running; the
    /// scheduler appends them to the queue in deterministic order after
    /// the grid completes.
    std::vector<PendingLaunch> Pending;
    VmStats Stats; ///< Shard; merged into Device::Stats post-call.
    uint64_t GridSteps = 0; ///< Current grid's own flushed steps.
    uint64_t CurGridMaxThreadSteps = 0;
    /// Where the running grid's records go: the device grid log in
    /// sequential mode, a per-wave-slot buffer in parallel mode.
    std::vector<GridRecord> *LogSink = nullptr;
    bool IsMain = false; ///< Only the main worker may reach CudaSync.
  };

  /// One wave of the parallel drain: a snapshot of the queue whose grids
  /// are mutually independent by the queue dependency rule. Workers
  /// claim items through Next; each item's children and grid records are
  /// collected per slot so the post-wave merge is deterministic.
  struct ParallelWave {
    std::vector<PendingLaunch> Items;
    std::vector<std::vector<PendingLaunch>> Children;
    std::vector<std::vector<GridRecord>> Logs;
    std::atomic<size_t> Next{0};
    std::atomic<bool> Failed{false};
  };

  /// Runs one grid on \p W. Takes the launch mutable: parameter slots
  /// are normalized once here (per grid, not per thread — every thread
  /// of a grid receives identical arguments).
  bool runGrid(PendingLaunch &L, WorkerCtx &W);
  bool runBlock(const PendingLaunch &L, WorkerCtx &W, Dim3V BlockIdx,
                uint64_t SharedBase, const int64_t *InitLocals);
  /// Executes one thread until a stop event on the bytecode engine.
  /// Returns false on VM error. When \p InitLocals is non-null the call
  /// runs in *block mode*: \p ThreadCount threads of the block execute
  /// back to back inside this one invocation, reusing \p T — thread
  /// switch is a reinit from the per-grid locals image instead of a
  /// function-call round trip. Block mode requires a barrier-free kernel
  /// (MayBarrier false); \p T must be set up for the block's first
  /// thread.
  ///
  /// When \p CoopThreads is non-null the call runs in *cooperative block
  /// mode* instead: all \p CoopCount thread contexts of the block (set up
  /// by runBlock, CoopThreads[0] == &T) execute inside this one
  /// invocation, and __syncthreads / warp / block collectives become
  /// in-loop yield points — the scheduler switches to the next ready
  /// thread, releasing barriers and resolving collective groups when
  /// none remains. Mutually exclusive with \p InitLocals.
  bool runThread(ThreadCtx &T, WorkerCtx &W, const PendingLaunch &L,
                 Dim3V BlockIdx, uint64_t SharedBase,
                 const int64_t *InitLocals = nullptr,
                 uint32_t ThreadCount = 0, ThreadCtx *CoopThreads = nullptr,
                 uint32_t CoopCount = 0);
  /// The decoded-IR engine's thread loop (same contract as runThread,
  /// including block mode and cooperative block mode). When \p LabelsOut
  /// is non-null the function only exports its dispatch-label table
  /// (used once at construction to resolve ExecInstr handler addresses)
  /// and returns.
  bool runThreadExec(ThreadCtx *T, WorkerCtx *W, const PendingLaunch *L,
                     Dim3V BlockIdx, uint64_t SharedBase,
                     const void *const **LabelsOut = nullptr,
                     const int64_t *InitLocals = nullptr,
                     uint32_t ThreadCount = 0, ThreadCtx *CoopThreads = nullptr,
                     uint32_t CoopCount = 0);
  /// Cooperative-mode release step, shared by both engines: called when
  /// no thread of the block is Ready. Resolves complete collective
  /// groups (depositing results on the parked operand stacks), else
  /// releases barrier waiters (lenient reconvergence: finished threads
  /// are not waited for — aggregation's masked tails depend on this).
  /// Returns 0 with \p NextTI set to the lowest-index runnable thread,
  /// 1 when every thread is Done (block complete), 2 on error (LastError
  /// set).
  int coopRelease(ThreadCtx *Threads, uint32_t Count, size_t &NextTI);
  /// The step-limit diagnostic: notes threads parked at a barrier or
  /// collective (the divergent-barrier signature) so exhaustion while a
  /// block waits is diagnosed deterministically, never reported as a
  /// plain runaway loop.
  bool failStepLimit(const ThreadCtx *CoopThreads, uint32_t CoopCount);
  /// Wraps the callee's integer parameter slots to their declared widths
  /// (the frame-entry normalization contract, see paramSlotNorm).
  void normalizeParamSlots(unsigned Func, int64_t *Locals) {
    const std::vector<uint8_t> &Spec = NormSpecs[Func];
    for (size_t SI = 0; SI < Spec.size(); ++SI)
      if (Spec[SI])
        Locals[SI] = wrapToWidth(Locals[SI], Spec[SI] >> 1, Spec[SI] & 1);
  }
  /// Runs the queue until it is empty. One worker, or a queue of one,
  /// runs the front grid inline; otherwise the whole queue becomes one
  /// wave, run across the worker pool (main thread participating), whose
  /// per-slot children and records merge back in order.
  bool drainLaunches();
  /// Discards every queued and buffered launch after a grid failed, so
  /// the next launch on this device does not run a failed one's children.
  /// Returns false.
  bool dropLaunches();
  /// Claims and runs wave items until the wave is exhausted.
  void runWaveItems(ParallelWave &Wave, WorkerCtx &W);
  /// The pool thread body: waits for published waves.
  void workerLoop(WorkerCtx &W, uint64_t SeenGen);
  /// Spawns pool threads (and their contexts) up to Workers - 1.
  void ensureWorkersSpawned();
  /// Stops and joins all pool threads.
  void shutdownWorkers();
  /// Folds every worker shard into Stats (order-independent sums/max).
  void mergeWorkerStats();
  uint64_t stepBudgetLeft() const {
    uint64_t Used = StepsUsed.load(std::memory_order_relaxed);
    return StepLimit > Used ? StepLimit - Used : 0;
  }
  bool fail(const std::string &Message);
  bool checkRange(uint64_t Addr, uint64_t Bytes);
  /// One-time static validation (jump targets, slot and callee indices);
  /// lets the interpreter loop run without per-step bounds checks.
  void validateProgram();
  /// Grows a thread's operand stack (slow path of the push macro).
  static void growStack(ThreadCtx &T);

  VmProgram Program;
  /// The decoded execution IR (empty on the bytecode engine).
  ExecProgram Exec;
  bool UseDecoded = false;
  /// Per-function frame-entry normalization specs (paramNormSpec),
  /// derived once at validation; empty vectors for all-raw signatures.
  std::vector<std::vector<uint8_t>> NormSpecs;
  /// Per-function "can this function reach a __syncthreads" (transitive
  /// over calls), computed at validation. Blocks of barrier-free kernels
  /// take a streamlined path: each thread runs to completion once, with
  /// no scheduler bookkeeping.
  std::vector<uint8_t> MayBarrier;
  DeviceImage Memory;
  uint64_t BumpPtr;
  std::deque<PendingLaunch> Queue;
  std::string LastError;
  std::string ValidationError; ///< Non-empty if validateProgram failed.
  VmStats Stats;
  uint64_t StepLimit = 2000ull * 1000 * 1000;
  /// Steps retired device-wide, published at flush granularity; the
  /// per-thread budget check reads it relaxed (the step limit is a
  /// guard rail, not an exact fence, once several workers run).
  std::atomic<uint64_t> StepsUsed{0};
  bool InHostCall = false;

  // Worker pool. WorkerCtxs[0] belongs to the main thread; pool threads
  // own [1, Workers). Threads spawn lazily at the first parallel drain
  // and idle on WaveCv between waves; waves are published under
  // WaveMutex (the lock pair is the acquire/release edge that makes
  // grid-boundary memory visible across workers).
  unsigned Workers = 1;
  std::vector<std::unique_ptr<WorkerCtx>> WorkerCtxs;
  std::vector<std::thread> WorkerThreads;
  std::mutex WaveMutex;
  std::condition_variable WaveCv;     ///< Workers wait for a wave.
  std::condition_variable WaveDoneCv; ///< Main waits for wave completion.
  ParallelWave *CurWave = nullptr;
  uint64_t WaveGen = 0;
  unsigned WaveActive = 0; ///< Pool threads still inside the wave.
  bool ShuttingDown = false;
  /// Guards the bump allocator (alloc is called from worker handlers —
  /// frame-memory regions, cudaMalloc; Memory itself never reallocates,
  /// so cached data pointers stay valid across concurrent allocs).
  std::mutex AllocMutex;
  /// Guards LastError's set-once write.
  std::mutex ErrMutex;

  // Grid measurement log (setGridLogEnabled). Records report each grid's
  // *exclusive* steps via WorkerCtx::GridSteps (saved/zeroed/restored
  // around nested grids), appended in deterministic order by the
  // scheduler.
  bool GridLogEnabled = false;
  std::vector<GridRecord> GridLog;
};

/// Convenience: parse + compile + construct a device. Returns nullptr on
/// error (diagnostics explain).
std::unique_ptr<Device> buildDevice(std::string_view Source,
                                    DiagnosticEngine &Diags,
                                    const VmCompileOptions &Opts = {});

} // namespace dpo

#endif // DPO_VM_VM_H
