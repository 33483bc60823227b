//===--- VM.cpp ------------------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
// The interpreter core: the dispatch layer of the three-layer pipeline
//   bytecode (Bytecode.h) -> decoded IR (ExecIR.h) -> dispatch (here).
//
// Two execution engines compile from the same handler bodies
// (VMHandlers.inc, measured by bench/vm_throughput.cpp):
//
//  1. The decoded-IR loop (ExecMode::Decoded, what every caller runs):
//     executes the fixed-width decoded instruction array built at device
//     construction, superblock traces included. Dispatch is
//     *direct-threaded* on GCC/Clang — every instruction carries its
//     handler address, so a handler ends with `goto *I->Handler`, no
//     table indexing per step. Decode-time fusions and traces retire in
//     fewer dispatches but charge the step cost of what they replace,
//     keeping VmStats and grid logs bit-identical to the reference.
//
//  2. The bytecode interpreter (ExecMode::Bytecode): the reference the
//     equivalence suites run the decoded loop against. Threaded dispatch
//     through a dense label table indexed by opcode — one indirect branch
//     per handler instead of one shared switch branch. A portable switch
//     fallback compiles everywhere else from the same handler bodies (see
//     the VM_CASE/VM_NEXT macros).
//
// Shared structural decisions:
//
//  - Zero steady-state allocation: thread contexts (operand stack, frame
//    stack, locals arena, addressable frame memory) live in per-device
//    pools reused across blocks and grids. runBlock resets contexts
//    instead of constructing them; vectors keep their capacity, so after
//    warm-up no heap allocation happens per thread or per block.
//
//  - Decoded execution state: the current function's code pointer, the
//    frame's locals pointer, the operand stack pointer, and the memory
//    base are interpreter registers (locals), re-derived only at frame
//    switches. Bytecode is validated once at device construction
//    (validateProgram), so the loops perform no per-step bounds checks
//    on PC, local slots, or callee indices.
//
//  - Frame-entry parameter normalization: integer parameter slots are
//    wrapped to their declared widths when a frame is entered (runBlock
//    and the Call handler share normalizeParamSlots), the contract that
//    lets the peephole elide parameter-driven re-wraps.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "support/StringUtils.h"
#include "transform/Pipeline.h"
#include "vm/AtomicMem.h"
#include "vm/SlotOps.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string_view>

#include <sys/mman.h>
#include <unistd.h>

using namespace dpo;

namespace {

// Slot arithmetic shared with the peephole constant folder
// (vm/SlotOps.h): folding computes exactly what execution computes.
double asDouble(int64_t Bits) { return slotAsDouble(Bits); }
int64_t asBits(double D) { return slotFromDouble(D); }

/// Addressable per-thread frame-memory region (reused across blocks).
constexpr uint64_t ThreadFrameMemBytes = 64 * 1024;

/// Ranges at least this large are zeroed by releasing their pages
/// (DeviceImage::zero) rather than by writing them.
constexpr uint64_t ReleaseZeroBytes = 2ull << 20;

/// Resolves the worker count from DPO_VM_WORKERS (absent or invalid
/// means the deterministic single-worker mode). Capped so a typo cannot
/// spawn an absurd pool.
unsigned resolveWorkerCount() {
  const char *Env = std::getenv("DPO_VM_WORKERS");
  unsigned N = 0;
  if (!Env || parsePositiveU32(Env, N) != ParseUIntStatus::Ok)
    return 1;
  return std::min(N, 64u);
}

} // namespace

DeviceImage::DeviceImage(uint64_t Bytes) {
  if (Bytes == 0 || Bytes > SIZE_MAX)
    return;
  // MAP_NORESERVE: the size is a bound, so do not charge it against the
  // commit limit up front; pages are committed as they are touched.
  void *P = mmap(nullptr, (size_t)Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    return;
  Base = static_cast<uint8_t *>(P);
  Size = Bytes;
}

DeviceImage::~DeviceImage() {
  if (Base)
    munmap(Base, Size);
}

void DeviceImage::zero(uint64_t Off, uint64_t Bytes) {
  uint8_t *Begin = Base + Off, *End = Begin + Bytes;
  if (Bytes >= ReleaseZeroBytes) {
    // MADV_DONTNEED on a private anonymous mapping drops the pages; the
    // next access faults in zero-filled ones. Only whole pages can be
    // released, so the unaligned edges are written.
    static const uintptr_t PageMask = (uintptr_t)sysconf(_SC_PAGESIZE) - 1;
    uintptr_t Lo = ((uintptr_t)Begin + PageMask) & ~PageMask;
    uintptr_t Hi = (uintptr_t)End & ~PageMask;
    if (Lo < Hi && madvise((void *)Lo, Hi - Lo, MADV_DONTNEED) == 0) {
      std::memset(Begin, 0, Lo - (uintptr_t)Begin);
      std::memset((void *)Hi, 0, (uintptr_t)End - Hi);
      return;
    }
  }
  std::memset(Begin, 0, Bytes);
}

Device::Device(VmProgram ProgramIn, uint64_t MemoryBytes, ExecMode Mode)
    : Program(std::move(ProgramIn)), UseDecoded(Mode == ExecMode::Decoded),
      Memory(MemoryBytes), Workers(resolveWorkerCount()) {
  // The main thread's worker context; pool contexts are created lazily
  // at the first parallel drain.
  WorkerCtxs.push_back(std::make_unique<WorkerCtx>());
  WorkerCtxs[0]->IsMain = true;
  // Null page, then globals, then the heap. An image that cannot be
  // mapped or cannot hold the globals makes every launch fail.
  BumpPtr = GlobalBase;
  uint64_t GlobalBytes = Program.GlobalImage.size();
  if (Memory.size() != MemoryBytes) {
    ValidationError = "cannot map a " + std::to_string(MemoryBytes) +
                      "-byte device memory image";
  } else if (GlobalBytes > MemoryBytes ||
             GlobalBase > MemoryBytes - GlobalBytes) {
    ValidationError = "global image (" + std::to_string(GlobalBytes) +
                      " bytes at offset " + std::to_string(GlobalBase) +
                      ") does not fit in the " + std::to_string(MemoryBytes) +
                      "-byte device memory image";
  } else if (GlobalBytes) {
    std::memcpy(Memory.data() + GlobalBase, Program.GlobalImage.data(),
                GlobalBytes);
    BumpPtr += GlobalBytes;
  }
  BumpPtr = (BumpPtr + 63) & ~63ull;
  validateProgram();

  // Frame-entry normalization specs (all-raw signatures collapse to an
  // empty vector so the entry loop is a no-op for them).
  NormSpecs.resize(Program.Functions.size());
  for (size_t FI = 0; FI < Program.Functions.size(); ++FI) {
    std::vector<uint8_t> Spec = paramNormSpec(Program.Functions[FI]);
    bool Any = false;
    for (uint8_t N : Spec)
      Any |= N != 0;
    if (Any)
      NormSpecs[FI] = std::move(Spec);
  }

  // Lower validated bytecode into the decoded execution IR. The decoded
  // loop's dispatch labels are function-local, so export them through a
  // one-shot call before decoding.
  if (UseDecoded && ValidationError.empty()) {
    const void *const *Labels = nullptr;
    runThreadExec(nullptr, nullptr, nullptr, {}, 0, &Labels);
    Exec = decodeProgram(Program, Labels);
  }
}

Device::~Device() { shutdownWorkers(); }

bool dpo::operator==(const VmStats &A, const VmStats &B) {
  return A.GridsLaunched == B.GridsLaunched &&
         A.DeviceLaunches == B.DeviceLaunches &&
         A.HostLaunches == B.HostLaunches &&
         A.BlocksExecuted == B.BlocksExecuted &&
         A.ThreadsExecuted == B.ThreadsExecuted && A.Steps == B.Steps &&
         A.LargestGridBlocks == B.LargestGridBlocks &&
         A.TraceEntries == B.TraceEntries && A.TraceIters == B.TraceIters &&
         A.TraceSideExits == B.TraceSideExits &&
         A.SpecGuardPass == B.SpecGuardPass &&
         A.SpecGuardFail == B.SpecGuardFail;
}

bool dpo::operator==(const GridRecord &A, const GridRecord &B) {
  return A.Blocks == B.Blocks && A.Threads == B.Threads &&
         A.Steps == B.Steps && A.MaxThreadSteps == B.MaxThreadSteps &&
         A.BlockDim == B.BlockDim && A.Site == B.Site &&
         A.FromHost == B.FromHost;
}

void Device::setWorkers(unsigned N) {
  if (N == 0)
    N = resolveWorkerCount();
  Workers = std::min(N, 64u);
  if (Workers == 0)
    Workers = 1;
}

void Device::validateProgram() {
  auto Bad = [&](const FuncDef &F, const std::string &What) {
    if (ValidationError.empty())
      ValidationError = "invalid bytecode in '" + F.Name + "': " + What;
  };
  for (const FuncDef &F : Program.Functions) {
    size_t N = F.Code.size();
    if (N == 0) {
      Bad(F, "empty code");
      continue;
    }
    Op LastOp = F.Code.back().Code;
    if (LastOp != Op::Ret && LastOp != Op::RetVoid && LastOp != Op::Jmp &&
        LastOp != Op::Trap)
      Bad(F, "does not end in a terminator");
    for (const Instr &I : F.Code) {
      if (isJumpOp(I.Code) && (uint64_t)I.A >= N)
        Bad(F, std::string("jump target out of range in ") + opName(I.Code));
      switch (I.Code) {
      case Op::LoadLocal:
      case Op::StoreLocal:
      case Op::LoadLocalImmAddI:
      case Op::IncLocalI32:
      case Op::IncLocalI64:
        if ((uint64_t)I.A >= F.NumLocals)
          Bad(F, std::string("local slot out of range in ") + opName(I.Code));
        break;
      case Op::LoadLocal2:
      case Op::LoadLoadAddI:
      case Op::LdI32Idx:
      case Op::LdU32Idx:
      case Op::LdI64Idx:
      case Op::LdF32Idx:
      case Op::LdF64Idx:
        if ((uint64_t)I.A >= F.NumLocals || (uint64_t)I.B >= F.NumLocals)
          Bad(F, std::string("local slot out of range in ") + opName(I.Code));
        break;
      case Op::Call:
      case Op::Launch:
        if ((uint64_t)I.A >= Program.Functions.size()) {
          Bad(F, std::string("callee index out of range in ") +
                     opName(I.Code));
        } else if ((uint64_t)I.B !=
                   Program.Functions[I.A].NumParamSlots) {
          // The interpreter copies exactly B argument slots into the
          // callee's locals (Call) or launch record (Launch) with no
          // per-step bounds check — the slot count must match here.
          Bad(F, std::string("argument slot count mismatch in ") +
                     opName(I.Code));
        } else if (I.Code == Op::Launch &&
                   (uint64_t)I.C > Program.LaunchSiteNames.size()) {
          Bad(F, "launch site ordinal out of range");
        }
        break;
      case Op::Trap:
        if ((uint64_t)I.A >= Program.TrapMessages.size())
          Bad(F, "trap message index out of range");
        break;
      default:
        break;
      }
    }
  }

  // Per-function barrier reachability (transitive over calls): kernels
  // that provably never hit __syncthreads (or a warp/block collective,
  // which parks the same way) run their blocks through the fast
  // no-scheduler path in runBlock.
  size_t N = Program.Functions.size();
  MayBarrier.assign(N, 0);
  for (size_t FI = 0; FI < N; ++FI)
    for (const Instr &I : Program.Functions[FI].Code)
      if (I.Code == Op::SyncThreads || I.Code == Op::WarpShfl ||
          I.Code == Op::WarpBallot || I.Code == Op::BlockReduce)
        MayBarrier[FI] = 1;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t FI = 0; FI < N; ++FI) {
      if (MayBarrier[FI])
        continue;
      for (const Instr &I : Program.Functions[FI].Code)
        if (I.Code == Op::Call && (uint64_t)I.A < N && MayBarrier[I.A]) {
          MayBarrier[FI] = 1;
          Changed = true;
          break;
        }
    }
  }
}

uint64_t Device::alloc(uint64_t Bytes) {
  // Called from worker handlers (frame-memory regions, cudaMalloc)
  // concurrently with other workers executing: the bump pointer is
  // mutex-guarded, and since Memory never reallocates, data pointers
  // cached by running interpreter loops stay valid across allocs.
  std::lock_guard<std::mutex> Lk(AllocMutex);
  uint64_t Addr = (BumpPtr + 7) & ~7ull;
  if (Bytes > Memory.size() || Addr > Memory.size() - Bytes) {
    std::lock_guard<std::mutex> ELk(ErrMutex);
    LastError = "device out of memory";
    return 0;
  }
  BumpPtr = Addr + Bytes;
  Memory.zero(Addr, Bytes);
  return Addr;
}

// Overflow-safe: (Addr + Bytes) may wrap for hostile Addr, so compare
// against the size from the other side.
#define DPO_CHECKED_RW(Addr, Bytes)                                           \
  assert((Addr) != 0 && (uint64_t)(Bytes) <= Memory.size() &&                 \
         (uint64_t)(Addr) <= Memory.size() - (uint64_t)(Bytes) &&             \
         "host access out of bounds")

void Device::writeI32(uint64_t Addr, int32_t V) {
  DPO_CHECKED_RW(Addr, 4);
  std::memcpy(Memory.data() + Addr, &V, 4);
}
void Device::writeU32(uint64_t Addr, uint32_t V) {
  DPO_CHECKED_RW(Addr, 4);
  std::memcpy(Memory.data() + Addr, &V, 4);
}
void Device::writeI64(uint64_t Addr, int64_t V) {
  DPO_CHECKED_RW(Addr, 8);
  std::memcpy(Memory.data() + Addr, &V, 8);
}
void Device::writeF32(uint64_t Addr, float V) {
  DPO_CHECKED_RW(Addr, 4);
  std::memcpy(Memory.data() + Addr, &V, 4);
}
void Device::writeF64(uint64_t Addr, double V) {
  DPO_CHECKED_RW(Addr, 8);
  std::memcpy(Memory.data() + Addr, &V, 8);
}
int32_t Device::readI32(uint64_t Addr) const {
  DPO_CHECKED_RW(Addr, 4);
  int32_t V;
  std::memcpy(&V, Memory.data() + Addr, 4);
  return V;
}
uint32_t Device::readU32(uint64_t Addr) const {
  DPO_CHECKED_RW(Addr, 4);
  uint32_t V;
  std::memcpy(&V, Memory.data() + Addr, 4);
  return V;
}
int64_t Device::readI64(uint64_t Addr) const {
  DPO_CHECKED_RW(Addr, 8);
  int64_t V;
  std::memcpy(&V, Memory.data() + Addr, 8);
  return V;
}
float Device::readF32(uint64_t Addr) const {
  DPO_CHECKED_RW(Addr, 4);
  float V;
  std::memcpy(&V, Memory.data() + Addr, 4);
  return V;
}
double Device::readF64(uint64_t Addr) const {
  DPO_CHECKED_RW(Addr, 8);
  double V;
  std::memcpy(&V, Memory.data() + Addr, 8);
  return V;
}

uint64_t Device::allocI32(const std::vector<int32_t> &Values) {
  uint64_t Addr = alloc(Values.size() * 4);
  if (Addr)
    std::memcpy(Memory.data() + Addr, Values.data(), Values.size() * 4);
  return Addr;
}

std::vector<int32_t> Device::readI32Array(uint64_t Addr, size_t Count) const {
  DPO_CHECKED_RW(Addr, Count * 4);
  std::vector<int32_t> Result(Count);
  std::memcpy(Result.data(), Memory.data() + Addr, Count * 4);
  return Result;
}

uint64_t Device::allocI64(const std::vector<int64_t> &Values) {
  uint64_t Addr = alloc(Values.size() * 8);
  if (Addr)
    std::memcpy(Memory.data() + Addr, Values.data(), Values.size() * 8);
  return Addr;
}
uint64_t Device::allocF32(const std::vector<float> &Values) {
  uint64_t Addr = alloc(Values.size() * 4);
  if (Addr)
    std::memcpy(Memory.data() + Addr, Values.data(), Values.size() * 4);
  return Addr;
}
uint64_t Device::allocF64(const std::vector<double> &Values) {
  uint64_t Addr = alloc(Values.size() * 8);
  if (Addr)
    std::memcpy(Memory.data() + Addr, Values.data(), Values.size() * 8);
  return Addr;
}
std::vector<int64_t> Device::readI64Array(uint64_t Addr, size_t Count) const {
  DPO_CHECKED_RW(Addr, Count * 8);
  std::vector<int64_t> Result(Count);
  std::memcpy(Result.data(), Memory.data() + Addr, Count * 8);
  return Result;
}
std::vector<float> Device::readF32Array(uint64_t Addr, size_t Count) const {
  DPO_CHECKED_RW(Addr, Count * 4);
  std::vector<float> Result(Count);
  std::memcpy(Result.data(), Memory.data() + Addr, Count * 4);
  return Result;
}
std::vector<double> Device::readF64Array(uint64_t Addr, size_t Count) const {
  DPO_CHECKED_RW(Addr, Count * 8);
  std::vector<double> Result(Count);
  std::memcpy(Result.data(), Memory.data() + Addr, Count * 8);
  return Result;
}
void Device::writeI32Array(uint64_t Addr, const std::vector<int32_t> &Values) {
  DPO_CHECKED_RW(Addr, Values.size() * 4);
  std::memcpy(Memory.data() + Addr, Values.data(), Values.size() * 4);
}
void Device::writeI64Array(uint64_t Addr, const std::vector<int64_t> &Values) {
  DPO_CHECKED_RW(Addr, Values.size() * 8);
  std::memcpy(Memory.data() + Addr, Values.data(), Values.size() * 8);
}
void Device::writeF64Array(uint64_t Addr, const std::vector<double> &Values) {
  DPO_CHECKED_RW(Addr, Values.size() * 8);
  std::memcpy(Memory.data() + Addr, Values.data(), Values.size() * 8);
}
void Device::fillI32(uint64_t Addr, size_t Count, int32_t V) {
  DPO_CHECKED_RW(Addr, Count * 4);
  for (size_t I = 0; I < Count; ++I)
    std::memcpy(Memory.data() + Addr + I * 4, &V, 4);
}
void Device::fillI64(uint64_t Addr, size_t Count, int64_t V) {
  DPO_CHECKED_RW(Addr, Count * 8);
  for (size_t I = 0; I < Count; ++I)
    std::memcpy(Memory.data() + Addr + I * 8, &V, 8);
}

bool Device::fail(const std::string &Message) {
  // Set-once under the mutex: with several workers failing near-
  // simultaneously, the first failure's message wins deterministically
  // enough for diagnosis, and later reads (post-join) are race-free.
  std::lock_guard<std::mutex> Lk(ErrMutex);
  if (LastError.empty())
    LastError = Message;
  return false;
}

bool Device::checkRange(uint64_t Addr, uint64_t Bytes) {
  if (Addr == 0)
    return fail("null pointer access");
  // Written so (Addr + Bytes) cannot wrap around for large Addr.
  if (Bytes > Memory.size() || Addr > Memory.size() - Bytes)
    return fail("device memory access out of bounds");
  return true;
}

void Device::growStack(ThreadCtx &T) {
  T.Stack.resize(T.Stack.empty() ? 64 : T.Stack.size() * 2);
}

bool Device::launchKernel(const std::string &Name, Dim3V Grid, Dim3V Block,
                          const std::vector<int64_t> &Args) {
  LastError.clear();
  StepsUsed.store(0, std::memory_order_relaxed);
  if (!ValidationError.empty())
    return fail(ValidationError);
  const FuncDef *F = Program.find(Name);
  if (!F)
    return fail("unknown kernel '" + Name + "'");
  if (!F->IsKernel)
    return fail("'" + Name + "' is not a __global__ kernel");
  if (Args.size() != F->NumParamSlots)
    return fail("kernel '" + Name + "' expects " +
                std::to_string(F->NumParamSlots) + " argument slots, got " +
                std::to_string(Args.size()));
  PendingLaunch L;
  L.Func = Program.FunctionIndex.at(Name);
  L.Grid = Grid;
  L.Block = Block;
  L.Args = Args;
  L.FromHost = true;
  ++Stats.HostLaunches;
  Queue.push_back(std::move(L));
  bool Ok = drainLaunches();
  mergeWorkerStats();
  return Ok;
}

bool Device::callHost(const std::string &Name,
                      const std::vector<int64_t> &Args) {
  LastError.clear();
  StepsUsed.store(0, std::memory_order_relaxed);
  if (!ValidationError.empty())
    return fail(ValidationError);
  const FuncDef *F = Program.find(Name);
  if (!F)
    return fail("unknown function '" + Name + "'");
  if (Args.size() != F->NumParamSlots)
    return fail("function '" + Name + "' expects " +
                std::to_string(F->NumParamSlots) + " argument slots, got " +
                std::to_string(Args.size()));

  InHostCall = true;
  PendingLaunch L;
  L.Func = Program.FunctionIndex.at(Name);
  L.Grid = {1, 1, 1};
  L.Block = {1, 1, 1};
  L.Args = Args;
  L.FromHost = true;
  // The host pseudo-thread always executes on the main worker; its
  // buffered launches join the queue when it returns (or at each
  // cudaDeviceSynchronize inside it).
  WorkerCtx &W = *WorkerCtxs[0];
  W.LogSink = &GridLog;
  bool Ok = runGrid(L, W);
  for (PendingLaunch &C : W.Pending)
    Queue.push_back(std::move(C));
  W.Pending.clear();
  Ok = Ok && drainLaunches();
  InHostCall = false;
  mergeWorkerStats();
  return Ok;
}

bool Device::hasKernel(const std::string &Name) const {
  const FuncDef *F = Program.find(Name);
  return F && F->IsKernel;
}

bool Device::hasHostFunction(const std::string &Name) const {
  const FuncDef *F = Program.find(Name);
  return F && !F->IsKernel;
}

bool Device::drainLaunches() {
  if (Workers > 1)
    return drainLaunchesParallel();
  // Sequential mode: FIFO drain on the main worker. Children buffered
  // during a grid append behind the whole queue when it completes —
  // exactly where the direct-push implementation put them, since only
  // one grid ever runs at a time.
  WorkerCtx &W = *WorkerCtxs[0];
  while (!Queue.empty()) {
    PendingLaunch L = std::move(Queue.front());
    Queue.pop_front();
    W.LogSink = &GridLog;
    bool Ok = runGrid(L, W);
    for (PendingLaunch &C : W.Pending)
      Queue.push_back(std::move(C));
    W.Pending.clear();
    if (!Ok)
      return false;
    // Recycle the argument buffer: steady-state device-side launching
    // performs no per-launch allocation.
    if (L.Args.capacity() > 0 && W.ArgPool.size() < 256)
      W.ArgPool.push_back(std::move(L.Args));
  }
  return true;
}

bool Device::drainLaunchesParallel() {
  ensureWorkersSpawned();
  WorkerCtx &W0 = *WorkerCtxs[0];
  while (!Queue.empty()) {
    // A solo grid has nothing to overlap with: run it inline instead of
    // waking the pool (deep launch chains — one parent grid per round —
    // hit this path every round).
    if (Queue.size() == 1) {
      PendingLaunch L = std::move(Queue.front());
      Queue.pop_front();
      W0.LogSink = &GridLog;
      bool Ok = runGrid(L, W0);
      for (PendingLaunch &C : W0.Pending)
        Queue.push_back(std::move(C));
      W0.Pending.clear();
      if (!Ok)
        return false;
      if (L.Args.capacity() > 0 && W0.ArgPool.size() < 256)
        W0.ArgPool.push_back(std::move(L.Args));
      continue;
    }

    // Snapshot the whole queue as one wave. Every queued grid is
    // independent of every other (children of a running grid only enter
    // the queue after it completes), so the wave may execute in any
    // interleaving; the per-slot child/record merge below restores the
    // sequential FIFO linearization.
    ParallelWave Wave;
    Wave.Items.reserve(Queue.size());
    while (!Queue.empty()) {
      Wave.Items.push_back(std::move(Queue.front()));
      Queue.pop_front();
    }
    Wave.Children.resize(Wave.Items.size());
    if (GridLogEnabled)
      Wave.Logs.resize(Wave.Items.size());

    {
      std::lock_guard<std::mutex> Lk(WaveMutex);
      CurWave = &Wave;
      ++WaveGen;
      WaveActive = (unsigned)WorkerThreads.size();
    }
    WaveCv.notify_all();
    runWaveItems(Wave, W0); // The main thread works the wave too.
    {
      std::unique_lock<std::mutex> Lk(WaveMutex);
      WaveDoneCv.wait(Lk, [&] { return WaveActive == 0; });
      CurWave = nullptr;
    }

    for (size_t I = 0; I < Wave.Items.size(); ++I) {
      if (GridLogEnabled)
        for (GridRecord &R : Wave.Logs[I])
          GridLog.push_back(R);
      for (PendingLaunch &C : Wave.Children[I])
        Queue.push_back(std::move(C));
    }
    if (Wave.Failed.load(std::memory_order_relaxed))
      return false;
  }
  return true;
}

void Device::runWaveItems(ParallelWave &Wave, WorkerCtx &W) {
  const size_t N = Wave.Items.size();
  for (;;) {
    size_t Idx = Wave.Next.fetch_add(1, std::memory_order_relaxed);
    if (Idx >= N)
      return;
    // After a failure, claim the remaining items without running them so
    // the wave completes promptly (the error is already recorded).
    if (Wave.Failed.load(std::memory_order_relaxed))
      continue;
    PendingLaunch &L = Wave.Items[Idx];
    W.LogSink = GridLogEnabled ? &Wave.Logs[Idx] : nullptr;
    bool Ok = runGrid(L, W);
    Wave.Children[Idx] = std::move(W.Pending);
    W.Pending.clear();
    if (!Ok)
      Wave.Failed.store(true, std::memory_order_relaxed);
    else if (L.Args.capacity() > 0 && W.ArgPool.size() < 256)
      W.ArgPool.push_back(std::move(L.Args));
  }
}

void Device::workerLoop(WorkerCtx &W, uint64_t SeenGen) {
  std::unique_lock<std::mutex> Lk(WaveMutex);
  for (;;) {
    WaveCv.wait(Lk, [&] { return ShuttingDown || WaveGen != SeenGen; });
    if (ShuttingDown)
      return;
    SeenGen = WaveGen;
    ParallelWave *Wave = CurWave;
    Lk.unlock();
    if (Wave)
      runWaveItems(*Wave, W);
    Lk.lock();
    if (--WaveActive == 0)
      WaveDoneCv.notify_all();
  }
}

void Device::ensureWorkersSpawned() {
  while (WorkerCtxs.size() < Workers)
    WorkerCtxs.push_back(std::make_unique<WorkerCtx>());
  while (WorkerThreads.size() + 1 < Workers) {
    WorkerCtx *C = WorkerCtxs[WorkerThreads.size() + 1].get();
    uint64_t StartGen = WaveGen;
    WorkerThreads.emplace_back(
        [this, C, StartGen] { workerLoop(*C, StartGen); });
  }
}

void Device::shutdownWorkers() {
  {
    std::lock_guard<std::mutex> Lk(WaveMutex);
    ShuttingDown = true;
  }
  WaveCv.notify_all();
  for (std::thread &T : WorkerThreads)
    if (T.joinable())
      T.join();
  WorkerThreads.clear();
  ShuttingDown = false;
}

void Device::mergeWorkerStats() {
  for (auto &C : WorkerCtxs) {
    VmStats &S = C->Stats;
    Stats.GridsLaunched += S.GridsLaunched;
    Stats.DeviceLaunches += S.DeviceLaunches;
    Stats.HostLaunches += S.HostLaunches;
    Stats.BlocksExecuted += S.BlocksExecuted;
    Stats.ThreadsExecuted += S.ThreadsExecuted;
    Stats.Steps += S.Steps;
    Stats.LargestGridBlocks =
        std::max(Stats.LargestGridBlocks, S.LargestGridBlocks);
    Stats.TraceEntries += S.TraceEntries;
    Stats.TraceIters += S.TraceIters;
    Stats.TraceSideExits += S.TraceSideExits;
    Stats.SpecGuardPass += S.SpecGuardPass;
    Stats.SpecGuardFail += S.SpecGuardFail;
    S = VmStats();
  }
}

bool Device::runGrid(PendingLaunch &L, WorkerCtx &W) {
  const FuncDef &F = Program.Functions[L.Func];
  ++W.Stats.GridsLaunched;
  W.Stats.LargestGridBlocks =
      std::max(W.Stats.LargestGridBlocks, (uint64_t)L.Grid.count());
  if (L.Grid.count() == 0 || L.Block.count() == 0)
    return true; // Empty grids complete immediately.
  if (L.Block.count() > 1024)
    return fail("block of " + std::to_string(L.Block.count()) +
                " threads exceeds the 1024-thread limit in '" + F.Name + "'");

  // Frame-entry parameter normalization, hoisted to once per grid —
  // every thread receives the same argument slots. The per-thread
  // initial locals image (normalized params, then zeros) is built here
  // once and copied per thread in runBlock.
  normalizeParamSlots(L.Func, L.Args.data());
  constexpr unsigned InlineLocals = 64;
  int64_t InitBuf[InlineLocals];
  std::vector<int64_t> InitHeap;
  int64_t *Init = InitBuf;
  if (F.NumLocals > InlineLocals) {
    InitHeap.resize(F.NumLocals);
    Init = InitHeap.data();
  }
  for (unsigned I = 0; I < F.NumParamSlots; ++I)
    Init[I] = L.Args[I];
  for (unsigned I = F.NumParamSlots; I < F.NumLocals; ++I)
    Init[I] = 0;

  uint64_t SharedBase = 0;
  if (F.SharedBytes > 0) {
    SharedBase = alloc(F.SharedBytes);
    if (!SharedBase)
      return false;
  }

  // Grid-log bookkeeping: the record reports this grid's *exclusive*
  // work — WorkerCtx::GridSteps accumulates only this worker's flushes,
  // and nested grids (a host pseudo-thread draining mid-flight) save,
  // zero, and restore it so their steps never leak into the parent's
  // record. The log sink is captured here because a nested drain
  // repoints W.LogSink while this grid is still running.
  uint64_t SavedGridSteps = 0, SavedMax = 0;
  std::vector<GridRecord> *Sink = nullptr;
  if (GridLogEnabled) {
    Sink = W.LogSink;
    SavedGridSteps = W.GridSteps;
    SavedMax = W.CurGridMaxThreadSteps;
    W.GridSteps = 0;
    W.CurGridMaxThreadSteps = 0;
  }

  for (uint32_t BZ = 0; BZ < L.Grid.Z; ++BZ)
    for (uint32_t BY = 0; BY < L.Grid.Y; ++BY)
      for (uint32_t BX = 0; BX < L.Grid.X; ++BX) {
        if (SharedBase)
          std::memset(Memory.data() + SharedBase, 0, F.SharedBytes);
        if (!runBlock(L, W, {BX, BY, BZ}, SharedBase, Init))
          return false;
      }

  if (GridLogEnabled) {
    GridRecord R;
    R.Blocks = L.Grid.count();
    R.Threads = L.Grid.count() * L.Block.count();
    R.Steps = W.GridSteps;
    R.MaxThreadSteps = W.CurGridMaxThreadSteps;
    R.BlockDim = (uint32_t)L.Block.count();
    R.Site = L.Site;
    R.FromHost = L.FromHost;
    if (Sink)
      Sink->push_back(R);
    W.GridSteps = SavedGridSteps;
    W.CurGridMaxThreadSteps = SavedMax;
  }
  return true;
}

bool Device::runBlock(const PendingLaunch &L, WorkerCtx &W, Dim3V BlockIdx,
                      uint64_t SharedBase, const int64_t *InitLocals) {
  const FuncDef &F = Program.Functions[L.Func];
  ++W.Stats.BlocksExecuted;

  // Acquire this worker's context pool for this nesting depth (depth > 0
  // only when a host pseudo-thread's cudaDeviceSynchronize re-enters the
  // engine).
  if (W.PoolDepth >= W.Pools.size())
    W.Pools.push_back(std::make_unique<BlockPool>());
  BlockPool &Pool = *W.Pools[W.PoolDepth];
  ++W.PoolDepth;
  struct DepthGuard {
    unsigned &Depth;
    ~DepthGuard() { --Depth; }
  } Guard{W.PoolDepth};

  size_t NumThreads = (size_t)L.Block.count();
  if (Pool.Threads.size() < NumThreads)
    Pool.Threads.resize(NumThreads);

  if (F.FrameBytes > ThreadFrameMemBytes)
    return fail("thread frame-memory stack overflow");

  W.Stats.ThreadsExecuted += NumThreads;
  auto SetupThread = [&](ThreadCtx &T, uint32_t TX, uint32_t TY,
                         uint32_t TZ) -> bool {
    T.reset();
    T.ThreadIdx = {TX, TY, TZ};
    Frame Root;
    Root.Func = L.Func;
    Root.PC = 0;
    Root.LocalsBase = 0;
    // One copy of the per-grid initial image (normalized params + zeroed
    // locals, built in runGrid) instead of per-thread fill + arg loop.
    T.LocalsArena.assign(InitLocals, InitLocals + F.NumLocals);
    if (F.FrameBytes > 0) {
      if (!T.StackMemBase) {
        T.StackMemBase = alloc(ThreadFrameMemBytes);
        if (!T.StackMemBase)
          return false;
      }
      Root.FrameMemBase = T.StackMemBase;
      Root.FrameMemBytes = F.FrameBytes;
      T.StackMemUsed = F.FrameBytes;
      std::memset(Memory.data() + Root.FrameMemBase, 0, F.FrameBytes);
    }
    T.Frames.push_back(Root);
    return true;
  };

  // Fast path: a kernel that provably never reaches __syncthreads
  // (MayBarrier, transitive over calls) needs no round-robin scheduler.
  // The whole block executes inside ONE interpreter invocation (block
  // mode): a single recycled context runs every thread back to back, and
  // thread switch is an in-loop reinit from the per-grid locals image.
  if (!MayBarrier[L.Func]) {
    ThreadCtx &T = Pool.Threads[0];
    if (!SetupThread(T, 0, 0, 0))
      return false;
    bool Ok = UseDecoded
                  ? runThreadExec(&T, &W, &L, BlockIdx, SharedBase, nullptr,
                                  InitLocals, (uint32_t)NumThreads)
                  : runThread(T, W, L, BlockIdx, SharedBase, InitLocals,
                              (uint32_t)NumThreads);
    if (!Ok)
      return false;
    if (T.State != ThreadState::Done)
      return fail("barrier reached in a barrier-free kernel (MayBarrier "
                  "analysis out of sync)");
    return true;
  }

  // Cooperative block mode: every thread context of the block is set up
  // front, then ONE interpreter invocation runs them all — __syncthreads
  // and the warp/block collectives are in-loop yield points (the handler
  // parks the thread and jumps to the cooperative scheduler, which
  // restores the next ready context without leaving the function). The
  // thread execution order is index-ascending between release points,
  // identical to the retired round-robin scheduler, so payloads and
  // per-thread step counts are unchanged.
  size_t TI = 0;
  for (uint32_t TZ = 0; TZ < L.Block.Z; ++TZ)
    for (uint32_t TY = 0; TY < L.Block.Y; ++TY)
      for (uint32_t TX = 0; TX < L.Block.X; ++TX)
        if (!SetupThread(Pool.Threads[TI++], TX, TY, TZ))
          return false;

  ThreadCtx *CT = Pool.Threads.data();
  bool Ok = UseDecoded
                ? runThreadExec(CT, &W, &L, BlockIdx, SharedBase, nullptr,
                                nullptr, 0, CT, (uint32_t)NumThreads)
                : runThread(*CT, W, L, BlockIdx, SharedBase, nullptr, 0, CT,
                            (uint32_t)NumThreads);
  if (!Ok)
    return false;
  if (GridLogEnabled)
    for (size_t TIdx = 0; TIdx < NumThreads; ++TIdx)
      W.CurGridMaxThreadSteps =
          std::max(W.CurGridMaxThreadSteps, Pool.Threads[TIdx].StepsRetired);
  return true;
}

int Device::coopRelease(ThreadCtx *Threads, uint32_t Count, size_t &NextTI) {
  // 1. Resolve complete collective groups. A warp group spans the 32
  // index-contiguous threads sharing linear-tid/32 (runBlock sets the
  // contexts up in linear order); a block-reduce group spans the whole
  // block. Since no thread is Ready when this runs, a group is complete
  // exactly when its live members are all parked at the triggering
  // thread's site; live members parked elsewhere (a masked tail at a
  // wrapper barrier) are simply not part of the group — the same lenient
  // semantics barriers have. Resolution order is index-ascending, so
  // results are deterministic.
  auto PushResult = [&](ThreadCtx &P, int64_t V) {
    if (P.StackTop == P.Stack.size())
      growStack(P);
    P.Stack[P.StackTop++] = V;
  };
  bool Resolved = false;
  for (uint32_t I = 0; I < Count; ++I) {
    ThreadCtx &T = Threads[I];
    if (T.State != ThreadState::AtCollective)
      continue;
    const Frame &TF = T.Frames.back();
    uint32_t Lo = T.CollOp == CollKind::Reduce ? 0 : (I & ~31u);
    uint32_t Hi = T.CollOp == CollKind::Reduce
                      ? Count
                      : std::min<uint32_t>(Lo + 32, Count);
    // Gather the group: members parked at this exact site.
    uint32_t Members[1024];
    uint32_t NumMembers = 0;
    for (uint32_t J = Lo; J < Hi; ++J) {
      ThreadCtx &P = Threads[J];
      if (P.State != ThreadState::AtCollective || P.CollOp != T.CollOp)
        continue;
      const Frame &PF = P.Frames.back();
      if (PF.Func != TF.Func || PF.PC != TF.PC)
        continue;
      Members[NumMembers++] = J;
    }
    switch (T.CollOp) {
    case CollKind::Shfl: {
      // Per-member result: the contributed value of the source lane, or
      // the member's own value when the source lane is out of range,
      // absent (exited), or outside the mask.
      for (uint32_t MI = 0; MI < NumMembers; ++MI) {
        ThreadCtx &P = Threads[Members[MI]];
        uint32_t Lane = Members[MI] & 31u;
        int64_t Delta = P.CollArg;
        int64_t Src = -1;
        switch (P.CollMode) {
        case 0: Src = Delta & 31; break;                        // idx
        case 1: Src = (int64_t)Lane - Delta; break;             // up
        case 2: Src = (int64_t)Lane + Delta; break;             // down
        default: Src = (int64_t)(Lane ^ ((uint64_t)Delta & 31)); break;
        }
        int64_t Res = P.CollVal;
        if (Src >= 0 && Src < 32 && ((P.CollMask >> Src) & 1)) {
          for (uint32_t MJ = 0; MJ < NumMembers; ++MJ)
            if ((Members[MJ] & 31u) == (uint32_t)Src) {
              Res = Threads[Members[MJ]].CollVal;
              break;
            }
        }
        PushResult(P, Res);
      }
      break;
    }
    case CollKind::Ballot: {
      // One bitmask for the whole group: lane bits where the lane is in
      // the triggering mask and its predicate was nonzero.
      uint64_t Bits = 0;
      for (uint32_t MI = 0; MI < NumMembers; ++MI) {
        ThreadCtx &P = Threads[Members[MI]];
        uint32_t Lane = Members[MI] & 31u;
        if (((T.CollMask >> Lane) & 1) && P.CollVal != 0)
          Bits |= 1ull << Lane;
      }
      for (uint32_t MI = 0; MI < NumMembers; ++MI)
        PushResult(Threads[Members[MI]], (int64_t)(uint32_t)Bits);
      break;
    }
    case CollKind::Reduce: {
      int64_t Acc = T.CollVal;
      for (uint32_t MI = 0; MI < NumMembers; ++MI) {
        int64_t V = Threads[Members[MI]].CollVal;
        if (Members[MI] == I)
          continue;
        switch (T.CollMode) {
        case 0: Acc = (int64_t)((uint64_t)Acc + (uint64_t)V); break;
        case 1: Acc = std::min(Acc, V); break;
        default: Acc = std::max(Acc, V); break;
        }
      }
      for (uint32_t MI = 0; MI < NumMembers; ++MI)
        PushResult(Threads[Members[MI]], Acc);
      break;
    }
    }
    for (uint32_t MI = 0; MI < NumMembers; ++MI)
      Threads[Members[MI]].State = ThreadState::Ready;
    Resolved = true;
  }

  // 2. Lenient barrier release: every parked waiter goes, regardless of
  // which barrier site it reached — finished threads are not waited for.
  if (!Resolved) {
    bool AnyWaiting = false;
    for (uint32_t I = 0; I < Count; ++I)
      if (Threads[I].State == ThreadState::AtBarrier) {
        Threads[I].State = ThreadState::Ready;
        AnyWaiting = true;
      }
    if (!AnyWaiting) {
      for (uint32_t I = 0; I < Count; ++I)
        if (Threads[I].State != ThreadState::Done) {
          fail("cooperative scheduling deadlock (thread neither runnable, "
               "parked, nor done)");
          return 2;
        }
      return 1; // Block complete.
    }
  }
  for (uint32_t I = 0; I < Count; ++I)
    if (Threads[I].State == ThreadState::Ready) {
      NextTI = I;
      return 0;
    }
  fail("cooperative scheduling deadlock (release produced no runnable "
       "thread)");
  return 2;
}

bool Device::failStepLimit(const ThreadCtx *CoopThreads, uint32_t CoopCount) {
  std::string Msg = "step limit exceeded (possible infinite loop)";
  if (CoopThreads) {
    uint32_t Parked = 0;
    for (uint32_t I = 0; I < CoopCount; ++I)
      if (CoopThreads[I].State == ThreadState::AtBarrier ||
          CoopThreads[I].State == ThreadState::AtCollective)
        ++Parked;
    if (Parked)
      Msg += "; " + std::to_string(Parked) +
             " thread(s) of the block were parked at __syncthreads or a "
             "collective (divergent barrier)";
  }
  return fail(Msg);
}

//===----------------------------------------------------------------------===//
// The interpreter loop
//===----------------------------------------------------------------------===//

// Overridable (e.g. -DDPO_VM_COMPUTED_GOTO=0) so the portable switch
// fallback can be built and tested on compilers that support both.
#ifndef DPO_VM_COMPUTED_GOTO
#if defined(__GNUC__) || defined(__clang__)
#define DPO_VM_COMPUTED_GOTO 1
#else
#define DPO_VM_COMPUTED_GOTO 0
#endif
#endif

// Operand-stack access through cached registers. VM_PUSH re-derives the
// base pointer after a (rare) growth; value expressions must not call
// VM_POP themselves.
#define VM_PUSH(V)                                                            \
  do {                                                                        \
    if (SP == SCap) {                                                         \
      T.StackTop = SP;                                                        \
      growStack(T);                                                           \
      S = T.Stack.data();                                                     \
      SCap = T.Stack.size();                                                  \
    }                                                                         \
    S[SP++] = (V);                                                            \
  } while (0)
#define VM_POP() (S[--SP])
#define VM_TOP() (S[SP - 1])

// Write the cached registers back into the context / device counters.
// The global step counter is contended only when several workers flush;
// single-worker flushes (block-mode runs one per thread, ~tens of
// thousands per launch) take the unlocked load+store path — a lock xadd
// there costs double-digit percent on dispatch-bound workloads.
#define VM_FLUSH_STEPS()                                                      \
  do {                                                                        \
    if (MultiWorker)                                                          \
      StepsUsed.fetch_add(LocalSteps, std::memory_order_relaxed);             \
    else                                                                      \
      StepsUsed.store(StepsUsed.load(std::memory_order_relaxed) + LocalSteps, \
                      std::memory_order_relaxed);                             \
    W.Stats.Steps += LocalSteps;                                              \
    W.GridSteps += LocalSteps;                                                \
    T.StepsRetired += LocalSteps;                                             \
    LocalSteps = 0;                                                           \
  } while (0)

// Abort this thread with a VM error message.
#define VM_FAILF(MSG)                                                         \
  do {                                                                        \
    T.State = ThreadState::Failed;                                            \
    T.StackTop = SP;                                                          \
    VM_FLUSH_STEPS();                                                         \
    return fail(MSG);                                                         \
  } while (0)

// Abort this thread; the error message was already set (by checkRange).
#define VM_FAIL_SET()                                                         \
  do {                                                                        \
    T.State = ThreadState::Failed;                                            \
    T.StackTop = SP;                                                          \
    VM_FLUSH_STEPS();                                                         \
    return false;                                                             \
  } while (0)

// A thread's root frame returned. In block mode (barrier-free kernels)
// fall through to the in-loop thread switch; in cooperative block mode
// publish Done and let the in-loop scheduler pick the next thread;
// otherwise return to the caller.
#define VM_THREAD_DONE()                                                      \
  do {                                                                        \
    if (InitLocals)                                                           \
      goto BlockNextThread;                                                   \
    T.State = ThreadState::Done;                                              \
    T.StackTop = SP;                                                          \
    VM_FLUSH_STEPS();                                                         \
    if (CoopThreads)                                                          \
      goto CoopSched;                                                         \
    return true;                                                              \
  } while (0)

// The block-mode thread switch, shared verbatim by both engines (every
// referenced name — RootF, L, InitLocals, ThreadsLeft, the cached
// interpreter registers — is declared by both loops). Reinitializes the
// single recycled context for the next thread of the block and resumes
// dispatch without leaving the function: thread switch costs a frame
// reset and one locals-image copy instead of a scheduler round trip.
#define VM_BLOCK_THREAD_SWITCH()                                              \
  BlockNextThread:                                                            \
  VM_FLUSH_STEPS();                                                           \
  StepBudget = stepBudgetLeft();                                              \
  if (GridLogEnabled) {                                                       \
    W.CurGridMaxThreadSteps =                                                 \
        std::max(W.CurGridMaxThreadSteps, T.StepsRetired);                    \
    T.StepsRetired = 0;                                                       \
  }                                                                           \
  if (--ThreadsLeft == 0) {                                                   \
    T.State = ThreadState::Done;                                              \
    T.StackTop = 0;                                                           \
    return true;                                                              \
  }                                                                           \
  {                                                                           \
    Dim3V TIdx = T.ThreadIdx;                                                 \
    if (++TIdx.X == L.Block.X) {                                              \
      TIdx.X = 0;                                                             \
      if (++TIdx.Y == L.Block.Y) {                                            \
        TIdx.Y = 0;                                                           \
        ++TIdx.Z;                                                             \
      }                                                                       \
    }                                                                         \
    T.ThreadIdx = TIdx;                                                       \
  }                                                                           \
  F = RootF;                                                                  \
  CodeBase = F->Code.data();                                                  \
  T.Frames.resize(1);                                                         \
  Fr = &T.Frames.front();                                                     \
  Fr->Func = L.Func;                                                          \
  Fr->PC = 0;                                                                 \
  Fr->LocalsBase = 0;                                                         \
  Fr->FrameMemBase = RootFrameMemBase;                                        \
  Fr->FrameMemBytes = F->FrameBytes;                                          \
  if (F->FrameBytes > 0) {                                                    \
    T.StackMemUsed = F->FrameBytes;                                           \
    std::memset(Mem + RootFrameMemBase, 0, F->FrameBytes);                    \
  }                                                                           \
  T.LocalsArena.assign(InitLocals, InitLocals + F->NumLocals);                \
  Locals = T.LocalsArena.data();                                              \
  SP = 0;                                                                     \
  PC = 0;                                                                     \
  VM_RESUME()

// The cooperative-block-mode scheduler, shared verbatim by both engines.
// Reached (via goto from the park sites: __syncthreads, the collectives,
// VM_THREAD_DONE) with the current thread's registers already written
// back and its steps flushed. Picks the next Ready thread in ascending
// wrap-around order — the same index-ascending order between release
// points as the retired round-robin scheduler, so payloads and step
// accounting are bit-identical to it. When none is ready, coopRelease
// resolves collective groups / releases barrier waiters or declares the
// block complete. Resuming re-derives every cached register from the
// incoming context; the step budget is re-derived so the global limit
// spans thread switches exactly.
#define VM_COOP_SCHED()                                                       \
  CoopSched : {                                                               \
    size_t NextTI = CoopCount;                                                \
    for (uint32_t Off = 1; Off <= CoopCount; ++Off) {                         \
      size_t Cand = CoopTI + Off;                                             \
      if (Cand >= CoopCount)                                                  \
        Cand -= CoopCount;                                                    \
      if (CoopThreads[Cand].State == ThreadState::Ready) {                    \
        NextTI = Cand;                                                        \
        break;                                                                \
      }                                                                       \
    }                                                                         \
    if (NextTI == CoopCount) {                                                \
      int R = coopRelease(CoopThreads, CoopCount, NextTI);                    \
      if (R == 1)                                                             \
        return true;                                                          \
      if (R == 2)                                                             \
        return false;                                                         \
    }                                                                         \
    CoopTI = NextTI;                                                          \
    TC = &CoopThreads[CoopTI];                                                \
    T.State = ThreadState::Ready;                                             \
    Fr = &T.Frames.back();                                                    \
    F = &FnArr[Fr->Func];                                                     \
    CodeBase = F->Code.data();                                                \
    Locals = T.LocalsArena.data() + Fr->LocalsBase;                           \
    S = T.Stack.data();                                                       \
    SP = T.StackTop;                                                          \
    SCap = T.Stack.size();                                                    \
    PC = Fr->PC;                                                              \
    StepBudget = stepBudgetLeft();                                            \
    VM_RESUME();                                                              \
  }

//===----------------------------------------------------------------------===//
// Engine 1: the bytecode interpreter (the tests' reference engine).
//
// The handler bodies live in VMHandlers.inc, shared with the decoded
// loop below; only the dispatch macros differ. Here every handler ends
// by indexing a dense label table with the next opcode (threaded
// dispatch), or by breaking back to the shared switch on portable
// builds.
//===----------------------------------------------------------------------===//

#if DPO_VM_COMPUTED_GOTO
#define VM_CASE(name) L_##name
#define VM_NEXT()                                                             \
  do {                                                                        \
    if (LocalSteps >= StepBudget)                                             \
      goto StepLimitHit;                                                      \
    ++LocalSteps;                                                             \
    I = CodeBase + PC++;                                                      \
    goto *DispatchTable[(unsigned)I->Code];                                   \
  } while (0)
#define VM_RESUME() VM_NEXT()
#else
#define VM_CASE(name) case Op::name
#define VM_NEXT() break
#define VM_RESUME() goto DispatchTop
#endif
// The bytecode instruction stream carries SReg's packed dim*4+component
// operand; the decoded stream pre-splits it (see ExecIR.cpp).
#define VM_SREG_BUILTIN ((unsigned)I->A / 4)
#define VM_SREG_COMP ((unsigned)I->A % 4)

// The bytecode reference engine never runs for callers; keep its (large)
// body out of the decoded loop's text so the default path's I-cache and
// branch-target locality are unaffected by carrying both engines.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((cold))
#endif
bool Device::runThread(ThreadCtx &TIn, WorkerCtx &W, const PendingLaunch &L,
                       Dim3V BlockIdx, uint64_t SharedBase,
                       const int64_t *InitLocals, uint32_t ThreadCount,
                       ThreadCtx *CoopThreads, uint32_t CoopCount) {
  // The current thread context. A plain reference in single-thread and
  // block mode; cooperative block mode re-seats it at every in-loop
  // thread switch, so every handler reads it through this pointer.
  ThreadCtx *TC = &TIn;
  size_t CoopTI = 0;
#define T (*TC)
  // Interpreter registers, re-derived only at frame/thread switches.
  Frame *Fr = &T.Frames.back();
  const FuncDef *FnArr = Program.Functions.data();
  const FuncDef *F = &FnArr[Fr->Func];
  const FuncDef *RootF = &FnArr[L.Func];
  const uint64_t RootFrameMemBase = Fr->FrameMemBase;
  uint32_t ThreadsLeft = ThreadCount;
  const Instr *CodeBase = F->Code.data();
  const Instr *I = nullptr;
  unsigned PC = Fr->PC;
  int64_t *Locals = T.LocalsArena.data() + Fr->LocalsBase;
  int64_t *S = T.Stack.data();
  size_t SP = T.StackTop;
  size_t SCap = T.Stack.size();
  uint8_t *Mem = Memory.data();
  uint64_t LocalSteps = 0;
  uint64_t StepBudget = stepBudgetLeft();
  const bool MultiWorker = Workers > 1;

#if DPO_VM_COMPUTED_GOTO
  static const void *const DispatchTable[NumOpcodes] = {
#define DPO_OPCODE_LABEL(name) &&L_##name,
      DPO_FOR_EACH_OPCODE(DPO_OPCODE_LABEL)
#undef DPO_OPCODE_LABEL
  };
  VM_NEXT(); // Fetch and dispatch the first instruction.
#else
DispatchTop:
  for (;;) {
    if (LocalSteps >= StepBudget)
      goto StepLimitHit;
    ++LocalSteps;
    I = CodeBase + PC++;
    switch (I->Code) {
#endif

#include "vm/VMHandlers.inc"

#if !DPO_VM_COMPUTED_GOTO
    } // switch
  }   // for
#endif

  VM_BLOCK_THREAD_SWITCH();
  VM_COOP_SCHED();

StepLimitHit:
  T.State = ThreadState::Failed;
  T.StackTop = SP;
  VM_FLUSH_STEPS();
  return failStepLimit(CoopThreads, CoopCount);
}

#undef T
#undef VM_CASE
#undef VM_NEXT
#undef VM_RESUME
#undef VM_SREG_BUILTIN
#undef VM_SREG_COMP

//===----------------------------------------------------------------------===//
// Engine 2: the decoded-IR loop (the default path).
//
// Same handler bodies, but the instruction stream is the fixed-width
// decoded array built by vm/ExecIR.cpp: dispatch is direct-threaded
// (`goto *I->Handler`, no table lookup), SReg operands arrive
// pre-split, and the decode-only fused forms (VM_CASE_X) execute pairs
// in one dispatch while charging the step cost of both.
//===----------------------------------------------------------------------===//

#define DPO_VM_DECODED_OPS 1

#if DPO_VM_COMPUTED_GOTO
#define VM_CASE(name) XL_##name
#define VM_CASE_X(name) XL_##name
#define VM_NEXT()                                                             \
  do {                                                                        \
    I = CodeBase + PC++;                                                      \
    LocalSteps += I->Cost;                                                    \
    if (LocalSteps > StepBudget)                                              \
      goto StepLimitHit;                                                      \
    goto *I->Handler;                                                         \
  } while (0)
#define VM_RESUME() VM_NEXT()
#else
#define VM_CASE(name) case (uint16_t)Op::name
#define VM_CASE_X(name) case (uint16_t)XOp::name
#define VM_NEXT() break
#define VM_RESUME() goto DispatchTop
#endif
#define VM_SREG_BUILTIN ((unsigned)I->A)
#define VM_SREG_COMP ((unsigned)I->B)

bool Device::runThreadExec(ThreadCtx *TPtr, WorkerCtx *WPtr,
                           const PendingLaunch *LPtr, Dim3V BlockIdx,
                           uint64_t SharedBase,
                           const void *const **LabelsOut,
                           const int64_t *InitLocals, uint32_t ThreadCount,
                           ThreadCtx *CoopThreads, uint32_t CoopCount) {
#if DPO_VM_COMPUTED_GOTO
  static const void *const ExecDispatchTable[NumExecOpcodes] = {
#define DPO_OPCODE_LABEL(name) &&XL_##name,
      DPO_FOR_EACH_OPCODE(DPO_OPCODE_LABEL)
      DPO_FOR_EACH_XOPCODE(DPO_OPCODE_LABEL)
#undef DPO_OPCODE_LABEL
  };
  if (LabelsOut) {
    *LabelsOut = ExecDispatchTable;
    return true;
  }
#else
  if (LabelsOut) {
    *LabelsOut = nullptr;
    return true;
  }
#endif

  // The current thread context; cooperative block mode re-seats it at
  // every in-loop thread switch (see runThread).
  ThreadCtx *TC = TPtr;
  size_t CoopTI = 0;
#define T (*TC)
  WorkerCtx &W = *WPtr;
  const PendingLaunch &L = *LPtr;
  // Interpreter registers, re-derived only at frame/thread switches.
  Frame *Fr = &T.Frames.back();
  const ExecFunc *FnArr = Exec.Functions.data();
  const ExecFunc *F = &FnArr[Fr->Func];
  const ExecFunc *RootF = &FnArr[L.Func];
  const uint64_t RootFrameMemBase = Fr->FrameMemBase;
  uint32_t ThreadsLeft = ThreadCount;
  const ExecInstr *CodeBase = F->Code.data();
  const ExecInstr *I = nullptr;
  unsigned PC = Fr->PC;
  int64_t *Locals = T.LocalsArena.data() + Fr->LocalsBase;
  int64_t *S = T.Stack.data();
  size_t SP = T.StackTop;
  size_t SCap = T.Stack.size();
  uint8_t *Mem = Memory.data();
  uint64_t LocalSteps = 0;
  uint64_t StepBudget = stepBudgetLeft();
  const bool MultiWorker = Workers > 1;

#if DPO_VM_COMPUTED_GOTO
  VM_NEXT(); // Fetch and dispatch the first instruction.
#else
DispatchTop:
  for (;;) {
    I = CodeBase + PC++;
    LocalSteps += I->Cost;
    if (LocalSteps > StepBudget)
      goto StepLimitHit;
    switch (I->Code) {
#endif

#include "vm/VMHandlers.inc"

#if !DPO_VM_COMPUTED_GOTO
    } // switch
  }   // for
#endif

  VM_BLOCK_THREAD_SWITCH();
  VM_COOP_SCHED();

StepLimitHit:
  // The refused instruction was charged before the budget check:
  // uncharge it so flushed counts equal instructions actually retired,
  // matching the bytecode engine (a fused pair straddling the budget
  // can still differ by one sub-instruction — see ExecIR.h).
  LocalSteps -= I->Cost;
  T.State = ThreadState::Failed;
  T.StackTop = SP;
  VM_FLUSH_STEPS();
  return failStepLimit(CoopThreads, CoopCount);
}

#undef T
#undef VM_PUSH
#undef VM_POP
#undef VM_TOP
#undef VM_FLUSH_STEPS
#undef VM_FAILF
#undef VM_FAIL_SET
#undef VM_CASE
#undef VM_CASE_X
#undef VM_NEXT
#undef VM_RESUME
#undef VM_SREG_BUILTIN
#undef VM_SREG_COMP
#undef VM_THREAD_DONE
#undef VM_BLOCK_THREAD_SWITCH
#undef VM_COOP_SCHED
#undef DPO_VM_DECODED_OPS

std::unique_ptr<Device> dpo::buildDevice(std::string_view Source,
                                         DiagnosticEngine &Diags,
                                         const VmCompileOptions &Opts) {
  std::optional<VmProgram> Program = compileWithPipeline(
      Source, /*PipelineText=*/"", PassPipelineConfig(), Opts, Diags);
  if (!Program)
    return nullptr;
  return std::make_unique<Device>(std::move(*Program));
}
