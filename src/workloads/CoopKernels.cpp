//===--- CoopKernels.cpp --------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "workloads/CoopKernels.h"

#include "datasets/Generators.h"
#include "transform/Pipeline.h"
#include "workloads/VmWorkload.h"

#include <algorithm>

using namespace dpo;

namespace {

//===----------------------------------------------------------------------===//
// Sources. All three share the corpus parent convention: one dynamic
// child launch per vertex with outgoing edges, grid = ceil(count / 128),
// block dim 128. The children are cooperative: __shared__ tiles,
// __syncthreads barriers, and (TiledReduce, FrontierCompact) structural
// shapes the relaxed transformability analysis accepts, so thresholding
// exercises the segmented serializer on real workloads.
//===----------------------------------------------------------------------===//

const char *TiledReduceSource = R"(
__global__ void child(int *col, int *out, int edgeBase, int v, int count) {
  __shared__ int tile[128];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  tile[threadIdx.x] = i < count ? col[edgeBase + i] : 0;
  __syncthreads();
  for (int s = blockDim.x / 2; s > 0; s = s / 2) {
    if (threadIdx.x < s)
      tile[threadIdx.x] = tile[threadIdx.x] + tile[threadIdx.x + s];
    __syncthreads();
  }
  if (threadIdx.x == 0)
    atomicAdd(&out[v], tile[0]);
}
__global__ void parent(int *rowptr, int *col, int *out, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = rowptr[v + 1] - rowptr[v];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(col, out, rowptr[v], v, count);
    }
  }
}
)";

const char *FrontierCompactSource = R"(
__global__ void child(int *col, int *out, int edgeBase, int v, int count) {
  __shared__ int flag[128];
  __shared__ int pos[129];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  flag[threadIdx.x] = i < count && col[edgeBase + i] % 2 == 0 ? 1 : 0;
  __syncthreads();
  if (threadIdx.x == 0) {
    int run = 0;
    for (int k = 0; k < 128; k = k + 1) {
      pos[k] = run;
      run = run + flag[k];
    }
    pos[128] = run;
  }
  __syncthreads();
  if (flag[threadIdx.x] == 1)
    atomicAdd(&out[v], (pos[threadIdx.x] + 1) * col[edgeBase + i]);
  if (threadIdx.x == 0)
    atomicAdd(&out[v], pos[128] * 1000);
}
__global__ void parent(int *rowptr, int *col, int *out, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = rowptr[v + 1] - rowptr[v];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(col, out, rowptr[v], v, count);
    }
  }
}
)";

const char *TiledStencilSource = R"(
__global__ void child(int *col, int *out, int edgeBase, int v, int count) {
  __shared__ int tile[130];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int t = threadIdx.x;
  tile[t + 1] = i < count ? col[edgeBase + i] : 0;
  if (t == 0)
    tile[0] = i >= 1 && i <= count ? col[edgeBase + i - 1] : 0;
  if (t == 127)
    tile[129] = i + 1 < count ? col[edgeBase + i + 1] : 0;
  __syncthreads();
  if (i < count)
    atomicAdd(&out[v], tile[t] + 2 * tile[t + 1] + tile[t + 2]);
}
__global__ void parent(int *rowptr, int *col, int *out, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = rowptr[v + 1] - rowptr[v];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(col, out, rowptr[v], v, count);
    }
  }
}
)";

//===----------------------------------------------------------------------===//
// Native references. Per-block window structure is replicated exactly;
// all accumulation is wraparound uint32 (matching the VM's i32 atomics),
// so equality against the device payload is exact at every worker count.
//===----------------------------------------------------------------------===//

constexpr uint32_t BlockDim = 128;

std::vector<int32_t> refTiledReduce(const CsrGraph &G) {
  std::vector<int32_t> Out(G.NumVertices, 0);
  for (uint32_t V = 0; V < G.NumVertices; ++V) {
    uint32_t Sum = 0;
    for (uint32_t E = G.RowPtr[V]; E < G.RowPtr[V + 1]; ++E)
      Sum += G.Col[E];
    Out[V] = (int32_t)Sum;
  }
  return Out;
}

std::vector<int32_t> refFrontierCompact(const CsrGraph &G) {
  std::vector<int32_t> Out(G.NumVertices, 0);
  for (uint32_t V = 0; V < G.NumVertices; ++V) {
    uint32_t EB = G.RowPtr[V], Count = G.RowPtr[V + 1] - G.RowPtr[V];
    uint32_t Acc = 0;
    for (uint32_t WB = 0; WB < Count; WB += BlockDim) {
      uint32_t Run = 0; // the exclusive scan: rank of each passing lane
      for (uint32_t T = 0; T < BlockDim; ++T) {
        uint32_t I = WB + T;
        if (I < Count && G.Col[EB + I] % 2 == 0) {
          Acc += (Run + 1) * G.Col[EB + I];
          ++Run;
        }
      }
      Acc += Run * 1000u;
    }
    Out[V] = (int32_t)Acc;
  }
  return Out;
}

std::vector<int32_t> refTiledStencil(const CsrGraph &G) {
  std::vector<int32_t> Out(G.NumVertices, 0);
  for (uint32_t V = 0; V < G.NumVertices; ++V) {
    uint32_t EB = G.RowPtr[V], Count = G.RowPtr[V + 1] - G.RowPtr[V];
    uint32_t Acc = 0;
    for (uint32_t WB = 0; WB < Count; WB += BlockDim) {
      uint32_t Tile[BlockDim + 2] = {0};
      for (uint32_t T = 0; T < BlockDim; ++T) {
        uint32_t I = WB + T;
        Tile[T + 1] = I < Count ? G.Col[EB + I] : 0;
      }
      Tile[0] = WB >= 1 && WB <= Count ? G.Col[EB + WB - 1] : 0;
      Tile[BlockDim + 1] =
          WB + BlockDim < Count ? G.Col[EB + WB + BlockDim] : 0;
      for (uint32_t T = 0; T < BlockDim; ++T)
        if (WB + T < Count)
          Acc += Tile[T] + 2 * Tile[T + 1] + Tile[T + 2];
    }
    Out[V] = (int32_t)Acc;
  }
  return Out;
}

} // namespace

const std::vector<CoopKernelCase> &dpo::coopKernelCorpus() {
  static const std::vector<CoopKernelCase> Corpus = [] {
    CsrGraph KronMini = makeKronGraph(/*ScaleLog2=*/8, /*EdgeFactor=*/6.0);
    CsrGraph RoadMini = makeRoadGraph(/*Side=*/18);
    CsrGraph WebMini = makeWebGraph(/*NumVertices=*/400, /*AvgDegree=*/6.0);
    std::vector<CoopKernelCase> C;
    // Kron's hubs give multi-block children (several reduction blocks per
    // launch); Road pins the single-partial-block path.
    C.push_back({"TiledReduce/kron-mini", TiledReduceSource, KronMini,
                 refTiledReduce});
    C.push_back({"TiledReduce/road-mini", TiledReduceSource, RoadMini,
                 refTiledReduce});
    C.push_back({"FrontierCompact/kron-mini", FrontierCompactSource, KronMini,
                 refFrontierCompact});
    C.push_back({"TiledStencil/web-mini", TiledStencilSource, WebMini,
                 refTiledStencil});
    return C;
  }();
  return Corpus;
}

CoopRun dpo::runCoopCaseOnVm(const CoopKernelCase &Case,
                             std::string_view PipelineText,
                             bool OptimizeBytecode, unsigned Workers,
                             ExecMode Mode, uint64_t MemoryBytes) {
  CoopRun R;
  DiagnosticEngine Diags;
  VmCompileOptions Opts;
  Opts.OptimizeBytecode = OptimizeBytecode;
  std::optional<VmProgram> Program = compileWithPipeline(
      Case.Source, PipelineText, literalKnobConfig(), Opts, Diags, &R.Src);
  if (!Program) {
    R.Error = "compile of pipeline '" + std::string(PipelineText) +
              "' failed: " + Diags.str();
    return R;
  }
  auto Dev = std::make_unique<Device>(std::move(*Program), MemoryBytes, Mode);
  if (Workers)
    Dev->setWorkers(Workers);

  const CsrGraph &G = Case.Graph;
  std::vector<int32_t> RowPtr(G.RowPtr.begin(), G.RowPtr.end());
  std::vector<int32_t> Col(G.Col.begin(), G.Col.end());
  uint64_t RowPtrA = Dev->allocI32(RowPtr);
  uint64_t ColA = Dev->allocI32(Col);
  uint64_t OutA = Dev->alloc((uint64_t)G.NumVertices * 4);
  if (!Dev->error().empty()) {
    R.Error = "dataset staging failed: " + Dev->error();
    return R;
  }

  if (!launchWorkloadParent(*Dev, "parent", G.NumVertices, 128,
                            {(int64_t)RowPtrA, (int64_t)ColA, (int64_t)OutA,
                             (int32_t)G.NumVertices})) {
    R.Error = "run failed: " + Dev->error();
    return R;
  }
  R.Out = Dev->readI32Array(OutA, G.NumVertices);
  R.Stats = Dev->stats();
  R.Ok = true;
  return R;
}
