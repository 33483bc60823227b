//===--- KernelSources.cpp ------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "workloads/KernelSources.h"

#include "support/StringUtils.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <limits>

using namespace dpo;

//===----------------------------------------------------------------------===//
// The DSL sources
//===----------------------------------------------------------------------===//
//
// Conventions shared by all seven translation units:
//  - the parent kernel is named `parent`, the launched kernel `child`;
//  - exactly one dynamic launch per unit, its grid dimension a Fig. 4
//    ceiling division with a literal block dimension;
//  - children are barrier-free and shared-memory-free (serializable per
//    Section III-C), so thresholding applies;
//  - expression shapes mirror the native references in Workloads.h
//    operation for operation where floating point is involved (SP, BT),
//    so payload comparison can demand bit-identical doubles.

namespace {

/// BFS: parent per frontier vertex, child per edge. Children claim
/// unvisited neighbors with a CAS on the level array and append them to
/// the next frontier.
const char *BfsSource = R"(
__global__ void child(int *col, int *levels, int *next, int *nextSize,
                      int edgeBase, int count, int depth) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    int n = col[edgeBase + i];
    if (atomicCAS(&levels[n], -1, depth) == -1) {
      next[atomicAdd(nextSize, 1)] = n;
    }
  }
}
__global__ void parent(int *rowptr, int *col, int *levels, int *frontier,
                       int *next, int *nextSize, int numF, int depth) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numF) {
    int u = frontier[v];
    int count = rowptr[u + 1] - rowptr[u];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(col, levels, next, nextSize,
                                          rowptr[u], count, depth);
    }
  }
}
)";

/// SSSP: worklist Bellman-Ford. Children relax edges with a 64-bit
/// atomicMin and enqueue improved vertices once per round (CAS on the
/// in-list flag). The parent passes dist[u] by value, read once per round,
/// so the vertices a round enqueues do not depend on how sibling child
/// grids interleave: the launch profile is the same at any worker count.
const char *SsspSource = R"(
__global__ void child(int *col, int *weight, long long *dist, int *inlist,
                      int *next, int *nextSize, int edgeBase, long long du,
                      int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    int n = col[edgeBase + i];
    long long cand = du + (long long)weight[edgeBase + i];
    long long old = atomicMin(&dist[n], cand);
    if (cand < old) {
      if (atomicCAS(&inlist[n], 0, 1) == 0) {
        next[atomicAdd(nextSize, 1)] = n;
      }
    }
  }
}
__global__ void parent(int *rowptr, int *col, int *weight, long long *dist,
                       int *inlist, int *frontier, int *next, int *nextSize,
                       int numF) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numF) {
    int u = frontier[v];
    int count = rowptr[u + 1] - rowptr[u];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(col, weight, dist, inlist, next,
                                          nextSize, rowptr[u], dist[u], count);
    }
  }
}
)";

/// MSTF: one Boruvka find-min-edge round. Components are fully compressed
/// (comp[v] is the root) before each round; children fold candidate edges
/// into a per-component 64-bit key whose order is exactly the native
/// reference's (weight, min endpoint, max endpoint) tie-break, so the
/// harness-side merge reproduces the native MST weight bit for bit.
const char *MstfSource = R"(
__global__ void child(int *col, int *weight, int *comp, long long *best,
                      int edgeBase, int u, int cu, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    int v = col[edgeBase + i];
    if (comp[v] != cu) {
      int w = weight[edgeBase + i];
      int mn = min(u, v);
      int mx = max(u, v);
      long long key = ((long long)w << 40) | ((long long)mn << 20) |
                      (long long)mx;
      atomicMin(&best[cu], key);
    }
  }
}
__global__ void parent(int *rowptr, int *col, int *weight, int *comp,
                       long long *best, int *active, int numA) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numA) {
    int u = active[v];
    int count = rowptr[u + 1] - rowptr[u];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(col, weight, comp, best, rowptr[u],
                                          u, comp[u], count);
    }
  }
}
)";

/// MSTV: one pass over all vertices; the child folds the minimum incident
/// weight per vertex (the local-minimality check the verify kernel makes).
const char *MstvSource = R"(
__global__ void child(int *weight, int *minw, int v, int edgeBase,
                      int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    atomicMin(&minw[v], weight[edgeBase + i]);
  }
}
__global__ void parent(int *rowptr, int *weight, int *minw, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = rowptr[v + 1] - rowptr[v];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(weight, minw, v, rowptr[v], count);
    }
  }
}
)";

/// TC: edge-iterator triangle counting over the forward (higher-numbered,
/// sorted, deduplicated) adjacency. The child intersects two sorted lists
/// with the same two-pointer walk as the native reference.
const char *TcSource = R"(
__global__ void child(int *fptr, int *fcol, long long *tri, int u, int fBase,
                      int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    int v = fcol[fBase + i];
    int a = fptr[u];
    int ae = fptr[u + 1];
    int b = fptr[v];
    int be = fptr[v + 1];
    int c = 0;
    while (a < ae && b < be) {
      if (fcol[a] < fcol[b]) {
        a = a + 1;
      } else if (fcol[a] > fcol[b]) {
        b = b + 1;
      } else {
        c = c + 1;
        a = a + 1;
        b = b + 1;
      }
    }
    if (c > 0) {
      atomicAdd(tri, (long long)c);
    }
  }
}
__global__ void parent(int *fptr, int *fcol, long long *tri, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = fptr[v + 1] - fptr[v];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(fptr, fcol, tri, v, fptr[v], count);
    }
  }
}
)";

/// SP: parent per variable, child per occurrence. The child computes the
/// signed clause field for one occurrence (term array); the flat `update`
/// kernel then reduces each variable's terms in occurrence order and
/// applies the damped tanh update — the same operation order as the
/// native reference, so biases stay bit-identical.
const char *SpSource = R"(
__global__ void child(int *occclause, int *lits, double *bias, double *term,
                      int k, int v, int occBase, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    int clause = occclause[occBase + i];
    double field = 0.0;
    int mysign = 0;
    int l = 0;
    while (l < k) {
      int lit = lits[clause * k + l];
      int var = lit / 2;
      int neg = lit - var * 2;
      if (var == v) {
        mysign = neg;
      } else {
        field = field + (neg == 1 ? -bias[var] : bias[var]);
      }
      l = l + 1;
    }
    term[occBase + i] = mysign == 1 ? -field : field;
  }
}
__global__ void parent(int *occrow, int *occclause, int *lits, double *bias,
                       double *term, int k, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = occrow[v + 1] - occrow[v];
    if (count > 0) {
      child<<<(count + 31) / 32, 32>>>(occclause, lits, bias, term, k, v,
                                       occrow[v], count);
    }
  }
}
__global__ void update(int *occrow, double *bias, double *nextbias,
                       double *delta, double *term, int k, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    double acc = 0.0;
    int o = occrow[v];
    int oe = occrow[v + 1];
    int occ = oe - o;
    while (o < oe) {
      acc = acc + term[o];
      o = o + 1;
    }
    double target = 0.0;
    if (occ > 0) {
      target = tanh(acc / (k * occ));
    }
    double nb = 0.7 * bias[v] + 0.3 * target;
    nextbias[v] = nb;
    delta[v] = fabs(nb - bias[v]);
  }
}
)";

/// BT: parent per Bezier line, child per tessellated point, evaluating
/// the quadratic curve with the native reference's exact expression.
const char *BtSource = R"(
__global__ void child(float *p0x, float *p0y, float *p1x, float *p1y,
                      float *p2x, float *p2y, double *out, int line,
                      int outBase, int tess) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < tess) {
    double t = tess == 1 ? 0.0 : (double)i / (tess - 1);
    double omt = 1.0 - t;
    double x = omt * omt * p0x[line] + 2 * omt * t * p1x[line] +
               t * t * p2x[line];
    double y = omt * omt * p0y[line] + 2 * omt * t * p1y[line] +
               t * t * p2y[line];
    out[outBase + i] = x * 1e-3 + y * 1e-6;
  }
}
__global__ void parent(float *p0x, float *p0y, float *p1x, float *p1y,
                       float *p2x, float *p2y, double *out, int *tess,
                       int *obase, int numLines) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numLines) {
    int count = tess[v];
    if (count > 0) {
      child<<<(count + 63) / 64, 64>>>(p0x, p0y, p1x, p1y, p2x, p2y, out, v,
                                       obase[v], count);
    }
  }
}
)";

/// Cooperative transformability probe: the child performs a __shared__
/// block reduction with __syncthreads barriers. The barriers are
/// structural — body top level plus a block-uniform for loop — so the
/// relaxed Section III-C analysis accepts the child and thresholding
/// serializes it in the segmented form (thread loop per barrier-free
/// segment, shared state as zero-initialized block locals). Coarsening
/// (block-strided loop, barriers stay block-uniform) and aggregation
/// (one block per child block, lenient reconvergence masks the tail)
/// remain applicable and semantics-preserving. The parent shape matches
/// the corpus convention (one dynamic launch, Fig. 4 ceiling division)
/// so every registered pipeline parses and runs it.
const char *SharedChildProbe = R"(
__global__ void child(int *col, int *sums, int edgeBase, int v, int count) {
  __shared__ int scratch[128];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  scratch[threadIdx.x] = i < count ? col[edgeBase + i] : 0;
  __syncthreads();
  for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
    if (threadIdx.x < stride)
      scratch[threadIdx.x] += scratch[threadIdx.x + stride];
    __syncthreads();
  }
  if (threadIdx.x == 0)
    atomicAdd(&sums[v], scratch[0]);
}
__global__ void parent(int *rowptr, int *col, int *sums, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = rowptr[v + 1] - rowptr[v];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(col, sums, rowptr[v], v, count);
    }
  }
}
)";

/// Untransformable probe: thread 0 of each child block publishes a flag
/// with an atomic and then spin-waits on it in a loop *condition* — the
/// inter-block-synchronization idiom the relaxed analysis still rejects
/// outright (a serial thread loop would spin forever if the flag were
/// set by a later thread). The spin resolves instantly on the real
/// device, so the probe stays runnable through every pipeline.
const char *SpinWaitProbe = R"(
__global__ void child(int *flag, int *sums, int v, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i == 0) {
    atomicAdd(&flag[v], 1);
    while (atomicAdd(&flag[v], 0) < 1) { sums[v] = sums[v]; }
  }
  if (i < count)
    atomicAdd(&sums[v], 1);
}
__global__ void parent(int *rowptr, int *col, int *sums, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = rowptr[v + 1] - rowptr[v];
    if (count > 0) {
      child<<<(count + 127) / 128, 128>>>(sums, sums, v, count);
    }
  }
}
)";

} // namespace

const char *dpo::sharedChildProbeSource() { return SharedChildProbe; }

const char *dpo::spinWaitProbeSource() { return SpinWaitProbe; }

const char *dpo::kernelSourceFor(BenchmarkId Bench) {
  switch (Bench) {
  case BenchmarkId::BFS: return BfsSource;
  case BenchmarkId::SSSP: return SsspSource;
  case BenchmarkId::MSTF: return MstfSource;
  case BenchmarkId::MSTV: return MstvSource;
  case BenchmarkId::TC: return TcSource;
  case BenchmarkId::SP: return SpSource;
  case BenchmarkId::BT: return BtSource;
  }
  return "";
}

uint32_t dpo::kernelParentBlockDim(BenchmarkId Bench) {
  (void)Bench;
  return 128; // Every native batch uses ParentBlockDim 128.
}

uint32_t dpo::kernelChildBlockDim(BenchmarkId Bench) {
  switch (Bench) {
  case BenchmarkId::SP: return 32;
  case BenchmarkId::BT: return 64;
  default: return 128;
  }
}

//===----------------------------------------------------------------------===//
// Cases
//===----------------------------------------------------------------------===//

WorkloadOutput KernelCase::reference() const {
  switch (Bench) {
  case BenchmarkId::BFS: return runBfs(Graph);
  case BenchmarkId::SSSP: return runSssp(Graph);
  case BenchmarkId::MSTF: return runMstFind(Graph);
  case BenchmarkId::MSTV: return runMstVerify(Graph);
  case BenchmarkId::TC: return runTriangleCount(Graph);
  case BenchmarkId::SP: return runSurveyProp(Formula);
  case BenchmarkId::BT: return runBezier(Bezier);
  }
  return {};
}

KernelCase dpo::makeGraphKernelCase(BenchmarkId Bench, std::string Name,
                                    CsrGraph Graph) {
  KernelCase Case;
  Case.Bench = Bench;
  Case.Name = std::move(Name);
  Case.Graph = std::move(Graph);
  return Case;
}

KernelCase dpo::makeSatKernelCase(std::string Name, SatFormula Formula) {
  KernelCase Case;
  Case.Bench = BenchmarkId::SP;
  Case.Name = std::move(Name);
  Case.Formula = std::move(Formula);
  return Case;
}

KernelCase dpo::makeBezierKernelCase(std::string Name, BezierDataset Bezier) {
  KernelCase Case;
  Case.Bench = BenchmarkId::BT;
  Case.Name = std::move(Name);
  Case.Bezier = std::move(Bezier);
  return Case;
}

const std::vector<KernelCase> &dpo::differentialCorpus() {
  static const std::vector<KernelCase> Corpus = [] {
    // Scaled-down instances of the Table I generators: same degree
    // character (power-law / grid / lognormal / k-SAT / curvature), a few
    // hundred parents each, so the full pipeline x peephole matrix stays
    // CI-sized.
    CsrGraph KronMini = makeKronGraph(/*ScaleLog2=*/8, /*EdgeFactor=*/6.0);
    CsrGraph RoadMini = makeRoadGraph(/*Side=*/18);
    CsrGraph WebMini = makeWebGraph(/*NumVertices=*/400, /*AvgDegree=*/6.0);
    SatFormula Rand3Mini = makeRandomKSat(150, 630, 3);
    SatFormula Sat5Mini = makeRandomKSat(80, 750, 5);
    BezierDataset T32Mini = makeBezierLines(300, 32, 16.0);
    BezierDataset T2048Mini = makeBezierLines(96, 2048, 64.0);

    std::vector<KernelCase> Cases;
    auto Graph = [&](BenchmarkId B, const char *DName, const CsrGraph &G) {
      Cases.push_back(makeGraphKernelCase(
          B, std::string(benchmarkName(B)) + "/" + DName, G));
    };
    Graph(BenchmarkId::BFS, "kron-mini", KronMini);
    Graph(BenchmarkId::BFS, "road-mini", RoadMini);
    Graph(BenchmarkId::SSSP, "kron-mini", KronMini);
    Graph(BenchmarkId::SSSP, "road-mini", RoadMini);
    Graph(BenchmarkId::MSTF, "kron-mini", KronMini);
    Graph(BenchmarkId::MSTF, "road-mini", RoadMini);
    Graph(BenchmarkId::MSTV, "kron-mini", KronMini);
    Graph(BenchmarkId::MSTV, "web-mini", WebMini);
    Graph(BenchmarkId::TC, "kron-mini", KronMini);
    Graph(BenchmarkId::TC, "web-mini", WebMini);
    Cases.push_back(makeSatKernelCase("SP/rand3-mini", Rand3Mini));
    Cases.push_back(makeSatKernelCase("SP/sat5-mini", Sat5Mini));
    Cases.push_back(makeBezierKernelCase("BT/t32-mini", T32Mini));
    Cases.push_back(makeBezierKernelCase("BT/t2048-mini", T2048Mini));
    return Cases;
  }();
  return Corpus;
}

//===----------------------------------------------------------------------===//
// Device staging (shared by the differential harness and the tuner
// binding)
//===----------------------------------------------------------------------===//

namespace {

std::vector<int32_t> toI32(const std::vector<uint32_t> &V) {
  std::vector<int32_t> Out(V.size());
  for (size_t I = 0; I < V.size(); ++I) {
    assert(V[I] <= (uint32_t)std::numeric_limits<int32_t>::max());
    Out[I] = (int32_t)V[I];
  }
  return Out;
}

/// The forward (higher-numbered, sorted, deduplicated) adjacency TC runs
/// on — the same construction as the native reference.
void buildForwardCsr(const CsrGraph &G, std::vector<int32_t> &FPtr,
                     std::vector<int32_t> &FCol) {
  FPtr.assign(G.NumVertices + 1, 0);
  FCol.clear();
  std::vector<uint32_t> Fwd;
  for (uint32_t U = 0; U < G.NumVertices; ++U) {
    Fwd.clear();
    for (uint32_t E = G.RowPtr[U]; E < G.RowPtr[U + 1]; ++E)
      if (G.Col[E] > U)
        Fwd.push_back(G.Col[E]);
    std::sort(Fwd.begin(), Fwd.end());
    Fwd.erase(std::unique(Fwd.begin(), Fwd.end()), Fwd.end());
    for (uint32_t V : Fwd)
      FCol.push_back((int32_t)V);
    FPtr[U + 1] = (int32_t)FCol.size();
  }
}

/// The native reference's deterministic initial SP bias.
double initialSpBias(uint32_t V) {
  return ((V * 2654435761u) % 1000) / 1000.0 * 0.5 - 0.25;
}

} // namespace

namespace dpo {

int64_t kernelInf64() { return 0x7fffffffffffffffLL; }

KernelImage stageKernelCase(Device &Dev, const KernelCase &Case,
                            std::string *Error) {
  KernelImage Img;
  Img.Bench = Case.Bench;
  const CsrGraph &G = Case.Graph;

  // Encoding-budget validation, reported through *Error so NDEBUG builds
  // fail loudly instead of packing overlapping key fields.
  auto Reject = [&](const std::string &Why) {
    if (Error && Error->empty())
      *Error = "dataset outside kernel encoding budget: " + Why;
    return Img;
  };
  switch (Case.Bench) {
  case BenchmarkId::BFS:
  case BenchmarkId::SSSP:
  case BenchmarkId::MSTF:
  case BenchmarkId::MSTV:
  case BenchmarkId::TC:
    if (G.numEdges() > (uint64_t)std::numeric_limits<int32_t>::max())
      return Reject("edge count exceeds int32");
    if (G.NumVertices >= (1u << 20) &&
        (Case.Bench == BenchmarkId::MSTF || Case.Bench == BenchmarkId::BFS ||
         Case.Bench == BenchmarkId::SSSP))
      return Reject("vertex ids exceed the 20-bit key field");
    if (Case.Bench == BenchmarkId::MSTF)
      for (uint32_t W : G.Weight)
        if (W >= (1u << 22))
          return Reject("edge weights exceed the 22-bit key field");
    break;
  default:
    break;
  }

  switch (Case.Bench) {
  case BenchmarkId::BFS: {
    assert(G.NumVertices < (1u << 20) && "frontier ids exceed key budget");
    Img.NumParents = G.NumVertices;
    Img.NumEdges = G.numEdges();
    Img.RowPtr = Dev.allocI32(toI32(G.RowPtr));
    Img.Col = Dev.allocI32(toI32(G.Col));
    Img.Levels = Dev.alloc((uint64_t)G.NumVertices * 4);
    Img.Frontier = Dev.alloc(std::max<uint64_t>(1, G.NumVertices) * 4);
    Img.Next = Dev.alloc(std::max<uint64_t>(1, G.NumVertices) * 4);
    Img.NextSize = Dev.alloc(4);
    if (!Dev.error().empty()) // out of device memory: no address is valid
      return Img;
    Dev.fillI32(Img.Levels, G.NumVertices, -1);
    Dev.writeI32(Img.Levels, 0); // source vertex 0 at level 0
    Dev.writeI32(Img.Frontier, 0);
    break;
  }
  case BenchmarkId::SSSP: {
    Img.NumParents = G.NumVertices;
    Img.NumEdges = G.numEdges();
    Img.RowPtr = Dev.allocI32(toI32(G.RowPtr));
    Img.Col = Dev.allocI32(toI32(G.Col));
    Img.Weight = Dev.allocI32(toI32(G.Weight));
    Img.Dist = Dev.alloc((uint64_t)G.NumVertices * 8);
    Img.InList = Dev.alloc((uint64_t)G.NumVertices * 4);
    Img.Frontier = Dev.alloc(std::max<uint64_t>(1, G.NumVertices) * 4);
    Img.Next = Dev.alloc(std::max<uint64_t>(1, G.NumVertices) * 4);
    Img.NextSize = Dev.alloc(4);
    if (!Dev.error().empty()) // out of device memory: no address is valid
      return Img;
    Dev.fillI64(Img.Dist, G.NumVertices, kernelInf64());
    Dev.writeI64(Img.Dist, 0); // source vertex 0
    Dev.writeI32(Img.InList, 1);
    Dev.writeI32(Img.Frontier, 0);
    break;
  }
  case BenchmarkId::MSTF: {
    assert(G.NumVertices < (1u << 20) && "vertex ids exceed key budget");
    Img.NumParents = G.NumVertices;
    Img.NumEdges = G.numEdges();
    Img.RowPtr = Dev.allocI32(toI32(G.RowPtr));
    Img.Col = Dev.allocI32(toI32(G.Col));
    Img.Weight = Dev.allocI32(toI32(G.Weight));
    for (uint32_t W : G.Weight)
      assert(W < (1u << 22) && "weights exceed key budget");
    std::vector<int32_t> Identity(G.NumVertices);
    for (uint32_t V = 0; V < G.NumVertices; ++V)
      Identity[V] = (int32_t)V;
    Img.Comp = Dev.allocI32(Identity);
    Img.Best = Dev.alloc((uint64_t)G.NumVertices * 8);
    Img.Active = Dev.allocI32(Identity);
    if (!Dev.error().empty())
      return Img;
    Dev.fillI64(Img.Best, G.NumVertices, kernelInf64());
    break;
  }
  case BenchmarkId::MSTV: {
    Img.NumParents = G.NumVertices;
    Img.NumEdges = G.numEdges();
    Img.RowPtr = Dev.allocI32(toI32(G.RowPtr));
    std::vector<int32_t> W = G.Weight.empty()
                                 ? std::vector<int32_t>(G.numEdges(), 1)
                                 : toI32(G.Weight);
    Img.Weight = Dev.allocI32(W);
    Img.MinW = Dev.alloc((uint64_t)G.NumVertices * 4);
    if (!Dev.error().empty())
      return Img;
    Dev.fillI32(Img.MinW, G.NumVertices,
                std::numeric_limits<int32_t>::max());
    break;
  }
  case BenchmarkId::TC: {
    std::vector<int32_t> FPtr, FCol;
    buildForwardCsr(G, FPtr, FCol);
    Img.NumParents = G.NumVertices;
    Img.NumEdges = FCol.size();
    Img.RowPtr = Dev.allocI32(FPtr);
    Img.Col = Dev.allocI32(FCol);
    Img.Tri = Dev.alloc(8);
    break;
  }
  case BenchmarkId::SP: {
    const SatFormula &F = Case.Formula;
    Img.NumParents = F.NumVars;
    Img.K = F.K;
    Img.OccRow = Dev.allocI32(toI32(F.OccRowPtr));
    Img.OccClause = Dev.allocI32(toI32(F.OccClause));
    Img.Lits = Dev.allocI32(toI32(F.ClauseLits));
    std::vector<double> Bias(F.NumVars);
    for (uint32_t V = 0; V < F.NumVars; ++V)
      Bias[V] = initialSpBias(V);
    Img.Bias = Dev.allocF64(Bias);
    Img.NextBias = Dev.alloc((uint64_t)F.NumVars * 8);
    Img.Delta = Dev.alloc(std::max<uint64_t>(1, F.NumVars) * 8);
    Img.Term = Dev.alloc(std::max<uint64_t>(1, F.OccClause.size()) * 8);
    break;
  }
  case BenchmarkId::BT: {
    const BezierDataset &D = Case.Bezier;
    Img.NumParents = (uint32_t)D.Lines.size();
    size_t N = D.Lines.size();
    std::vector<float> P0x(N), P0y(N), P1x(N), P1y(N), P2x(N), P2y(N);
    std::vector<int32_t> Tess(N), OBase(N);
    int64_t Points = 0;
    for (size_t I = 0; I < N; ++I) {
      const BezierLine &L = D.Lines[I];
      P0x[I] = L.P0[0]; P0y[I] = L.P0[1];
      P1x[I] = L.P1[0]; P1y[I] = L.P1[1];
      P2x[I] = L.P2[0]; P2y[I] = L.P2[1];
      Tess[I] = (int32_t)L.Tessellation;
      OBase[I] = (int32_t)Points;
      Points += L.Tessellation;
    }
    Img.TotalPoints = (uint64_t)Points;
    Img.P0x = Dev.allocF32(P0x); Img.P0y = Dev.allocF32(P0y);
    Img.P1x = Dev.allocF32(P1x); Img.P1y = Dev.allocF32(P1y);
    Img.P2x = Dev.allocF32(P2x); Img.P2y = Dev.allocF32(P2y);
    Img.Tess = Dev.allocI32(Tess);
    Img.OBase = Dev.allocI32(OBase);
    Img.Out = Dev.alloc(std::max<uint64_t>(1, (uint64_t)Points) * 8);
    break;
  }
  }
  return Img;
}

std::vector<int64_t> kernelParentArgs(const KernelImage &Img,
                                      uint64_t Frontier, uint64_t Next,
                                      uint32_t NumParents, uint32_t Round) {
  switch (Img.Bench) {
  case BenchmarkId::BFS:
    return {(int64_t)Img.RowPtr, (int64_t)Img.Col,     (int64_t)Img.Levels,
            (int64_t)Frontier,   (int64_t)Next,        (int64_t)Img.NextSize,
            (int64_t)NumParents, (int64_t)(Round + 1)};
  case BenchmarkId::SSSP:
    return {(int64_t)Img.RowPtr,   (int64_t)Img.Col,  (int64_t)Img.Weight,
            (int64_t)Img.Dist,     (int64_t)Img.InList, (int64_t)Frontier,
            (int64_t)Next,         (int64_t)Img.NextSize,
            (int64_t)NumParents};
  case BenchmarkId::MSTF:
    return {(int64_t)Img.RowPtr, (int64_t)Img.Col,  (int64_t)Img.Weight,
            (int64_t)Img.Comp,   (int64_t)Img.Best, (int64_t)Img.Active,
            (int64_t)NumParents};
  case BenchmarkId::MSTV:
    return {(int64_t)Img.RowPtr, (int64_t)Img.Weight, (int64_t)Img.MinW,
            (int64_t)NumParents};
  case BenchmarkId::TC:
    return {(int64_t)Img.RowPtr, (int64_t)Img.Col, (int64_t)Img.Tri,
            (int64_t)NumParents};
  case BenchmarkId::SP:
    // `Frontier` carries the round's current-bias buffer (the harness
    // ping-pongs Bias/NextBias between rounds).
    return {(int64_t)Img.OccRow, (int64_t)Img.OccClause, (int64_t)Img.Lits,
            (int64_t)Frontier,   (int64_t)Img.Term,      (int64_t)Img.K,
            (int64_t)NumParents};
  case BenchmarkId::BT:
    return {(int64_t)Img.P0x,  (int64_t)Img.P0y,   (int64_t)Img.P1x,
            (int64_t)Img.P1y,  (int64_t)Img.P2x,   (int64_t)Img.P2y,
            (int64_t)Img.Out,  (int64_t)Img.Tess,  (int64_t)Img.OBase,
            (int64_t)NumParents};
  }
  return {};
}

} // namespace dpo

//===----------------------------------------------------------------------===//
// Tuner binding: replaying recorded rounds against the full dataset
//===----------------------------------------------------------------------===//

namespace {

/// Replays the native run's recorded per-round parent lists as frontier
/// arrays, so the tuner measures the real kernel's per-round work shape
/// (the exact child sizes of the heaviest rounds). Algorithm state
/// (levels, distances, components, biases) starts from the initial image
/// and evolves only through the sampled rounds actually executed: the
/// work *shape* is exact, state-dependent branch rates are approximate.
/// End-to-end correctness is the differential harness's job, not this
/// one's.
class ReplayBinding : public VmWorkloadBinding {
public:
  ReplayBinding(KernelCase Case, std::vector<std::vector<uint32_t>> Items)
      : Case(std::move(Case)), ParentItems(std::move(Items)) {}

  std::unique_ptr<DeviceState> setup(Device &Dev,
                                     std::string &Error) const override {
    auto Staged = std::make_unique<StagedImage>();
    std::string StageError;
    Staged->Img = stageKernelCase(Dev, Case, &StageError);
    if (!StageError.empty() || !Dev.error().empty()) {
      Error = "dataset staging failed: " +
              (StageError.empty() ? Dev.error() : StageError);
      return nullptr;
    }
    return Staged;
  }

  std::vector<int64_t> argsFor(Device &Dev, const DeviceState &State,
                               const NestedBatch &Batch,
                               unsigned OriginalIndex) const override {
    const KernelImage &Img = static_cast<const StagedImage &>(State).Img;
    uint32_t NumParents = Batch.NumParentThreads;
    uint64_t Frontier = Img.Frontier;
    switch (Case.Bench) {
    case BenchmarkId::BFS:
    case BenchmarkId::SSSP:
      Dev.writeI32(Img.NextSize, 0);
      writeFrontier(Dev, Img.Frontier, OriginalIndex, NumParents);
      break;
    case BenchmarkId::MSTF:
      Dev.fillI64(Img.Best, Img.NumParents, kernelInf64());
      writeFrontier(Dev, Img.Active, OriginalIndex, NumParents);
      break;
    case BenchmarkId::SP:
      Frontier = Img.Bias;
      break;
    default:
      break;
    }
    return kernelParentArgs(Img, Frontier, Img.Next, NumParents,
                            OriginalIndex);
  }

private:
  struct StagedImage : DeviceState {
    KernelImage Img;
  };

  void writeFrontier(Device &Dev, uint64_t Addr, unsigned Round,
                     uint32_t Count) const {
    std::vector<int32_t> Items(Count);
    const std::vector<uint32_t> *Rec =
        Round < ParentItems.size() ? &ParentItems[Round] : nullptr;
    for (uint32_t I = 0; I < Count; ++I)
      Items[I] = Rec && I < Rec->size() ? (int32_t)(*Rec)[I] : (int32_t)I;
    Dev.writeI32Array(Addr, Items);
  }

  KernelCase Case;
  std::vector<std::vector<uint32_t>> ParentItems;
};

uint64_t datasetBytes(const KernelCase &Case) {
  uint64_t Bytes = 0;
  switch (Case.Bench) {
  case BenchmarkId::SP:
    Bytes = (uint64_t)Case.Formula.OccRowPtr.size() * 4 +
            Case.Formula.OccClause.size() * 12 + // occ + term
            Case.Formula.ClauseLits.size() * 4 +
            (uint64_t)Case.Formula.NumVars * 24;
    break;
  case BenchmarkId::BT: {
    uint64_t Points = 0;
    for (const BezierLine &L : Case.Bezier.Lines)
      Points += L.Tessellation;
    Bytes = (uint64_t)Case.Bezier.Lines.size() * 32 + Points * 8;
    break;
  }
  default:
    Bytes = ((uint64_t)Case.Graph.NumVertices + 1 + Case.Graph.numEdges() +
             Case.Graph.Weight.size()) *
                4 +
            (uint64_t)Case.Graph.NumVertices * 24; // aux arrays
    break;
  }
  return Bytes;
}

} // namespace

VmWorkload dpo::kernelVmWorkload(const BenchCase &Case) {
  const WorkloadOutput &Out = runCase(Case);

  KernelCase KC;
  KC.Bench = Case.Bench;
  KC.Name = Case.name();
  switch (Case.Bench) {
  case BenchmarkId::SP:
    KC.Formula = datasetFormula(Case.Data);
    break;
  case BenchmarkId::BT:
    KC.Bezier = datasetBezier(Case.Data);
    break;
  default:
    KC.Graph = benchCaseGraph(Case);
    break;
  }

  VmWorkload W;
  W.Name = KC.Name;
  W.Source = KC.source();
  W.Batches = Out.Batches;
  W.MinMemoryBytes = datasetBytes(KC) * 2 + (8ull << 20);
  // A TC "unit" is a whole sorted-list intersection (hub pairs run to
  // tens of thousands of steps each); cap the sample so a measurement
  // probe stays inside the VM step budget.
  if (Case.Bench == BenchmarkId::TC)
    W.SampleUnitCap = 4000;
  W.Binding = std::make_shared<ReplayBinding>(std::move(KC), Out.ParentItems);
  return W;
}

bool dpo::parseWorkloadSpec(std::string_view Spec, BenchCase &Out,
                            std::string &Error) {
  auto Canon = [](std::string_view S) {
    std::string C;
    for (char Ch : S)
      C.push_back(Ch == '-' ? '_' : (char)std::tolower((unsigned char)Ch));
    return C;
  };
  size_t Colon = Spec.find(':');
  std::string Bench = Canon(Spec.substr(0, Colon));
  std::string Data =
      Colon == std::string_view::npos ? "" : Canon(Spec.substr(Colon + 1));

  static const std::pair<const char *, BenchmarkId> Benches[] = {
      {"bfs", BenchmarkId::BFS},   {"sssp", BenchmarkId::SSSP},
      {"mstf", BenchmarkId::MSTF}, {"mstv", BenchmarkId::MSTV},
      {"tc", BenchmarkId::TC},     {"sp", BenchmarkId::SP},
      {"bt", BenchmarkId::BT}};
  static const std::pair<const char *, DatasetId> Datasets[] = {
      {"kron", DatasetId::KRON},         {"cnr", DatasetId::CNR},
      {"road_ny", DatasetId::ROAD_NY},   {"rand_3", DatasetId::RAND3},
      {"rand3", DatasetId::RAND3},       {"5_sat", DatasetId::SAT5},
      {"sat5", DatasetId::SAT5},         {"t0032_c16", DatasetId::T0032_C16},
      {"t2048_c64", DatasetId::T2048_C64}};

  bool BenchOk = false, DataOk = false;
  for (const auto &[Name, Id] : Benches)
    if (Bench == Name) {
      Out.Bench = Id;
      BenchOk = true;
    }
  for (const auto &[Name, Id] : Datasets)
    if (Data == Name) {
      Out.Data = Id;
      DataOk = true;
    }
  if (BenchOk && Data.empty()) {
    // Default dataset: the benchmark's Fig. 11 pairing.
    for (const BenchCase &C : figure11Cases())
      if (C.Bench == Out.Bench) {
        Out.Data = C.Data;
        DataOk = true;
      }
  }
  if (!BenchOk || !DataOk) {
    Error = "expected <benchmark>[:<dataset>] with benchmark one of "
            "bfs, sssp, mstf, mstv, tc, sp, bt and dataset one of "
            "kron, cnr, road_ny, rand3, sat5, t0032_c16, t2048_c64";
    return false;
  }
  // The pair must be of the same kind — a graph benchmark on a SAT
  // formula would silently run on an empty dataset.
  auto DataKind = [](DatasetId Id) {
    switch (Id) {
    case DatasetId::RAND3:
    case DatasetId::SAT5:
      return BenchmarkId::SP;
    case DatasetId::T0032_C16:
    case DatasetId::T2048_C64:
      return BenchmarkId::BT;
    default:
      return BenchmarkId::BFS; // any graph benchmark
    }
  };
  BenchmarkId Kind = DataKind(Out.Data);
  bool GraphBench = Out.Bench != BenchmarkId::SP && Out.Bench != BenchmarkId::BT;
  if ((Kind == BenchmarkId::BFS) != GraphBench ||
      (!GraphBench && Kind != Out.Bench)) {
    Error = "dataset '" + Data + "' is not valid for benchmark '" + Bench +
            "' (graph benchmarks take kron/cnr/road_ny, sp takes "
            "rand3/sat5, bt takes t0032_c16/t2048_c64)";
    return false;
  }
  return true;
}
