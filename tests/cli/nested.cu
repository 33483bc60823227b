// Input for the dpoptcc command-line checks: one parent kernel launching
// one child grid per thread, which all three passes transform.
__global__ void child(int *data, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    data[base + i] = base + i * 2;
  }
}
__global__ void parent(int *data, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      child<<<(count + 31) / 32, 32>>>(data, offsets[v], count);
    }
  }
}
