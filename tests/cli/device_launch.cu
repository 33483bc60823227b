// Input for the dpoptcc device-launch check: the parent launches a
// __device__ function, which CUDA cannot launch. Compiling it must end in
// a diagnostic, not in passes rewriting the function as a kernel.
__device__ void child(int *data, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    data[i] = data[i] + 1;
  }
}
__global__ void parent(int *data, int *counts, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int c = counts[v];
    int g = (c + 31) / 32;
    child<<<g, 32>>>(data, c);
  }
}
