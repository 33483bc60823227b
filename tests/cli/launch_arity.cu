// Input for the dpoptcc launch-arity check: the launch passes three
// arguments to a child that declares two. Compiling it must end in a
// diagnostic, not in a pass indexing past the child's parameters.
__global__ void child(int *data, int count) {
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
    child<<<g, 32>>>(data, c, v);
  }
}
