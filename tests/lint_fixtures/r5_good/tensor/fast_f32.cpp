// R5 good: tensor/ files may include the FMA register traits and use the
// per-dtype tile scratch.
#include "tensor/kernels_fma.inc"

void run_f32(const float* w, const float* x, float* y) {
  tile_scratch<float>(64);
}
