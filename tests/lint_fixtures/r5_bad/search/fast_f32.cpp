// R5 bad: the FMA register traits and the per-dtype tile scratch (here
// its f32 buffer) are just as private to src/tensor/ as the tile template.
#include "tensor/kernels_fma.inc"

void run_f32(const float* w, const float* x, float* y) {
  tile_scratch<float>(64);
}
