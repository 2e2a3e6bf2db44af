// R5 bad: a non-tensor file pulling in the tile template and running a
// tile directly, bypassing the fixed accumulation-order dispatch.
#include "tensor/kernels_tile.inc"

void run(const double* w, const double* x, double* y) {
  GemmTile<Xmm64, 4, 1>::run(w, nullptr, x, 8, y, 8, 4, 4);
}
