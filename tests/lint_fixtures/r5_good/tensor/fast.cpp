// R5 good: this file lives under a tensor/ directory, so it may include
// the tile template and run a tile directly.
#include "tensor/kernels_tile.inc"

void run(const double* w, const double* x, double* y) {
  GemmTile<Xmm64, 4, 1>::run(w, nullptr, x, 8, y, 8, 4, 4);
}
