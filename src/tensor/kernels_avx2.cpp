// AVX2+FMA kernel table. This TU is compiled with -mavx2 -mfma; it is only
// ever *called* after the dispatcher confirms host support.
#include <cmath>
#include <immintrin.h>

#include "tensor/kernels_dispatch.h"

#if defined(__x86_64__) || defined(_M_X64)

namespace chainnet::tensor::kernels::detail::avx2 {

#include "tensor/kernels_fma.inc"
#include "tensor/kernels_tile.inc"

// Sixteen ymm registers: the four-register top tiles block two rows (8
// accumulators, 4 of x), the two-register tiles four, and each
// one-register tile and the scalar tile eight, all sharing one load of x
// per block.
using Gemm64 = GemmLadder<GemmTile<Ymm64, 4, 2>, GemmTile<Ymm64, 2, 4>,
                          GemmTile<Ymm64, 1, 8>, GemmTile<Xmm64, 1, 8>,
                          GemmTile<Scalar<double>, 1, 8>>;
using Gemm32 = GemmLadder<GemmTile<Ymm32, 4, 2>, GemmTile<Ymm32, 2, 4>,
                          GemmTile<Ymm32, 1, 8>, GemmTile<Xmm32, 1, 8>,
                          GemmTile<Xmm32x2, 1, 8>,
                          GemmTile<Scalar<float>, 1, 8>>;

constinit const KernelTable table = make_table<Gemm64, Gemm32>("avx2");

}  // namespace chainnet::tensor::kernels::detail::avx2

#endif
