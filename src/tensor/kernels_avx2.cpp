// AVX2+FMA kernel table. This TU is compiled with -mavx2 -mfma; it is only
// ever *called* after the dispatcher confirms host support.
#include <cmath>
#include <immintrin.h>

#include "tensor/kernels_dispatch.h"

#if defined(__x86_64__) || defined(_M_X64)

namespace chainnet::tensor::kernels::detail::avx2 {

#include "tensor/kernels_fma.inc"
#include "tensor/kernels_tile.inc"

// Top tiles of four registers; f32 blocks two rows in the top tile and
// four below it, since one f32 row runs half the FMA chains per byte of x.
using Gemm64 = GemmLadder<GemmTile<Ymm64, 4, 1>, GemmTile<Ymm64, 2, 1>,
                          GemmTile<Ymm64, 1, 1>, GemmTile<Xmm64, 1, 1>,
                          GemmTile<Scalar<double>, 1, 1>>;
using Gemm32 = GemmLadder<GemmTile<Ymm32, 4, 2>, GemmTile<Ymm32, 2, 4>,
                          GemmTile<Ymm32, 1, 4>, GemmTile<Xmm32, 1, 1>,
                          GemmTile<Scalar<float>, 1, 1>>;

constinit const KernelTable table = make_table<Gemm64, Gemm32>("avx2");

}  // namespace chainnet::tensor::kernels::detail::avx2

#endif
