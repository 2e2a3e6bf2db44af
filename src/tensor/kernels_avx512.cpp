// AVX-512+FMA kernel table. This TU is compiled with -mavx512f -mavx512dq
// -mfma; it is only ever *called* after the dispatcher confirms host
// support.
#include <cmath>
#include <immintrin.h>

#include "tensor/kernels_dispatch.h"

#if defined(__x86_64__) || defined(_M_X64)

namespace chainnet::tensor::kernels::detail::avx512 {

#include "tensor/kernels_fma.inc"
#include "tensor/kernels_tile.inc"

// As the AVX2 ladders one register width up, then down through ymm and xmm.
using Gemm64 = GemmLadder<GemmTile<Zmm64, 4, 1>, GemmTile<Zmm64, 2, 1>,
                          GemmTile<Zmm64, 1, 1>, GemmTile<Ymm64, 1, 1>,
                          GemmTile<Xmm64, 1, 1>,
                          GemmTile<Scalar<double>, 1, 1>>;
using Gemm32 = GemmLadder<GemmTile<Zmm32, 4, 2>, GemmTile<Zmm32, 2, 4>,
                          GemmTile<Zmm32, 1, 4>, GemmTile<Ymm32, 1, 4>,
                          GemmTile<Xmm32, 1, 1>,
                          GemmTile<Scalar<float>, 1, 1>>;

constinit const KernelTable table = make_table<Gemm64, Gemm32>("avx512");

}  // namespace chainnet::tensor::kernels::detail::avx512

#endif
