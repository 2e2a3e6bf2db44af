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

// Thirty-two zmm registers: the four-register top tiles block six rows (24
// accumulators, 4 of x), the two-register tiles eight, and so does every
// narrower tile down through ymm, xmm and scalar, all sharing one load of
// x per block.
using Gemm64 = GemmLadder<GemmTile<Zmm64, 4, 6>, GemmTile<Zmm64, 2, 8>,
                          GemmTile<Zmm64, 1, 8>, GemmTile<Ymm64, 1, 8>,
                          GemmTile<Xmm64, 1, 8>,
                          GemmTile<Scalar<double>, 1, 8>>;
using Gemm32 = GemmLadder<GemmTile<Zmm32, 4, 6>, GemmTile<Zmm32, 2, 8>,
                          GemmTile<Zmm32, 1, 8>, GemmTile<Ymm32, 1, 8>,
                          GemmTile<Xmm32, 1, 8>, GemmTile<Xmm32x2, 1, 8>,
                          GemmTile<Scalar<float>, 1, 8>>;

constinit const KernelTable table = make_table<Gemm64, Gemm32>("avx512");

}  // namespace chainnet::tensor::kernels::detail::avx512

#endif
