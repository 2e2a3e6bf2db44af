// Internal: per-ISA kernel tables (see kernels.h for the dispatch
// contract). Each table is one rounding regime — the baseline rounds
// multiply and add separately, the FMA tiers fuse them everywhere — so
// whichever table is active, gemv / gemv_naive / gemm stay bit-for-bit
// interchangeable per output element. Every table is built from the one
// tile template in kernels_tile.inc.
#pragma once

#include <cstddef>

namespace chainnet::tensor::kernels::detail {

/// Per-thread, grow-only scratch of at least `count` elements for gemm
/// column-tile packing, aligned to 64 bytes so no packed register load
/// splits a cache line. One buffer per element type: a thread may
/// interleave f64 and f32 gemms (the rank-fidelity gate does).
template <class T>
T* tile_scratch(std::size_t count);

template <class T>
struct Kernels {
  void (*gemv)(const T*, const T*, const T*, T*, std::size_t, std::size_t);
  void (*gemv_naive)(const T*, const T*, const T*, T*, std::size_t,
                     std::size_t);
  void (*gemm)(const T*, const T*, const T*, T*, std::size_t, std::size_t,
               std::size_t);
};

struct KernelTable {
  Kernels<double> f64;
  Kernels<float> f32;
  const char* isa;
};

#if defined(__x86_64__) || defined(_M_X64)
namespace avx2 {
extern const KernelTable table;
}  // namespace avx2

namespace avx512 {
extern const KernelTable table;
}  // namespace avx512
#endif

}  // namespace chainnet::tensor::kernels::detail
