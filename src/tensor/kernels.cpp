#include "tensor/kernels.h"

#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/kernels_dispatch.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace chainnet::tensor::kernels {

namespace detail {

template <class T>
T* tile_scratch(std::size_t count) {
  constexpr std::size_t kAlign = 64;
  thread_local std::vector<T> buffer;
  const std::size_t slack = kAlign / sizeof(T);
  if (buffer.size() < count + slack) buffer.resize(count + slack);
  void* p = buffer.data();
  std::size_t space = buffer.size() * sizeof(T);
  return static_cast<T*>(std::align(kAlign, count * sizeof(T), p, space));
}

template double* tile_scratch<double>(std::size_t);
template float* tile_scratch<float>(std::size_t);

// ---- Baseline table: portable x86-64 (SSE2 across columns, no FMA). ----
// Multiply and add round separately; this TU is compiled without FMA, so
// the compiler cannot contract them either.
namespace baseline {

template <class E>
struct Scalar {
  using T = E;
  using V = E;
  static V load(const T* p) { return *p; }
  static void store(T* p, V v) { *p = v; }
  static V bcast(T t) { return t; }
  static V madd(V w, V x, V acc) { return acc + w * x; }
};

#if defined(__SSE2__)
struct Xmm64 {
  using T = double;
  using V = __m128d;
  static V load(const T* p) { return _mm_loadu_pd(p); }
  static void store(T* p, V v) { _mm_storeu_pd(p, v); }
  static V bcast(T t) { return _mm_set1_pd(t); }
  static V madd(V w, V x, V acc) { return _mm_add_pd(acc, _mm_mul_pd(w, x)); }
};

struct Xmm32 {
  using T = float;
  using V = __m128;
  static V load(const T* p) { return _mm_loadu_ps(p); }
  static void store(T* p, V v) { _mm_storeu_ps(p, v); }
  static V bcast(T t) { return _mm_set1_ps(t); }
  static V madd(V w, V x, V acc) { return _mm_add_ps(acc, _mm_mul_ps(w, x)); }
};

// Two floats in the low half of an xmm register (one 64-bit load and
// store; the upper lanes load as zero and are never stored).
struct Xmm32x2 : Xmm32 {
  static constexpr std::size_t kLanes = 2;
  static V load(const T* p) { return _mm_castsi128_ps(_mm_loadu_si64(p)); }
  static void store(T* p, V v) { _mm_storeu_si64(p, _mm_castps_si128(v)); }
};
#else
// Other architectures: the same chains in scalar "registers" (narrower
// tiles).
using Xmm64 = Scalar<double>;
using Xmm32 = Scalar<float>;
using Xmm32x2 = Scalar<float>;
#endif

#include "tensor/kernels_tile.inc"

// The portability reference, not the perf target. Sixteen xmm registers
// and no FMA (madd needs a temporary): the four-register top tile blocks
// two rows, the two-register tile four, and each one-register tile and
// the scalar tile eight, all sharing one load of x per block.
using Gemm64 = GemmLadder<GemmTile<Xmm64, 4, 2>, GemmTile<Xmm64, 2, 4>,
                          GemmTile<Xmm64, 1, 8>,
                          GemmTile<Scalar<double>, 1, 8>>;
using Gemm32 = GemmLadder<GemmTile<Xmm32, 4, 2>, GemmTile<Xmm32, 2, 4>,
                          GemmTile<Xmm32, 1, 8>, GemmTile<Xmm32x2, 1, 8>,
                          GemmTile<Scalar<float>, 1, 8>>;

constinit const KernelTable table = make_table<Gemm64, Gemm32>("baseline");

}  // namespace baseline
}  // namespace detail

namespace {

#if defined(__x86_64__) || defined(_M_X64)
const detail::KernelTable& resolve() {
  const char* forced = std::getenv("CHAINNET_KERNEL_ISA");
  const bool fma = __builtin_cpu_supports("fma");
  const bool avx2 = fma && __builtin_cpu_supports("avx2");
  const bool avx512 = avx2 && __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512dq");
  if (forced) {
    validate_isa_name(forced);  // typo -> loud error, not auto-detection
    if (std::strcmp(forced, "baseline") == 0) return detail::baseline::table;
    if (std::strcmp(forced, "avx2") == 0 && avx2) return detail::avx2::table;
    if (std::strcmp(forced, "avx512") == 0 && avx512) {
      return detail::avx512::table;
    }
    // Known tier the host cannot run: fall through to auto-detection.
  }
  if (avx512) return detail::avx512::table;
  if (avx2) return detail::avx2::table;
  return detail::baseline::table;
}
#else
const detail::KernelTable& resolve() {
  const char* forced = std::getenv("CHAINNET_KERNEL_ISA");
  if (forced) validate_isa_name(forced);
  return detail::baseline::table;
}
#endif

const detail::KernelTable& active() {
  static const detail::KernelTable& table = resolve();
  return table;
}

}  // namespace

void gemv(const double* w, const double* bias, const double* x, double* y,
          std::size_t rows, std::size_t cols) {
  active().f64.gemv(w, bias, x, y, rows, cols);
}

void gemv_naive(const double* w, const double* bias, const double* x,
                double* y, std::size_t rows, std::size_t cols) {
  active().f64.gemv_naive(w, bias, x, y, rows, cols);
}

void gemm(const double* w, const double* bias, const double* x, double* y,
          std::size_t rows, std::size_t cols, std::size_t n) {
  active().f64.gemm(w, bias, x, y, rows, cols, n);
}

void gemv(const float* w, const float* bias, const float* x, float* y,
          std::size_t rows, std::size_t cols) {
  active().f32.gemv(w, bias, x, y, rows, cols);
}

void gemv_naive(const float* w, const float* bias, const float* x, float* y,
                std::size_t rows, std::size_t cols) {
  active().f32.gemv_naive(w, bias, x, y, rows, cols);
}

void gemm(const float* w, const float* bias, const float* x, float* y,
          std::size_t rows, std::size_t cols, std::size_t n) {
  active().f32.gemm(w, bias, x, y, rows, cols, n);
}

const char* isa() { return active().isa; }

void validate_isa_name(const char* name) {
  if (name && (std::strcmp(name, "baseline") == 0 ||
               std::strcmp(name, "avx2") == 0 ||
               std::strcmp(name, "avx512") == 0)) {
    return;
  }
  throw std::invalid_argument(
      "CHAINNET_KERNEL_ISA=\"" + std::string(name ? name : "") +
      "\" is not a known kernel ISA (accepted: baseline, avx2, avx512)");
}

}  // namespace chainnet::tensor::kernels
