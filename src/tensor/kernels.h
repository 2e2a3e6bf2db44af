// Dense inference kernels for the surrogate hot path: a row-blocked
// multi-accumulator GEMV and a batch-column GEMM.
//
// All kernels make one guarantee the rest of the inference engine is built
// on: **per-output-element accumulation order is fixed** — each output
// starts from its bias (or 0) and adds the products in ascending input
// order, exactly like the naive reference loop. Row blocking only runs
// several such chains in parallel (one accumulator per row, for ILP) and
// the GEMM only vectorizes across independent batch columns, so neither
// reassociates a single element's sum. That is what keeps plan replay
// (packed GRU blocks through the GEMM, at any batch width including 1)
// bit-for-bit identical to the interpreted reference walk over gemv_naive
// (pinned by kernels_test, chainnet_batch_test and plan_test).
//
// ISA dispatch: the implementation picks, once per process, the widest
// table the host supports — baseline x86-64 (SSE2, no FMA), AVX2+FMA, or
// AVX-512+FMA. The FMA tables fuse every multiply-add (one rounding)
// uniformly across gemv, gemv_naive, and every gemm tile width, so all
// inference paths still agree bit-for-bit on any one host; absolute values
// differ between hosts of different ISA tiers (fused vs separate rounding),
// which the parity tests never compare — kernels_test pins each regime with
// its own hash instead. CHAINNET_KERNEL_ISA=baseline|avx2|avx512 forces a
// (supported) tier, e.g. to cross-check tiers; any other spelling is
// rejected at first kernel use (validate_isa_name).
//
// Every table is built from one private tile template (kernels_tile.inc):
// a gemm is a ladder of tiles, widest first, each a register width times
// vectors per row times rows per block, and gemv is the scalar tile at four
// rows. gemv_naive is a plain loop outside the template.
//
// Every kernel has an f32 overload — the reduced-precision tier
// (tensor/dtype.h). The f32 ladders run the same template at twice the lane
// width (16 floats per zmm vs 8 doubles) with the same
// per-element-accumulation-order guarantee, so within one ISA tier the f32
// gemv, naive gemv, and every gemm tile width agree bit-for-bit with each
// other — the f32 tier's internal parity oracle. f32 results are NOT
// comparable bitwise to f64 results; that boundary is gated on ranking
// fidelity instead (DESIGN.md §15).
#pragma once

#include <cstddef>

namespace chainnet::tensor::kernels {

/// y[r] = (bias ? bias[r] : 0) + sum_c w[r*cols + c] * x[c].
/// Row-blocked: four independent accumulator chains run in parallel;
/// each row's own chain stays sequential in c.
void gemv(const double* w, const double* bias, const double* x, double* y,
          std::size_t rows, std::size_t cols);

/// Single-accumulator reference GEMV — the pre-fusion kernel, kept as the
/// bit-parity oracle the interpreted reference walk runs on. Same
/// accumulation order as gemv(), so the two agree bit-for-bit.
void gemv_naive(const double* w, const double* bias, const double* x,
                double* y, std::size_t rows, std::size_t cols);

/// Batched GEMV with n batch columns (row-major panels):
///   y[r*n + j] = (bias ? bias[r] : 0) + sum_c w[r*cols + c] * x[c*n + j].
/// Column j's accumulation chain is identical to gemv() on column j, so a
/// batched pass is bit-identical to n single-stream passes. The column tile
/// is the outer loop (a tile of x stays cache-resident across all output
/// rows); lanes run across columns, never within one column's sum.
/// `y` must not alias `x`.
void gemm(const double* w, const double* bias, const double* x, double* y,
          std::size_t rows, std::size_t cols, std::size_t n);

/// f32 tier: same contracts as the double overloads, one lane-width up.
void gemv(const float* w, const float* bias, const float* x, float* y,
          std::size_t rows, std::size_t cols);
void gemv_naive(const float* w, const float* bias, const float* x, float* y,
                std::size_t rows, std::size_t cols);
void gemm(const float* w, const float* bias, const float* x, float* y,
          std::size_t rows, std::size_t cols, std::size_t n);

/// Name of the dispatched variant: "baseline", "avx2", or "avx512".
const char* isa();

/// Throws std::invalid_argument unless `name` is one of the accepted
/// CHAINNET_KERNEL_ISA spellings (baseline, avx2, avx512). The dispatcher
/// calls this on a forced tier, so a typo fails loudly at first kernel use
/// instead of silently auto-detecting; a *known* tier the host cannot run
/// still falls back to auto-detection (documented, so cross-host scripts
/// may pin the widest tier they hope for).
void validate_isa_name(const char* name);

}  // namespace chainnet::tensor::kernels
