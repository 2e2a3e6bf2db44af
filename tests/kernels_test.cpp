// Bit-exactness contract of the dense inference kernels (kernels.h): the
// row-blocked gemv must agree with the single-accumulator gemv_naive
// reference on every element, and every gemm batch column must agree with
// a gemv over that column — across shapes that hit every tile width and
// remainder path of the dispatched ISA variant (including the packed
// column tiles used for wide panels). These are EXPECT_EQ on doubles on
// purpose: the kernels promise identical accumulation chains, not just
// closeness.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/rng.h"
#include "tensor/kernels.h"

namespace chainnet::tensor::kernels {
namespace {

std::vector<double> random_values(std::size_t n, support::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

void expect_gemv_matches_naive(std::size_t rows, std::size_t cols,
                               bool with_bias) {
  support::Rng rng(11 * rows + cols + (with_bias ? 1 : 0));
  const auto w = random_values(rows * cols, rng);
  const auto bias = random_values(rows, rng);
  const auto x = random_values(cols, rng);
  std::vector<double> blocked(rows, -1.0), naive(rows, -2.0);
  const double* b = with_bias ? bias.data() : nullptr;
  gemv(w.data(), b, x.data(), blocked.data(), rows, cols);
  gemv_naive(w.data(), b, x.data(), naive.data(), rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(blocked[r], naive[r]) << "row " << r << " of " << rows << "x"
                                    << cols << " bias=" << with_bias;
  }
}

TEST(Kernels, BlockedGemvMatchesNaiveBitExact) {
  // Rows sweep every remainder of the 4-row block; cols include 1 and odd
  // sizes plus the GRU/MLP widths the model actually uses.
  for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 192u}) {
    for (const std::size_t cols : {1u, 2u, 3u, 17u, 64u, 128u}) {
      expect_gemv_matches_naive(rows, cols, true);
      expect_gemv_matches_naive(rows, cols, false);
    }
  }
}

void expect_gemm_matches_gemv(std::size_t rows, std::size_t cols,
                              std::size_t n, bool with_bias) {
  support::Rng rng(101 * rows + 13 * cols + n + (with_bias ? 1 : 0));
  const auto w = random_values(rows * cols, rng);
  const auto bias = random_values(rows, rng);
  const auto x = random_values(cols * n, rng);  // row-major [cols x n] panel
  std::vector<double> batched(rows * n, -1.0);
  const double* b = with_bias ? bias.data() : nullptr;
  gemm(w.data(), b, x.data(), batched.data(), rows, cols, n);
  std::vector<double> xj(cols), yj(rows);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t c = 0; c < cols; ++c) xj[c] = x[c * n + j];
    gemv(w.data(), b, xj.data(), yj.data(), rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(batched[r * n + j], yj[r])
          << "element (" << r << "," << j << ") of " << rows << "x" << cols
          << " gemm with n=" << n << " bias=" << with_bias;
    }
  }
}

TEST(Kernels, GemmColumnsMatchGemvBitExact) {
  // n sweeps every tile width (32/16/8/4/2/1) with remainders on both sides
  // of each boundary; n > the top tile width additionally exercises the
  // packed-panel path of the wide tiles. Rows cover k-1, k, k+1 and 2k-1
  // for every rows-per-block k the ladders use (2, 4, 6 and 8: a short
  // block, a full one, one with a single remainder row, and the longest
  // remainder after a full block), up to a stacked GRU gate panel.
  for (const std::size_t rows :
       {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 11u, 15u, 17u, 192u}) {
    for (const std::size_t n :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 40u,
          64u, 89u}) {
      expect_gemm_matches_gemv(rows, 33, n, true);
      expect_gemm_matches_gemv(rows, 33, n, false);
    }
  }
  // Shapes from the real model: stacked GRU gate panels and attention
  // projections at paper width, with a wide batch panel.
  expect_gemm_matches_gemv(192, 128, 32, true);
  expect_gemm_matches_gemv(192, 64, 32, true);
  expect_gemm_matches_gemv(128, 128, 89, true);
  expect_gemm_matches_gemv(1, 1, 3, true);
}

TEST(Kernels, GemmWithSingleColumnIsGemv) {
  // n == 1 short-circuits to gemv; pin that the panel layout degenerates
  // correctly.
  expect_gemm_matches_gemv(9, 17, 1, true);
  expect_gemm_matches_gemv(9, 17, 1, false);
}

/// FNV-1a over the bits of every gemv, gemv_naive and gemm output on a
/// fixed seeded sweep. The parity tests above compare kernels of one table
/// with each other, so a table that dropped FMA everywhere would still pass
/// them; this hash pins the rounding regime itself.
std::uint64_t regime_hash() {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](const std::vector<double>& values) {
    for (const double v : values) {
      unsigned char bytes[sizeof v];
      std::memcpy(bytes, &v, sizeof v);
      for (const unsigned char byte : bytes) {
        hash = (hash ^ byte) * 1099511628211ull;
      }
    }
  };
  std::vector<std::size_t> widths;
  for (std::size_t n = 1; n <= 70; ++n) widths.push_back(n);
  widths.push_back(130);
  widths.push_back(384);
  for (const std::size_t rows : {1u, 5u, 7u, 9u, 17u, 192u}) {
    for (const std::size_t cols : {1u, 33u, 128u}) {
      support::Rng rng(1000 * rows + cols);
      const auto w = random_values(rows * cols, rng);
      const auto bias = random_values(rows, rng);
      const auto x = random_values(cols * 384, rng);
      for (const bool with_bias : {true, false}) {
        const double* b = with_bias ? bias.data() : nullptr;
        std::vector<double> y(rows);
        gemv(w.data(), b, x.data(), y.data(), rows, cols);
        mix(y);
        gemv_naive(w.data(), b, x.data(), y.data(), rows, cols);
        mix(y);
        for (const std::size_t n : widths) {
          y.assign(rows * n, 0.0);
          gemm(w.data(), b, x.data(), y.data(), rows, cols, n);
          mix(y);
        }
      }
    }
  }
  return hash;
}

TEST(Kernels, RoundingRegimeIsPinned) {
  // One literal for the separately rounded baseline, one shared by the two
  // FMA tiers (AVX2 and AVX-512 run the same fused chains).
  const std::string isa_name = isa();
  const std::uint64_t expected = isa_name == "baseline"
                                     ? 0x4ec21804c94c6c95ull
                                     : 0x00fe46495fcbdd02ull;
  const std::uint64_t actual = regime_hash();
  EXPECT_EQ(actual, expected) << std::hex << actual << " at " << isa_name;
}

TEST(Kernels, ReportsKnownIsa) {
  const std::string isa_name = isa();
  EXPECT_TRUE(isa_name == "baseline" || isa_name == "avx2" ||
              isa_name == "avx512")
      << isa_name;
}

}  // namespace
}  // namespace chainnet::tensor::kernels
