// Bit-exactness contract of the f32 inference kernels (the reduced-
// precision tier of DESIGN.md §15), mirroring kernels_test one lane width
// up: the row-blocked f32 gemv must agree with the single-accumulator f32
// gemv_naive on every element, and every f32 gemm batch column must agree
// with an f32 gemv over that column — across shapes that hit every tile
// width, every row-block remainder, and the packed-panel path of the
// dispatched ISA variant. EXPECT_EQ on floats on purpose: within one ISA
// tier the f32 kernels promise identical accumulation chains.
//
// Also pins the tier-selection plumbing the kernels hang off: DType
// parsing (unknown spellings throw, listing the accepted values),
// CHAINNET_DTYPE / CHAINNET_KERNEL_ISA env validation, and the
// round-to-nearest-even semantics of the emulated-bf16 weight rounding.
//
// tests/CMakeLists.txt registers this binary once per forceable ISA tier
// (auto-detect, baseline, avx2) via the CHAINNET_KERNEL_ISA environment —
// the dispatch table resolves once per process, so per-tier coverage needs
// per-process runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/rng.h"
#include "tensor/dtype.h"
#include "tensor/kernels.h"

namespace chainnet::tensor {
namespace {

std::vector<float> random_values(std::size_t n, support::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

void expect_gemv_matches_naive(std::size_t rows, std::size_t cols,
                               bool with_bias) {
  support::Rng rng(11 * rows + cols + (with_bias ? 1 : 0));
  const auto w = random_values(rows * cols, rng);
  const auto bias = random_values(rows, rng);
  const auto x = random_values(cols, rng);
  std::vector<float> blocked(rows, -1.0f), naive(rows, -2.0f);
  const float* b = with_bias ? bias.data() : nullptr;
  kernels::gemv(w.data(), b, x.data(), blocked.data(), rows, cols);
  kernels::gemv_naive(w.data(), b, x.data(), naive.data(), rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(blocked[r], naive[r]) << "row " << r << " of " << rows << "x"
                                    << cols << " bias=" << with_bias;
  }
}

TEST(KernelsF32, BlockedGemvMatchesNaiveBitExact) {
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
  std::vector<float> batched(rows * n, -1.0f);
  const float* b = with_bias ? bias.data() : nullptr;
  kernels::gemm(w.data(), b, x.data(), batched.data(), rows, cols, n);
  std::vector<float> xj(cols), yj(rows);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t c = 0; c < cols; ++c) xj[c] = x[c * n + j];
    kernels::gemv(w.data(), b, xj.data(), yj.data(), rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(batched[r * n + j], yj[r])
          << "element (" << r << "," << j << ") of " << rows << "x" << cols
          << " gemm with n=" << n << " bias=" << with_bias;
    }
  }
}

TEST(KernelsF32, GemmColumnsMatchGemvBitExact) {
  // n sweeps every f32 tile width (64/32/16/8/4/2/1) with remainders on
  // both sides of each boundary; n > 64 additionally exercises the
  // packed-panel path. Rows cover k-1, k, k+1 and 2k-1 for every
  // rows-per-block k the ladders use (2, 4, 6 and 8).
  for (const std::size_t rows :
       {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 11u, 15u, 17u, 192u}) {
    for (const std::size_t n :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 48u,
          63u, 64u, 65u, 89u, 128u}) {
      expect_gemm_matches_gemv(rows, 33, n, true);
      expect_gemm_matches_gemv(rows, 33, n, false);
    }
  }
  for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u}) {
    expect_gemm_matches_gemv(rows, 19, 32, true);
    expect_gemm_matches_gemv(rows, 19, 16, true);
  }
  // Shapes from the real model: stacked GRU gate panels and attention
  // projections at paper width, with a wide batch panel.
  expect_gemm_matches_gemv(192, 128, 32, true);
  expect_gemm_matches_gemv(192, 64, 32, true);
  expect_gemm_matches_gemv(128, 128, 89, true);
  expect_gemm_matches_gemv(1, 1, 3, true);
}

TEST(KernelsF32, GemmWithSingleColumnIsGemv) {
  expect_gemm_matches_gemv(9, 17, 1, true);
  expect_gemm_matches_gemv(9, 17, 1, false);
}

/// FNV-1a over the bits of every f32 gemv, gemv_naive and gemm output on
/// a fixed seeded sweep: pins the rounding regime itself, which the
/// within-table parity tests above cannot see (see kernels_test).
std::uint64_t regime_hash() {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](const std::vector<float>& values) {
    for (const float v : values) {
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
        const float* b = with_bias ? bias.data() : nullptr;
        std::vector<float> y(rows);
        kernels::gemv(w.data(), b, x.data(), y.data(), rows, cols);
        mix(y);
        kernels::gemv_naive(w.data(), b, x.data(), y.data(), rows, cols);
        mix(y);
        for (const std::size_t n : widths) {
          y.assign(rows * n, 0.0f);
          kernels::gemm(w.data(), b, x.data(), y.data(), rows, cols, n);
          mix(y);
        }
      }
    }
  }
  return hash;
}

TEST(KernelsF32, RoundingRegimeIsPinned) {
  // One literal for the separately rounded baseline, one shared by the two
  // FMA tiers (AVX2 and AVX-512 run the same fused chains).
  const std::string isa_name = kernels::isa();
  const std::uint64_t expected = isa_name == "baseline"
                                     ? 0x4e717241dd2d63f5ull
                                     : 0x753e96e7fba989cdull;
  const std::uint64_t actual = regime_hash();
  EXPECT_EQ(actual, expected) << std::hex << actual << " at " << isa_name;
}

TEST(KernelsF32, ReportsKnownIsa) {
  const std::string isa_name = kernels::isa();
  EXPECT_TRUE(isa_name == "baseline" || isa_name == "avx2" ||
              isa_name == "avx512")
      << isa_name;
}

TEST(KernelsIsaEnv, ValidateAcceptsKnownTiersAndRejectsJunk) {
  EXPECT_NO_THROW(kernels::validate_isa_name("baseline"));
  EXPECT_NO_THROW(kernels::validate_isa_name("avx2"));
  EXPECT_NO_THROW(kernels::validate_isa_name("avx512"));
  for (const char* bad : {"", "AVX2", "avx-512", "sse2", "native"}) {
    try {
      kernels::validate_isa_name(bad);
      FAIL() << "accepted \"" << bad << "\"";
    } catch (const std::invalid_argument& e) {
      // The error must teach the accepted spellings.
      EXPECT_NE(std::string(e.what()).find("baseline"), std::string::npos)
          << e.what();
    }
  }
}

TEST(DTypeParse, AcceptsKnownTiers) {
  DType d = DType::kBf16;
  EXPECT_TRUE(parse_dtype("f64", d));
  EXPECT_EQ(d, DType::kF64);
  EXPECT_TRUE(parse_dtype("f32", d));
  EXPECT_EQ(d, DType::kF32);
  EXPECT_TRUE(parse_dtype("bf16", d));
  EXPECT_EQ(d, DType::kBf16);
}

TEST(DTypeParse, RejectsUnknownSpellings) {
  DType d = DType::kF64;
  for (const char* bad : {"", "F32", "fp32", "double", "float", "f16"}) {
    EXPECT_FALSE(parse_dtype(bad, d)) << bad;
    try {
      parse_dtype_or_throw(bad);
      FAIL() << "accepted \"" << bad << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("f64, f32, bf16"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(d, DType::kF64);  // failed parses never write the out-param
}

TEST(DTypeParse, NamesAndWidthsRoundTrip) {
  EXPECT_STREQ(dtype_name(DType::kF64), "f64");
  EXPECT_STREQ(dtype_name(DType::kF32), "f32");
  EXPECT_STREQ(dtype_name(DType::kBf16), "bf16");
  EXPECT_EQ(dtype_element_bytes(DType::kF64), sizeof(double));
  EXPECT_EQ(dtype_element_bytes(DType::kF32), sizeof(float));
  // bf16 is emulated in f32 storage: it saves accuracy bits, not bytes.
  EXPECT_EQ(dtype_element_bytes(DType::kBf16), sizeof(float));
}

TEST(DTypeEnv, FallbackUnsetValidAndInvalid) {
  ::unsetenv("CHAINNET_DTYPE");
  EXPECT_EQ(dtype_from_env(DType::kF64), DType::kF64);
  EXPECT_EQ(dtype_from_env(DType::kF32), DType::kF32);
  ::setenv("CHAINNET_DTYPE", "bf16", 1);
  EXPECT_EQ(dtype_from_env(DType::kF64), DType::kBf16);
  ::setenv("CHAINNET_DTYPE", "fp64", 1);
  EXPECT_THROW(dtype_from_env(DType::kF64), std::invalid_argument);
  ::unsetenv("CHAINNET_DTYPE");
}

TEST(Bf16Round, RoundsToNearestEven) {
  // 1 + 2^-7 is the last representable bf16 mantissa step; 1 + 2^-8 sits
  // exactly halfway below it (kept lsb 0 -> rounds down), 1 + 2^-7 + 2^-8
  // exactly halfway above it (kept lsb 1 -> rounds up to the even value).
  EXPECT_EQ(bf16_round(1.0f), 1.0f);
  EXPECT_EQ(bf16_round(1.0078125f), 1.0078125f);
  EXPECT_EQ(bf16_round(1.00390625f), 1.0f);
  EXPECT_EQ(bf16_round(1.01171875f), 1.015625f);
  EXPECT_EQ(bf16_round(-1.00390625f), -1.0f);
  EXPECT_EQ(bf16_round(-1.01171875f), -1.015625f);
  EXPECT_EQ(bf16_round(0.0f), 0.0f);
}

TEST(Bf16Round, SpecialsFollowIeee) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_round(inf), inf);
  EXPECT_EQ(bf16_round(-inf), -inf);
  EXPECT_TRUE(std::isnan(bf16_round(std::nanf(""))));
  // Max finite float rounds up past the bf16 exponent range -> infinity.
  EXPECT_EQ(bf16_round(std::numeric_limits<float>::max()), inf);
  // Max finite bf16 value survives unchanged.
  EXPECT_EQ(bf16_round(3.3895314e38f), 3.3895314e38f);
}

}  // namespace
}  // namespace chainnet::tensor
