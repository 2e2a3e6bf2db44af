// Non-regression goldens for every inference tier. The f64 goldens pin the
// default tier: the reduced-precision work (DESIGN.md §15) promises the f64
// path stays bit-for-bit identical, and this test pins that promise to
// literal values. The f32 and bf16 goldens pin the reduced tiers the same
// way: they share the replay executor with f64 (one template over the
// element type), so a slip in that template shows up here as a moved bit.
// forward_values / forward_values_batch on a fixed system, fixed init
// seeds, and the baseline kernel ISA must reproduce these %.17g doubles
// EXACTLY on every machine; any diff means an engine's arithmetic changed
// and is a release blocker, not a tolerance tweak.
//
// The custom main() forces CHAINNET_KERNEL_ISA=baseline before the first
// kernel call (the dispatch table resolves once per process): the baseline
// tier is the only one every build machine shares, which is what makes
// literal goldens portable. Cross-tier equality is pinned separately
// (kernels_test, chainnet_batch_test run per-tier via ctest ENVIRONMENT).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/chainnet.h"
#include "edge/graph.h"
#include "support/rng.h"
#include "tensor/dtype.h"
#include "test_util.h"

namespace chainnet::core {
namespace {

struct Golden {
  double throughput;
  double latency;
};

void expect_exact(const std::vector<gnn::ChainValues>& out,
                  const std::vector<Golden>& golden) {
  ASSERT_EQ(out.size(), golden.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].has_throughput);
    ASSERT_TRUE(out[i].has_latency);
    // EXPECT_EQ on doubles on purpose: the bar is bit-identity.
    EXPECT_EQ(out[i].throughput, golden[i].throughput) << "chain " << i;
    EXPECT_EQ(out[i].latency, golden[i].latency) << "chain " << i;
  }
}

TEST(F64Golden, ScalarAndBatchForwardReproduceSeedValues) {
  support::Rng rng(42);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  ChainNet model(cfg, rng);
  const auto g = edge::build_graph(chainnet::testing::small_system(),
                                   chainnet::testing::small_placement(),
                                   model.feature_mode());
  const std::vector<Golden> golden = {
      {0.44760138090678653, 0.56000077468157961},
      {0.44760318290532514, 0.52531863122347211},
  };
  expect_exact(model.forward_values(g), golden);
  // The batched executor shares the contract: every batch lane bit-equal
  // to the scalar path.
  const std::vector<const edge::PlacementGraph*> ptrs{&g, &g, &g};
  const auto batch = model.forward_values_batch(ptrs);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& lane : batch) expect_exact(lane, golden);
}

TEST(F64Golden, MeanAggregationVariantReproducesSeedValues) {
  support::Rng rng(43);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  cfg.attention_aggregation = false;
  ChainNet model(cfg, rng);
  const auto g = edge::build_graph(chainnet::testing::small_system(),
                                   chainnet::testing::small_placement(),
                                   model.feature_mode());
  expect_exact(model.forward_values(g),
               {{0.50767832982914174, 0.60644527723765984},
                {0.51530332478720142, 0.58538189430996546}});
}

TEST(F64Golden, PaperConfigReproducesSeedValues) {
  support::Rng rng(44);
  ChainNet model(ChainNetConfig::paper(), rng);
  const auto g = edge::build_graph(chainnet::testing::small_system(),
                                   chainnet::testing::small_placement(),
                                   model.feature_mode());
  expect_exact(model.forward_values(g),
               {{0.4873445592202062, 0.49020981168454048},
                {0.4879890637662691, 0.50009277065035429}});
}

/// Three distinct placements of the small system: the shared-device
/// placement of the f64 goldens, one sharing device 0, and one that leaves
/// device 3 unused, so the batch lanes differ in device count.
std::vector<edge::Placement> lane_placements() {
  return {chainnet::testing::small_placement(),
          edge::Placement(std::vector<std::vector<int>>{{3, 2, 0}, {0, 1}}),
          edge::Placement(std::vector<std::vector<int>>{{2, 0, 1}, {1, 2}})};
}

/// A reduced tier must reproduce `lanes` at B=1 (lane 0's placement) and
/// in every lane of a B=3 batch.
void expect_reduced_tier(ChainNetConfig cfg, std::uint64_t seed,
                         tensor::DType dtype,
                         const std::vector<std::vector<Golden>>& lanes) {
  cfg.dtype = dtype;
  support::Rng rng(seed);
  ChainNet model(cfg, rng);
  const auto system = chainnet::testing::small_system();
  std::vector<edge::PlacementGraph> graphs;
  for (const auto& p : lane_placements()) {
    graphs.push_back(edge::build_graph(system, p, model.feature_mode()));
  }
  std::vector<const edge::PlacementGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  ASSERT_EQ(ptrs.size(), lanes.size());

  expect_exact(model.forward_values(graphs.front()), lanes.front());
  const auto batch = model.forward_values_batch(ptrs);
  ASSERT_EQ(batch.size(), lanes.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    SCOPED_TRACE("lane " + std::to_string(b));
    expect_exact(batch[b], lanes[b]);
  }
}

ChainNetConfig small_config() {
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  return cfg;
}

TEST(ReducedTierGolden, F32DefaultConfig) {
  expect_reduced_tier(
      small_config(), 42, tensor::DType::kF32,
      {{{0.44760134816169739, 0.56000077724456787},
        {0.44760316610336304, 0.52531862258911133}},
       {{0.47300845384597778, 0.54937988519668579},
        {0.45671793818473816, 0.54871726036071777}},
       {{0.47316715121269226, 0.54003548622131348},
        {0.47161188721656799, 0.54270976781845093}}});
}

TEST(ReducedTierGolden, F32PaperConfig) {
  expect_reduced_tier(
      ChainNetConfig::paper(), 44, tensor::DType::kF32,
      {{{0.48734453320503235, 0.49020984768867493},
        {0.48798906803131104, 0.50009274482727051}},
       {{0.48306581377983093, 0.49136373400688171},
        {0.48975026607513428, 0.50093281269073486}},
       {{0.49372029304504395, 0.50007337331771851},
        {0.48610898852348328, 0.48858383297920227}}});
}

TEST(ReducedTierGolden, Bf16DefaultConfig) {
  expect_reduced_tier(
      small_config(), 42, tensor::DType::kBf16,
      {{{0.44750350713729858, 0.55990689992904663},
        {0.44762611389160156, 0.52527379989624023}},
       {{0.47300258278846741, 0.54929119348526001},
        {0.45676285028457642, 0.54864722490310669}},
       {{0.47319585084915161, 0.539955735206604},
        {0.47183498740196228, 0.54265278577804565}}});
}

TEST(ReducedTierGolden, Bf16PaperConfig) {
  expect_reduced_tier(
      ChainNetConfig::paper(), 44, tensor::DType::kBf16,
      {{{0.48697388172149658, 0.49023142457008362},
        {0.48774254322052002, 0.50011688470840454}},
       {{0.48257365822792053, 0.49141895771026611},
        {0.48955881595611572, 0.50096607208251953}},
       {{0.49357154965400696, 0.49999856948852539},
        {0.48603355884552002, 0.48844221234321594}}});
}

}  // namespace
}  // namespace chainnet::core

int main(int argc, char** argv) {
  // Before InitGoogleTest and before any kernel call: goldens are only
  // portable on the ISA tier every machine has.
  ::setenv("CHAINNET_KERNEL_ISA", "baseline", 1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
