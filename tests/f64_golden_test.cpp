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

/// The `dtype` tier must reproduce `lanes` at B=1 (lane 0's placement) and
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

// f64 lanes for the default config and each Table VI ablation: the sum
// readout (modified_outputs = false) and the original input features
// (modified_inputs = false) are pinned to literals here, not only against
// the interpreted walk, which shares build_graph, the activations and the
// readout MLPs with replay.
TEST(F64Golden, DefaultConfigLanes) {
  expect_reduced_tier(
      small_config(), 42, tensor::DType::kF64,
      {{{0.44760138090678653, 0.56000077468157961},
        {0.44760318290532514, 0.52531863122347211}},
       {{0.47300844710400974, 0.5493799111877089},
        {0.45671797038015799, 0.54871723641118997}},
       {{0.47316712683557322, 0.54003550253218813},
        {0.47161190838067518, 0.54270971841054427}}});
}

TEST(F64Golden, AblationAlphaLanes) {
  expect_reduced_tier(
      ChainNetConfig::ablation_alpha(), 45, tensor::DType::kF64,
      {{{0.098516600351588712, -1.3857958823126466},
        {0.21666601170425837, -0.99600586131365132}},
       {{0.052075093917336557, -1.3758390911969012},
        {0.13745043065330459, -0.96412836408477709}},
       {{0.038091994901734455, -1.3014675102188356},
        {0.053465471420622454, -0.85422468251642325}}});
}

TEST(F64Golden, AblationBetaLanes) {
  expect_reduced_tier(
      ChainNetConfig::ablation_beta(), 46, tensor::DType::kF64,
      {{{0.024307546472801561, -0.095543455352745763},
        {0.040352330704660141, -0.069535345630696424}},
       {{-0.018359142305753914, -0.2226192634227252},
        {0.035017797850696426, -0.026266369636647656}},
       {{-0.023347468030641916, -0.096418179273948232},
        {-0.044515933816630243, -0.017072916121725672}}});
}

TEST(F64Golden, AblationDeltaLanes) {
  expect_reduced_tier(
      ChainNetConfig::ablation_delta(), 47, tensor::DType::kF64,
      {{{0.41127135941120324, 0.44102361967591008},
        {0.42590929369861558, 0.40847785616107218}},
       {{0.3986685314299368, 0.43628319040725166},
        {0.42659017447420816, 0.4192277385414136}},
       {{0.41299052538095549, 0.41725417280384025},
        {0.40883018348273015, 0.40339177269904058}}});
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
