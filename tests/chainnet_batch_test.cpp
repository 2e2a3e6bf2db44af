// Bit-exactness contract of the batched and fused inference paths:
//  * forward_values_batch column b must equal forward_values on graphs[b]
//    EXACTLY (EXPECT_EQ on doubles) for B in {1, 2, 7, 32}, on every
//    ablation configuration — the lock-stepped batch-major engine may not
//    perturb a single placement's numbers;
//  * plan replay over the packed/blocked kernels must equal the
//    interpreted walk over the pre-fusion kernels on the same model
//    exactly, including after parameters mutate (exercising the
//    packed-weight version check);
//  * batches mixing placements of different systems must be rejected with
//    the typed gnn::MixedBatchError.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/graph.h"
#include "edge/problem.h"
#include "gnn/model.h"
#include "optim/evaluator.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "support/rng.h"
#include "test_util.h"

namespace chainnet::core {
namespace {

using chainnet::testing::small_placement;
using chainnet::testing::small_system;
using support::Rng;

edge::EdgeSystem medium_system(std::uint64_t seed) {
  auto params = edge::PlacementProblemParams::paper(16);
  Rng rng(seed);
  return edge::generate_placement_problem(params, rng);
}

std::vector<edge::Placement> random_placements(const edge::EdgeSystem& system,
                                               int count,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<edge::Placement> placements;
  placements.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    placements.push_back(edge::random_placement(system, rng));
  }
  return placements;
}

/// Batched forward over `placements` must reproduce the scalar forward of
/// every lane bit-for-bit.
void expect_batch_matches_scalar(ChainNet& model,
                                 const edge::EdgeSystem& system,
                                 std::span<const edge::Placement> placements) {
  std::vector<edge::PlacementGraph> graphs;
  graphs.reserve(placements.size());
  for (const auto& p : placements) {
    graphs.push_back(edge::build_graph(system, p, model.feature_mode()));
  }
  std::vector<const edge::PlacementGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  const auto batched = model.forward_values_batch(ptrs);
  ASSERT_EQ(batched.size(), graphs.size());
  for (std::size_t b = 0; b < graphs.size(); ++b) {
    const auto scalar = model.forward_values(graphs[b]);
    ASSERT_EQ(batched[b].size(), scalar.size()) << "lane " << b;
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      EXPECT_EQ(batched[b][i].has_throughput, scalar[i].has_throughput);
      EXPECT_EQ(batched[b][i].has_latency, scalar[i].has_latency);
      EXPECT_EQ(batched[b][i].throughput, scalar[i].throughput)
          << "lane " << b << " chain " << i;
      EXPECT_EQ(batched[b][i].latency, scalar[i].latency)
          << "lane " << b << " chain " << i;
    }
  }
}

struct NamedConfig {
  const char* name;
  ChainNetConfig cfg;
};

std::vector<NamedConfig> all_configs() {
  ChainNetConfig no_attention;
  no_attention.attention_aggregation = false;
  return {{"chainnet", ChainNetConfig{}},
          {"alpha", ChainNetConfig::ablation_alpha()},
          {"beta", ChainNetConfig::ablation_beta()},
          {"delta", ChainNetConfig::ablation_delta()},
          {"mean_agg", no_attention}};
}

class BatchSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatchSizeSweep, MatchesScalarOnEveryConfig) {
  const int batch = GetParam();
  const auto system = medium_system(42);
  const auto placements = random_placements(system, batch, 7);
  for (const auto& named : all_configs()) {
    auto cfg = named.cfg;
    cfg.hidden = 16;
    cfg.iterations = 3;
    Rng rng(3);
    ChainNet model(cfg, rng);
    SCOPED_TRACE(named.name);
    expect_batch_matches_scalar(model, system, placements);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchSizeSweep,
                         ::testing::Values(1, 2, 7, 32));

TEST(ChainNetBatch, RepeatedLanesAgree) {
  // The same placement in several lanes must produce identical columns.
  const auto system = medium_system(42);
  const auto one = random_placements(system, 1, 9);
  std::vector<edge::Placement> repeated(5, one.front());
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(5);
  ChainNet model(cfg, rng);
  expect_batch_matches_scalar(model, system, repeated);
}

TEST(ChainNetBatch, MixedSystemsThrowTypedError) {
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);

  const auto sys_a = small_system();
  const auto g_a =
      edge::build_graph(sys_a, small_placement(), model.feature_mode());
  const auto sys_b = medium_system(42);
  const auto p_b = random_placements(sys_b, 1, 3).front();
  const auto g_b = edge::build_graph(sys_b, p_b, model.feature_mode());

  const edge::PlacementGraph* mixed[] = {&g_a, &g_b};
  EXPECT_THROW(model.forward_values_batch(mixed), gnn::MixedBatchError);

  // Same system twice is fine — the guard must not over-reject.
  const edge::PlacementGraph* same[] = {&g_a, &g_a};
  EXPECT_NO_THROW(model.forward_values_batch(same));
}

TEST(ChainNetBatch, EmptyAndNullBatchesAreRejected) {
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);
  EXPECT_THROW(model.forward_values_batch({}), std::invalid_argument);
  const edge::PlacementGraph* with_null[] = {nullptr};
  EXPECT_THROW(model.forward_values_batch(with_null), std::invalid_argument);
}

/// Plan replay (packed GRU blocks, blocked GEMM) and the interpreted walk
/// (naive per-matrix GEMVs) on the same model must agree bit-for-bit: the
/// packed-weight kernels promise the same per-element accumulation chains
/// as the pre-fusion kernels they replaced.
void expect_replay_matches_reference(ChainNet& model,
                                     const edge::EdgeSystem& system,
                                     std::span<const edge::Placement> placements) {
  for (const auto& p : placements) {
    const auto g = edge::build_graph(system, p, model.feature_mode());
    const auto a = model.forward_values(g);
    const auto b = model.forward_values_interpreted(g);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].throughput, b[i].throughput) << "chain " << i;
      EXPECT_EQ(a[i].latency, b[i].latency) << "chain " << i;
    }
  }
}

TEST(ChainNetFusion, FusedMatchesReferenceOnEveryConfig) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 4, 13);
  for (const auto& named : all_configs()) {
    auto cfg = named.cfg;
    cfg.hidden = 16;
    cfg.iterations = 3;
    SCOPED_TRACE(named.name);
    Rng rng(3);
    ChainNet model(cfg, rng);
    expect_replay_matches_reference(model, system, placements);
  }
}

TEST(ChainNetFusion, RepackAfterParameterMutation) {
  // Mutating a parameter in place must invalidate the packed GRU weights:
  // replay re-packs and keeps matching the interpreted walk, which reads
  // the parameters directly.
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 2, 21);
  ChainNetConfig cfg;
  cfg.hidden = 12;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);

  const auto g =
      edge::build_graph(system, placements.front(), model.feature_mode());
  // Warm pass so replay has packed the weights once.
  const auto before = model.forward_values(g);

  for (auto* param : model.parameters()) {
    param->var.mutable_value()[0] += 0.25;
  }
  EXPECT_NE(model.forward_values(g).front().throughput,
            before.front().throughput)
      << "the mutation must reach replay";
  expect_replay_matches_reference(model, system, placements);
}

TEST(ChainNetBatch, EvalServiceConcurrentBatchMatchesSerial) {
  // The full concurrent path: EvalService fans a batch out in chunks to
  // pool workers, each lock-stepping its sub-batch through one model. The
  // scores must equal a serial single-placement surrogate's, bit-for-bit —
  // regardless of how the batch was chunked across threads. (Also the TSan
  // coverage for the batched forward's thread-local scratch buffers.)
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 32, 51);
  ChainNetConfig cfg;
  cfg.hidden = 12;
  cfg.iterations = 2;

  runtime::ThreadPool pool(4);
  runtime::EvalService service(
      pool,
      [cfg](support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
        struct Owning final : optim::PlacementEvaluator {
          explicit Owning(const ChainNetConfig& c)
              : rng(3), model(c, rng), eval(model) {}
          double total_throughput(const edge::EdgeSystem& s,
                                  const edge::Placement& p) override {
            record_evaluation();
            return eval.total_throughput(s, p);
          }
          void total_throughput_batch(const edge::EdgeSystem& s,
                                      std::span<const edge::Placement> ps,
                                      std::span<double> out) override {
            eval.total_throughput_batch(s, ps, out);
          }
          Rng rng;
          ChainNet model;
          Surrogate eval;
        };
        return std::make_unique<Owning>(cfg);
      },
      99);

  const auto concurrent = service.evaluate_batch(system, placements);
  Rng serial_rng(3);
  ChainNet serial_model(cfg, serial_rng);
  Surrogate serial(serial_model);
  ASSERT_EQ(concurrent.size(), placements.size());
  for (std::size_t b = 0; b < placements.size(); ++b) {
    EXPECT_EQ(concurrent[b], serial.total_throughput(system, placements[b]))
        << "lane " << b;
  }
}

TEST(ChainNetBatch, SurrogateBatchMatchesScalarObjective) {
  // End-to-end through the Surrogate wrapper (workspace graph builds plus
  // the batched forward): the batched objective must equal the scalar one.
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 8, 31);
  ChainNetConfig cfg;
  cfg.hidden = 16;
  cfg.iterations = 3;
  Rng rng(3);
  ChainNet model(cfg, rng);
  Surrogate surrogate(model);
  std::vector<double> batched(placements.size());
  surrogate.total_throughput_batch(system, placements, batched);
  for (std::size_t b = 0; b < placements.size(); ++b) {
    EXPECT_EQ(batched[b], surrogate.total_throughput(system, placements[b]))
        << "lane " << b;
  }
}

}  // namespace
}  // namespace chainnet::core
