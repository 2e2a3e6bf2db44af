// Compiled execution plans (gnn/plan.h): the contracts the plan IR PR
// rests on.
//  * Parity gate: plan replay (forward_values / forward_values_batch) must
//    equal the interpreted Algorithm-2 reference executor bit-for-bit in
//    every lane, on every ablation configuration and every B in
//    {1, 2, 7, 32};
//  * Cache keying: placement-only and weight-only mutations never
//    recompile, a topology change does, and distinct batch widths compile
//    distinct plans;
//  * Concurrency: concurrent first lookups through one shared cache
//    produce exactly one compile and bit-identical outputs (the TSan
//    coverage for read-only plan sharing — wired into check_tsan.sh);
//  * Plumbing: EvalService injects one cache into all workers, and the
//    model registry's cache survives a weights hot swap.
#include "gnn/plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/graph.h"
#include "edge/problem.h"
#include "gnn/model.h"
#include "gnn/plan_compiler.h"
#include "optim/evaluator.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "serve/registry.h"
#include "support/rng.h"
#include "tensor/serialize.h"

namespace chainnet::core {
namespace {

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

std::vector<edge::PlacementGraph> build_graphs(
    const ChainNet& model, const edge::EdgeSystem& system,
    std::span<const edge::Placement> placements) {
  std::vector<edge::PlacementGraph> graphs;
  graphs.reserve(placements.size());
  for (const auto& p : placements) {
    graphs.push_back(edge::build_graph(system, p, model.feature_mode()));
  }
  return graphs;
}

std::vector<const edge::PlacementGraph*> pointers(
    const std::vector<edge::PlacementGraph>& graphs) {
  std::vector<const edge::PlacementGraph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const auto& g : graphs) ptrs.push_back(&g);
  return ptrs;
}

void expect_values_equal(const std::vector<gnn::ChainValues>& a,
                         const std::vector<gnn::ChainValues>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].has_throughput, b[i].has_throughput) << "chain " << i;
    EXPECT_EQ(a[i].has_latency, b[i].has_latency) << "chain " << i;
    EXPECT_EQ(a[i].throughput, b[i].throughput) << "chain " << i;
    EXPECT_EQ(a[i].latency, b[i].latency) << "chain " << i;
  }
}

struct NamedConfig {
  const char* name;
  ChainNetConfig cfg;
};

/// Every ablation of the batch-parity suite: the plan executor must be
/// bit-exact against the interpreted walk (which runs the pre-fusion
/// kernels) on all of them.
std::vector<NamedConfig> all_configs() {
  ChainNetConfig no_attention;
  no_attention.attention_aggregation = false;
  return {{"chainnet", ChainNetConfig{}},
          {"alpha", ChainNetConfig::ablation_alpha()},
          {"beta", ChainNetConfig::ablation_beta()},
          {"delta", ChainNetConfig::ablation_delta()},
          {"mean_agg", no_attention}};
}

class PlanParitySweep : public ::testing::TestWithParam<int> {};

TEST_P(PlanParitySweep, ReplayMatchesInterpretedOnEveryConfig) {
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

    const auto graphs = build_graphs(model, system, placements);
    const auto ptrs = pointers(graphs);

    // Width-1 replay vs the interpreted walk, per lane.
    std::vector<std::vector<gnn::ChainValues>> reference;
    for (std::size_t b = 0; b < graphs.size(); ++b) {
      SCOPED_TRACE("lane " + std::to_string(b));
      reference.push_back(model.forward_values_interpreted(graphs[b]));
      expect_values_equal(model.forward_values(graphs[b]), reference.back());
    }

    // Width-B replay vs the interpreted walk on each lane's graph.
    const auto replayed = model.forward_values_batch(ptrs);
    ASSERT_EQ(replayed.size(), reference.size());
    for (std::size_t b = 0; b < replayed.size(); ++b) {
      SCOPED_TRACE("batch lane " + std::to_string(b));
      expect_values_equal(replayed[b], reference[b]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PlanParitySweep,
                         ::testing::Values(1, 2, 7, 32));

TEST(PlanCache, PlacementMutationsNeverRecompile) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 8, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);
  const auto graphs = build_graphs(model, system, placements);
  for (const auto& g : graphs) model.forward_values(g);
  const auto stats = model.plan_cache()->stats();
  EXPECT_EQ(stats.compiles, 1u) << "placement-only changes must replay";
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, WeightMutationChangesOutputsWithoutRecompiling) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 1, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);
  const auto graph =
      edge::build_graph(system, placements[0], model.feature_mode());

  const auto before = model.forward_values(graph);
  ASSERT_FALSE(model.parameters().empty());
  model.parameters()[0]->var.mutable_value()[0] += 0.25;
  const auto after = model.forward_values(graph);

  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i].throughput != after[i].throughput) changed = true;
  }
  EXPECT_TRUE(changed) << "weight mutation must reach the replayed forward";
  EXPECT_EQ(model.plan_cache()->stats().compiles, 1u)
      << "plans are weight-independent";
}

TEST(PlanCache, TopologyChangeCompilesANewPlan) {
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);

  const auto system_a = medium_system(42);
  const auto system_b = medium_system(43);
  const auto p_a = random_placements(system_a, 1, 11);
  const auto p_b = random_placements(system_b, 1, 11);
  model.forward_values(
      edge::build_graph(system_a, p_a[0], model.feature_mode()));
  EXPECT_EQ(model.plan_cache()->stats().compiles, 1u);
  model.forward_values(
      edge::build_graph(system_b, p_b[0], model.feature_mode()));
  EXPECT_EQ(model.plan_cache()->stats().compiles, 2u)
      << "a different system topology must compile its own plan";
  // Returning to the first system replays its still-cached plan.
  model.forward_values(
      edge::build_graph(system_a, p_a[0], model.feature_mode()));
  EXPECT_EQ(model.plan_cache()->stats().compiles, 2u);
}

TEST(PlanCache, DistinctWidthsCompileDistinctPlans) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 4, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng(3);
  ChainNet model(cfg, rng);
  const auto graphs = build_graphs(model, system, placements);
  const auto ptrs = pointers(graphs);

  model.forward_values(graphs[0]);       // width 1
  model.forward_values_batch(ptrs);      // width 4
  EXPECT_EQ(model.plan_cache()->stats().compiles, 2u);
  model.forward_values_batch(ptrs);      // replay
  model.forward_values(graphs[1]);       // replay
  EXPECT_EQ(model.plan_cache()->stats().compiles, 2u);
}

TEST(PlanCache, DistinctDtypesCompileDistinctPlans) {
  // dtype is part of the plan key: an f32 model must never replay through
  // a plan another model compiled as f64 (the executors size and type the
  // arena by the key's element width) — one compile per dtype, no
  // cross-dtype reuse.
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 4, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  Rng rng_f64(3);
  ChainNet model_f64(cfg, rng_f64);
  auto cfg_f32 = cfg;
  cfg_f32.dtype = tensor::DType::kF32;
  Rng rng_f32(3);
  ChainNet model_f32(cfg_f32, rng_f32);
  const auto cache = std::make_shared<gnn::PlanCache>();
  model_f64.set_plan_cache(cache);
  model_f32.set_plan_cache(cache);
  const auto graphs = build_graphs(model_f64, system, placements);
  const auto ptrs = pointers(graphs);

  model_f64.forward_values(graphs[0]);
  EXPECT_EQ(cache->stats().compiles, 1u);
  model_f32.forward_values(graphs[0]);
  EXPECT_EQ(cache->stats().compiles, 2u)
      << "the f32 tier must compile its own plan, not reuse the f64 one";
  model_f64.forward_values_batch(ptrs);
  model_f32.forward_values_batch(ptrs);
  EXPECT_EQ(cache->stats().compiles, 4u);
  // Replays: every (dtype, width) combination is now cached.
  model_f64.forward_values(graphs[1]);
  model_f32.forward_values(graphs[1]);
  model_f64.forward_values_batch(ptrs);
  model_f32.forward_values_batch(ptrs);
  EXPECT_EQ(cache->stats().compiles, 4u);

  // Same weights (same init seed): the reduced tier tracks the f64 values
  // to f32 roundoff while the plans stay separate.
  const auto out64 = model_f64.forward_values(graphs[0]);
  const auto out32 = model_f32.forward_values(graphs[0]);
  ASSERT_EQ(out64.size(), out32.size());
  for (std::size_t i = 0; i < out64.size(); ++i) {
    EXPECT_NEAR(out32[i].throughput, out64[i].throughput,
                1e-4 * std::abs(out64[i].throughput) + 1e-6)
        << "chain " << i;
  }
}

TEST(PlanCache, DtypeChangesFingerprintAndKeyEquality) {
  gnn::PlanShape f64_shape;
  f64_shape.hidden = 8;
  f64_shape.iterations = 2;
  f64_shape.attention_heads = 2;
  auto f32_shape = f64_shape;
  f32_shape.dtype = tensor::DType::kF32;
  EXPECT_FALSE(f64_shape == f32_shape);
  const auto system = medium_system(42);
  const auto g = edge::build_graph(
      system, random_placements(system, 1, 11)[0], edge::FeatureMode::kModified);
  EXPECT_NE(gnn::plan_fingerprint(g, f64_shape, 4),
            gnn::plan_fingerprint(g, f32_shape, 4));
}

TEST(PlanCache, ConcurrentFirstLookupsCompileOnceAndMatchSerial) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 4, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;

  Rng serial_rng(3);
  ChainNet serial_model(cfg, serial_rng);
  const auto graphs = build_graphs(serial_model, system, placements);
  std::vector<std::vector<gnn::ChainValues>> serial;
  for (const auto& g : graphs) serial.push_back(serial_model.forward_values(g));

  // Fresh shared cache; every thread owns a model (same seed => same
  // weights) but resolves plans through the one cache, concurrently.
  auto cache = std::make_shared<gnn::PlanCache>();
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<gnn::ChainValues>>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(3);
        ChainNet model(cfg, rng);
        model.set_plan_cache(cache);
        for (const auto& g : graphs) {
          results[static_cast<std::size_t>(t)].push_back(
              model.forward_values(g));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  EXPECT_EQ(cache->stats().compiles, 1u)
      << "concurrent first lookups must collapse to one compile";
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " graph " +
                   std::to_string(i));
      expect_values_equal(results[static_cast<std::size_t>(t)][i], serial[i]);
    }
  }
}

TEST(PlanCache, EvalServiceSharesOneCacheAcrossWorkers) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 12, 51);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;

  // Every evaluator records the cache it is handed, so the sharing is
  // checked directly rather than inferred from which worker happened to
  // run which chunk.
  std::vector<const gnn::PlanCache*> installed;
  runtime::ThreadPool pool(2);
  runtime::EvalService service(
      pool,
      [cfg, &installed](
          support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
        struct Owning final : optim::PlacementEvaluator {
          Owning(const ChainNetConfig& c,
                 std::vector<const gnn::PlanCache*>& sink)
              : rng(3), model(c, rng), eval(model), log(sink) {}
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
          void set_plan_cache(std::shared_ptr<gnn::PlanCache> c) override {
            log.push_back(c.get());
            model.set_plan_cache(std::move(c));
          }
          Rng rng;
          ChainNet model;
          Surrogate eval;
          std::vector<const gnn::PlanCache*>& log;
        };
        return std::make_unique<Owning>(cfg, installed);
      },
      99);

  // One evaluator per worker plus the owning thread, all on one cache.
  ASSERT_EQ(installed.size(), 3u);
  for (const auto* cache : installed) {
    EXPECT_EQ(cache, service.plan_cache().get());
  }
  service.evaluate_batch(system, placements);
  // 12 placements fan out as two width-6 chunks: the first chunk compiles
  // the width-6 plan, and the second replays it whichever worker runs it.
  EXPECT_EQ(service.plan_cache()->stats().compiles, 1u)
      << "workers must share one plan cache";
}

TEST(PlanDump, ListsOpsAndScratchAccounting) {
  const auto system = medium_system(42);
  const auto placements = random_placements(system, 1, 11);
  ChainNetConfig cfg;
  cfg.hidden = 8;
  cfg.iterations = 2;
  gnn::PlanShape shape;
  shape.hidden = cfg.hidden;
  shape.iterations = cfg.iterations;
  shape.attention_heads = cfg.attention_heads;
  shape.modified_outputs = cfg.modified_outputs;
  shape.attention_aggregation = cfg.attention_aggregation;
  const auto graph = edge::build_graph(system, placements[0],
                                       edge::FeatureMode::kModified);

  const auto single = gnn::compile_plan(graph, shape, 1);
  const std::string text = single->dump();
  EXPECT_NE(text.find("BatchEncodeService"), std::string::npos) << text;
  EXPECT_NE(text.find("BatchGruChainStep"), std::string::npos) << text;
  EXPECT_NE(text.find("BatchReadout"), std::string::npos) << text;
  EXPECT_NE(text.find("scratch:"), std::string::npos) << text;

  const auto batched = gnn::compile_plan(graph, shape, 32);
  EXPECT_EQ(batched->ops.size(), single->ops.size())
      << "width sets panel columns, never the op list";
  EXPECT_NE(single->fingerprint, batched->fingerprint)
      << "width is part of the plan key";
}

/// Registry hot swap: new weights, same plans (the serve-flusher satellite).
TEST(PlanRegistry, HotSwapKeepsCompiledPlans) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "chainnet_plan_registry";
  fs::remove_all(dir);
  fs::create_directories(dir);

  core::ChainNetConfig config;
  config.hidden = 8;
  config.iterations = 1;
  const auto write_version = [&](std::uint32_t version, std::uint64_t seed) {
    Rng rng(seed);
    ChainNet model(config, rng);
    const auto params =
        dir / ("weights_v" + std::to_string(version) + ".bin");
    tensor::save_parameters(model, params.string());
    tensor::WeightsManifest manifest;
    manifest.version = version;
    manifest.params_path = params.filename().string();
    manifest.checksum = tensor::file_checksum(params.string());
    manifest.hidden = config.hidden;
    manifest.iterations = config.iterations;
    const auto path = dir / ("v" + std::to_string(version) + ".json");
    tensor::save_manifest(manifest, path.string());
    return path.string();
  };

  const auto system = medium_system(42);
  const auto placements = random_placements(system, 1, 11);
  serve::ModelRegistry registry(config, 1);

  registry.load(write_version(1, 11));
  const double v1 = registry.active()->surrogate(0).total_throughput(
      system, placements[0]);
  const auto after_v1 = registry.plan_cache()->stats();
  EXPECT_GE(after_v1.compiles, 1u);

  registry.load(write_version(2, 23));
  const double v2 = registry.active()->surrogate(0).total_throughput(
      system, placements[0]);
  const auto after_v2 = registry.plan_cache()->stats();
  EXPECT_NE(v1, v2) << "distinct weights must score differently";
  EXPECT_EQ(after_v2.compiles, after_v1.compiles)
      << "a weights hot swap must not recompile any plan";
  EXPECT_GT(after_v2.hits, after_v1.hits)
      << "the new version must replay the old version's plans";

  const auto stats = registry.stats_json();
  ASSERT_TRUE(stats.has("plan_cache"));
  EXPECT_EQ(stats.at("plan_cache").at("compiles").as_number(),
            static_cast<double>(after_v2.compiles));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace chainnet::core
