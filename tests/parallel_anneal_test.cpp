// Determinism and correctness of the concurrent evaluation runtime wired
// into the SA drivers: a 1-thread search::run_trials_parallel must
// reproduce serial search::run_trials on an SaOptimizer bit-for-bit, and
// batch evaluation must agree with direct evaluation for every oracle that
// is a pure function of the placement.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "optim/annealing.h"
#include "optim/evaluator.h"
#include "optim/initial.h"
#include "queueing/simulator.h"
#include "runtime/eval_cache.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "search/optimizer.h"
#include "test_util.h"

namespace chainnet::optim {
namespace {

using chainnet::testing::small_system;

/// Value-deterministic toy oracle (same objective as annealing_test's).
class ToyEvaluator final : public PlacementEvaluator {
 public:
  double total_throughput(const edge::EdgeSystem& system,
                          const edge::Placement& placement) override {
    record_evaluation();
    double total = 0.0;
    for (int i = 0; i < system.num_chains(); ++i) {
      for (int j = 0; j < system.chains[i].length(); ++j) {
        total += 1.0 / system.processing_time(i, j, placement.device_of(i, j));
      }
    }
    return total;
  }
};

runtime::EvalService::EvaluatorFactory toy_factory() {
  return [](support::Rng) -> std::unique_ptr<PlacementEvaluator> {
    return std::make_unique<ToyEvaluator>();
  };
}

/// Fixed-seed simulation oracle: the objective depends on the placement
/// only, so results are identical no matter which worker scores it.
runtime::EvalService::EvaluatorFactory sim_factory() {
  queueing::SimConfig cfg;
  cfg.horizon = 400.0;
  cfg.seed = 9;
  return [cfg](support::Rng) -> std::unique_ptr<PlacementEvaluator> {
    return std::make_unique<SimulationEvaluator>(cfg);
  };
}

SaConfig quick_sa(int steps = 25) {
  SaConfig cfg;
  cfg.max_steps = steps;
  cfg.seed = 11;
  return cfg;
}

TEST(EvalService, BatchMatchesDirectEvaluation) {
  const auto sys = small_system();
  auto current = initial_placement(sys);
  std::vector<edge::Placement> batch;
  support::Rng rng(3);
  const SaConfig cfg;
  for (int i = 0; i < 16; ++i) {
    edge::Placement next;
    ASSERT_TRUE(propose_move(sys, current, rng, cfg, next));
    current = next;
    batch.push_back(current);
  }
  runtime::ThreadPool pool(4);
  runtime::EvalService service(pool, sim_factory(), 1);
  const auto parallel = service.evaluate_batch(sys, batch);
  const auto direct = sim_factory()(support::Rng(0));
  ASSERT_EQ(parallel.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel[i], direct->total_throughput(sys, batch[i]));
  }
  EXPECT_EQ(service.oracle_evaluations(), batch.size());
}

TEST(EvalService, EmptyBatchIsANoOp) {
  runtime::ThreadPool pool(2);
  runtime::EvalService service(pool, toy_factory(), 1);
  EXPECT_TRUE(service.evaluate_batch(small_system(), {}).empty());
  EXPECT_EQ(service.oracle_evaluations(), 0u);
}

/// Serial reference: run_trials on the paper's SA over `evaluator`.
SaResult serial_trials(const edge::EdgeSystem& sys,
                       PlacementEvaluator& evaluator,
                       const edge::Placement& initial, const SaConfig& cfg,
                       int trials) {
  search::SaOptimizer sa(evaluator, cfg);
  return search::run_trials(sa, sys, initial, cfg.seed, trials);
}

TEST(RunTrialsParallel, OneThreadMatchesSerialBitForBit) {
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  const auto cfg = quick_sa();

  // Serial reference with an evaluator identical to worker 0's.
  const auto serial_eval =
      sim_factory()(runtime::EvalService::worker_stream(cfg.seed, 0));
  const auto serial = serial_trials(sys, *serial_eval, initial, cfg, 4);

  runtime::ThreadPool pool(1);
  runtime::EvalService service(pool, sim_factory(), cfg.seed);
  const auto parallel =
      search::run_trials_parallel(sys, initial, service, cfg, 4);

  EXPECT_DOUBLE_EQ(parallel.best_objective, serial.best_objective);
  EXPECT_EQ(parallel.best.assignment(), serial.best.assignment());
  EXPECT_EQ(parallel.evaluations, serial.evaluations);
  EXPECT_EQ(parallel.trials, serial.trials);
  ASSERT_EQ(parallel.trajectory.size(), serial.trajectory.size());
  for (std::size_t i = 0; i < parallel.trajectory.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel.trajectory[i].best, serial.trajectory[i].best);
    EXPECT_DOUBLE_EQ(parallel.trajectory[i].current,
                     serial.trajectory[i].current);
    EXPECT_EQ(parallel.trajectory[i].step, serial.trajectory[i].step);
  }
}

TEST(RunTrialsParallel, MultiThreadMatchesSerialForPureOracles) {
  // With a placement-pure oracle every trial computes identical numbers on
  // any worker, and the merge order is fixed, so even a 4-thread run is an
  // exact reproduction of the serial search.
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  const auto cfg = quick_sa();
  const auto serial_eval = sim_factory()(support::Rng(0));
  const auto serial = serial_trials(sys, *serial_eval, initial, cfg, 6);

  runtime::ThreadPool pool(4);
  runtime::EvalService service(pool, sim_factory(), cfg.seed);
  const auto parallel =
      search::run_trials_parallel(sys, initial, service, cfg, 6);

  EXPECT_DOUBLE_EQ(parallel.best_objective, serial.best_objective);
  EXPECT_EQ(parallel.best.assignment(), serial.best.assignment());
  EXPECT_EQ(parallel.evaluations, serial.evaluations);
}

TEST(RunTrialsParallel, RejectsNonPositiveTrials) {
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  runtime::ThreadPool pool(1);
  runtime::EvalService service(pool, toy_factory(), 1);
  EXPECT_THROW(
      search::run_trials_parallel(sys, initial, service, quick_sa(), 0),
      std::invalid_argument);
}

TEST(CachedEvaluatorParallel, SharedCacheAbsorbsRepeatedBatches) {
  const auto sys = small_system();
  auto current = initial_placement(sys);
  std::vector<edge::Placement> batch;
  support::Rng rng(5);
  const SaConfig cfg;
  for (int i = 0; i < 12; ++i) {
    edge::Placement next;
    ASSERT_TRUE(propose_move(sys, current, rng, cfg, next));
    current = next;
    batch.push_back(current);
  }
  auto cache = std::make_shared<runtime::EvalCache>();
  auto inner = sim_factory();
  runtime::EvalService::EvaluatorFactory cached =
      [inner, cache](support::Rng stream)
      -> std::unique_ptr<PlacementEvaluator> {
    return std::make_unique<runtime::CachedEvaluator>(inner(stream), cache);
  };
  runtime::ThreadPool pool(4);
  runtime::EvalService service(pool, cached, 1);
  const auto first = service.evaluate_batch(sys, batch);
  const auto second = service.evaluate_batch(sys, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i], second[i]);
  }
  const auto stats = cache->stats();
  // The second pass is served from the cache entirely (the first may also
  // hit when the walk revisits states).
  EXPECT_GE(stats.hits, batch.size());
  // Oracle evaluations = misses only, never more than distinct placements
  // of the first pass.
  EXPECT_LE(service.oracle_evaluations(), batch.size());
}

}  // namespace
}  // namespace chainnet::optim
