// Contracts of the src/search/ population optimizers:
//  * SA anchoring: every optimizer with population 1 replays serial
//    optim::anneal bit-for-bit (same stream, same trajectory, same
//    evaluation counts, same counters), and run_trials on the SA optimizer
//    reproduces optim::anneal merged over optim::trial_seeds;
//  * thread-count determinism: a fixed seed yields identical results on a
//    1-worker and a 4-worker evaluation service;
//  * batch discipline: the optimizers are batch-fed (>= 90% of placements
//    arrive through width>=2 evaluate_batch calls) and a whole run
//    compiles at most two execution plans through the shared plan cache;
//  * search sanity: objectives improve, best-so-far is monotone, final
//    placements validate, and the acceptance/exchange/resample counters
//    are populated.
#include "search/optimizer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/problem.h"
#include "gnn/plan.h"
#include "optim/annealing.h"
#include "optim/evaluator.h"
#include "optim/initial.h"
#include "queueing/simulator.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "search/moves.h"
#include "support/rng.h"
#include "test_util.h"

namespace chainnet::search {
namespace {

using chainnet::testing::small_system;
using optim::SaConfig;
using optim::SaResult;
using support::Rng;

/// Fixed-seed simulation oracle: placement-pure, so batched / parallel
/// evaluation reproduces serial evaluation bit-for-bit.
runtime::EvalService::EvaluatorFactory sim_factory() {
  queueing::SimConfig cfg;
  cfg.horizon = 400.0;
  cfg.seed = 9;
  return [cfg](Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
    return std::make_unique<optim::SimulationEvaluator>(cfg);
  };
}

SearchConfig quick_config(int population, int steps = 25) {
  SearchConfig cfg;
  cfg.sa.max_steps = steps;
  cfg.sa.seed = 11;
  cfg.population = population;
  return cfg;
}

const std::vector<Algo> kPopulationAlgos = {Algo::kPt, Algo::kPopAnneal,
                                            Algo::kBestOfB};

void expect_same_run(const SaResult& a, const SaResult& b,
                     const std::string& label) {
  EXPECT_DOUBLE_EQ(a.best_objective, b.best_objective) << label;
  EXPECT_EQ(a.best.assignment(), b.best.assignment()) << label;
  EXPECT_EQ(a.evaluations, b.evaluations) << label;
  EXPECT_EQ(a.counters.proposals, b.counters.proposals) << label;
  EXPECT_EQ(a.counters.proposal_failures, b.counters.proposal_failures)
      << label;
  EXPECT_EQ(a.counters.accepts, b.counters.accepts) << label;
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << label;
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].step, b.trajectory[i].step) << label;
    EXPECT_DOUBLE_EQ(a.trajectory[i].current, b.trajectory[i].current)
        << label << " point " << i;
    EXPECT_DOUBLE_EQ(a.trajectory[i].best, b.trajectory[i].best)
        << label << " point " << i;
    EXPECT_EQ(a.trajectory[i].evals, b.trajectory[i].evals)
        << label << " point " << i;
  }
}

TEST(SearchMoves, AllKindsProduceValidNeighbors) {
  const auto sys = small_system();
  auto current = optim::initial_placement(sys);
  Rng rng(3);
  const SaConfig cfg;
  int produced = 0;
  for (int i = 0; i < 60; ++i) {
    const MoveKind kind = move_kind_for_slot(i);
    edge::Placement next;
    if (!propose_kind(kind, sys, current, rng, cfg, next)) continue;
    ++produced;
    EXPECT_NO_THROW(next.validate(sys)) << "move kind " << i % 3;
    if (kind != MoveKind::kDoubleRelocate) {
      // Single-hop kinds always change the assignment; a double relocation
      // may legally compose a move with its own inverse.
      EXPECT_NE(next.assignment(), current.assignment());
    }
    current = next;
  }
  EXPECT_GT(produced, 30);
}

TEST(SearchMoves, SlotZeroIsThePaperRelocation) {
  // propose_kind(kRelocate) must consume the stream exactly like
  // optim::propose_move — the bit-compat anchor of the B = 1 reduction.
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  const SaConfig cfg;
  Rng a(17), b(17);
  edge::Placement via_kind, via_optim;
  for (int i = 0; i < 20; ++i) {
    const bool ok_kind =
        propose_kind(MoveKind::kRelocate, sys, initial, a, cfg, via_kind);
    const bool ok_optim = propose_move(sys, initial, b, cfg, via_optim);
    ASSERT_EQ(ok_kind, ok_optim);
    if (ok_kind) {
      EXPECT_EQ(via_kind.assignment(), via_optim.assignment());
    }
    EXPECT_EQ(a(), b()) << "streams diverged at iteration " << i;
  }
}

TEST(SearchOptimizer, PopulationOfOneMatchesSerialAnnealBitForBit) {
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  const auto cfg = quick_config(1, 30);

  SaConfig sa = cfg.sa;
  const auto serial_eval = sim_factory()(Rng(0));
  const auto serial = optim::anneal(sys, initial, *serial_eval, sa);

  for (const Algo algo : kPopulationAlgos) {
    runtime::ThreadPool pool(2);
    runtime::EvalService service(pool, sim_factory(), 1);
    const auto optimizer = make_optimizer(algo, service, cfg);
    const auto result = optimizer->run(sys, initial, sa.seed);
    expect_same_run(result, serial, std::string(algo_name(algo)));
    // Population-only mechanisms must be inert at population 1.
    EXPECT_EQ(result.counters.exchange_attempts, 0u);
    EXPECT_EQ(result.counters.resample_events, 0u);
  }
}

TEST(SearchOptimizer, DeterministicAcrossThreadCounts) {
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  const auto cfg = quick_config(8, 25);

  for (const Algo algo : kPopulationAlgos) {
    runtime::ThreadPool pool1(1);
    runtime::EvalService service1(pool1, sim_factory(), 1);
    const auto a =
        make_optimizer(algo, service1, cfg)->run(sys, initial, 11);

    runtime::ThreadPool pool4(4);
    runtime::EvalService service4(pool4, sim_factory(), 1);
    const auto b =
        make_optimizer(algo, service4, cfg)->run(sys, initial, 11);

    expect_same_run(a, b, std::string(algo_name(algo)));
  }
}

TEST(SearchOptimizer, ImprovesValidatesAndRecordsMonotoneBest) {
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  const auto cfg = quick_config(6, 40);

  for (const Algo algo : kPopulationAlgos) {
    runtime::ThreadPool pool(2);
    runtime::EvalService service(pool, sim_factory(), 1);
    const auto result =
        make_optimizer(algo, service, cfg)->run(sys, initial, 5);
    const std::string label(algo_name(algo));
    EXPECT_NO_THROW(result.best.validate(sys)) << label;
    ASSERT_EQ(result.trajectory.size(), 41u) << label;
    EXPECT_GE(result.best_objective, result.trajectory.front().best)
        << label;
    for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
      EXPECT_GE(result.trajectory[i].best, result.trajectory[i - 1].best)
          << label;
      EXPECT_GE(result.trajectory[i].evals, result.trajectory[i - 1].evals)
          << label;
    }
    EXPECT_GT(result.counters.proposals, 0u) << label;
    EXPECT_GE(result.counters.proposals, result.counters.accepts) << label;
    // One width-6 batch for the initial placement and at most one per step.
    EXPECT_LE(result.evaluations, 6u * 41u) << label;
    EXPECT_GE(result.wall_seconds, 0.0) << label;
    EXPECT_EQ(result.trials, 1) << label;
  }
}

TEST(SearchOptimizer, ParallelTemperingCountsExchanges) {
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  auto cfg = quick_config(4, 30);
  cfg.exchange_interval = 1;
  runtime::ThreadPool pool(2);
  runtime::EvalService service(pool, sim_factory(), 1);
  const auto result =
      make_optimizer(Algo::kPt, service, cfg)->run(sys, initial, 7);
  // 30 sweeps x alternating 2/1 adjacent pairs of a 4-chain ladder.
  EXPECT_EQ(result.counters.exchange_attempts, 45u);
  EXPECT_GE(result.counters.exchange_attempts,
            result.counters.exchange_accepts);
  EXPECT_EQ(result.counters.resample_events, 0u);
}

TEST(SearchOptimizer, ExchangeIntervalZeroDisablesExchanges) {
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  auto cfg = quick_config(4, 20);
  cfg.exchange_interval = 0;
  runtime::ThreadPool pool(2);
  runtime::EvalService service(pool, sim_factory(), 1);
  const auto result =
      make_optimizer(Algo::kPt, service, cfg)->run(sys, initial, 7);
  EXPECT_EQ(result.counters.exchange_attempts, 0u);
}

TEST(SearchOptimizer, PopulationAnnealingCountsResamples) {
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  auto cfg = quick_config(4, 30);
  cfg.resample_interval = 5;
  runtime::ThreadPool pool(2);
  runtime::EvalService service(pool, sim_factory(), 1);
  const auto result =
      make_optimizer(Algo::kPopAnneal, service, cfg)->run(sys, initial, 7);
  EXPECT_EQ(result.counters.resample_events, 6u);  // steps 5,10,...,30
  EXPECT_EQ(result.counters.exchange_attempts, 0u);
}

TEST(SearchOptimizer, OptimizersAreBatchFed) {
  // >= 90% of all placements must reach the oracle through width>=2
  // batches (the whole point of batch-native search). With padding the
  // optimizers are in fact 100% batched.
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  const auto cfg = quick_config(16, 25);

  for (const Algo algo : kPopulationAlgos) {
    runtime::ThreadPool pool(4);
    runtime::EvalService service(pool, sim_factory(), 1);
    (void)make_optimizer(algo, service, cfg)->run(sys, initial, 3);
    const auto stats = service.stats();
    EXPECT_GE(stats.batched_fraction(), 0.9)
        << algo_name(algo) << ": " << stats.batched_placements
        << " batched vs " << stats.single_placements << " single";
    EXPECT_GT(stats.batch_calls, 0u) << algo_name(algo);
  }
}

TEST(SearchOptimizer, WholeRunCompilesAtMostTwoPlans) {
  // Surrogate oracle on a shared plan cache: constant batch width means
  // the service's chunking produces at most two distinct sub-batch widths,
  // so a whole run compiles at most two plans (R7 plan discipline).
  const auto params = edge::PlacementProblemParams::paper(16);
  Rng gen(42);
  const auto sys = edge::generate_placement_problem(params, gen);
  const auto initial = optim::initial_placement(sys);
  const auto cfg = quick_config(8, 10);

  for (const Algo algo : kPopulationAlgos) {
    runtime::ThreadPool pool(3);
    runtime::EvalService service(
        pool,
        [](Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
          struct Owning final : optim::PlacementEvaluator {
            Owning() : rng(3), model(config(), rng), eval(model) {}
            static core::ChainNetConfig config() {
              core::ChainNetConfig cfg;
              cfg.hidden = 8;
              cfg.iterations = 2;
              return cfg;
            }
            double total_throughput(const edge::EdgeSystem& s,
                                    const edge::Placement& p) override {
              record_evaluation();
              return eval.total_throughput(s, p);
            }
            void total_throughput_batch(
                const edge::EdgeSystem& s,
                std::span<const edge::Placement> ps,
                std::span<double> out) override {
              for (std::size_t i = 0; i < ps.size(); ++i) {
                record_evaluation();
              }
              eval.total_throughput_batch(s, ps, out);
            }
            void set_plan_cache(
                std::shared_ptr<gnn::PlanCache> c) override {
              model.set_plan_cache(std::move(c));
            }
            Rng rng;
            core::ChainNet model;
            core::Surrogate eval;
          };
          return std::make_unique<Owning>();
        },
        99);
    (void)make_optimizer(algo, service, cfg)->run(sys, initial, 3);
    const auto stats = service.plan_cache()->stats();
    EXPECT_LE(stats.compiles, 2u) << algo_name(algo);
    EXPECT_GT(stats.hits, 0u) << algo_name(algo);
  }
}

TEST(SearchDrivers, RunTrialsOnSaOptimizerMatchesMergedAnneals) {
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  const auto cfg = quick_config(1, 20);

  const auto serial_eval = sim_factory()(Rng(0));
  SaResult reference;
  for (const std::uint64_t seed : optim::trial_seeds(cfg.sa.seed, 4)) {
    SaConfig sa = cfg.sa;
    sa.seed = seed;
    optim::merge_trial(reference,
                       optim::anneal(sys, initial, *serial_eval, sa));
  }

  runtime::ThreadPool pool(2);
  runtime::EvalService service(pool, sim_factory(), 1);
  const auto optimizer = make_optimizer(Algo::kSa, service, cfg);
  const auto result = run_trials(*optimizer, sys, initial, cfg.sa.seed, 4);

  expect_same_run(result, reference, "sa");
  EXPECT_EQ(result.trials, reference.trials);
}

TEST(SearchDrivers, RunTrialsConcatenatesPopulationTrials) {
  const auto sys = small_system();
  const auto initial = optim::initial_placement(sys);
  const auto cfg = quick_config(4, 15);
  runtime::ThreadPool pool(2);
  runtime::EvalService service(pool, sim_factory(), 1);
  const auto optimizer = make_optimizer(Algo::kPt, service, cfg);
  const auto result = run_trials(*optimizer, sys, initial, 11, 3);
  EXPECT_EQ(result.trials, 3);
  // 3 trials x (1 initial point + 15 steps), minus 2 deduped step-0 points.
  EXPECT_EQ(result.trajectory.size(), 3u * 16u - 2u);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i].best, result.trajectory[i - 1].best);
    EXPECT_GE(result.trajectory[i].step, result.trajectory[i - 1].step);
    EXPECT_GE(result.trajectory[i].evals, result.trajectory[i - 1].evals);
  }
  EXPECT_THROW(run_trials(*optimizer, sys, initial, 11, 0),
               std::invalid_argument);
}

TEST(SearchConfigApi, ParseAlgoRoundTripsAndRejectsGarbage) {
  for (const Algo algo :
       {Algo::kSa, Algo::kPt, Algo::kPopAnneal, Algo::kBestOfB}) {
    Algo parsed;
    ASSERT_TRUE(parse_algo(algo_name(algo), parsed));
    EXPECT_EQ(parsed, algo);
  }
  Algo parsed = Algo::kSa;
  EXPECT_FALSE(parse_algo("tempering", parsed));
  EXPECT_FALSE(parse_algo("", parsed));
  EXPECT_EQ(parsed, Algo::kSa);
}

TEST(SearchConfigApi, RejectsNonsensicalConfigs) {
  runtime::ThreadPool pool(1);
  runtime::EvalService service(pool, sim_factory(), 1);
  auto cfg = quick_config(0);
  EXPECT_THROW(make_optimizer(Algo::kPt, service, cfg),
               std::invalid_argument);
  EXPECT_THROW(make_optimizer(Algo::kBestOfB, service, cfg),
               std::invalid_argument);
  cfg.population = 4;
  cfg.ladder_ratio = 0.5;
  EXPECT_THROW(make_optimizer(Algo::kPt, service, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace chainnet::search
