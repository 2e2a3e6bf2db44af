#include "optim/annealing.h"

#include <gtest/gtest.h>

#include "optim/initial.h"
#include "search/optimizer.h"
#include "test_util.h"

namespace chainnet::optim {
namespace {

using chainnet::testing::small_system;
using support::Rng;

/// An analytic toy evaluator: rewards placing every fragment on the
/// fastest device it can (objective = sum of 1/processing-time). Cheap and
/// deterministic, so SA behavior can be tested without simulation noise.
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

SaConfig quick_sa(int steps = 60) {
  SaConfig cfg;
  cfg.max_steps = steps;
  cfg.seed = 11;
  return cfg;
}

TEST(ProposeMove, PreservesInvariants) {
  const auto sys = small_system();
  auto current = initial_placement(sys);
  Rng rng(5);
  const auto cfg = quick_sa();
  // Sweep many proposals: every candidate must stay valid and feasible and
  // differ from the current placement.
  for (int n = 0; n < 300; ++n) {
    edge::Placement candidate;
    ASSERT_TRUE(propose_move(sys, current, rng, cfg, candidate));
    EXPECT_NO_THROW(candidate.validate(sys));
    EXPECT_TRUE(candidate.memory_feasible(sys));
    EXPECT_NE(candidate, current);
    current = candidate;  // random walk to diversify states
  }
}

TEST(ProposeMove, MovesExactlyOneFragmentOrSwaps) {
  const auto sys = small_system();
  const auto current = initial_placement(sys);
  Rng rng(7);
  const auto cfg = quick_sa();
  edge::Placement candidate;
  ASSERT_TRUE(propose_move(sys, current, rng, cfg, candidate));
  int diffs = 0;
  for (int i = 0; i < sys.num_chains(); ++i) {
    for (int j = 0; j < sys.chains[i].length(); ++j) {
      if (candidate.device_of(i, j) != current.device_of(i, j)) ++diffs;
    }
  }
  EXPECT_GE(diffs, 1);
}

TEST(Anneal, ImprovesToyObjective) {
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  ToyEvaluator eval;
  const double initial_obj = eval.total_throughput(sys, initial);
  const auto result = anneal(sys, initial, eval, quick_sa(150));
  EXPECT_GE(result.best_objective, initial_obj);
  EXPECT_GT(result.best_objective, initial_obj * 1.05);
  EXPECT_NO_THROW(result.best.validate(sys));
}

TEST(Anneal, TrajectoryRecordsEveryStep) {
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  ToyEvaluator eval;
  const auto cfg = quick_sa(40);
  const auto result = anneal(sys, initial, eval, cfg);
  ASSERT_EQ(result.trajectory.size(), 41u);  // step 0 plus 40 steps
  // best is monotone non-decreasing, seconds non-decreasing.
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i].best, result.trajectory[i - 1].best);
    EXPECT_GE(result.trajectory[i].seconds,
              result.trajectory[i - 1].seconds);
    EXPECT_EQ(result.trajectory[i].step, static_cast<int>(i));
  }
  // best matches the returned placement's objective.
  EXPECT_DOUBLE_EQ(result.trajectory.back().best, result.best_objective);
}

TEST(Anneal, DeterministicGivenSeed) {
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  ToyEvaluator e1, e2;
  const auto a = anneal(sys, initial, e1, quick_sa());
  const auto b = anneal(sys, initial, e2, quick_sa());
  EXPECT_DOUBLE_EQ(a.best_objective, b.best_objective);
  EXPECT_EQ(a.best.assignment(), b.best.assignment());
}

TEST(RunTrials, ConcatenatesTrajectories) {
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  ToyEvaluator eval;
  const auto cfg = quick_sa(30);
  search::SaOptimizer sa(eval, cfg);
  const auto result = search::run_trials(sa, sys, initial, cfg.seed, 3);
  EXPECT_EQ(result.trials, 3);
  ASSERT_EQ(result.trajectory.size(), 1u + 3u * 30u);
  // Cumulative step axis and global best monotonicity across trials.
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_EQ(result.trajectory[i].step,
              result.trajectory[i - 1].step + 1);
    EXPECT_GE(result.trajectory[i].best, result.trajectory[i - 1].best);
  }
  EXPECT_THROW(search::run_trials(sa, sys, initial, cfg.seed, 0),
               std::invalid_argument);
}

TEST(RunTrials, MultiStartAtLeastAsGoodAsSingle) {
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  ToyEvaluator e1, e2;
  const auto single = anneal(sys, initial, e1, quick_sa(30));
  search::SaOptimizer sa(e2, quick_sa(30));
  const auto multi = search::run_trials(sa, sys, initial, 11, 5);
  EXPECT_GE(multi.best_objective, single.best_objective - 1e-12);
}

TEST(RunFor, RespectsTimeBudgetAndRunsAtLeastOnce) {
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  ToyEvaluator eval;
  search::SaOptimizer sa(eval, quick_sa(10));
  const auto result = search::run_for(sa, sys, initial, 11, 0.0);
  EXPECT_EQ(result.trials, 1);  // budget 0 still yields one trial
  ToyEvaluator eval2;
  search::SaOptimizer sa2(eval2, quick_sa(10));
  const auto longer = search::run_for(sa2, sys, initial, 11, 0.05);
  EXPECT_GE(longer.trials, 1);
}

TEST(Anneal, EvaluationCountMatchesAcceptedProposals) {
  const auto sys = small_system();
  const auto initial = initial_placement(sys);
  ToyEvaluator eval;
  const auto result = anneal(sys, initial, eval, quick_sa(25));
  // One initial evaluation plus at most one per step.
  EXPECT_GE(result.evaluations, 1u);
  EXPECT_LE(result.evaluations, 26u);
}

}  // namespace
}  // namespace chainnet::optim
