// Parameterized property sweep of the full search machinery on Table-VII
// style problems of increasing size: initial placement validity, move
// invariants along real trajectories, and monotonicity of the recorded
// best-so-far series — the invariants every bench run relies on.
#include <gtest/gtest.h>

#include "edge/problem.h"
#include "optim/annealing.h"
#include "optim/initial.h"
#include "search/optimizer.h"
#include "support/rng.h"

namespace chainnet::optim {
namespace {

/// Deterministic, cheap stand-in objective (no simulation): negative sum
/// of squared device loads — favors balanced placements, so SA has a real
/// landscape to descend.
class BalanceEvaluator final : public PlacementEvaluator {
 public:
  double total_throughput(const edge::EdgeSystem& system,
                          const edge::Placement& placement) override {
    ++evaluations_;
    double score = 0.0;
    for (int k = 0; k < system.num_devices(); ++k) {
      const double load = placement.processing_load(system, k);
      score -= load * load;
    }
    return score;
  }
};

class SaProblemSweep : public ::testing::TestWithParam<int> {};

TEST_P(SaProblemSweep, SearchPreservesInvariantsAndImproves) {
  const int devices = GetParam();
  support::Rng rng(1000 + static_cast<std::uint64_t>(devices));
  const auto sys = edge::generate_placement_problem(
      edge::PlacementProblemParams::paper(devices), rng);
  const auto initial = initial_placement(sys);
  ASSERT_NO_THROW(initial.validate(sys));
  ASSERT_TRUE(initial.memory_feasible(sys));

  BalanceEvaluator eval;
  SaConfig sa;
  sa.max_steps = 80;
  sa.seed = 9;
  sa.record_best_placements = true;
  search::SaOptimizer optimizer(eval, sa);
  const auto result = search::run_trials(optimizer, sys, initial, sa.seed, 2);

  // Best placement is valid and feasible.
  EXPECT_NO_THROW(result.best.validate(sys));
  EXPECT_TRUE(result.best.memory_feasible(sys));
  // Balancing objective improves over the greedy initial placement.
  BalanceEvaluator check;
  EXPECT_GE(result.best_objective,
            check.total_throughput(sys, initial) - 1e-9);
  // Recorded best series is monotone and placements align with it.
  ASSERT_EQ(result.best_placements.size(), result.trajectory.size());
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i].best, result.trajectory[i - 1].best);
  }
  // The final recorded placement is the returned best.
  EXPECT_EQ(result.best_placements.back().assignment(),
            result.best.assignment());
}

INSTANTIATE_TEST_SUITE_P(TableViiSizes, SaProblemSweep,
                         ::testing::Values(20, 40, 80, 120));

TEST(SaSweep, MoveSweepOnLargeProblem) {
  support::Rng rng(77);
  const auto sys = edge::generate_placement_problem(
      edge::PlacementProblemParams::paper(80), rng);
  auto current = edge::random_placement(sys, rng);
  SaConfig sa;
  for (int n = 0; n < 200; ++n) {
    edge::Placement candidate;
    ASSERT_TRUE(propose_move(sys, current, rng, sa, candidate));
    ASSERT_TRUE(candidate.distinct_devices_within_chains());
    ASSERT_TRUE(candidate.memory_feasible(sys));
    current = std::move(candidate);
  }
}

}  // namespace
}  // namespace chainnet::optim
