#include "optim/experiment.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace chainnet::optim {
namespace {

using chainnet::testing::small_placement;
using chainnet::testing::small_system;

TEST(LossProbability, Eq18) {
  const auto sys = small_system();  // lambda_total = 1.2
  EXPECT_NEAR(loss_probability(sys, 1.2), 0.0, 1e-12);
  EXPECT_NEAR(loss_probability(sys, 0.6), 0.5, 1e-12);
  EXPECT_NEAR(loss_probability(sys, 0.0), 1.0, 1e-12);
  // Simulation noise above lambda_total clamps to 0.
  EXPECT_NEAR(loss_probability(sys, 1.3), 0.0, 1e-12);
}

TEST(RelativeLossReduction, Eq19) {
  const auto sys = small_system();  // lambda_total = 1.2
  // Initial throughput 0.6 (loss 0.5); optimized 0.9 (loss 0.25):
  // eta = (0.9 - 0.6) / (1.2 - 0.6) = 0.5.
  EXPECT_NEAR(relative_loss_reduction(sys, 0.6, 0.9), 0.5, 1e-12);
  // No improvement -> 0; full recovery -> 1.
  EXPECT_NEAR(relative_loss_reduction(sys, 0.6, 0.6), 0.0, 1e-12);
  EXPECT_NEAR(relative_loss_reduction(sys, 0.6, 1.2), 1.0, 1e-12);
  // Lossless initial placement: reduction undefined, reported as 0.
  EXPECT_NEAR(relative_loss_reduction(sys, 1.2, 1.2), 0.0, 1e-12);
  // A reference simulation reading above Lambda clamps to loss 0: eta 1.
  EXPECT_EQ(relative_loss_reduction(sys, 0.6, 1.3), 1.0);
}

TEST(SimulatedTotalThroughput, MatchesDirectSimulation) {
  const auto sys = small_system();
  queueing::SimConfig cfg;
  cfg.horizon = 10000.0;
  cfg.seed = 3;
  const double x =
      simulated_total_throughput(sys, small_placement(), cfg);
  EXPECT_GT(x, 1.0);
  EXPECT_LE(x, 1.25);
}

std::vector<TrajectoryPoint> sample_trajectory() {
  return {
      {0, 0.0, 1.0, 1.0},
      {1, 0.5, 0.8, 1.0},
      {2, 1.0, 1.5, 1.5},
      {3, 2.0, 1.4, 1.5},
      {4, 4.0, 2.0, 2.0},
  };
}

TEST(BestAtTimes, StepFunctionSampling) {
  const auto traj = sample_trajectory();
  const auto values = best_at_times(traj, {0.0, 0.7, 1.0, 3.0, 10.0});
  ASSERT_EQ(values.size(), 5u);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 1.0);
  EXPECT_DOUBLE_EQ(values[2], 1.5);
  EXPECT_DOUBLE_EQ(values[3], 1.5);
  EXPECT_DOUBLE_EQ(values[4], 2.0);
}

TEST(BestAtTimes, BeforeFirstPointUsesFirstValue) {
  const auto values = best_at_times(sample_trajectory(), {-1.0});
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_THROW(best_at_times({}, {0.0}), std::invalid_argument);
}

TEST(BestAtSteps, SamplesByStepIndex) {
  const auto traj = sample_trajectory();
  const auto values = best_at_steps(traj, {0, 2, 3, 100});
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 1.5);
  EXPECT_DOUBLE_EQ(values[2], 1.5);
  EXPECT_DOUBLE_EQ(values[3], 2.0);
}

}  // namespace
}  // namespace chainnet::optim
