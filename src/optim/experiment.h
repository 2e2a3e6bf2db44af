// Experiment harness for the surrogate-optimization study (§VIII-C): the
// loss-probability metrics of eqs. (18)-(19), simulation post-processing of
// search results (the paper reports simulated — not surrogate-estimated —
// loss for GNN decisions), and aggregation of best-so-far trajectories onto
// common time/step grids for the Fig. 14-15 curves.
#pragma once

#include <string>
#include <vector>

#include "edge/model.h"
#include "edge/placement.h"
#include "optim/annealing.h"
#include "queueing/simulator.h"

namespace chainnet::optim {

/// pi_loss(p) of eq. (18) given the objective value X_total(p).
double loss_probability(const edge::EdgeSystem& system,
                        double total_throughput);

/// eta(p) of eq. (19): relative loss reduction of `p` w.r.t. the initial
/// placement, (pi_0 - pi_1) / pi_0 over the clamped loss probabilities, so
/// eta <= 1. Zero when the initial placement is already lossless.
double relative_loss_reduction(const edge::EdgeSystem& system,
                               double initial_throughput,
                               double optimized_throughput);

/// Simulated X_total of a placement (the post-processing step of
/// §VIII-C5: surrogate decisions are re-scored by the simulator).
double simulated_total_throughput(const edge::EdgeSystem& system,
                                  const edge::Placement& placement,
                                  const queueing::SimConfig& config);

/// Samples a trajectory's best-so-far objective at the given time points
/// (seconds since search start). Values before the first recorded point
/// take the first point's value.
std::vector<double> best_at_times(const std::vector<TrajectoryPoint>& traj,
                                  const std::vector<double>& times);

/// Samples a trajectory's best-so-far objective at the given cumulative
/// step indices.
std::vector<double> best_at_steps(const std::vector<TrajectoryPoint>& traj,
                                  const std::vector<int>& steps);

/// One-line diagnostic summary of a search run's counters — acceptance
/// rate always; exchange/resample rates only when the run attempted any
/// (population optimizers). Used by the CLI and the bench harnesses so
/// algorithm comparisons are diagnosable, not just scored.
std::string search_diagnostics(const SaResult& result);

}  // namespace chainnet::optim
