// Helpers shared by the surrogate-optimization benches (Fig. 14, Fig. 15,
// case study, bench_search): building evaluators for Table-VII problems,
// reference re-simulation of decisions ("post-processing" per §VIII-C5),
// and sampling of best-so-far placements along a trajectory. Every search
// bench drives its optimizers through the src/search/ drivers.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "core/surrogate.h"
#include "edge/problem.h"
#include "optim/annealing.h"
#include "optim/evaluator.h"
#include "optim/experiment.h"
#include "optim/initial.h"
#include "search/optimizer.h"

namespace chainnet::bench {

/// Simulation effort used *inside* the baseline search (cheap) — the knob
/// that the paper turns up to a full JMT run per candidate.
inline queueing::SimConfig search_sim_config(const edge::EdgeSystem& sys,
                                             std::uint64_t seed) {
  double max_ia = 0.0;
  for (const auto& chain : sys.chains) {
    max_ia = std::max(max_ia, 1.0 / chain.arrival_rate);
  }
  queueing::SimConfig cfg;
  cfg.horizon = scale().search_eval_arrivals * max_ia;
  cfg.warmup_fraction = 0.1;
  cfg.seed = seed;
  return cfg;
}

/// Reference simulation effort used to *score* final decisions.
inline queueing::SimConfig reference_sim_config(const edge::EdgeSystem& sys,
                                                std::uint64_t seed) {
  auto cfg = search_sim_config(sys, seed);
  cfg.horizon *= scale().reference_eval_arrivals /
                 scale().search_eval_arrivals;
  return cfg;
}

/// Best-so-far placement at time `t` (seconds) within a recorded search.
inline const edge::Placement& placement_at_time(
    const optim::SaResult& result, double t) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    if (result.trajectory[i].seconds <= t) idx = i;
  }
  return result.best_placements.at(idx);
}

/// Best-so-far placement at cumulative step `s`.
inline const edge::Placement& placement_at_step(
    const optim::SaResult& result, int s) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    if (result.trajectory[i].step <= s) idx = i;
  }
  return result.best_placements.at(idx);
}

/// Device counts cycled across generated problems (Table VII).
inline int device_count_for_problem(int index) {
  constexpr int kCounts[] = {20, 40, 80, 120};
  return kCounts[index % 4];
}

}  // namespace chainnet::bench
