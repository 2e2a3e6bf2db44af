#include "search/parallel_tempering.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "search/population.h"

namespace chainnet::search {

using edge::EdgeSystem;
using edge::Placement;

ParallelTempering::ParallelTempering(runtime::EvalService& service,
                                     const SearchConfig& config)
    : service_(service), config_(config) {
  if (config_.population <= 0) {
    throw std::invalid_argument("ParallelTempering: population <= 0");
  }
  if (config_.ladder_ratio < 1.0) {
    throw std::invalid_argument("ParallelTempering: ladder_ratio < 1");
  }
}

optim::SaResult ParallelTempering::run(const EdgeSystem& system,
                                       const Placement& initial,
                                       std::uint64_t seed) {
  initial.validate(system);
  // LINT:nondet(start stamp feeds the time budget and report seconds; a
  // budget only truncates the loop, every step is seed-deterministic)
  const auto start = detail::Clock::now();
  const std::uint64_t eval_start = service_.oracle_evaluations();
  const int chains = config_.population;

  auto population =
      detail::make_population(system, initial, service_, seed, chains);
  support::Rng exchange_rng =
      detail::auxiliary_stream(seed, detail::kExchangeSalt);

  double tau = optim::initial_temperature(system);

  optim::SaResult result;
  result.best = population.members[0];
  result.best_objective = population.objectives[0];
  result.trajectory.push_back(
      {0, detail::seconds_since(start), result.best_objective,
       result.best_objective, service_.oracle_evaluations() - eval_start});
  if (config_.sa.record_best_placements) {
    result.best_placements.push_back(result.best);
  }

  std::vector<double> temperatures(static_cast<std::size_t>(chains));
  for (int step = 1; step <= config_.sa.max_steps; ++step) {
    for (int k = 0; k < chains; ++k) {
      const double exponent =
          chains == 1 ? 0.0
                      : static_cast<double>(k) /
                            static_cast<double>(chains - 1);
      temperatures[static_cast<std::size_t>(k)] =
          tau * std::pow(config_.ladder_ratio, exponent);
    }
    detail::metropolis_step(system, population, service_, config_.sa,
                            temperatures, result);

    if (chains >= 2 && config_.exchange_interval > 0 &&
        step % config_.exchange_interval == 0) {
      // Even/odd alternation covers every adjacent pair over two sweeps
      // while keeping each sweep's pairs disjoint (a swap cannot cascade
      // within one sweep), so the schedule is deterministic by step index.
      const int parity = (step / config_.exchange_interval) % 2;
      for (int k = parity; k + 1 < chains; k += 2) {
        const auto lo = static_cast<std::size_t>(k);
        const auto hi = lo + 1;
        result.counters.exchange_attempts += 1;
        const double arg =
            (1.0 / std::max(temperatures[lo], 1e-12) -
             1.0 / std::max(temperatures[hi], 1e-12)) *
            (population.objectives[hi] - population.objectives[lo]);
        const bool swap_replicas =
            arg > 0.0 || exchange_rng.uniform01() < std::exp(arg);
        if (swap_replicas) {
          result.counters.exchange_accepts += 1;
          // Streams stay with the temperature slot: only the content moves.
          std::swap(population.members[lo], population.members[hi]);
          std::swap(population.objectives[lo], population.objectives[hi]);
        }
      }
    }

    tau *= optim::kCoolingRate;
    const auto leader =
        static_cast<std::size_t>(population.best_member());
    result.trajectory.push_back(
        {step, detail::seconds_since(start), population.objectives[leader],
         result.best_objective, service_.oracle_evaluations() - eval_start});
    if (config_.sa.record_best_placements) {
      result.best_placements.push_back(result.best);
    }
  }

  result.evaluations = service_.oracle_evaluations() - eval_start;
  result.seconds = detail::seconds_since(start);
  result.wall_seconds = result.seconds;
  result.trials = 1;
  return result;
}

}  // namespace chainnet::search
