#include "search/population_annealing.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "search/population.h"

namespace chainnet::search {

using edge::EdgeSystem;
using edge::Placement;

PopulationAnnealing::PopulationAnnealing(runtime::EvalService& service,
                                         const SearchConfig& config)
    : service_(service), config_(config) {
  if (config_.population <= 0) {
    throw std::invalid_argument("PopulationAnnealing: population <= 0");
  }
}

optim::SaResult PopulationAnnealing::run(const EdgeSystem& system,
                                         const Placement& initial,
                                         std::uint64_t seed) {
  initial.validate(system);
  // LINT:nondet(start stamp feeds the time budget and report seconds; a
  // budget only truncates the loop, every step is seed-deterministic)
  const auto start = detail::Clock::now();
  const std::uint64_t eval_start = service_.oracle_evaluations();
  const int replicas = config_.population;

  auto population =
      detail::make_population(system, initial, service_, seed, replicas);
  support::Rng resample_rng =
      detail::auxiliary_stream(seed, detail::kResampleSalt);

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

  std::vector<double> temperatures;
  for (int step = 1; step <= config_.sa.max_steps; ++step) {
    temperatures.assign(static_cast<std::size_t>(replicas), tau);
    detail::metropolis_step(system, population, service_, config_.sa,
                            temperatures, result);

    const double tau_next = tau * optim::kCoolingRate;
    if (replicas >= 2 && config_.resample_interval > 0 &&
        step % config_.resample_interval == 0) {
      const auto n = static_cast<std::size_t>(replicas);
      const double dbeta = 1.0 / std::max(tau_next, 1e-12) -
                           1.0 / std::max(tau, 1e-12);
      const double x_max = *std::max_element(population.objectives.begin(),
                                             population.objectives.end());
      // Weights relative to the best replica so the exponentials stay in
      // (0, 1] and never overflow however aggressive the cooling.
      std::vector<double> weights(n);
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        weights[i] = std::exp(dbeta * (population.objectives[i] - x_max));
        total += weights[i];
      }
      // Systematic resampling: one uniform, N evenly spaced pointers.
      const double u = resample_rng.uniform01();
      std::vector<std::size_t> source(n);
      std::size_t i = 0;
      double cumulative = weights[0];
      for (std::size_t j = 0; j < n; ++j) {
        const double pointer =
            (static_cast<double>(j) + u) / static_cast<double>(n) * total;
        while (cumulative < pointer && i + 1 < n) {
          ++i;
          cumulative += weights[i];
        }
        source[j] = i;
      }
      std::vector<Placement> members(n);
      std::vector<double> objectives(n);
      std::uint64_t replaced = 0;
      for (std::size_t j = 0; j < n; ++j) {
        members[j] = population.members[source[j]];
        objectives[j] = population.objectives[source[j]];
        if (source[j] != j) ++replaced;
      }
      population.members = std::move(members);
      population.objectives = std::move(objectives);
      result.counters.resample_events += 1;
      result.counters.resampled_replicas += replaced;
    }

    tau = tau_next;
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
