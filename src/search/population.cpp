#include "search/population.h"

#include <stdexcept>
#include <utility>

namespace chainnet::search::detail {

using edge::EdgeSystem;
using edge::Placement;
using support::Rng;

Rng chain_stream(std::uint64_t seed, int chain) {
  if (chain == 0) return Rng(seed);
  return Rng(seed).split(static_cast<std::uint64_t>(chain));
}

Rng auxiliary_stream(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed).split(salt);
}

int Population::best_member() const noexcept {
  int best = 0;
  for (int k = 1; k < size(); ++k) {
    if (objectives[static_cast<std::size_t>(k)] >
        objectives[static_cast<std::size_t>(best)]) {
      best = k;
    }
  }
  return best;
}

Population make_population(const EdgeSystem& system, const Placement& initial,
                           runtime::EvalService& service, std::uint64_t seed,
                           int size) {
  if (size <= 0) throw std::invalid_argument("make_population: size <= 0");
  Population population;
  population.members.assign(static_cast<std::size_t>(size), initial);
  population.streams.reserve(static_cast<std::size_t>(size));
  for (int k = 0; k < size; ++k) {
    population.streams.push_back(chain_stream(seed, k));
  }
  population.objectives =
      service.evaluate_batch(system, population.members);
  return population;
}

void metropolis_step(const EdgeSystem& system, Population& population,
                     runtime::EvalService& service,
                     const optim::SaConfig& config,
                     std::span<const double> temperatures,
                     optim::SaResult& result) {
  const int n = population.size();
  std::vector<Placement> batch(static_cast<std::size_t>(n));
  std::vector<char> real(static_cast<std::size_t>(n), 0);
  int real_count = 0;
  for (int k = 0; k < n; ++k) {
    const auto slot = static_cast<std::size_t>(k);
    if (optim::propose_move(system, population.members[slot],
                            population.streams[slot], config, batch[slot])) {
      real[slot] = 1;
      ++real_count;
    } else {
      result.counters.proposal_failures += 1;
      batch[slot] = population.members[slot];  // pad: keep batch width fixed
    }
  }
  result.counters.proposals += static_cast<std::uint64_t>(real_count);
  if (real_count == 0) return;

  const auto objectives = service.evaluate_batch(system, batch);
  for (int k = 0; k < n; ++k) {
    const auto slot = static_cast<std::size_t>(k);
    if (!real[slot]) continue;
    if (!optim::metropolis_accept(
            objectives[slot] - population.objectives[slot],
            temperatures[slot], population.streams[slot])) {
      continue;
    }
    result.counters.accepts += 1;
    population.members[slot] = std::move(batch[slot]);
    population.objectives[slot] = objectives[slot];
    if (objectives[slot] > result.best_objective) {
      result.best = population.members[slot];
      result.best_objective = objectives[slot];
    }
  }
}

}  // namespace chainnet::search::detail
