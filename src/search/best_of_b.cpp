#include "search/best_of_b.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "search/moves.h"
#include "search/population.h"

namespace chainnet::search {

using edge::EdgeSystem;
using edge::Placement;

BestOfB::BestOfB(runtime::EvalService& service, const SearchConfig& config)
    : service_(service), config_(config) {
  if (config_.population <= 0) {
    throw std::invalid_argument("BestOfB: population <= 0");
  }
}

optim::SaResult BestOfB::run(const EdgeSystem& system,
                             const Placement& initial, std::uint64_t seed) {
  initial.validate(system);
  // LINT:nondet(start stamp feeds the time budget and report seconds; a
  // budget only truncates the loop, every step is seed-deterministic)
  const auto start = detail::Clock::now();
  const std::uint64_t eval_start = service_.oracle_evaluations();
  const int pool = config_.population;
  const auto width = static_cast<std::size_t>(pool);

  // Chain stream 0 == Rng(seed), serial SA's stream (the B = 1 anchor).
  support::Rng rng = detail::chain_stream(seed, 0);
  double temperature = optim::initial_temperature(system);

  // Score the initial placement as a width-B batch so the whole run uses
  // one batch width (plan discipline); slot 0 carries the value.
  Placement current = initial;
  std::vector<Placement> batch(width, initial);
  double current_obj = service_.evaluate_batch(system, batch).front();

  optim::SaResult result;
  result.best = current;
  result.best_objective = current_obj;
  result.trajectory.push_back(
      {0, detail::seconds_since(start), current_obj, current_obj,
       service_.oracle_evaluations() - eval_start});
  if (config_.sa.record_best_placements) {
    result.best_placements.push_back(current);
  }

  std::vector<char> real(width);
  for (int step = 1; step <= config_.sa.max_steps; ++step) {
    int real_count = 0;
    for (int j = 0; j < pool; ++j) {
      const auto slot = static_cast<std::size_t>(j);
      if (propose_kind(move_kind_for_slot(j), system, current, rng,
                       config_.sa, batch[slot])) {
        real[slot] = 1;
        ++real_count;
      } else {
        real[slot] = 0;
        result.counters.proposal_failures += 1;
        batch[slot] = current;  // pad: keep the batch width fixed at B
      }
    }
    result.counters.proposals += static_cast<std::uint64_t>(real_count);
    if (real_count > 0) {
      const auto objectives = service_.evaluate_batch(system, batch);
      int best_j = -1;
      for (int j = 0; j < pool; ++j) {
        const auto slot = static_cast<std::size_t>(j);
        if (!real[slot]) continue;
        if (best_j < 0 ||
            objectives[slot] > objectives[static_cast<std::size_t>(best_j)]) {
          best_j = j;
        }
      }
      const auto best_slot = static_cast<std::size_t>(best_j);
      if (optim::metropolis_accept(objectives[best_slot] - current_obj,
                                   temperature, rng)) {
        result.counters.accepts += 1;
        current = std::move(batch[best_slot]);
        current_obj = objectives[best_slot];
        if (current_obj > result.best_objective) {
          result.best = current;
          result.best_objective = current_obj;
        }
      }
    }
    temperature *= optim::kCoolingRate;
    result.trajectory.push_back(
        {step, detail::seconds_since(start), current_obj,
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
