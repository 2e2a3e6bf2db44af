#include "optim/annealing.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace chainnet::optim {

using edge::EdgeSystem;
using edge::Placement;
using support::Rng;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  // LINT:nondet(elapsed-seconds helper feeds time budgets and reports; a
  // budget only truncates the loop, every step is seed-deterministic)
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Moves fragment (chain, frag) of `p` to `to_device`, swapping back a
/// random subset of foreign fragments already on `to_device` to the vacated
/// device. Returns false when the swap would break the distinct-device
/// invariant or memory feasibility.
bool try_move(const EdgeSystem& system, Placement& p, int chain, int frag,
              int to_device, Rng& rng) {
  const int from_device = p.device_of(chain, frag);
  p.assign(chain, frag, to_device);

  // Foreign fragments already on to_device (excluding the one just moved).
  auto foreign = p.fragments_on(to_device);
  std::erase_if(foreign, [&](const std::pair<int, int>& f) {
    return f.first == chain && f.second == frag;
  });
  if (!foreign.empty()) {
    // Choose b in [0, F] fragments to swap back to from_device.
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(foreign.size())));
    // Partial shuffle to pick b distinct fragments.
    for (std::size_t i = 0; i < b; ++i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(i),
          static_cast<std::int64_t>(foreign.size()) - 1));
      std::swap(foreign[i], foreign[j]);
    }
    for (std::size_t i = 0; i < b; ++i) {
      const auto [ci, fj] = foreign[i];
      // The displaced fragment may only go to from_device if its chain has
      // no other fragment there.
      for (int jj = 0; jj < p.chain_length(ci); ++jj) {
        if (jj != fj && p.device_of(ci, jj) == from_device) return false;
      }
      p.assign(ci, fj, from_device);
    }
  }
  return p.memory_feasible(system);
}

}  // namespace

double initial_temperature(const EdgeSystem& system) {
  return 0.05 * system.total_arrival_rate() + 1e-9;
}

bool metropolis_accept(double delta, double temperature, Rng& rng) {
  return delta > 0.0 ||
         rng.uniform01() < std::exp(delta / std::max(temperature, 1e-12));
}

void SearchCounters::merge(const SearchCounters& other) noexcept {
  proposals = saturating_add(proposals, other.proposals);
  proposal_failures =
      saturating_add(proposal_failures, other.proposal_failures);
  accepts = saturating_add(accepts, other.accepts);
  exchange_attempts =
      saturating_add(exchange_attempts, other.exchange_attempts);
  exchange_accepts = saturating_add(exchange_accepts, other.exchange_accepts);
  resample_events = saturating_add(resample_events, other.resample_events);
  resampled_replicas =
      saturating_add(resampled_replicas, other.resampled_replicas);
}

bool propose_move(const EdgeSystem& system, const Placement& current,
                  Rng& rng, const SaConfig& config, Placement& out) {
  for (int attempt = 0; attempt < config.max_move_attempts; ++attempt) {
    Placement candidate = current;
    const int chain = static_cast<int>(
        rng.uniform_int(0, system.num_chains() - 1));
    const int frag = static_cast<int>(
        rng.uniform_int(0, system.chains[chain].length() - 1));
    const int from = candidate.device_of(chain, frag);
    // Eligible targets: any other device with no fragment of this chain.
    std::vector<int> eligible;
    eligible.reserve(static_cast<std::size_t>(system.num_devices()));
    for (int k = 0; k < system.num_devices(); ++k) {
      if (k == from) continue;
      bool same_chain = false;
      for (int jj = 0; jj < candidate.chain_length(chain); ++jj) {
        if (candidate.device_of(chain, jj) == k) {
          same_chain = true;
          break;
        }
      }
      if (!same_chain) eligible.push_back(k);
    }
    if (eligible.empty()) continue;
    const int to = eligible[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(eligible.size()) - 1))];
    if (try_move(system, candidate, chain, frag, to, rng)) {
      out = std::move(candidate);
      return true;
    }
  }
  return false;
}

SaResult anneal(const EdgeSystem& system, const Placement& initial,
                PlacementEvaluator& evaluator, const SaConfig& config) {
  initial.validate(system);
  // LINT:nondet(start stamp feeds the time budget and report seconds; a
  // budget only truncates the loop, every step is seed-deterministic)
  const auto start = Clock::now();
  const std::uint64_t eval_start = evaluator.evaluations();

  Rng rng(config.seed);
  double temperature = initial_temperature(system);

  Placement current = initial;
  double current_obj = evaluator.total_throughput(system, current);
  SaResult result;
  result.best = current;
  result.best_objective = current_obj;
  result.trajectory.push_back({0, seconds_since(start), current_obj,
                               current_obj,
                               evaluator.evaluations() - eval_start});
  if (config.record_best_placements) result.best_placements.push_back(current);

  for (int step = 1; step <= config.max_steps; ++step) {
    Placement candidate;
    if (propose_move(system, current, rng, config, candidate)) {
      result.counters.proposals += 1;
      const double candidate_obj =
          evaluator.total_throughput(system, candidate);
      if (metropolis_accept(candidate_obj - current_obj, temperature, rng)) {
        result.counters.accepts += 1;
        current = std::move(candidate);
        current_obj = candidate_obj;
        if (current_obj > result.best_objective) {
          result.best = current;
          result.best_objective = current_obj;
        }
      }
    } else {
      result.counters.proposal_failures += 1;
    }
    temperature *= kCoolingRate;
    result.trajectory.push_back({step, seconds_since(start), current_obj,
                                 result.best_objective,
                                 evaluator.evaluations() - eval_start});
    if (config.record_best_placements) {
      result.best_placements.push_back(result.best);
    }
  }

  result.evaluations = evaluator.evaluations() - eval_start;
  result.seconds = seconds_since(start);
  result.wall_seconds = result.seconds;
  result.trials = 1;
  return result;
}

void merge_trial(SaResult& acc, const SaResult& trial) {
  const int step_offset =
      acc.trajectory.empty() ? 0 : acc.trajectory.back().step;
  const double time_offset = acc.seconds;
  const std::uint64_t eval_offset = acc.evaluations;
  double best = acc.trials == 0 ? trial.trajectory.front().best
                                : acc.best_objective;
  // Skip the duplicate step-0 point on trials after the first.
  const std::size_t first = acc.trials == 0 ? 0 : 1;
  const bool track_placements = !trial.best_placements.empty();
  edge::Placement best_placement =
      acc.trials == 0 || acc.best_placements.empty()
          ? (track_placements ? trial.best_placements.front()
                              : edge::Placement())
          : acc.best_placements.back();
  double best_placement_obj = acc.trials == 0
                                  ? -std::numeric_limits<double>::infinity()
                                  : acc.best_objective;
  for (std::size_t i = first; i < trial.trajectory.size(); ++i) {
    TrajectoryPoint merged = trial.trajectory[i];
    merged.step += step_offset;
    merged.seconds += time_offset;
    merged.evals = saturating_add(merged.evals, eval_offset);
    best = std::max(best, merged.best);
    merged.best = best;
    acc.trajectory.push_back(merged);
    if (track_placements) {
      if (trial.trajectory[i].best > best_placement_obj) {
        best_placement = trial.best_placements[i];
        best_placement_obj = trial.trajectory[i].best;
      }
      acc.best_placements.push_back(best_placement);
    }
  }
  if (acc.trials == 0 || trial.best_objective > acc.best_objective) {
    acc.best = trial.best;
    acc.best_objective = trial.best_objective;
  }
  acc.evaluations = saturating_add(acc.evaluations, trial.evaluations);
  acc.seconds += trial.seconds;
  acc.trials += 1;
  acc.counters.merge(trial.counters);
}

std::vector<std::uint64_t> trial_seeds(std::uint64_t seed, int trials) {
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(trials));
  Rng seeder(seed);
  for (auto& s : seeds) s = seeder();
  return seeds;
}

}  // namespace chainnet::optim
