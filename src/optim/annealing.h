// Simulated-annealing placement search (§VII): the neighborhood move
// (fragment relocation with optional swap-back of displaced fragments),
// Metropolis acceptance on total throughput, the geometric cooling
// schedule, and one trial of the paper's SA. The drivers that run many
// trials or many candidates per step live in src/search/.
#pragma once

#include <cstdint>
#include <vector>

#include "edge/model.h"
#include "edge/placement.h"
#include "optim/evaluator.h"
#include "support/rng.h"

namespace chainnet::optim {

/// gamma of the geometric cooling schedule tau_{s+1} = gamma * tau_s
/// (§VIII-C2); every search algorithm anneals on it.
inline constexpr double kCoolingRate = 0.9;

/// tau_0: a fraction of the total offered load, so the initial acceptance
/// probability of moderately worse moves is meaningful across problems of
/// very different throughput scales. Every search algorithm starts its
/// schedule here.
double initial_temperature(const edge::EdgeSystem& system);

/// The Metropolis test: accepts any improvement without a draw, otherwise
/// draws once from `rng` and accepts with probability exp(delta / tau).
bool metropolis_accept(double delta, double temperature, support::Rng& rng);

struct SaConfig {
  int max_steps = 100;           ///< search steps per trial (§VIII-C2)
  std::uint64_t seed = 1;
  /// Candidate placements must satisfy the memory constraint of eq. (2);
  /// the move generator redraws up to this many times per step.
  int max_move_attempts = 50;
  /// When set, SaResult::best_placements records the best decision at every
  /// trajectory point (used to post-simulate the Fig. 14c-d curves).
  bool record_best_placements = false;
};

/// One recorded point of a search trajectory (drives Fig. 14-15 curves).
struct TrajectoryPoint {
  int step = 0;                ///< cumulative step index across trials
  double seconds = 0.0;        ///< wall-clock since the search began
  double current = 0.0;        ///< objective of the current decision
  double best = 0.0;           ///< best objective seen so far
  /// Cumulative oracle evaluations when this point was recorded (the
  /// placements-to-quality axis of the bench_search harness).
  std::uint64_t evals = 0;
};

/// Diagnostic counters every search driver fills in, so algorithm
/// comparisons (bench_search, the CLI) can explain *why* a run scored the
/// way it did — a PT run with a frozen exchange rate or an SA run with a
/// near-zero late acceptance rate is diagnosable from these alone.
/// Population-only counters (exchanges, resamples) stay zero for plain SA.
struct SearchCounters {
  std::uint64_t proposals = 0;         ///< successfully generated neighbors
  std::uint64_t proposal_failures = 0; ///< steps/slots with no feasible move
  std::uint64_t accepts = 0;           ///< Metropolis acceptances
  std::uint64_t exchange_attempts = 0; ///< PT replica-exchange attempts
  std::uint64_t exchange_accepts = 0;  ///< PT replica-exchange swaps
  std::uint64_t resample_events = 0;   ///< population-annealing resamples
  std::uint64_t resampled_replicas = 0;///< replicas replaced by resampling

  /// Fraction of generated proposals that were accepted.
  double acceptance_rate() const noexcept {
    return proposals == 0
               ? 0.0
               : static_cast<double>(accepts) / static_cast<double>(proposals);
  }
  /// Fraction of attempted replica exchanges that swapped.
  double exchange_rate() const noexcept {
    return exchange_attempts == 0
               ? 0.0
               : static_cast<double>(exchange_accepts) /
                     static_cast<double>(exchange_attempts);
  }
  /// Saturating element-wise accumulation (multi-trial merges).
  void merge(const SearchCounters& other) noexcept;
};

struct SaResult {
  edge::Placement best;
  double best_objective = 0.0;
  std::vector<TrajectoryPoint> trajectory;
  /// Parallel to trajectory when SaConfig::record_best_placements is set.
  std::vector<edge::Placement> best_placements;
  std::uint64_t evaluations = 0;
  /// Sum of per-trial durations (the serial-equivalent time axis; the
  /// trajectory's `seconds` fields share this axis across every driver so
  /// parallel and serial runs stay directly comparable).
  double seconds = 0.0;
  /// Actual elapsed wall-clock of the driver call. Equals `seconds` for the
  /// serial drivers; smaller under parallel execution.
  double wall_seconds = 0.0;
  int trials = 0;
  /// Acceptance/exchange/resample accounting (summed across trials).
  SearchCounters counters;
};

/// Merges `trial` into `acc`, offsetting the step/time/eval axes so the
/// combined trajectory is monotone in all three; the best-so-far series is
/// recomputed across trials and counters are summed. Used by the
/// multi-trial drivers in src/search/.
void merge_trial(SaResult& acc, const SaResult& trial);

/// The per-trial seed sequence every multi-trial driver draws from
/// `seed` (trial t gets the t-th output of a fresh Rng(seed)), exposed so
/// serial and parallel drivers stay bit-compatible.
std::vector<std::uint64_t> trial_seeds(std::uint64_t seed, int trials);

/// Generates one candidate neighbor of `current` per the paper's move:
/// pick a random (chain, fragment), move it to a random other device not
/// already hosting that chain, and swap back a random subset of the
/// displaced device's foreign fragments. Returns false if no feasible move
/// was found within config.max_move_attempts.
bool propose_move(const edge::EdgeSystem& system,
                  const edge::Placement& current, support::Rng& rng,
                  const SaConfig& config, edge::Placement& out);

/// Runs one SA trial from `initial`.
SaResult anneal(const edge::EdgeSystem& system, const edge::Placement& initial,
                PlacementEvaluator& evaluator, const SaConfig& config);

}  // namespace chainnet::optim
