// Batch-native population search on the compiled batch engine.
//
// Every optimizer here shares one contract:
//  - batched by construction: all oracle traffic goes through
//    runtime::EvalService::evaluate_batch at a constant width, so the
//    surrogate's plan cache compiles at most two plans for a whole run and
//    the batch engine amortizes every forward;
//  - reproducible: a fixed seed yields bit-for-bit identical trajectories
//    regardless of the service's thread count (all RNG draws happen on the
//    driver thread; the oracle is used purely as a placement -> value map);
//  - SA-anchored: a population of 1 replays serial optim::anneal's random
//    stream exactly, so every algorithm degenerates to the paper's SA
//    bit-for-bit and comparisons isolate the population mechanism itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "edge/model.h"
#include "edge/placement.h"
#include "optim/annealing.h"
#include "runtime/eval_service.h"

namespace chainnet::search {

/// Knobs of the search subsystem. `sa` carries what every algorithm shares
/// (steps, seed, move attempts; the schedule itself is optim's tau_0 and
/// gamma); the rest parameterize the population mechanisms.
struct SearchConfig {
  optim::SaConfig sa;
  /// Population width: tempering chains (pt), replicas (popanneal), or the
  /// neighbor-pool size B (bestofb). 1 reduces every optimizer to serial
  /// SA bit-for-bit.
  int population = 16;
  /// pt: hottest/coldest temperature ratio of the geometric ladder. Chain
  /// 0 runs the SA schedule tau(step); chain k runs
  /// tau(step) * ladder_ratio^(k/(K-1)).
  double ladder_ratio = 24.0;
  /// pt: steps between replica-exchange sweeps (deterministic even/odd
  /// pairing, alternating each sweep). <= 0 disables exchanges.
  int exchange_interval = 1;
  /// popanneal: steps between resampling events (systematic resampling on
  /// the annealing weights). <= 0 disables resampling.
  int resample_interval = 5;
};

/// Common interface: one trial from `initial` under `seed`. Results reuse
/// optim::SaResult wholesale — trajectory (step/seconds/evals axes), best
/// placement, and the acceptance/exchange/resample counters — so the
/// fig14/fig15 analysis and the CLI treat every algorithm uniformly.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Stable algorithm tag ("sa", "pt", "popanneal", "bestofb").
  virtual std::string_view name() const noexcept = 0;
  /// Runs one trial from `initial`; `seed` overrides the config's seed so
  /// multi-trial drivers can restart with fresh streams.
  virtual optim::SaResult run(const edge::EdgeSystem& system,
                              const edge::Placement& initial,
                              std::uint64_t seed) = 0;
};

/// The paper's serial SA (optim::anneal) on a caller-owned evaluator: the
/// baseline every population algorithm is compared against, and the one
/// optimizer that scores candidates one at a time.
class SaOptimizer final : public Optimizer {
 public:
  SaOptimizer(optim::PlacementEvaluator& evaluator, const optim::SaConfig& sa)
      : evaluator_(evaluator), sa_(sa) {}

  std::string_view name() const noexcept override { return "sa"; }
  optim::SaResult run(const edge::EdgeSystem& system,
                      const edge::Placement& initial,
                      std::uint64_t seed) override;

 private:
  optim::PlacementEvaluator& evaluator_;
  optim::SaConfig sa_;
};

enum class Algo { kSa, kPt, kPopAnneal, kBestOfB };

std::string_view algo_name(Algo algo) noexcept;

/// Parses the CLI spelling ("sa" | "pt" | "popanneal" | "bestofb").
/// Returns false (out untouched) on anything else.
bool parse_algo(std::string_view text, Algo& out) noexcept;

/// Builds the named optimizer on `service`. The service must outlive the
/// optimizer. kSa scores on the evaluator of the calling thread
/// (EvalService::evaluator_here), so its values match the batched
/// optimizers' exactly. Throws std::invalid_argument on nonsensical configs
/// (population <= 0, ladder_ratio < 1).
std::unique_ptr<Optimizer> make_optimizer(Algo algo,
                                          runtime::EvalService& service,
                                          const SearchConfig& config);

/// Multi-trial driver: runs `trials` independent trials, each restarting
/// from `initial` with the next seed of optim::trial_seeds(seed, trials)
/// (Fig. 14a), merged in order by optim::merge_trial.
optim::SaResult run_trials(Optimizer& optimizer,
                           const edge::EdgeSystem& system,
                           const edge::Placement& initial, std::uint64_t seed,
                           int trials);

/// Time-budget driver (fixed-time comparison, §VIII-C4a): keeps starting
/// fresh trials until `budget_seconds` of accumulated trial time is
/// exhausted (always runs at least one).
optim::SaResult run_for(Optimizer& optimizer, const edge::EdgeSystem& system,
                        const edge::Placement& initial, std::uint64_t seed,
                        double budget_seconds);

/// run_trials for serial SA with the trials fanned out across
/// service.pool(): same per-trial seeds (from config.seed) and merge order,
/// and each trial runs entirely on one worker against that worker's private
/// evaluator. With a 1-thread pool and a value-deterministic oracle this
/// reproduces run_trials on an SaOptimizer bit-for-bit (same best
/// placement, objective, and evaluation count). Must be called from outside
/// the pool; on a pool worker it degrades to the serial driver on that
/// worker's evaluator rather than deadlocking.
optim::SaResult run_trials_parallel(const edge::EdgeSystem& system,
                                    const edge::Placement& initial,
                                    runtime::EvalService& service,
                                    const optim::SaConfig& config,
                                    int trials);

}  // namespace chainnet::search
