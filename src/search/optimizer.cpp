#include "search/optimizer.h"

#include <exception>
#include <future>
#include <stdexcept>
#include <vector>

#include "search/best_of_b.h"
#include "search/parallel_tempering.h"
#include "search/population.h"
#include "search/population_annealing.h"

namespace chainnet::search {

using edge::EdgeSystem;
using edge::Placement;

optim::SaResult SaOptimizer::run(const EdgeSystem& system,
                                 const Placement& initial,
                                 std::uint64_t seed) {
  optim::SaConfig sa = sa_;
  sa.seed = seed;
  return optim::anneal(system, initial, evaluator_, sa);
}

std::string_view algo_name(Algo algo) noexcept {
  switch (algo) {
    case Algo::kSa:
      return "sa";
    case Algo::kPt:
      return "pt";
    case Algo::kPopAnneal:
      return "popanneal";
    case Algo::kBestOfB:
      return "bestofb";
  }
  return "unknown";
}

bool parse_algo(std::string_view text, Algo& out) noexcept {
  if (text == "sa") {
    out = Algo::kSa;
  } else if (text == "pt") {
    out = Algo::kPt;
  } else if (text == "popanneal") {
    out = Algo::kPopAnneal;
  } else if (text == "bestofb") {
    out = Algo::kBestOfB;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<Optimizer> make_optimizer(Algo algo,
                                          runtime::EvalService& service,
                                          const SearchConfig& config) {
  switch (algo) {
    case Algo::kSa:
      return std::make_unique<SaOptimizer>(service.evaluator_here(),
                                           config.sa);
    case Algo::kPt:
      return std::make_unique<ParallelTempering>(service, config);
    case Algo::kPopAnneal:
      return std::make_unique<PopulationAnnealing>(service, config);
    case Algo::kBestOfB:
      return std::make_unique<BestOfB>(service, config);
  }
  throw std::invalid_argument("make_optimizer: unknown algorithm");
}

optim::SaResult run_trials(Optimizer& optimizer, const EdgeSystem& system,
                           const Placement& initial, std::uint64_t seed,
                           int trials) {
  if (trials <= 0) throw std::invalid_argument("run_trials: trials <= 0");
  optim::SaResult acc;
  const auto seeds = optim::trial_seeds(seed, trials);
  for (const std::uint64_t trial_seed : seeds) {
    optim::merge_trial(acc, optimizer.run(system, initial, trial_seed));
  }
  acc.wall_seconds = acc.seconds;
  return acc;
}

optim::SaResult run_for(Optimizer& optimizer, const EdgeSystem& system,
                        const Placement& initial, std::uint64_t seed,
                        double budget_seconds) {
  optim::SaResult acc;
  support::Rng seeder(seed);
  // Always run at least one trial so a result exists even when the budget
  // is smaller than a single trial's duration.
  do {
    optim::merge_trial(acc, optimizer.run(system, initial, seeder()));
  } while (acc.seconds < budget_seconds);
  acc.wall_seconds = acc.seconds;
  return acc;
}

optim::SaResult run_trials_parallel(const EdgeSystem& system,
                                    const Placement& initial,
                                    runtime::EvalService& service,
                                    const optim::SaConfig& config,
                                    int trials) {
  if (trials <= 0) {
    throw std::invalid_argument("run_trials_parallel: trials <= 0");
  }
  if (service.pool().worker_index_here() >= 0) {
    // Called from inside the pool: waiting on sibling tasks would deadlock
    // a 1-thread pool, so run serially on this worker's evaluator.
    SaOptimizer serial(service.evaluator_here(), config);
    return run_trials(serial, system, initial, config.seed, trials);
  }
  initial.validate(system);
  // LINT:nondet(start stamp feeds the time budget and report seconds; a
  // budget only truncates the loop, every step is seed-deterministic)
  const auto start = detail::Clock::now();
  std::vector<std::future<optim::SaResult>> futures;
  futures.reserve(static_cast<std::size_t>(trials));
  for (const std::uint64_t trial_seed :
       optim::trial_seeds(config.seed, trials)) {
    futures.push_back(service.pool().submit(
        [&system, &initial, &service, config, trial_seed] {
          SaOptimizer trial(service.evaluator_here(), config);
          return trial.run(system, initial, trial_seed);
        }));
  }
  // Merge in submission order — identical to the serial driver — and drain
  // every future before rethrowing any trial's failure.
  optim::SaResult acc;
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      optim::merge_trial(acc, future.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  acc.wall_seconds = detail::seconds_since(start);
  return acc;
}

}  // namespace chainnet::search
