// Fixed-wall-clock shoot-out of the src/search/ population optimizers
// against single-chain parallel SA (the fig14 protocol generalized to an
// algorithm matrix): every algorithm gets the SAME wall-clock budget and
// thread count on the SAME systems (the §VIII-D case study plus Table-VII
// problems), restarts trials until the budget is exhausted, and reports
//   - objective at budget (best total throughput found),
//   - time / oracle evaluations to reach the baseline's final quality
//     (the placements-to-target axis, from TrajectoryPoint::evals),
//   - acceptance / exchange / resample diagnostics,
//   - batch-discipline evidence (batched fraction, compiled-plan count).
//
// The headline criterion mirrors ROADMAP's open item: a population
// algorithm should reach parallel SA's final objective in <= 0.5x the
// wall-clock, or beat its objective outright at the full budget.
//
// Environment knobs:
//   CHAINNET_SEARCH_SECONDS   wall-clock budget per system (default 2.0)
//   CHAINNET_SEARCH_THREADS   worker threads for every algorithm (def. 4)
//   CHAINNET_SEARCH_POP       population / pool width K (default 16)
//   CHAINNET_SEARCH_ORACLE    surrogate | approx (default surrogate)
//   CHAINNET_SEARCH_PROBLEMS  Table-VII problems beside the case study
//                             (default 2)
//   CHAINNET_SEARCH_OUT       output JSON path (default BENCH_search.json)
//   CHAINNET_DTYPE            numeric tier for the surrogate oracle
//                             (f64 | f32 | bf16, default f64)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/chainnet.h"
#include "gnn/plan.h"
#include "runtime/thread_pool.h"
#include "search_common.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/table.h"
#include "tensor/dtype.h"
#include "tensor/serialize.h"

namespace {

using namespace chainnet;
using Clock = std::chrono::steady_clock;

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value ? std::atof(value) : fallback;
}

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One benched system plus its protocol-wide constants.
struct Problem {
  std::string name;
  edge::EdgeSystem system;
};

/// Everything the report needs about one algorithm's budgeted run.
struct Outcome {
  std::string algo;
  optim::SaResult result;
  double wall = 0.0;
  double batched_fraction = 0.0;
  std::uint64_t plan_compiles = 0;
};

/// Restarts `round` (one trial / trial-group per call, seeded from one
/// seeder) until `budget_seconds` of wall-clock elapses; always runs at
/// least one round (search::run_for's contract, on wall-clock rather than
/// summed trial time).
template <typename Round>
optim::SaResult run_budgeted(double budget_seconds, std::uint64_t seed,
                             Round round) {
  const auto start = Clock::now();
  optim::SaResult acc;
  support::Rng seeder(seed);
  do {
    optim::merge_trial(acc, round(seeder()));
  } while (seconds_since(start) < budget_seconds);
  acc.wall_seconds = seconds_since(start);
  return acc;
}

/// First trajectory point whose best-so-far reaches `target`; returns
/// false when the run never got there.
bool first_at_target(const optim::SaResult& result, double target,
                     double* seconds, std::uint64_t* evals) {
  for (const auto& point : result.trajectory) {
    if (point.best >= target) {
      *seconds = point.seconds;
      *evals = point.evals;
      return true;
    }
  }
  return false;
}

}  // namespace

int main() {
  bench::print_header("search: population algorithms vs parallel SA");
  const double budget = env_double("CHAINNET_SEARCH_SECONDS", 2.0);
  const int threads = std::max(1, env_int("CHAINNET_SEARCH_THREADS", 4));
  const int population = std::max(1, env_int("CHAINNET_SEARCH_POP", 16));
  const int extra_problems =
      std::max(0, env_int("CHAINNET_SEARCH_PROBLEMS", 2));
  const char* oracle_env = std::getenv("CHAINNET_SEARCH_ORACLE");
  const std::string oracle = oracle_env ? oracle_env : "surrogate";
  const char* out_env = std::getenv("CHAINNET_SEARCH_OUT");
  const std::string out_path = out_env ? out_env : "BENCH_search.json";

  // Oracle factory: one private evaluator per worker (the EvalService
  // contract). The surrogate path clones the trained chainnet_search model
  // from the bench cache per worker, mirroring the CLI's --weights stack.
  runtime::EvalService::EvaluatorFactory factory;
  auto models =
      std::make_shared<std::vector<std::unique_ptr<core::ChainNet>>>();
  if (oracle == "approx") {
    factory = [](support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
      return std::make_unique<optim::ApproximationEvaluator>();
    };
  } else if (oracle == "surrogate") {
    bench::model("chainnet_search");  // train once / load from cache
    const std::string weights =
        bench::cache_dir() + "/model_chainnet_search.bin";
    core::ChainNetConfig cfg;
    cfg.hidden = bench::scale().hidden;
    cfg.iterations = bench::scale().chainnet_iterations;
    cfg.dtype = tensor::dtype_from_env(tensor::DType::kF64);
    factory = [models, cfg, weights](
                  support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
      support::Rng init_rng(1);
      auto model = std::make_unique<core::ChainNet>(cfg, init_rng);
      tensor::load_parameters(*model, weights);
      models->push_back(std::move(model));
      return std::make_unique<optim::SurrogateEvaluator>(
          core::Surrogate(*models->back()));
    };
  } else {
    std::cerr << "unknown CHAINNET_SEARCH_ORACLE '" << oracle << "'\n";
    return 1;
  }

  std::vector<Problem> problems;
  problems.push_back({"casestudy", edge::case_study_system()});
  support::Rng master(20260808);
  for (int p = 0; p < extra_problems; ++p) {
    const int devices = bench::device_count_for_problem(p);
    problems.push_back(
        {"tableVII_d" + std::to_string(devices),
         edge::generate_placement_problem(
             edge::PlacementProblemParams::paper(devices), master)});
  }

  optim::SaConfig sa;
  sa.max_steps = bench::scale().sa_steps;

  const std::vector<search::Algo> algos = {
      search::Algo::kPt, search::Algo::kPopAnneal, search::Algo::kBestOfB};

  support::Json::Array system_docs;
  support::Table table({"system", "algo", "best", "wall (s)", "evals",
                        "to-target (s)", "batched", "criterion"});
  std::vector<int> criterion_hits(algos.size(), 0);

  for (const auto& problem : problems) {
    const auto initial = optim::initial_placement(problem.system);

    // Baseline: single-chain parallel SA — `threads` independent serial SA
    // trials per round, fanned across the pool, restarted until budget.
    Outcome baseline;
    baseline.algo = "sa_parallel";
    {
      runtime::ThreadPool pool(threads);
      runtime::EvalService service(pool, factory, 1);
      baseline.result = run_budgeted(
          budget, 12345, [&](std::uint64_t round_seed) {
            optim::SaConfig round_sa = sa;
            round_sa.seed = round_seed;
            return search::run_trials_parallel(problem.system, initial,
                                               service, round_sa, threads);
          });
      baseline.wall = baseline.result.wall_seconds;
      baseline.batched_fraction = service.stats().batched_fraction();
      baseline.plan_compiles = service.plan_cache()->stats().compiles;
    }
    const double target = baseline.result.best_objective;
    table.add_row({problem.name, baseline.algo,
                   support::Table::num(target, 4),
                   support::Table::num(baseline.wall, 2),
                   std::to_string(baseline.result.evaluations), "-",
                   support::Table::num(baseline.batched_fraction, 2),
                   "baseline"});

    support::Json::Array algo_docs;
    for (std::size_t a = 0; a < algos.size(); ++a) {
      Outcome outcome;
      outcome.algo = std::string(search::algo_name(algos[a]));
      {
        runtime::ThreadPool pool(threads);
        runtime::EvalService service(pool, factory, 1);
        search::SearchConfig cfg;
        cfg.sa = sa;
        cfg.population = population;
        const auto optimizer =
            search::make_optimizer(algos[a], service, cfg);
        outcome.result = run_budgeted(
            budget, 12345, [&](std::uint64_t round_seed) {
              return optimizer->run(problem.system, initial, round_seed);
            });
        outcome.wall = outcome.result.wall_seconds;
        outcome.batched_fraction = service.stats().batched_fraction();
        outcome.plan_compiles = service.plan_cache()->stats().compiles;
      }

      // Population trials run single-driver (their trajectory time axis is
      // wall-clock), so seconds-to-target is directly comparable to the
      // baseline's wall.
      double to_target_seconds = 0.0;
      std::uint64_t to_target_evals = 0;
      const bool reached = first_at_target(outcome.result, target,
                                           &to_target_seconds,
                                           &to_target_evals);
      const bool better_at_budget =
          outcome.result.best_objective > target;
      const bool criterion =
          better_at_budget ||
          (reached && to_target_seconds <= 0.5 * baseline.wall);
      if (criterion) ++criterion_hits[a];

      table.add_row(
          {problem.name, outcome.algo,
           support::Table::num(outcome.result.best_objective, 4),
           support::Table::num(outcome.wall, 2),
           std::to_string(outcome.result.evaluations),
           reached ? support::Table::num(to_target_seconds, 3) : "never",
           support::Table::num(outcome.batched_fraction, 2),
           criterion ? "met" : "missed"});
      std::cout << problem.name << "/" << outcome.algo << ": "
                << optim::search_diagnostics(outcome.result) << "\n";

      support::Json::Object doc;
      doc["algo"] = outcome.algo;
      doc["best_objective"] = outcome.result.best_objective;
      doc["wall_seconds"] = outcome.wall;
      doc["trials"] = outcome.result.trials;
      doc["evaluations"] =
          static_cast<double>(outcome.result.evaluations);
      doc["reached_target"] = reached;
      if (reached) {
        doc["seconds_to_target"] = to_target_seconds;
        doc["evals_to_target"] = static_cast<double>(to_target_evals);
        doc["speedup_to_target"] =
            to_target_seconds > 0.0 ? baseline.wall / to_target_seconds
                                    : 0.0;
      }
      doc["better_at_budget"] = better_at_budget;
      doc["criterion_met"] = criterion;
      doc["acceptance_rate"] = outcome.result.counters.acceptance_rate();
      doc["exchange_rate"] = outcome.result.counters.exchange_rate();
      doc["resample_events"] =
          static_cast<double>(outcome.result.counters.resample_events);
      doc["batched_fraction"] = outcome.batched_fraction;
      doc["plan_compiles"] = static_cast<double>(outcome.plan_compiles);
      algo_docs.push_back(support::Json(std::move(doc)));
    }

    support::Json::Object sys_doc;
    sys_doc["name"] = problem.name;
    sys_doc["devices"] = problem.system.num_devices();
    sys_doc["chains"] = problem.system.num_chains();
    support::Json::Object base_doc;
    base_doc["algo"] = baseline.algo;
    base_doc["best_objective"] = target;
    base_doc["wall_seconds"] = baseline.wall;
    base_doc["trials"] = baseline.result.trials;
    base_doc["evaluations"] =
        static_cast<double>(baseline.result.evaluations);
    base_doc["acceptance_rate"] =
        baseline.result.counters.acceptance_rate();
    sys_doc["baseline"] = support::Json(std::move(base_doc));
    sys_doc["algos"] = support::Json(std::move(algo_docs));
    system_docs.push_back(support::Json(std::move(sys_doc)));
  }

  table.print(std::cout, "objective at equal wall-clock budget per system");

  support::Json::Object config;
  config["scale"] = bench::scale().name;
  config["oracle"] = oracle;
  config["dtype"] = std::string(tensor::dtype_name(
      tensor::dtype_from_env(tensor::DType::kF64)));
  config["threads"] = threads;
  config["population"] = population;
  config["budget_seconds"] = budget;
  config["sa_steps"] = sa.max_steps;
  config["criterion"] =
      "reach parallel-SA final objective in <=0.5x wall-clock, or beat it "
      "at equal budget";

  support::Json::Object summary;
  bool any_all = false;
  for (std::size_t a = 0; a < algos.size(); ++a) {
    const bool all =
        criterion_hits[a] == static_cast<int>(problems.size());
    summary[std::string(search::algo_name(algos[a]))] = all;
    any_all = any_all || all;
    std::cout << search::algo_name(algos[a]) << ": criterion met on "
              << criterion_hits[a] << "/" << problems.size()
              << " systems\n";
  }

  support::Json::Object doc;
  doc["config"] = support::Json(std::move(config));
  doc["systems"] = support::Json(std::move(system_docs));
  doc["criterion_met_all_systems"] = support::Json(std::move(summary));
  std::ofstream out(out_path);
  out << support::Json(std::move(doc)).dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";
  if (!any_all) {
    std::cout << "note: no algorithm met the criterion on every system at "
                 "this budget/scale\n";
  }
  return 0;  // report-only: the JSON carries the verdict
}
