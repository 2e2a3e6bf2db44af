// chainnet — command-line front end for the library.
//
//   chainnet version   [--dtype f64|f32|bf16] [--json]
//   chainnet generate  --kind type1|type2|problem [--devices D] [--seed S]
//                      --system out.json [--placement out.json]
//   chainnet initial   --system s.json --out placement.json
//   chainnet plan      --dump s.json [--width B] [--hidden H]
//                      [--iterations N]
//   chainnet simulate  --system s.json --placement p.json
//                      [--horizon H] [--seed S] [--json]
//   chainnet approx    --system s.json --placement p.json [--json]
//   chainnet train     --weights out.bin [--samples N] [--epochs E]
//                      [--hidden H] [--iterations N] [--seed S]
//   chainnet predict   --system s.json --placement p.json --weights w.bin
//                      [--hidden H] [--iterations N] [--json]
//   chainnet optimize  --system s.json (--weights w.bin | --oracle sim|approx)
//                      [--steps N] [--trials T] [--out placement.json]
//                      [--threads N] [--cache-size N]
//                      [--algo sa|pt|popanneal|bestofb] [--population K]
//                      [--ladder-ratio R] [--exchange-interval N]
//                      [--resample-interval N]
//   chainnet serve     --system s.json (--weights w.bin | --manifest m.json
//                      | --oracle sim|approx) [--port P] [--threads N]
//                      [--batch K] [--flush-ms W] [--max-queue N]
//                      [--cache-size N] [--name NAME] [--port-file PATH]
//   chainnet route     --backends h:p,h:p[,...] [--port P] [--metrics-port P]
//                      [--health-ms MS] [--vnodes V]
//                      [--affinity system|placement] [--port-file PATH]
//   chainnet reload    --port P [--host H] --manifest m.json [--json]
//   chainnet query     --port P [--host H] (--stats | --ping | --shutdown |
//                      --placement p.json [--system NAME] [--deadline-ms D])
//                      [--json]
//
// serve --manifest loads weights through the versioned model registry: the
// manifest pins the params file by checksum, and a later `reload` request
// (the reload subcommand, pointed at a server or a router) hot-swaps to a
// new version with zero downtime. route multiplexes eval traffic across N
// running serve instances by consistent hashing and exposes Prometheus
// metrics on --metrics-port.
//
// optimize runs every algorithm on one evaluation service of --threads
// workers, each with a private oracle.
// --algo A     picks the search algorithm (src/search/): sa (default, the
//              paper's annealing), pt (parallel tempering), popanneal
//              (population annealing), bestofb (wide-neighborhood
//              best-of-B; the batched SA). The population algorithms batch
//              --population candidates per step through the service and
//              are bit-for-bit reproducible for a fixed --seed at any
//              --threads value.
// --threads N  with --algo sa, fans the independent trials out across the
//              N workers; N=1 runs them serially, with the same result for
//              an oracle whose value depends only on the placement.
// --cache-size N  memoizes oracle calls in a sharded LRU keyed by the
//              placement's canonical hash; hits are reported separately
//              and never counted as oracle evaluations.
//
// serve/query speak the length-prefixed JSON protocol of serve/protocol.h;
// `serve` binds a TCP port (0 = ephemeral, the bound port is printed) and
// microbatches concurrent eval requests into the shared evaluation service.
//
// Each command accepts only the flags it reads; an unknown flag, a missing
// required flag, or a value that does not parse as the number (or the int)
// the flag takes is a usage error. So is a port (--port, --metrics-port,
// each --backends port) that is not an integer in [0, 65535];
// --metrics-port also takes -1, which disables the metrics listener.
//
// Exit codes: 0 success, 1 usage error, 2 runtime failure.
#include <netinet/in.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <csignal>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/json_io.h"
#include "edge/problem.h"
#include "edge/qn_mapping.h"
#include "gnn/dataset.h"
#include "gnn/metrics.h"
#include "gnn/plan_compiler.h"
#include "gnn/trainer.h"
#include "optim/annealing.h"
#include "optim/evaluator.h"
#include "optim/experiment.h"
#include "optim/initial.h"
#include "queueing/approximation.h"
#include "queueing/simulator.h"
#include "runtime/eval_cache.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "search/optimizer.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "serve/server.h"
#include "support/json.h"
#include "support/rng.h"
#include "tensor/dtype.h"
#include "tensor/kernels.h"
#include "tensor/serialize.h"

namespace {

using namespace chainnet;
using support::Json;

/// A command-line mistake: reported by main with exit code 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using FlagList = std::vector<std::string_view>;

/// Parses `text`, the value given for --`flag`, as a TCP port: an integer
/// written out in full and lying in [lowest, 65535] (lowest is -1 where -1
/// disables a listener).
int parse_port(const std::string& flag, const std::string& text,
               int lowest = 0) {
  std::size_t used = 0;
  long value = 0;
  try {
    value = std::stol(text, &used);
  } catch (const std::exception&) {
    used = 0;  // no digits, or out of long range
  }
  if (used == 0 || used != text.size() || value < lowest || value > 65535) {
    throw UsageError("--" + flag + " expects a port in [" +
                     std::to_string(lowest) + ", 65535], got '" + text + "'");
  }
  return static_cast<int>(value);
}

/// `base` plus `more`.
FlagList with(FlagList base, std::initializer_list<std::string_view> more) {
  base.insert(base.end(), more);
  return base;
}

/// --flag value / --flag parsing.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string key = arg.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[key] = argv[++i];
        } else {
          flags_[key] = "";
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  /// Throws UsageError on any positional argument or any flag not in
  /// `known` (the flags the command reads).
  void allow_only(const std::string& command, const FlagList& known) const {
    if (!positional_.empty()) {
      throw UsageError(command + ": unexpected argument '" +
                       positional_.front() + "'");
    }
    for (const auto& [key, value] : flags_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw UsageError(command + ": unknown flag --" + key);
      }
    }
  }

  bool has(const std::string& key) const { return flags_.count(key) > 0; }
  std::string require(const std::string& key) const {
    auto it = flags_.find(key);
    if (it == flags_.end() || it->second.empty()) {
      throw UsageError("missing required flag --" + key);
    }
    return it->second;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = flags_.find(key);
    return it == flags_.end() || it->second.empty() ? fallback : it->second;
  }
  double number(const std::string& key, double fallback) const {
    auto it = flags_.find(key);
    if (it == flags_.end()) return fallback;
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(it->second, &used);
    } catch (const std::exception&) {
      used = 0;  // no digits, or out of double range
    }
    if (used == 0 || used != it->second.size() || !std::isfinite(value)) {
      throw UsageError("--" + key + " expects a number, got '" + it->second +
                       "'");
    }
    return value;
  }
  int integer(const std::string& key, int fallback) const {
    if (!has(key)) return fallback;
    const double value = number(key, fallback);
    if (value != std::trunc(value) || value < INT_MIN || value > INT_MAX) {
      throw UsageError("--" + key + " expects an integer in [" +
                       std::to_string(INT_MIN) + ", " +
                       std::to_string(INT_MAX) + "], got '" +
                       flags_.at(key) + "'");
    }
    return static_cast<int>(value);
  }
  int port(const std::string& key, int fallback, int lowest = 0) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? fallback : parse_port(key, it->second, lowest);
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Numeric tier selection: --dtype beats CHAINNET_DTYPE beats f64. Both
/// spellings are validated (unknown values throw with the accepted list).
tensor::DType dtype_config(const Args& args) {
  tensor::DType dtype = tensor::dtype_from_env(tensor::DType::kF64);
  if (args.has("dtype")) {
    dtype = tensor::parse_dtype_or_throw(args.require("dtype"));
  }
  return dtype;
}

core::ChainNetConfig model_config(const Args& args) {
  core::ChainNetConfig cfg;
  cfg.hidden = args.integer("hidden", 32);
  cfg.iterations = args.integer("iterations", 4);
  cfg.dtype = dtype_config(args);
  return cfg;
}

queueing::SimConfig sim_config(const edge::EdgeSystem& sys,
                               const Args& args) {
  double max_ia = 0.0;
  for (const auto& chain : sys.chains) {
    max_ia = std::max(max_ia, 1.0 / chain.arrival_rate);
  }
  queueing::SimConfig cfg;
  cfg.horizon = args.number("horizon", 2000.0 * max_ia);
  cfg.seed = static_cast<std::uint64_t>(args.number("seed", 1.0));
  return cfg;
}

Json chain_report(const edge::EdgeSystem& sys, std::size_t i,
                  double throughput, double latency, double loss) {
  Json entry;
  entry["chain"] = Json(sys.chains[i].name);
  entry["throughput"] = Json(throughput);
  entry["latency"] = Json(latency);
  entry["loss_probability"] = Json(loss);
  return entry;
}

void emit(const Json& report, bool as_json) {
  if (as_json) {
    std::cout << report.dump(2) << "\n";
    return;
  }
  for (const auto& entry : report.at("chains").as_array()) {
    std::cout << "  " << entry.at("chain").as_string()
              << ": X=" << entry.at("throughput").as_number()
              << "/s L=" << entry.at("latency").as_number()
              << "s loss=" << entry.at("loss_probability").as_number()
              << "\n";
  }
  if (report.has("total_throughput")) {
    std::cout << "total throughput: "
              << report.at("total_throughput").as_number()
              << "/s, overall loss: "
              << report.at("loss_probability").as_number() << "\n";
  }
}

// `version`: the runtime-resolved execution environment — which kernel ISA
// tier the dispatcher picked on this host (after CHAINNET_KERNEL_ISA) and
// which numeric tier inference would run at (after --dtype/CHAINNET_DTYPE).
// Scripts use this to record exactly what a benchmark ran on.
int cmd_version(const Args& args) {
  const tensor::DType dtype = dtype_config(args);
  if (args.has("json")) {
    Json report;
    report["kernel_isa"] = Json(std::string(tensor::kernels::isa()));
    report["dtype"] = Json(std::string(tensor::dtype_name(dtype)));
    std::cout << report.dump(2) << "\n";
    return 0;
  }
  std::cout << "chainnet\n  kernel ISA: " << tensor::kernels::isa()
            << "\n  dtype: " << tensor::dtype_name(dtype) << "\n";
  return 0;
}

int cmd_generate(const Args& args) {
  const std::string kind = args.get("kind", "type1");
  support::Rng rng(static_cast<std::uint64_t>(args.number("seed", 1.0)));
  edge::EdgeSystem system;
  std::optional<edge::Placement> placement;
  if (kind == "type1" || kind == "type2") {
    const auto params = kind == "type1" ? edge::NetworkGenParams::type1()
                                        : edge::NetworkGenParams::type2();
    auto sample = edge::generate_network_sample(params, rng);
    system = std::move(sample.system);
    placement = std::move(sample.placement);
  } else if (kind == "problem") {
    system = edge::generate_placement_problem(
        edge::PlacementProblemParams::paper(args.integer("devices", 20)),
        rng);
  } else if (kind == "casestudy") {
    system = edge::case_study_system();
  } else {
    std::cerr << "unknown --kind '" << kind << "'\n";
    return 1;
  }
  edge::save_json(edge::to_json(system), args.require("system"));
  std::cout << "wrote system (" << system.num_chains() << " chains, "
            << system.num_devices() << " devices) to "
            << args.require("system") << "\n";
  if (args.has("placement")) {
    if (!placement) placement = optim::initial_placement(system);
    edge::save_json(edge::to_json(*placement), args.require("placement"));
    std::cout << "wrote placement to " << args.require("placement") << "\n";
  }
  return 0;
}

int cmd_initial(const Args& args) {
  const auto system = edge::load_system(args.require("system"));
  const auto placement = optim::initial_placement(system);
  edge::save_json(edge::to_json(placement), args.require("out"));
  std::cout << "wrote ranking-score initial placement ("
            << placement.used_devices().size() << " devices used) to "
            << args.require("out") << "\n";
  return 0;
}

// `plan --dump`: compile the execution plan for a system's topology and
// print the op list — one line per op with kind and pre-resolved scratch
// offsets, headed by the arena size in doubles/bytes. Plans depend only on
// topology + model shape + batch width, so any valid placement (the
// ranking-score initial one here) yields the same plan.
int cmd_plan(const Args& args) {
  if (!args.has("dump")) {
    std::cerr << "plan needs --dump <system.json>\n";
    return 1;
  }
  const auto system = edge::load_system(args.require("dump"));
  const auto placement = optim::initial_placement(system);
  const core::ChainNetConfig cfg = model_config(args);
  const auto graph = edge::build_graph(
      system, placement,
      cfg.modified_inputs ? edge::FeatureMode::kModified
                          : edge::FeatureMode::kOriginal);
  gnn::PlanShape shape;
  shape.hidden = cfg.hidden;
  shape.iterations = cfg.iterations;
  shape.attention_heads = cfg.attention_heads;
  shape.modified_outputs = cfg.modified_outputs;
  shape.attention_aggregation = cfg.attention_aggregation;
  shape.dtype = cfg.dtype;
  const auto plan = gnn::compile_plan(graph, shape, args.integer("width", 1));
  std::cout << plan->dump();
  return 0;
}

int cmd_simulate(const Args& args) {
  const auto system = edge::load_system(args.require("system"));
  const auto placement = edge::load_placement(args.require("placement"));
  placement.validate(system);
  const auto qn = edge::build_qn(system, placement);
  const auto result = queueing::simulate(qn, sim_config(system, args));
  Json report;
  Json chains;
  for (std::size_t i = 0; i < result.chains.size(); ++i) {
    chains.push_back(chain_report(system, i, result.chains[i].throughput,
                                  result.chains[i].mean_latency,
                                  result.chains[i].loss_probability));
  }
  report["chains"] = std::move(chains);
  report["total_throughput"] = Json(result.total_throughput());
  report["loss_probability"] =
      Json(result.loss_probability(system.total_arrival_rate()));
  report["events"] = Json(static_cast<double>(result.events));
  emit(report, args.has("json"));
  return 0;
}

int cmd_approx(const Args& args) {
  const auto system = edge::load_system(args.require("system"));
  const auto placement = edge::load_placement(args.require("placement"));
  placement.validate(system);
  const auto qn = edge::build_qn(system, placement);
  const auto result = queueing::approximate(qn);
  Json report;
  Json chains;
  for (std::size_t i = 0; i < result.chains.size(); ++i) {
    chains.push_back(chain_report(system, i, result.chains[i].throughput,
                                  result.chains[i].mean_latency,
                                  result.chains[i].loss_probability));
  }
  report["chains"] = std::move(chains);
  report["total_throughput"] = Json(result.total_throughput());
  report["loss_probability"] = Json(optim::loss_probability(
      system, result.total_throughput()));
  report["converged"] = Json(result.converged);
  emit(report, args.has("json"));
  return 0;
}

int cmd_train(const Args& args) {
  const int samples = args.integer("samples", 300);
  gnn::LabelingConfig labeling;
  labeling.arrivals_per_chain = args.number("label-arrivals", 1500.0);
  std::cout << "generating " << samples << " Type I samples...\n";
  const auto dataset = gnn::generate_dataset(
      edge::NetworkGenParams::type1(), samples, labeling,
      static_cast<std::uint64_t>(args.number("seed", 11.0)));
  support::Rng rng(static_cast<std::uint64_t>(args.number("seed", 11.0)) ^
                   0xabcd);
  core::ChainNet model(model_config(args), rng);
  gnn::TrainConfig tc;
  tc.epochs = args.integer("epochs", 30);
  tc.on_epoch = [](int epoch, double loss, double) {
    if (epoch % 5 == 0) std::cout << "  epoch " << epoch << ": " << loss
                                  << "\n";
  };
  std::cout << "training ChainNet (" << model.parameter_count()
            << " parameters)...\n";
  const auto report = gnn::train(model, dataset, nullptr, tc);
  tensor::save_parameters(model, args.require("weights"));
  std::cout << "trained in " << report.seconds << "s; weights -> "
            << args.require("weights") << "\n";
  return 0;
}

int cmd_predict(const Args& args) {
  const auto system = edge::load_system(args.require("system"));
  const auto placement = edge::load_placement(args.require("placement"));
  placement.validate(system);
  support::Rng rng(1);
  core::ChainNet model(model_config(args), rng);
  tensor::load_parameters(model, args.require("weights"));
  core::Surrogate surrogate(model);
  const auto preds = surrogate.predict(system, placement);
  Json report;
  Json chains;
  double total = 0.0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    total += preds[i].throughput;
    const double loss =
        1.0 - preds[i].throughput / system.chains[i].arrival_rate;
    chains.push_back(chain_report(system, i, preds[i].throughput,
                                  preds[i].latency, loss));
  }
  report["chains"] = std::move(chains);
  report["total_throughput"] = Json(total);
  report["loss_probability"] = Json(optim::loss_probability(system, total));
  emit(report, args.has("json"));
  return 0;
}

int cmd_evaluate(const Args& args) {
  support::Rng rng(1);
  core::ChainNet model(model_config(args), rng);
  tensor::load_parameters(model, args.require("weights"));
  const int samples = args.integer("samples", 100);
  const std::string kind = args.get("kind", "type1");
  const auto params = kind == "type2" ? edge::NetworkGenParams::type2()
                                      : edge::NetworkGenParams::type1();
  gnn::LabelingConfig labeling;
  labeling.arrivals_per_chain = args.number("label-arrivals", 1500.0);
  std::cout << "generating " << samples << " " << kind
            << " test samples...\n";
  const auto test = gnn::generate_dataset(
      params, samples, labeling,
      static_cast<std::uint64_t>(args.number("seed", 77.0)));
  const auto errors = gnn::evaluate(model, test);
  const auto tput = gnn::summarize(gnn::throughput_apes(errors));
  const auto lat = gnn::summarize(gnn::latency_apes(errors));
  std::cout << "throughput: MAPE " << tput.mape << ", p95 " << tput.p95
            << "\nlatency:    MAPE " << lat.mape << ", p95 " << lat.p95
            << "\n(" << tput.count << " chains evaluated)\n";
  return 0;
}

/// The oracle stack shared by `optimize` and `serve`: an evaluator factory
/// (one private oracle per worker stream) plus the objects that must
/// outlive the evaluators it hands out.
struct OracleSetup {
  runtime::EvalService::EvaluatorFactory factory;  // empty on usage error
  std::shared_ptr<runtime::EvalCache> cache;
  // Set when the oracle is a --manifest model registry (hot-swappable).
  std::shared_ptr<serve::ModelRegistry> registry;
  // Surrogate models are parked here so they outlive their evaluators.
  std::shared_ptr<std::vector<std::unique_ptr<core::ChainNet>>> models =
      std::make_shared<std::vector<std::unique_ptr<core::ChainNet>>>();
};

/// `registry_slots` > 0 enables the --manifest oracle (a versioned model
/// registry with that many evaluation slots); pass 0 from commands that
/// cannot hot-swap.
OracleSetup build_oracle(const Args& args, const edge::EdgeSystem& system,
                         int registry_slots = 0) {
  OracleSetup setup;
  const std::string oracle = args.get("oracle", "");
  if (registry_slots > 0 && args.has("manifest")) {
    setup.registry = std::make_shared<serve::ModelRegistry>(
        model_config(args), registry_slots);
    const auto info = setup.registry->load(args.require("manifest"));
    std::cout << "loaded model version " << info.version << " ("
              << tensor::checksum_to_string(info.checksum) << ")\n";
    setup.factory = serve::registry_factory(setup.registry);
  } else if (args.has("weights")) {
    const std::string weights = args.require("weights");
    const auto cfg = model_config(args);
    setup.factory = [models = setup.models, cfg, weights](
                        support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
      support::Rng init_rng(1);
      auto model = std::make_unique<core::ChainNet>(cfg, init_rng);
      tensor::load_parameters(*model, weights);
      models->push_back(std::move(model));
      return std::make_unique<optim::SurrogateEvaluator>(
          core::Surrogate(*models->back()));
    };
  } else if (oracle == "approx") {
    setup.factory =
        [](support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
      return std::make_unique<optim::ApproximationEvaluator>();
    };
  } else if (oracle == "sim" || oracle.empty()) {
    auto cfg = sim_config(system, args);
    cfg.horizon /= 10.0;  // cheaper per-candidate effort inside the search
    // Fixed evaluation seed across workers (common random numbers), so the
    // objective depends on the placement only and batched / parallel runs
    // are reproducible regardless of which worker scores a candidate.
    setup.factory =
        [cfg](support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
      return std::make_unique<optim::SimulationEvaluator>(cfg);
    };
  } else {
    std::cerr << "unknown --oracle '" << oracle << "'\n";
    return setup;  // empty factory: caller exits with a usage error
  }

  const auto cache_size =
      static_cast<std::size_t>(std::max(0, args.integer("cache-size", 0)));
  if (cache_size > 0) {
    runtime::EvalCacheConfig cache_cfg;
    cache_cfg.capacity = cache_size;
    setup.cache = std::make_shared<runtime::EvalCache>(cache_cfg);
    setup.factory = [inner = std::move(setup.factory), cache = setup.cache](
                        support::Rng stream)
        -> std::unique_ptr<optim::PlacementEvaluator> {
      return std::make_unique<runtime::CachedEvaluator>(inner(stream), cache);
    };
  }
  return setup;
}

int cmd_optimize(const Args& args) {
  // Validate the dtype spelling up front: the sim/approx oracles never
  // build a surrogate, so without this a typo in --dtype/CHAINNET_DTYPE
  // would be accepted silently instead of failing with the accepted list.
  (void)dtype_config(args);
  const auto system = edge::load_system(args.require("system"));
  const auto initial = optim::initial_placement(system);

  const int threads = std::max(1, args.integer("threads", 1));
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 1.0));

  const std::string algo_text = args.get("algo", "sa");
  search::Algo algo;
  if (!search::parse_algo(algo_text, algo)) {
    std::cerr << "unknown --algo '" << algo_text
              << "' (expected sa|pt|popanneal|bestofb)\n";
    return 1;
  }

  auto setup = build_oracle(args, system);
  if (!setup.factory) return 1;
  const auto& cache = setup.cache;

  search::SearchConfig cfg;
  cfg.sa.max_steps = args.integer("steps", 100);
  cfg.sa.seed = seed;
  cfg.population = std::max(1, args.integer("population", 16));
  cfg.ladder_ratio = std::max(1.0, args.number("ladder-ratio", 24.0));
  cfg.exchange_interval = args.integer("exchange-interval", 1);
  cfg.resample_interval = args.integer("resample-interval", 5);
  // The population algorithms step a whole population per trial, so one
  // trial is already a multi-start; plain SA keeps the paper's 5 restarts.
  const int trials =
      args.integer("trials", algo == search::Algo::kSa ? 5 : 1);

  runtime::ThreadPool pool(threads);
  runtime::EvalService service(pool, setup.factory, seed);
  optim::SaResult result;
  if (algo == search::Algo::kSa && threads > 1) {
    result =
        search::run_trials_parallel(system, initial, service, cfg.sa, trials);
  } else {
    const auto optimizer = search::make_optimizer(algo, service, cfg);
    result = search::run_trials(*optimizer, system, initial, seed, trials);
  }

  const auto ref = sim_config(system, args);
  const double x0 = optim::simulated_total_throughput(system, initial, ref);
  const double x1 =
      optim::simulated_total_throughput(system, result.best, ref);
  std::cout << "search[" << algo_text << "]: " << result.trials
            << " trials x " << cfg.sa.max_steps
            << " steps, " << result.evaluations << " oracle evaluations in "
            << result.wall_seconds << "s wall (" << threads << " thread"
            << (threads == 1 ? "" : "s");
  if (result.wall_seconds > 0.0) {
    std::cout << ", "
              << static_cast<double>(result.evaluations) /
                     result.wall_seconds
              << " evals/s";
  }
  std::cout << ")\n";
  std::cout << "diagnostics: " << optim::search_diagnostics(result) << "\n";
  if (cache) {
    const auto stats = cache->stats();
    std::cout << "cache: " << stats.hits << " hits, " << stats.misses
              << " misses, " << stats.evictions << " evictions, "
              << stats.entries << " resident\n";
  }
  std::cout
            << "loss probability: initial "
            << optim::loss_probability(system, x0) << " -> optimized "
            << optim::loss_probability(system, x1)
            << " (relative loss reduction "
            << optim::relative_loss_reduction(system, x0, x1) << ")\n";
  if (args.has("out")) {
    edge::save_json(edge::to_json(result.best), args.require("out"));
    std::cout << "wrote optimized placement to " << args.require("out")
              << "\n";
  }
  return 0;
}

volatile std::sig_atomic_t g_interrupted = 0;

void handle_interrupt(int) { g_interrupted = 1; }

/// Writes the bound port(s), one per line, so a parent process that spawned
/// us with --port 0 can learn where to connect (the integration tests'
/// handshake).
void write_port_file(const std::string& path, std::initializer_list<int> ports) {
  std::ofstream out(path, std::ios::trunc);
  for (int port : ports) out << port << "\n";
  if (!out) throw std::runtime_error("cannot write port file " + path);
}

int cmd_serve(const Args& args) {
  const auto system = edge::load_system(args.require("system"));
  const int threads = std::max(1, args.integer("threads", 4));
  // EvalService builds one evaluator per pool worker plus one for the
  // owning thread, so a registry must provide threads + 1 slots.
  auto setup = build_oracle(args, system, threads + 1);
  if (!setup.factory) return 1;

  const auto seed = static_cast<std::uint64_t>(args.number("seed", 1.0));
  runtime::ThreadPool pool(threads);
  runtime::EvalService service(pool, setup.factory, seed);

  serve::ServerConfig config;
  config.port = args.port("port", 0);
  config.max_batch = args.integer("batch", 32);
  config.flush_window_ms = args.number("flush-ms", 0.5);
  config.max_pending =
      static_cast<std::size_t>(std::max(1, args.integer("max-queue", 1024)));
  config.cache = setup.cache;
  config.registry = setup.registry;
  config.dtype = dtype_config(args);
  serve::Server server(service, config);
  server.add_system(args.get("name", "default"), system);
  server.start();
  if (args.has("port-file")) {
    write_port_file(args.require("port-file"), {server.port()});
  }
  std::cout << "serving '" << args.get("name", "default") << "' ("
            << system.num_chains() << " chains, " << system.num_devices()
            << " devices) on port " << server.port() << " with " << threads
            << " worker thread" << (threads == 1 ? "" : "s")
            << "; stop with SIGINT or a {\"type\":\"shutdown\"} request\n"
            << std::flush;

  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
  // Poll so a signal interrupts the wait promptly (wait() blocks in a
  // condition variable no signal handler can notify).
  while (!g_interrupted &&
         !server.wait_for(std::chrono::milliseconds(200))) {
  }
  server.stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const auto& m = server.metrics();
  std::cout << "served " << m.requests_total.value() << " requests ("
            << m.placements_evaluated.value() << " placements in "
            << m.batches_flushed.value() << " batches); "
            << m.rejects_overload.value() << " overload rejects, "
            << m.deadline_drops.value() << " deadline drops\n";
  return 0;
}

int cmd_route(const Args& args) {
  serve::RouterConfig config;
  // Repeated flags clobber in Args, so the backend list is one
  // comma-separated value: --backends 127.0.0.1:7001,127.0.0.1:7002
  std::string list = args.require("backends");
  for (std::size_t start = 0; start <= list.size();) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "--backends entries must be host:port (got '" << entry
                << "')\n";
      return 1;
    }
    serve::BackendAddress addr;
    addr.host = entry.substr(0, colon);
    addr.port = parse_port("backends", entry.substr(colon + 1));
    // The router only ever connects to IPv4 literals (and localhost): a
    // host it cannot parse would fail every connect, so reject it here.
    sockaddr_in resolved{};
    if (!serve::ipv4_address(addr.host, addr.port, resolved)) {
      throw UsageError("--backends host '" + addr.host +
                       "' is not a dotted-quad IPv4 address or localhost");
    }
    config.backends.push_back(std::move(addr));
  }
  if (config.backends.empty()) {
    std::cerr << "--backends must name at least one host:port\n";
    return 1;
  }
  config.port = args.port("port", 0);
  config.metrics_port = args.port("metrics-port", 0, -1);
  config.vnodes_per_backend = args.integer("vnodes", 128);
  config.health_interval_ms = args.number("health-ms", 200.0);
  const std::string affinity = args.get("affinity", "system");
  if (affinity == "placement") {
    config.affinity = serve::RouteAffinity::kPlacement;
  } else if (affinity != "system") {
    std::cerr << "--affinity must be system or placement\n";
    return 1;
  }

  serve::Router router(config);
  router.start();
  if (args.has("port-file")) {
    write_port_file(args.require("port-file"),
                    {router.port(), router.metrics_port()});
  }
  std::cout << "routing across " << config.backends.size()
            << " backends on port " << router.port();
  if (router.metrics_port() >= 0) {
    std::cout << " (metrics on " << router.metrics_port() << ")";
  }
  std::cout << "; stop with SIGINT or a {\"type\":\"shutdown\"} request\n"
            << std::flush;

  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
  while (!g_interrupted &&
         !router.wait_for(std::chrono::milliseconds(200))) {
  }
  router.stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const auto& m = router.metrics();
  std::cout << "routed " << m.evals_routed.value() << " evals ("
            << m.retries.value() << " retries, "
            << m.upstream_failures.value() << " upstream failures); "
            << m.ejections.value() << " ejections, "
            << m.reinstatements.value() << " reinstatements\n";
  return 0;
}

int cmd_reload(const Args& args) {
  serve::Client client(args.get("host", "127.0.0.1"),
                       args.port("port", 0));
  Json request;
  request["type"] = Json("reload");
  // The path is opened by the *server* process, so it must be absolute or
  // relative to the server's working directory.
  request["manifest"] = Json(args.require("manifest"));
  const Json response = client.call(request);
  if (args.has("json")) {
    std::cout << response.dump(2) << "\n";
    return 0;
  }
  if (response.has("results")) {  // router fan-out: one entry per backend
    for (const auto& entry : response.at("results").as_array()) {
      const auto& backend = entry.at("response");
      std::cout << entry.at("backend").as_string() << ": ";
      if (backend.has("version")) {
        std::cout << "version " << backend.at("version").as_number() << " ("
                  << backend.get_string("checksum", "?") << ")\n";
      } else {
        std::cout << backend.dump() << "\n";
      }
    }
    return 0;
  }
  std::cout << "reloaded: version " << response.get_number("version", -1.0)
            << " (" << response.get_string("checksum", "?") << ")\n";
  return 0;
}

int cmd_query(const Args& args) {
  serve::Client client(args.get("host", "127.0.0.1"),
                       args.port("port", 0));
  if (args.has("stats")) {
    std::cout << client.stats().dump(2) << "\n";
    return 0;
  }
  if (args.has("shutdown")) {
    client.request_shutdown();
    std::cout << "shutdown requested\n";
    return 0;
  }
  if (args.has("ping")) {
    client.ping();
    std::cout << "ok\n";
    return 0;
  }
  if (args.has("placement")) {
    const auto placement = edge::load_placement(args.require("placement"));
    const double value =
        client.evaluate_one(placement, args.get("system", "default"),
                            args.number("deadline-ms", 0.0));
    if (args.has("json")) {
      Json report;
      report["total_throughput"] = Json(value);
      std::cout << report.dump(2) << "\n";
    } else {
      std::cout << "total throughput: " << value << "/s\n";
    }
    return 0;
  }
  std::cerr << "query needs one of --stats, --ping, --shutdown,"
               " --placement\n";
  return 1;
}

int usage() {
  std::cerr
      << "usage: chainnet <command> [flags]\n"
         "  version   [--dtype f64|f32|bf16] [--json]\n"
         "  generate  --kind type1|type2|problem|casestudy --system out.json"
         " [--placement out.json] [--devices D] [--seed S]\n"
         "  initial   --system s.json --out p.json\n"
         "  plan      --dump s.json [--width B] [--hidden H]"
         " [--iterations N]\n"
         "  simulate  --system s.json --placement p.json [--horizon H]"
         " [--seed S] [--json]\n"
         "  approx    --system s.json --placement p.json [--json]\n"
         "  train     --weights out.bin [--samples N] [--epochs E]"
         " [--hidden H] [--iterations N] [--seed S]\n"
         "  predict   --system s.json --placement p.json --weights w.bin"
         " [--json]\n"
         "  evaluate  --weights w.bin [--kind type1|type2] [--samples N]\n"
         "  optimize  --system s.json [--weights w.bin | --oracle"
         " sim|approx] [--steps N] [--trials T] [--out p.json]\n"
         "            [--threads N] [--cache-size N]"
         " [--algo sa|pt|popanneal|bestofb] [--population K]\n"
         "            [--ladder-ratio R] [--exchange-interval N]"
         " [--resample-interval N] [--seed S] [--horizon H]\n"
         "  serve     --system s.json [--weights w.bin | --manifest m.json |"
         " --oracle sim|approx] [--port P] [--threads N]\n"
         "            [--batch K] [--flush-ms W] [--max-queue N]"
         " [--cache-size N] [--name NAME] [--port-file PATH]\n"
         "  route     --backends h:p,h:p[,...] [--port P] [--metrics-port P]"
         " [--health-ms MS] [--vnodes V]\n"
         "            [--affinity system|placement] [--port-file PATH]\n"
         "  reload    --port P [--host H] --manifest m.json [--json]\n"
         "  query     --port P [--host H] (--stats | --ping | --shutdown |"
         " --placement p.json)\n"
         "            [--system NAME] [--deadline-ms D] [--json]\n"
         "model-building commands (plan, train, predict, evaluate, optimize,"
         " serve) also take\n"
         "  --dtype f64|f32|bf16   numeric inference tier (default: "
         "CHAINNET_DTYPE, else f64)\n";
  return 1;
}

/// Flags model_config reads.
const FlagList kModelFlags = {"hidden", "iterations", "dtype"};
/// Flags build_oracle and sim_config read (serve adds --manifest).
const FlagList kOracleFlags =
    with(kModelFlags, {"oracle", "weights", "cache-size", "horizon", "seed"});

struct Command {
  int (*run)(const Args&);
  FlagList flags;  ///< every flag the command reads
};

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> table = {
      {"version", {cmd_version, {"dtype", "json"}}},
      {"generate",
       {cmd_generate, {"kind", "devices", "seed", "system", "placement"}}},
      {"initial", {cmd_initial, {"system", "out"}}},
      {"plan", {cmd_plan, with(kModelFlags, {"dump", "width"})}},
      {"simulate",
       {cmd_simulate, {"system", "placement", "horizon", "seed", "json"}}},
      {"approx", {cmd_approx, {"system", "placement", "json"}}},
      {"train",
       {cmd_train, with(kModelFlags, {"weights", "samples", "epochs", "seed",
                                      "label-arrivals"})}},
      {"predict",
       {cmd_predict,
        with(kModelFlags, {"system", "placement", "weights", "json"})}},
      {"evaluate",
       {cmd_evaluate, with(kModelFlags, {"weights", "kind", "samples",
                                         "seed", "label-arrivals"})}},
      {"optimize",
       {cmd_optimize,
        with(kOracleFlags,
             {"system", "steps", "trials", "out", "threads", "algo",
              "population", "ladder-ratio", "exchange-interval",
              "resample-interval"})}},
      {"serve",
       {cmd_serve,
        with(kOracleFlags, {"manifest", "system", "port", "threads", "batch",
                            "flush-ms", "max-queue", "name", "port-file"})}},
      {"route",
       {cmd_route, {"backends", "port", "metrics-port", "health-ms",
                    "vnodes", "affinity", "port-file"}}},
      {"reload", {cmd_reload, {"port", "host", "manifest", "json"}}},
      {"query",
       {cmd_query, {"port", "host", "stats", "ping", "shutdown", "placement",
                    "system", "deadline-ms", "json"}}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto it = commands().find(command);
  if (it == commands().end()) {
    std::cerr << "unknown command '" << command << "'\n";
    return usage();
  }
  const Args args(argc, argv);
  try {
    args.allow_only(command, it->second.flags);
    return it->second.run(args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
