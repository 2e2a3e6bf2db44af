// bench_chainnet: the benchmark of record for ChainNet's three uses, which
// are bulk scoring, placement search and serving. One workload per process:
//
//   bench_chainnet --workload <score|search|serve_hot|serve_cold>
//                  --seed <n> --seconds <s> --json <out.json>
//                  [--trace <trace.json>] [--smoke]
//
// --seed generates every input: systems, placement pools, search seeds and
// request streams. --seconds is the length of the timed phase. --json
// receives every metric the run computed, each with its unit and sample
// count; run.py prints the ones BENCHMARK.json names. --trace records
// bench-side spans in alternating untraced/traced slices of the timed phase
// (the untraced slices give the tracing overhead) and writes them as Chrome
// trace-event JSON. --smoke shrinks pools and repetitions to a quick check.
//
// Every layer is timed from here, around calls into public functions; no
// code under src/ is instrumented. README.md gives the reasons behind each
// workload and the layer-to-end-to-end map.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/graph.h"
#include "edge/placement.h"
#include "edge/problem.h"
#include "evaluators.h"
#include "gnn/plan.h"
#include "gnn/plan_compiler.h"
#include "optim/annealing.h"
#include "optim/initial.h"
#include "runtime/eval_cache.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "search/best_of_b.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "support/json.h"
#include "support/rng.h"
#include "tensor/dtype.h"
#include "trace.h"

namespace {

using namespace chainnet;
using perfbench::Layer;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::SurrogateOracle;
using perfbench::TimedEvaluator;
using perfbench::Tracer;
using perfbench::median;
using perfbench::percentile;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string json_path;
  std::string trace_path;
  bool smoke = false;

  bool traced() const { return !trace_path.empty(); }
};

/// Repetition counts and pool sizes; --smoke shrinks them.
struct Sizes {
  int setup_reps = 9;     ///< set-up repetitions behind setup_s (median)
  int score_pool = 256;   ///< score: SA-walk placements (a multiple of 32)
  int hot_pool = 512;     ///< serve_hot: placements warmed into the cache
  int search_steps = 20;  ///< search: BestOfB steps per trial
  int compile_reps = 5;   ///< traced: compile_plan calls per width

  static Sizes for_run(bool smoke) {
    if (!smoke) return {};
    return {1, 64, 64, 5, 1};
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< timing samples behind the value (0: n/a)
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    for (auto& m : metrics) {
      if (m.name == name) {
        m = Metric{name, value, unit, samples};
        return;
      }
    }
    metrics.push_back(Metric{name, value, unit, samples});
  }
};

/// Independent input stream `purpose` of the run's seed.
support::Rng input_rng(std::uint64_t seed, std::uint64_t purpose) {
  return support::Rng(seed).split(purpose);
}

/// A Table VII system (12 chains of 2..12 fragments) with `devices`
/// devices, the same in every run: draw number `draw` from generator seed
/// 5. Draw 0 with 16 devices is the system bench_infer measures. Systems do
/// not follow --seed because forward cost depends on the topology: run back
/// to back, six seeds spread 2% in placements/s on one fixed system, where
/// systems drawn per seed spread 9.5%. Seeds vary placements and requests.
edge::EdgeSystem make_system(int devices, int draw = 0) {
  support::Rng rng(5);
  const auto params = edge::PlacementProblemParams::paper(devices);
  for (int i = 0; i < draw; ++i) edge::generate_placement_problem(params, rng);
  const auto system = edge::generate_placement_problem(params, rng);
  int fragments = 0;
  for (const auto& chain : system.chains) fragments += chain.length();
  std::printf("system: %d devices, %d chains, %d fragments\n", devices,
              system.num_chains(), fragments);
  return system;
}

/// The visitation pattern the search loops produce: an SA-style walk of
/// propose_move steps from the initial placement.
std::vector<edge::Placement> walk_placements(const edge::EdgeSystem& system,
                                             int count, support::Rng& rng) {
  std::vector<edge::Placement> placements;
  placements.reserve(static_cast<std::size_t>(count));
  edge::Placement current = optim::initial_placement(system);
  const optim::SaConfig cfg;
  for (int i = 0; i < count; ++i) {
    edge::Placement next;
    if (optim::propose_move(system, current, rng, cfg, next)) current = next;
    placements.push_back(current);
  }
  return placements;
}

/// Peak resident set of the process so far.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Times set-ups. `make` builds the workload's stack and makes its first
/// call, which compiles plans and packs weights. first() builds the stack
/// the timed phase uses. finish() records peak_rss_mb, then repeats the
/// set-up until there are `reps` timings and reports their median. Set-ups
/// torn down before the timed phase would count toward its peak: their
/// resident remains depended on glibc's allocation order and moved the peak
/// by up to a third between seeds.
template <typename Make>
class Setup {
 public:
  Setup(int reps, Make make) : reps_(reps), make_(std::move(make)) {}

  auto first() { return timed(); }

  /// Call once the timed phase's stack is released.
  void finish(Result& r) {
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    while (static_cast<int>(seconds_.size()) < reps_) timed();
    r.set("setup_s", median(seconds_), "s", seconds_.size());
  }

 private:
  auto timed() {
    const auto start = Clock::now();
    auto stack = make_();
    seconds_.push_back(seconds_since(start));
    return stack;
  }

  int reps_;
  Make make_;
  std::vector<double> seconds_;
};

/// Non-owning view of the surrogate oracles an EvalService built.
struct Fleet {
  std::vector<SurrogateOracle*> oracles;

  std::uint64_t evaluations() const {
    std::uint64_t total = 0;
    for (const auto* oracle : oracles) total += oracle->evaluations();
    return total;
  }
};

/// EvalService factory: TimedEvaluator over a SurrogateOracle, with a
/// CachedEvaluator between them when `cache` is set. The fleet must outlive
/// the service.
runtime::EvalService::EvaluatorFactory fleet_factory(
    Fleet& fleet, std::shared_ptr<runtime::EvalCache> cache) {
  return [&fleet, cache](
             support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
    auto oracle = std::make_unique<SurrogateOracle>();
    fleet.oracles.push_back(oracle.get());
    if (!cache) {
      return std::make_unique<TimedEvaluator>(std::move(oracle),
                                              "runtime.eval");
    }
    return std::make_unique<TimedEvaluator>(
        std::make_unique<runtime::CachedEvaluator>(std::move(oracle), cache),
        "runtime.cached_eval");
  };
}

// ---------------------------------------------------------------------------
// Per-layer reduction of the recorded spans.

bool named(const Span& s, std::string_view name) { return name == s.name; }

/// Widest and narrowest core.forward width of the run, with their median
/// forward time: B=1 and B=32 on score.
struct ForwardWidths {
  int narrow = 0;
  int wide = 0;
  double narrow_ms = 0.0;
  double wide_ms = 0.0;
};

/// Span-derived per-layer metrics. Per-call timings use every recorded
/// span (the serve_hot cache fill included). Layer shares, coverage and the
/// runtime figures count only the traced slices of the timed phase, as
/// shares of their total length.
ForwardWidths report_spans(Result& r, const std::vector<Span>& spans,
                           std::int64_t phase_start, std::int64_t phase_end,
                           int workers) {
  const perfbench::Intervals traced =
      Tracer::get().on_intervals(phase_start, phase_end);
  const double traced_s = perfbench::total_seconds(traced);
  const auto share = [&](double seconds) {
    return traced_s > 0.0 ? seconds / traced_s : 0.0;
  };
  const perfbench::LayerTimes layers =
      perfbench::layer_self_times(spans, traced);
  for (int l = 0; l < perfbench::kLayerCount; ++l) {
    r.set(std::string(perfbench::kLayerNames[l]) + ".self_share",
          share(layers.self_s[static_cast<std::size_t>(l)]), "ratio");
  }
  r.set("trace.coverage", share(layers.covered_s), "ratio");

  // Per-call timings, and each core.eval's time split by child.
  struct EvalCall {
    double ms = 0.0;
    double children_ms = 0.0;
    double build_ms = 0.0;
    int width = 0;
  };
  std::map<std::int64_t, EvalCall> evals;
  for (const Span& s : spans) {
    if (named(s, "core.eval")) evals[s.id] = {s.ms(), 0.0, 0.0, s.width};
  }
  std::vector<double> build_us;
  std::vector<double> eval_ms;
  double width_sum = 0.0;
  std::map<int, std::vector<double>> forward_ms;
  for (const Span& s : spans) {
    const auto parent = evals.find(s.parent);
    if (parent != evals.end()) {
      parent->second.children_ms += s.ms();
      if (named(s, "edge.build_graph")) parent->second.build_ms += s.ms();
    }
    if (named(s, "edge.build_graph")) build_us.push_back(s.ms() * 1e3);
    if (named(s, "core.forward")) forward_ms[s.width].push_back(s.ms());
    if (named(s, "core.eval")) {
      eval_ms.push_back(s.ms());
      width_sum += s.width;
    }
  }
  r.set("edge.build_graph_us_p50", percentile(build_us, 0.5), "us",
        build_us.size());
  r.set("core.eval_call_ms_p50", percentile(eval_ms, 0.5), "ms",
        eval_ms.size());
  r.set("core.eval_width_mean",
        eval_ms.empty() ? 0.0 : width_sum / static_cast<double>(eval_ms.size()),
        "count");

  ForwardWidths fw;
  if (!forward_ms.empty()) {
    const auto& narrow = *forward_ms.begin();
    const auto& wide = *forward_ms.rbegin();
    fw = {narrow.first, wide.first, percentile(narrow.second, 0.5),
          percentile(wide.second, 0.5)};
    r.set("core.forward_narrow_ms_p50", fw.narrow_ms, "ms",
          narrow.second.size());
    r.set("core.forward_wide_ms_p50", fw.wide_ms, "ms", wide.second.size());
  } else {
    r.set("core.forward_narrow_ms_p50", 0.0, "ms");
    r.set("core.forward_wide_ms_p50", 0.0, "ms");
  }
  r.set("core.width_narrow", fw.narrow, "count");
  r.set("core.width_wide", fw.wide, "count");
  double narrow_total = 0.0, narrow_build = 0.0;
  double wide_total = 0.0, wide_self = 0.0;
  for (const auto& [id, call] : evals) {
    if (call.width == fw.narrow) {
      narrow_total += call.ms;
      narrow_build += call.build_ms;
    }
    if (call.width == fw.wide) {
      wide_total += call.ms;
      wide_self += call.ms - call.children_ms;
    }
  }
  r.set("edge.build_share_narrow",
        narrow_total > 0.0 ? narrow_build / narrow_total : 0.0, "ratio");
  r.set("core.readout_share_wide",
        wide_total > 0.0 ? wide_self / wide_total : 0.0, "ratio");

  // Runtime: the TimedEvaluator spans pool workers opened in the timed
  // phase. The chunks of one EvalService fan-out overlap in time, so
  // overlapping spans are grouped as one fan-out; its skew is the wait from
  // the first chunk's end to the last's, as a share of the fan-out.
  std::vector<const Span*> chunks;
  for (const Span& s : spans) {
    if (s.layer == Layer::kRuntime && s.start_ns >= phase_start) {
      chunks.push_back(&s);
    }
  }
  std::sort(chunks.begin(), chunks.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  double busy_s = 0.0, union_s = 0.0;
  std::vector<double> skew;
  for (std::size_t i = 0; i < chunks.size();) {
    std::int64_t first_start = chunks[i]->start_ns;
    std::int64_t first_end = chunks[i]->end_ns;
    std::int64_t last_end = chunks[i]->end_ns;
    std::size_t j = i;
    for (; j < chunks.size() && chunks[j]->start_ns <= last_end; ++j) {
      busy_s += perfbench::clipped_seconds(chunks[j]->start_ns,
                                           chunks[j]->end_ns, traced);
      first_end = std::min(first_end, chunks[j]->end_ns);
      last_end = std::max(last_end, chunks[j]->end_ns);
    }
    union_s += perfbench::clipped_seconds(first_start, last_end, traced);
    if (j - i >= 2 && last_end > first_start) {
      skew.push_back(static_cast<double>(last_end - first_end) /
                     static_cast<double>(last_end - first_start));
    }
    i = j;
  }
  r.set("runtime.worker_busy_share",
        workers > 0 ? share(busy_s) / workers : 0.0, "ratio");
  r.set("runtime.oracle_wall_share", share(union_s), "ratio");
  r.set("runtime.chunk_skew_share", percentile(skew, 0.5), "ratio",
        skew.size());
  return fw;
}

/// The PlanShape a model keys its plans by. ChainNet derives it privately
/// from its config, so this copy is checked against a plan the model
/// compiled itself: `model`'s own cache must already hold the width-1 plan
/// of `graph` under this shape. A shape that drifted from ChainNet's fails
/// the run instead of timing a plan the model never runs.
gnn::PlanShape checked_plan_shape(const core::ChainNet& model,
                                  const edge::PlacementGraph& graph) {
  const core::ChainNetConfig& config = model.config();
  gnn::PlanShape shape;
  shape.hidden = config.hidden;
  shape.iterations = config.iterations;
  shape.attention_heads = config.attention_heads;
  shape.modified_outputs = config.modified_outputs;
  shape.attention_aggregation = config.attention_aggregation;
  shape.dtype = config.dtype;
  const auto cache = model.plan_cache();
  const std::uint64_t compiles = cache->stats().compiles;
  cache->lookup_or_compile(graph, shape, 1);
  if (cache->stats().compiles != compiles) {
    throw std::runtime_error(
        "perfbench's PlanShape no longer matches the key ChainNet compiles "
        "its plans under; update checked_plan_shape");
  }
  return shape;
}

/// Plan probes on the workload's topology, made after the timed phase: a
/// PlanCache hit, compile_plan at widths 1 and 32, and bench_infer's
/// analytic traffic model at the narrow and wide widths: every parameter
/// streamed once per message-passing iteration plus the plan arena written
/// and read once per replay, over the batch. Computed bytes, not counted
/// ones.
void report_plans(Result& r, const edge::EdgeSystem& system,
                  const edge::Placement& sample, const ForwardWidths& fw,
                  int reps) {
  constexpr int kLookups = 101;
  const auto model = perfbench::make_model();
  const auto graph = edge::build_graph(system, sample, model->feature_mode());
  model->forward_values(graph);  // compiles the model's width-1 plan
  const gnn::PlanShape shape = checked_plan_shape(*model, graph);

  const auto cache = model->plan_cache();
  std::vector<double> lookup_us;
  for (int i = 0; i < kLookups; ++i) {
    const auto start = Clock::now();
    cache->lookup_or_compile(graph, shape, 1);
    lookup_us.push_back(ms_since(start) * 1e3);
  }
  r.set("gnn.plan_lookup_us_p50", median(lookup_us), "us", lookup_us.size());

  const auto compile_ms = [&](int width) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      const auto start = Clock::now();
      const auto plan = gnn::compile_plan(graph, shape, width);
      ms.push_back(ms_since(start));
    }
    return median(ms);
  };
  r.set("gnn.plan_compile_ms_w1", compile_ms(1), "ms",
        static_cast<std::size_t>(reps));
  r.set("gnn.plan_compile_ms_w32", compile_ms(32), "ms",
        static_cast<std::size_t>(reps));

  const double element = static_cast<double>(
      tensor::dtype_element_bytes(shape.dtype));
  const double weights = static_cast<double>(model->parameter_count()) *
                         element * model->config().iterations;
  const auto traffic = [&](const std::string& suffix, int width,
                           double forward_ms) {
    double bytes = 0.0, gb_per_s = 0.0;
    if (width > 0) {
      const auto plan = gnn::compile_plan(graph, shape, width);
      const double arena =
          static_cast<double>(plan->meta.scratch_elems) * element;
      bytes = (weights + 2.0 * arena) / width;
      if (forward_ms > 0.0) gb_per_s = bytes * width / forward_ms * 1e-6;
    }
    r.set("tensor.est_bytes_per_placement_" + suffix, bytes, "B");
    r.set("tensor.effective_gb_per_s_" + suffix, gb_per_s, "GB/s");
  };
  traffic("narrow", fw.narrow, fw.narrow_ms);
  traffic("wide", fw.wide, fw.wide_ms);
}

/// Per-layer counters only some workloads have; the others report 0.
void set_counter_defaults(Result& r) {
  r.set("runtime.batched_fraction", 0.0, "ratio");
  r.set("runtime.cache_hit_rate", 0.0, "ratio");
  r.set("runtime.cache_evictions", 0.0, "count");
  r.set("serve.batch_size_mean", 0.0, "count");
  r.set("serve.in_server_share_p50", 0.0, "ratio");
  r.set("search.acceptance_rate", 0.0, "ratio");
  r.set("search.best_objective", 0.0, "objective");
}

/// The traced run's tail shared by every workload: span reductions, plan
/// probes and the trace file. Runs once every traced thread is idle.
void finish_trace(Result& r, const Options& opt, const Sizes& sizes,
                  std::int64_t phase_start, std::int64_t phase_end,
                  int workers, const edge::EdgeSystem& system,
                  const edge::Placement& sample) {
  if (!opt.traced()) return;
  Tracer& tracer = Tracer::get();
  const auto spans = tracer.spans();
  const ForwardWidths fw =
      report_spans(r, spans, phase_start, phase_end, workers);
  report_plans(r, system, sample, fw, sizes.compile_reps);
  if (!tracer.write_chrome_json(opt.trace_path)) {
    throw std::runtime_error("cannot write trace file " + opt.trace_path);
  }
  std::printf("trace: %zu spans -> %s\n", spans.size(),
              opt.trace_path.c_str());
}

void report_dispatch(Result& r, const runtime::EvalService::Stats& before,
                     const runtime::EvalService::Stats& after) {
  const auto batched = after.batched_placements - before.batched_placements;
  const auto single = after.single_placements - before.single_placements;
  const auto total = static_cast<double>(batched + single);
  r.set("runtime.batched_fraction",
        total > 0.0 ? static_cast<double>(batched) / total : 0.0, "ratio");
}

/// 1 - (traced rate / untraced rate).
double overhead_share(double traced_rate, double untraced_rate) {
  return untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0;
}

// ---------------------------------------------------------------------------
// score: one thread, the surrogate alone. Each round is one B=32 call on the
// next 32-slice of the pool and eight B=1 calls on the next placements, so
// both phases see the same machine state.

void run_score(const Options& opt, const Sizes& sizes, Result& r) {
  constexpr int kWidth = 32;
  constexpr int kSinglesPerRound = 8;
  const auto system = make_system(16);
  auto walk_rng = input_rng(opt.seed, 1);
  const auto pool = walk_placements(system, sizes.score_pool, walk_rng);
  const std::span<const edge::Placement> pool_span(pool);

  std::vector<double> out(kWidth);
  Setup setup(sizes.setup_reps, [&] {
    auto fresh = std::make_unique<SurrogateOracle>();
    fresh->total_throughput_batch(system, pool_span.first(kWidth), out);
    fresh->total_throughput(system, pool.front());
    return fresh;
  });
  auto oracle = setup.first();

  // Correctness: every value for a placement, from either width, must equal
  // the first one seen bit for bit.
  std::vector<std::optional<double>> seen(pool.size());
  const auto agrees = [&](std::size_t index, double value) {
    if (!seen[index]) seen[index] = value;
    return *seen[index] == value;
  };

  Tracer& tracer = Tracer::get();
  const std::uint64_t evals_before = oracle->evaluations();
  std::vector<double> wide_ms, single_ms, wide_on_ms, wide_off_ms;
  const std::int64_t phase_start = tracer.now_ns();
  const auto start = Clock::now();
  for (std::size_t round = 0; seconds_since(start) < opt.seconds; ++round) {
    const bool traced = opt.traced() && round % 2 == 1;
    tracer.set_enabled(traced);
    const ScopedSpan round_span("bench.round", Layer::kBench);
    const std::size_t slice = (round * kWidth) % pool.size();
    const auto t0 = Clock::now();
    oracle->total_throughput_batch(system, pool_span.subspan(slice, kWidth),
                                   out);
    const double ms = ms_since(t0);
    wide_ms.push_back(ms);
    (traced ? wide_on_ms : wide_off_ms).push_back(ms);
    bool ok = true;
    for (int b = 0; b < kWidth; ++b) {
      ok = agrees(slice + static_cast<std::size_t>(b),
                  out[static_cast<std::size_t>(b)]) &&
           ok;
    }
    ++r.attempted;
    if (!ok) ++r.failed;
    for (int i = 0; i < kSinglesPerRound; ++i) {
      const std::size_t index =
          (round * kSinglesPerRound + static_cast<std::size_t>(i)) %
          pool.size();
      const auto t1 = Clock::now();
      const double value = oracle->total_throughput(system, pool[index]);
      single_ms.push_back(ms_since(t1));
      ++r.attempted;
      if (!agrees(index, value)) ++r.failed;
    }
  }
  tracer.set_enabled(false);
  const std::int64_t phase_end = tracer.now_ns();

  r.set("placements_per_s", kWidth / (median(wide_ms) * 1e-3), "1/s",
        wide_ms.size());
  r.set("latency_p50_ms", percentile(single_ms, 0.50), "ms",
        single_ms.size());
  r.set("latency_p95_ms", percentile(single_ms, 0.95), "ms",
        single_ms.size());
  r.set("core.evaluations",
        static_cast<double>(oracle->evaluations() - evals_before), "count");
  r.set("gnn.plan_compiles",
        static_cast<double>(oracle->model().plan_cache()->stats().compiles),
        "count");
  oracle.reset();
  setup.finish(r);
  r.set("bench.trace_overhead_share",
        wide_on_ms.empty() || wide_off_ms.empty()
            ? 0.0
            : overhead_share(1.0 / median(wide_on_ms),
                             1.0 / median(wide_off_ms)),
        "ratio");
  finish_trace(r, opt, sizes, phase_start, phase_end, 0, system,
               pool.front());
}

// ---------------------------------------------------------------------------
// search: BestOfB trials over a 4-worker EvalService until the time is up.
// Population 16 splits into four 4-wide chunks, so fan-out, straggler wait
// and the serial search step are all on the clock.

struct SearchStack {
  explicit SearchStack(const search::SearchConfig& config)
      : service(pool, fleet_factory(fleet, nullptr), 7),
        optimizer(service, config) {}

  Fleet fleet;
  runtime::ThreadPool pool{4};
  runtime::EvalService service;
  search::BestOfB optimizer;
};

void run_search(const Options& opt, const Sizes& sizes, Result& r) {
  constexpr int kPopulation = 16;
  const auto system = make_system(20);
  const auto initial = optim::initial_placement(system);
  const auto trial_seeds =
      optim::trial_seeds(input_rng(opt.seed, 2)(), 4096);
  search::SearchConfig config;
  config.population = kPopulation;
  config.sa.max_steps = sizes.search_steps;

  Setup setup(sizes.setup_reps, [&] {
    auto fresh = std::make_unique<SearchStack>(config);
    const std::vector<edge::Placement> batch(kPopulation, initial);
    fresh->service.evaluate_batch(system, batch);
    return fresh;
  });
  auto stack = setup.first();

  Tracer& tracer = Tracer::get();
  const std::uint64_t evals_before = stack->fleet.evaluations();
  const auto dispatch_before = stack->service.stats();
  std::vector<optim::SaResult> trials;
  std::vector<double> step_ms;
  double evaluations = 0.0, wall_s = 0.0;
  double rate_on_evals = 0.0, rate_on_s = 0.0;
  double rate_off_evals = 0.0, rate_off_s = 0.0;
  const std::int64_t phase_start = tracer.now_ns();
  const auto start = Clock::now();
  for (std::size_t t = 0;
       seconds_since(start) < opt.seconds && t < trial_seeds.size(); ++t) {
    const bool traced = opt.traced() && t % 2 == 1;
    tracer.set_enabled(traced);
    const auto t0 = Clock::now();
    optim::SaResult result;
    {
      const ScopedSpan trial("search.trial", Layer::kSearch);
      tracer.set_ambient_parent(trial.id());
      result = stack->optimizer.run(system, initial, trial_seeds[t]);
      tracer.set_ambient_parent(-1);
    }
    const double seconds = seconds_since(t0);
    wall_s += seconds;
    evaluations += static_cast<double>(result.evaluations);
    (traced ? rate_on_evals : rate_off_evals) +=
        static_cast<double>(result.evaluations);
    (traced ? rate_on_s : rate_off_s) += seconds;
    for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
      step_ms.push_back(1e3 * (result.trajectory[i].seconds -
                               result.trajectory[i - 1].seconds));
    }
    trials.push_back(std::move(result));
  }
  tracer.set_enabled(false);
  const std::int64_t phase_end = tracer.now_ns();
  const std::uint64_t oracle_evals = stack->fleet.evaluations() - evals_before;
  const auto dispatch = stack->service.stats();
  const std::uint64_t compiles =
      stack->service.plan_cache()->stats().compiles;
  stack.reset();  // joins the workers before their spans are read
  setup.finish(r);

  // Correctness: each trial's best placement, re-scored by a fresh
  // surrogate, reproduces its best objective bit for bit.
  const auto model = perfbench::make_model();
  const core::Surrogate fresh(*model);
  optim::SearchCounters counters;
  double best = 0.0;
  for (const auto& trial : trials) {
    ++r.attempted;
    if (fresh.total_throughput(system, trial.best) != trial.best_objective) {
      ++r.failed;
    }
    counters.merge(trial.counters);
    best = std::max(best, trial.best_objective);
  }

  r.set("placements_per_s", evaluations / wall_s, "1/s", trials.size());
  r.set("latency_p50_ms", percentile(step_ms, 0.50), "ms", step_ms.size());
  r.set("latency_p95_ms", percentile(step_ms, 0.95), "ms", step_ms.size());
  r.set("core.evaluations", static_cast<double>(oracle_evals), "count");
  r.set("gnn.plan_compiles", static_cast<double>(compiles), "count");
  r.set("bench.trace_overhead_share",
        rate_on_s > 0.0 && rate_off_s > 0.0
            ? overhead_share(rate_on_evals / rate_on_s,
                             rate_off_evals / rate_off_s)
            : 0.0,
        "ratio");
  report_dispatch(r, dispatch_before, dispatch);
  r.set("search.acceptance_rate", counters.acceptance_rate(), "ratio");
  r.set("search.best_objective", best, "objective");
  finish_trace(r, opt, sizes, phase_start, phase_end, 4, system, initial);
}

// ---------------------------------------------------------------------------
// serve_hot / serve_cold: an in-process serve::Server with ServerConfig
// defaults (max_batch 32, flush window 0.5 ms), an EvalService of 2 workers
// and an EvalCache of 1024 entries in front of the surrogate, driven by 4
// closed-loop connections. Closed loop because serving's callers (search
// loops, schedulers) wait for each reply.

constexpr int kServeWorkers = 2;
constexpr int kConnections = 4;

std::string tenant_name(std::size_t tenant) {
  return "tenant" + std::to_string(tenant);
}

struct ServeStack {
  explicit ServeStack(std::span<const edge::EdgeSystem> tenants)
      : cache(std::make_shared<runtime::EvalCache>(
            runtime::EvalCacheConfig{1024, 8, {}})),
        service(pool, fleet_factory(fleet, cache), 7),
        server(service, server_config(cache)) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      server.add_system(tenant_name(t), tenants[t]);
    }
    server.start();
  }

  static serve::ServerConfig server_config(
      std::shared_ptr<runtime::EvalCache> cache) {
    serve::ServerConfig config;
    config.cache = std::move(cache);
    return config;
  }

  Fleet fleet;
  std::shared_ptr<runtime::EvalCache> cache;
  runtime::ThreadPool pool{kServeWorkers};
  runtime::EvalService service;
  serve::Server server;
};

/// The counters of one `stats` reply the serve metrics difference.
struct ServerCounters {
  double batches = 0.0;
  double placements = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_evictions = 0.0;
  double plan_compiles = 0.0;
  double latency_p50_ms = 0.0;

  static ServerCounters from(const support::Json& stats) {
    ServerCounters c;
    c.batches = stats.at("batches").as_number();
    c.placements = stats.at("placements_evaluated").as_number();
    c.cache_hits = stats.at("cache").at("hits").as_number();
    c.cache_misses = stats.at("cache").at("misses").as_number();
    c.cache_evictions = stats.at("cache").at("evictions").as_number();
    c.plan_compiles = stats.at("plan_cache").at("compiles").as_number();
    c.latency_p50_ms =
        1e3 * stats.at("service_latency").at("p50_s").as_number();
    return c;
  }
};

struct ClientLog {
  std::vector<double> latency_ms;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  double placements = 0.0;
  double placements_traced = 0.0;
};

struct Reply {
  int placements = 0;
  bool ok = false;
  double ms = 0.0;
};

/// Runs kConnections closed-loop clients against `port` for `seconds`.
/// send(client, k, connection) issues client c's k-th request, times the
/// call itself and checks the reply. Requests still in flight at the end
/// are not counted. In a traced run the calling thread alternates tracing
/// off and on in 1 s slices.
template <typename Send>
std::vector<ClientLog> run_clients(int port, double seconds, bool traced,
                                   Send&& send) {
  std::vector<ClientLog> logs(kConnections);
  std::latch ready(kConnections + 1);
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      std::unique_ptr<serve::Client> connection;
      try {
        connection = std::make_unique<serve::Client>("127.0.0.1", port);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %d: %s\n", c, e.what());
        ++log.failed;
      }
      ready.arrive_and_wait();
      if (!connection) return;
      for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
        const bool on = Tracer::get().enabled();
        Reply reply;
        try {
          reply = send(c, k, *connection);
        } catch (const serve::ServeError& e) {
          std::fprintf(stderr, "client %d: %s\n", c, e.what());
          ++log.requests;
          ++log.failed;
          continue;
        } catch (const std::exception& e) {  // transport: connection is gone
          std::fprintf(stderr, "client %d: %s\n", c, e.what());
          ++log.requests;
          ++log.failed;
          return;
        }
        if (Clock::now() > deadline) break;
        ++log.requests;
        if (!reply.ok) ++log.failed;
        log.latency_ms.push_back(reply.ms);
        log.placements += reply.placements;
        if (on) log.placements_traced += reply.placements;
      }
    });
  }
  const auto start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  ready.arrive_and_wait();
  for (int slice = 1; Clock::now() < deadline; ++slice) {
    if (traced) Tracer::get().set_enabled(slice % 2 == 0);
    std::this_thread::sleep_until(
        std::min(deadline, start + slice * std::chrono::seconds(1)));
  }
  Tracer::get().set_enabled(false);
  for (auto& thread : threads) thread.join();
  return logs;
}

/// The end-to-end and serve-layer metrics both serve workloads share.
void report_serve(Result& r, const std::vector<ClientLog>& logs,
                  double seconds, double traced_s,
                  const ServerCounters& before, const ServerCounters& after) {
  std::vector<double> latency;
  double placements = 0.0, traced_placements = 0.0;
  for (const auto& log : logs) {
    latency.insert(latency.end(), log.latency_ms.begin(),
                   log.latency_ms.end());
    placements += log.placements;
    traced_placements += log.placements_traced;
    r.attempted += log.requests;
    r.failed += log.failed;
  }
  const double p50 = percentile(latency, 0.50);
  r.set("placements_per_s", placements / seconds, "1/s", latency.size());
  r.set("latency_p50_ms", p50, "ms", latency.size());
  r.set("latency_p95_ms", percentile(latency, 0.95), "ms", latency.size());
  const double untraced_s = seconds - traced_s;
  r.set("bench.trace_overhead_share",
        traced_s > 0.0 && untraced_s > 0.0
            ? overhead_share(traced_placements / traced_s,
                             (placements - traced_placements) / untraced_s)
            : 0.0,
        "ratio");

  const double batches = after.batches - before.batches;
  const double hits = after.cache_hits - before.cache_hits;
  const double lookups = hits + after.cache_misses - before.cache_misses;
  r.set("serve.batch_size_mean",
        batches > 0.0 ? (after.placements - before.placements) / batches : 0.0,
        "count");
  // The server's latency histogram has 1.25x-wide buckets: a coarse figure.
  r.set("serve.in_server_share_p50",
        p50 > 0.0 ? after.latency_p50_ms / p50 : 0.0, "ratio");
  r.set("runtime.cache_hit_rate", lookups > 0.0 ? hits / lookups : 0.0,
        "ratio");
  r.set("runtime.cache_evictions",
        after.cache_evictions - before.cache_evictions, "count");
  r.set("gnn.plan_compiles", after.plan_compiles, "count");
}

/// serve_hot: every request is one placement from a pool already in the
/// cache, so the GNN is never called while timed and the time goes to
/// framing, JSON, reader threads, the flush window and cache lookups. The
/// server batches across connections with the default max_batch of 32.
void run_serve_hot(const Options& opt, const Sizes& sizes, Result& r) {
  const auto system = make_system(16);
  auto walk_rng = input_rng(opt.seed, 1);
  const auto pool = walk_placements(system, sizes.hot_pool, walk_rng);
  // Off the pool, so every cache-fill batch is a full 32 misses.
  const auto warm = edge::random_placement(system, walk_rng);
  const std::string tenant = tenant_name(0);

  Setup setup(sizes.setup_reps, [&] {
    auto fresh = std::make_unique<ServeStack>(std::span(&system, 1));
    serve::Client("127.0.0.1", fresh->server.port()).evaluate_one(warm, tenant);
    return fresh;
  });
  auto stack = setup.first();

  // Fill the cache (traced, so per-call timings of the layers the timed
  // phase bypasses still exist) and keep every value as the reference.
  Tracer& tracer = Tracer::get();
  tracer.set_enabled(opt.traced());
  std::vector<double> expected;
  for (std::size_t begin = 0; begin < pool.size(); begin += 32) {
    const std::span<const edge::Placement> slice(
        pool.data() + begin, std::min<std::size_t>(32, pool.size() - begin));
    const auto values = stack->service.evaluate_batch(system, slice);
    expected.insert(expected.end(), values.begin(), values.end());
  }
  tracer.set_enabled(false);

  serve::Client control("127.0.0.1", stack->server.port());
  const auto before = ServerCounters::from(control.stats());
  const auto dispatch_before = stack->service.stats();
  const std::uint64_t evals_before = stack->fleet.evaluations();
  std::vector<support::Rng> pick;
  for (int c = 0; c < kConnections; ++c) {
    pick.push_back(input_rng(opt.seed, 3 + static_cast<std::uint64_t>(c)));
  }
  const std::int64_t phase_start = tracer.now_ns();
  const auto logs = run_clients(
      stack->server.port(), opt.seconds, opt.traced(),
      [&](int c, std::uint64_t, serve::Client& connection) {
        const auto index = static_cast<std::size_t>(
            pick[static_cast<std::size_t>(c)].uniform_int(
                0, static_cast<std::int64_t>(pool.size()) - 1));
        const auto t0 = Clock::now();
        double value = 0.0;
        {
          const ScopedSpan span("serve.request", Layer::kServe, 1);
          value = connection.evaluate_one(pool[index], tenant);
        }
        return Reply{1, value == expected[index], ms_since(t0)};
      });
  const std::int64_t phase_end = tracer.now_ns();
  const auto after = ServerCounters::from(control.stats());
  report_dispatch(r, dispatch_before, stack->service.stats());
  r.set("core.evaluations",
        static_cast<double>(stack->fleet.evaluations() - evals_before),
        "count");
  stack.reset();
  setup.finish(r);

  const double traced_s =
      perfbench::total_seconds(tracer.on_intervals(phase_start, phase_end));
  report_serve(r, logs, opt.seconds, traced_s, before, after);
  finish_trace(r, opt, sizes, phase_start, phase_end, kServeWorkers, system,
               pool.front());
}

/// serve_cold: two tenants, 16-device systems of different topologies, so
/// two plan families share the plan cache. Each request carries 8 fresh
/// random placements for one tenant, so every lookup misses, inserts and
/// evicts. The flusher batches the same-tenant requests that queued while
/// the previous batch ran, up to 32 placements, and splits each batch over
/// the two workers. The tenant is drawn per request, not alternated: the
/// clients one batch releases resend together, and alternating kept them
/// in step, so a run kept the batch pattern its first batches happened to
/// form.
void run_serve_cold(const Options& opt, const Sizes& sizes, Result& r) {
  constexpr int kPerRequest = 8;
  constexpr std::uint64_t kCheckEvery = 16;
  const std::vector<edge::EdgeSystem> tenants = {make_system(16, 0),
                                                 make_system(16, 1)};
  auto warm_rng = input_rng(opt.seed, 1);
  const auto warm = edge::random_placement(tenants[0], warm_rng);

  Setup setup(sizes.setup_reps, [&] {
    auto fresh = std::make_unique<ServeStack>(tenants);
    serve::Client("127.0.0.1", fresh->server.port())
        .evaluate_one(warm, tenant_name(0));
    return fresh;
  });
  auto stack = setup.first();
  // The workers' plan arenas only grow. Two full batches of each tenant, in
  // a fixed order, give every worker a widest chunk of both: grown instead
  // during the timed phase, in the order batches happened to come, the
  // arenas left peak_rss_mb up to 29% apart between runs.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& tenant : tenants) {
      std::vector<edge::Placement> batch;
      for (int i = 0; i < serve::ServerConfig{}.max_batch; ++i) {
        batch.push_back(edge::random_placement(tenant, warm_rng));
      }
      stack->service.evaluate_batch(tenant, batch);
    }
  }
  // Full before timing starts, so every insert of the timed phase evicts.
  // The fill placements never recur, so their placeholder values are never
  // served.
  for (std::size_t i = 0; i < stack->cache->capacity(); ++i) {
    stack->cache->insert(edge::random_placement(tenants[0], warm_rng), 0.0);
  }

  struct Saved {
    std::size_t tenant = 0;
    std::vector<edge::Placement> placements;
    std::vector<double> values;
  };
  std::vector<std::vector<Saved>> saved(kConnections);
  std::vector<support::Rng> draw;
  for (int c = 0; c < kConnections; ++c) {
    draw.push_back(input_rng(opt.seed, 3 + static_cast<std::uint64_t>(c)));
  }

  Tracer& tracer = Tracer::get();
  serve::Client control("127.0.0.1", stack->server.port());
  const auto before = ServerCounters::from(control.stats());
  const auto dispatch_before = stack->service.stats();
  const std::uint64_t evals_before = stack->fleet.evaluations();
  const std::int64_t phase_start = tracer.now_ns();
  const auto logs = run_clients(
      stack->server.port(), opt.seconds, opt.traced(),
      [&](int c, std::uint64_t k, serve::Client& connection) {
        const auto client = static_cast<std::size_t>(c);
        auto& rng = draw[client];
        const auto tenant = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(tenants.size()) - 1));
        std::vector<edge::Placement> placements;
        for (int i = 0; i < kPerRequest; ++i) {
          placements.push_back(edge::random_placement(tenants[tenant], rng));
        }
        const auto t0 = Clock::now();
        std::vector<double> values;
        {
          const ScopedSpan span("serve.request", Layer::kServe, kPerRequest);
          values = connection.evaluate(placements, tenant_name(tenant));
        }
        const double ms = ms_since(t0);
        const bool ok = values.size() == placements.size();
        if (ok && k % kCheckEvery == 0) {
          saved[client].push_back({tenant, std::move(placements), values});
        }
        return Reply{kPerRequest, ok, ms};
      });
  const std::int64_t phase_end = tracer.now_ns();
  const auto after = ServerCounters::from(control.stats());
  report_dispatch(r, dispatch_before, stack->service.stats());
  r.set("core.evaluations",
        static_cast<double>(stack->fleet.evaluations() - evals_before),
        "count");
  stack.reset();
  setup.finish(r);

  const double traced_s =
      perfbench::total_seconds(tracer.on_intervals(phase_start, phase_end));
  report_serve(r, logs, opt.seconds, traced_s, before, after);

  // Correctness: one request in 16, re-scored by a fresh surrogate, matches
  // the served values bit for bit.
  const auto model = perfbench::make_model();
  const core::Surrogate fresh(*model);
  for (const auto& client : saved) {
    for (const auto& request : client) {
      std::vector<double> values(request.placements.size());
      fresh.total_throughput_batch(tenants[request.tenant], request.placements,
                                   values);
      ++r.attempted;
      if (values != request.values) ++r.failed;
    }
  }
  finish_trace(r, opt, sizes, phase_start, phase_end, kServeWorkers,
               tenants[0], warm);
}

// ---------------------------------------------------------------------------

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 3600.0) {
        return false;
      }
    } else if (arg == "--json") {
      opt.json_path = value;
    } else if (arg == "--trace") {
      opt.trace_path = value;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && !opt.json_path.empty();
}

bool write_result(const Options& opt, const Result& r) {
  support::Json doc;
  doc["workload"] = opt.workload;
  doc["seed"] = static_cast<double>(opt.seed);
  doc["attempted"] = static_cast<double>(r.attempted);
  doc["failed"] = static_cast<double>(r.failed);
  doc["correct"] = r.attempted > 0 && r.failed == 0;
  support::Json metrics(support::Json::Object{});
  for (const auto& m : r.metrics) {
    support::Json entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    entry["samples"] = static_cast<double>(m.samples);
    metrics[m.name] = std::move(entry);
  }
  doc["metrics"] = std::move(metrics);
  std::ofstream out(opt.json_path);
  out << doc.dump(2) << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: bench_chainnet --workload "
                 "<score|search|serve_hot|serve_cold> --seed <n> --seconds "
                 "<s> --json <out.json> [--trace <trace.json>] [--smoke]\n");
    return 2;
  }
  const Sizes sizes = Sizes::for_run(opt.smoke);
  Result r;
  set_counter_defaults(r);
  try {
    if (opt.workload == "score") {
      run_score(opt, sizes, r);
    } else if (opt.workload == "search") {
      run_search(opt, sizes, r);
    } else if (opt.workload == "serve_hot") {
      run_serve_hot(opt, sizes, r);
    } else if (opt.workload == "serve_cold") {
      run_serve_cold(opt, sizes, r);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::printf("%s seed %llu: %llu attempted, %llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    if (m.samples > 0) {
      std::printf("  %-40s %14.6g %-9s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  if (!write_result(opt, r)) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    return 1;
  }
  return 0;
}
