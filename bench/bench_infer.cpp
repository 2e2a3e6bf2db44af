// bench_infer — surrogate inference-engine throughput (the PR-4 hot path).
//
// Measurements on the paper-sized ChainNet (hidden 64, 8 iterations):
//   1. single-stream placements/s: plan replay at B=1 (forward_values) vs
//      the interpreted Algorithm-2 reference walk over the pre-fusion
//      kernels (forward_values_interpreted) — same weights; outputs are
//      bit-identical, which the parity gate re-checks before timing, at
//      B=1 and in every lane of a B=32 replay;
//   2. batched forward_values_batch aggregate placements/s for
//      B in {1,2,4,8,16,32} over prebuilt graphs, the f64 rows and the f32
//      rows of section 5 timed together;
//   3. compiled execution plans: one-time plan-compile cost at widths 1
//      and 32;
//   4. end-to-end surrogate objective: a scalar path (fresh build_graph
//      allocation, one placement at a time) vs the batched path
//      (graph-workspace reuse + one plan replay over 32 placements);
//   5. reduced-precision tier (DESIGN.md §15): f32 single-stream and
//      batched rates vs the f64 tier (same weights, converted once), plus
//      an analytic bytes/placement + effective-GB/s estimate per batch
//      size for both tiers;
//   6. ranking-fidelity gate: pairwise rank agreement of the f32 and bf16
//      objectives against f64 over an SA-style neighbor sample, and a
//      fixed-step SA objective-at-budget comparison f32 vs f64. The gate
//      FAILS the bench (exit 1) when agreement or the SA objective drops
//      below the committed thresholds — a reduced tier that misorders
//      neighbors is a silent search-quality regression, not a speedup;
//   7. per-width kernel table: kernels::gemm alone on the stacked phi_c
//      input pack (192 x 128 at hidden 64) for widths n from 1 to 384,
//      f64 and f32, at the active ISA — the layer under every replay.
//
// Replay and the interpreted walk, and the twelve f64 and f32 batched rows,
// are timed as interleaved repetitions (every body once per repetition, in
// a fixed order) so host drift lands on every row alike; each row reports
// the median and quartiles of its per-repetition rates, and every ratio
// between rows is a ratio of medians. The kernel table interleaves its
// cells the same way. Results print to stdout and are written
// machine-readable to BENCH_infer.json (override with CHAINNET_INFER_OUT).
//
//   CHAINNET_INFER_DEVICES   problem size (default 16)
//   CHAINNET_INFER_SECONDS   min seconds per timed loop or per
//                            interleaved row (default 0.4)
//   CHAINNET_INFER_OUT       output JSON path (default BENCH_infer.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/chainnet.h"
#include "core/surrogate.h"
#include "edge/graph.h"
#include "edge/problem.h"
#include "gnn/metrics.h"
#include "gnn/model.h"
#include "gnn/plan.h"
#include "gnn/plan_compiler.h"
#include "optim/annealing.h"
#include "optim/evaluator.h"
#include "optim/initial.h"
#include "support/json.h"
#include "support/rng.h"
#include "tensor/dtype.h"
#include "tensor/kernels.h"

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

/// Runs `body` (which evaluates `unit` placements per call) repeatedly for
/// at least min_seconds and returns aggregate placements/s.
double time_rate(double min_seconds, int unit,
                 const std::function<void()>& body) {
  body();  // warm up (packs weights, sizes workspaces)
  const auto start = Clock::now();
  long evaluated = 0;
  double elapsed = 0.0;
  do {
    body();
    evaluated += unit;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return evaluated / elapsed;
}

/// Median and quartiles of per-repetition placements/s.
struct Rates {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
};

/// Linear-interpolated quantile of sorted samples.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Rates summarize(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end());
  return {quantile(rates, 0.5), quantile(rates, 0.25), quantile(rates, 0.75)};
}

/// One timed row: body(r) evaluates `unit` placements at repetition r.
struct Timed {
  int unit;
  std::function<void(std::size_t)> body;
};

/// Times the rows as interleaved repetitions: every row once per
/// repetition, in order, until each has run min_reps times and the rows
/// together min_seconds per row. Returns each row's rates, in order.
std::vector<Rates> time_interleaved(double min_seconds, std::size_t min_reps,
                                    const std::vector<Timed>& rows) {
  std::vector<std::vector<double>> rates(rows.size());
  for (const Timed& row : rows) row.body(0);  // warm up: packs, workspaces
  double total = 0.0;
  const double budget = min_seconds * static_cast<double>(rows.size());
  for (std::size_t r = 0; r < min_reps || total < budget; ++r) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto start = Clock::now();
      rows[i].body(r);
      const double s =
          std::chrono::duration<double>(Clock::now() - start).count();
      total += s;
      rates[i].push_back(rows[i].unit / s);
    }
  }
  std::vector<Rates> out;
  for (auto& r : rates) out.push_back(summarize(std::move(r)));
  return out;
}

support::Json rates_json(const Rates& r) {
  support::Json::Object o;
  o["median"] = r.median;
  o["q1"] = r.q1;
  o["q3"] = r.q3;
  return o;
}

void print_rates(const char* label, const Rates& r) {
  std::printf("  %-34s %12.1f  [q1 %.1f, q3 %.1f]\n", label, r.median, r.q1,
              r.q3);
}

/// Same SA-style visitation pattern the search drivers produce.
std::vector<edge::Placement> walk_placements(const edge::EdgeSystem& system,
                                             int count,
                                             std::uint64_t seed = 17) {
  std::vector<edge::Placement> placements;
  placements.reserve(static_cast<std::size_t>(count));
  edge::Placement current = optim::initial_placement(system);
  support::Rng rng(seed);
  const optim::SaConfig cfg;
  for (int i = 0; i < count; ++i) {
    edge::Placement next;
    if (propose_move(system, current, rng, cfg, next)) current = next;
    placements.push_back(current);
  }
  return placements;
}

/// Section 7: every (dtype, n) cell of the kernel table runs once per
/// repetition, in a fixed order, until each has min_reps samples and the
/// table has run min_seconds; a sample times enough back-to-back calls to
/// last about 100 us. Calls only the public kernels:: API.
support::Json kernel_table(double min_seconds) {
  constexpr std::size_t kRows = 192;  // 3H gate rows of phi_c, H = 64
  constexpr std::size_t kCols = 128;  // its 2H message input
  const std::size_t widths[] = {1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 33, 65,
                                128, 384};
  constexpr std::size_t kMaxN = 384;
  support::Rng rng(23);
  std::vector<double> w(kRows * kCols), b(kRows), x(kCols * kMaxN);
  for (auto* v : {&w, &b, &x}) {
    for (double& e : *v) e = rng.uniform(-1.0, 1.0);
  }
  const std::vector<float> wf(w.begin(), w.end()), bf(b.begin(), b.end()),
      xf(x.begin(), x.end());
  std::vector<double> y(kRows * kMaxN);
  std::vector<float> yf(kRows * kMaxN);

  struct Cell {
    const char* dtype;
    std::size_t n;
    std::function<void()> call;
    int reps = 1;
    std::vector<double> us;
  };
  std::vector<Cell> cells;
  const auto add_cells = [&](const char* dtype, const auto* wp,
                             const auto* bp, const auto* xp, auto* yp) {
    for (const std::size_t n : widths) {
      const auto call = [=] {
        tensor::kernels::gemm(wp, bp, xp, yp, kRows, kCols, n);
      };
      cells.push_back({dtype, n, call, 1, {}});
    }
  };
  add_cells("f64", w.data(), b.data(), x.data(), y.data());
  add_cells("f32", wf.data(), bf.data(), xf.data(), yf.data());
  const auto seconds = [](const std::function<void()>& call, int reps) {
    const auto start = Clock::now();
    for (int i = 0; i < reps; ++i) call();
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (Cell& cell : cells) {
    cell.call();  // warm up: packs the scratch, faults in the output
    const double once = seconds(cell.call, 1);
    cell.reps = static_cast<int>(std::clamp(100e-6 / once, 1.0, 1000.0));
  }
  constexpr std::size_t kMinReps = 101;
  double total = 0.0;
  for (std::size_t r = 0; r < kMinReps || total < min_seconds; ++r) {
    for (Cell& cell : cells) {
      const double s = seconds(cell.call, cell.reps);
      total += s;
      cell.us.push_back(s / cell.reps * 1e6);
    }
  }

  std::printf("\nkernel table: gemm on the %zux%zu phi_c pack, kernels=%s\n",
              kRows, kCols, tensor::kernels::isa());
  std::printf("  %5s %-6s %10s %10s %10s\n", "n", "dtype", "us median",
              "q1", "q3");
  support::Json::Array rows;
  for (Cell& cell : cells) {
    const Rates us = summarize(std::move(cell.us));
    std::printf("  %5zu %-6s %10.2f %10.2f %10.2f\n", cell.n, cell.dtype,
                us.median, us.q1, us.q3);
    support::Json::Object row;
    row["dtype"] = cell.dtype;
    row["n"] = static_cast<double>(cell.n);
    row["us_per_call"] = rates_json(us);
    rows.push_back(std::move(row));
  }
  support::Json::Object table;
  table["rows"] = static_cast<double>(kRows);
  table["cols"] = static_cast<double>(kCols);
  table["kernel_isa"] = tensor::kernels::isa();
  table["cells"] = std::move(rows);
  return table;
}

bool same_outputs(const std::vector<gnn::ChainValues>& a,
                  const std::vector<gnn::ChainValues>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].has_throughput != b[i].has_throughput ||
        a[i].has_latency != b[i].has_latency)
      return false;
    if (a[i].has_throughput && a[i].throughput != b[i].throughput)
      return false;
    if (a[i].has_latency && a[i].latency != b[i].latency) return false;
  }
  return true;
}

}  // namespace

int main() {
  int devices = env_int("CHAINNET_INFER_DEVICES", 16);
  const double min_seconds = env_double("CHAINNET_INFER_SECONDS", 0.4);
  const char* out_env = std::getenv("CHAINNET_INFER_OUT");
  const std::string out_path = out_env ? out_env : "BENCH_infer.json";

  auto params = edge::PlacementProblemParams::paper(devices);
  if (devices <= params.max_fragments) {
    devices = params.max_fragments + 1;
    params.num_devices = devices;
  }
  support::Rng gen_rng(5);
  const auto system = edge::generate_placement_problem(params, gen_rng);

  // Paper-sized model (Table IV): hidden 64, 8 message-passing iterations.
  const auto cfg = core::ChainNetConfig::paper();
  support::Rng init(1);
  core::ChainNet model(cfg, init);

  constexpr int kBatchMax = 32;
  const auto placements = walk_placements(system, kBatchMax);
  std::vector<edge::PlacementGraph> graphs;
  graphs.reserve(placements.size());
  for (const auto& p : placements) {
    graphs.push_back(edge::build_graph(system, p, model.feature_mode()));
  }
  std::vector<const edge::PlacementGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  std::printf(
      "bench_infer: hidden=%d iterations=%d, %d chains, %d devices, "
      "kernels=%s\n",
      cfg.hidden, cfg.iterations, system.num_chains(), system.num_devices(),
      tensor::kernels::isa());

  // Parity gate: the B=1 replay of the first placement and every lane of
  // the B=32 replay must be bit-identical to the interpreted Algorithm-2
  // walk over the pre-fusion kernels on that lane's graph, before any
  // throughput number is worth reporting.
  const auto replay_out = model.forward_values(graphs[0]);
  const auto replay_batch = model.forward_values_batch(ptrs);
  bool plan_parity = same_outputs(replay_out, replay_batch[0]);
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    // LINT:interpret(parity gate — replay must reproduce the reference walk)
    const auto reference = model.forward_values_interpreted(*ptrs[i]);
    plan_parity = plan_parity && same_outputs(reference, replay_batch[i]);
  }
  if (!plan_parity) {
    std::printf("PARITY FAILURE: plan replay != interpreted — aborting\n");
    return 1;
  }
  std::printf("parity: plan replay bit-identical to the interpreted walk "
              "at B=1 and in every B=32 lane\n\n");

  // 1. Single stream: one placement per repetition, cycling through the
  //    walk; both sides of a pair score the same placement.
  const std::vector<Rates> single_rates = time_interleaved(
      min_seconds, ptrs.size(),
      {{1, [&](std::size_t r) { model.forward_values(*ptrs[r % ptrs.size()]); }},
       {1, [&](std::size_t r) {
          // LINT:interpret(benchmark baseline — timing the reference walk)
          model.forward_values_interpreted(*ptrs[r % ptrs.size()]);
        }}});
  const Rates& replay_b1 = single_rates[0];
  const Rates& interp_b1 = single_rates[1];
  std::printf("single-stream (placements/s, median of interleaved reps)\n");
  print_rates("interpreted walk B=1", interp_b1);
  print_rates("plan replay B=1", replay_b1);
  std::printf("  replay / interpreted: %.2fx\n\n",
              replay_b1.median / interp_b1.median);

  // The reduced-precision tier (section 5): the same weights (same init
  // seed) replayed through the f32 kernel table, and a bf16-storage copy.
  auto cfg_f32 = cfg;
  cfg_f32.dtype = tensor::DType::kF32;
  support::Rng init_f32(1);
  core::ChainNet model_f32(cfg_f32, init_f32);
  auto cfg_bf16 = cfg;
  cfg_bf16.dtype = tensor::DType::kBf16;
  support::Rng init_bf16(1);
  core::ChainNet model_bf16(cfg_bf16, init_bf16);

  // 2. Batched forward over prebuilt graphs: the f64 rows, then the f32
  //    rows section 5 reports, all twelve interleaved.
  constexpr int kBatches[] = {1, 2, 4, 8, 16, 32};
  constexpr std::size_t kBatchRows = std::size(kBatches);
  constexpr std::size_t kBatchReps = 9;
  std::vector<Timed> batch_bodies;
  for (core::ChainNet* m : {&model, &model_f32}) {
    for (const int b : kBatches) {
      const std::span<const edge::PlacementGraph* const> span(
          ptrs.data(), static_cast<std::size_t>(b));
      batch_bodies.push_back(
          {b, [m, span](std::size_t) { m->forward_values_batch(span); }});
    }
  }
  const std::vector<Rates> batch_rates =
      time_interleaved(min_seconds, kBatchReps, batch_bodies);
  const auto batch_row = [](int b, const Rates& r) {
    support::Json::Object row;
    row["batch"] = b;
    row["placements_per_s"] = r.median;
    row["q1"] = r.q1;
    row["q3"] = r.q3;
    return row;
  };
  std::printf("batched forward_values_batch (aggregate placements/s, "
              "median of interleaved reps)\n");
  std::printf("  %5s %14s %10s %10s %10s\n", "B", "placements/s", "q1", "q3",
              "vs B=1");
  support::Json::Array batch_rows;
  const double b1_rate = batch_rates[0].median;
  for (std::size_t i = 0; i < kBatchRows; ++i) {
    const Rates& r = batch_rates[i];
    std::printf("  %5d %14.1f %10.1f %10.1f %9.2fx\n", kBatches[i], r.median,
                r.q1, r.q3, r.median / b1_rate);
    support::Json::Object row = batch_row(kBatches[i], r);
    row["speedup_vs_b1"] = r.median / b1_rate;
    batch_rows.push_back(std::move(row));
  }
  const double b_last_rate = batch_rates[kBatchRows - 1].median;
  const double b32_vs_b1 = b_last_rate / b1_rate;

  // 3. Compiled execution plans: one-time compile cost per width, measured
  //    on fresh compile_plan calls (the cache path is what production
  //    hits, but the cost it saves is exactly this).
  gnn::PlanShape shape;
  shape.hidden = cfg.hidden;
  shape.iterations = cfg.iterations;
  shape.attention_heads = cfg.attention_heads;
  shape.modified_outputs = cfg.modified_outputs;
  shape.attention_aggregation = cfg.attention_aggregation;
  const auto compile_ms = [&](int width) {
    constexpr int kReps = 50;
    const auto start = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto plan = gnn::compile_plan(graphs[0], shape, width);
      (void)plan;
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
               .count() /
           kReps;
  };
  const double compile_ms_b1 = compile_ms(1);
  const double compile_ms_b32 = compile_ms(kBatchMax);
  std::printf("\ncompiled plans\n");
  std::printf("  %-34s %9.3f ms\n", "plan compile, width 1", compile_ms_b1);
  std::printf("  %-34s %9.3f ms\n", "plan compile, width 32", compile_ms_b32);

  // 4. End-to-end surrogate objective: what the optimizer actually calls.
  //    Scalar = allocate a fresh graph per candidate and replay it alone;
  //    batched = workspace reuse + one batched replay.
  const double e2e_scalar = time_rate(min_seconds, kBatchMax, [&] {
    for (const auto& p : placements) {
      const auto graph = edge::build_graph(system, p, model.feature_mode());
      double total = 0.0;
      for (const auto& perf : gnn::predict_physical(model, graph)) {
        total += perf.throughput;
      }
      (void)total;
    }
  });
  core::Surrogate surrogate(model);
  std::vector<double> scores(placements.size());
  const double e2e_batched = time_rate(min_seconds, kBatchMax, [&] {
    surrogate.total_throughput_batch(system, placements, scores);
  });
  std::printf("\nend-to-end surrogate objective (placements/s)\n");
  std::printf("  %-38s %12.0f\n", "scalar (fresh graphs, B=1 replay)",
              e2e_scalar);
  std::printf("  %-38s %12.0f  (%.2fx)\n",
              "batched B=32 (workspace reuse)", e2e_batched,
              e2e_batched / e2e_scalar);

  // 5. Reduced-precision tier: f32 single stream, the f32 batched rows
  //    timed in section 2, and the headline f32-B32 vs f64-B32 ratio the
  //    acceptance bar pins.
  const double f32_single_rate = time_rate(min_seconds, kBatchMax, [&] {
    for (const auto* g : ptrs) model_f32.forward_values(*g);
  });
  std::printf("\nreduced-precision tier: f32 kernels + converted weights\n");
  std::printf("  single-stream %10.0f placements/s  (%.2fx vs f64)\n",
              f32_single_rate, f32_single_rate / replay_b1.median);
  std::printf("  %5s %14s %10s %10s %12s\n", "B", "placements/s", "q1", "q3",
              "vs f64");
  support::Json::Array f32_batch_rows;
  for (std::size_t i = 0; i < kBatchRows; ++i) {
    const Rates& r = batch_rates[kBatchRows + i];
    const double vs = r.median / batch_rates[i].median;
    std::printf("  %5d %14.1f %10.1f %10.1f %11.2fx\n", kBatches[i], r.median,
                r.q1, r.q3, vs);
    support::Json::Object row = batch_row(kBatches[i], r);
    row["speedup_vs_f64"] = vs;
    f32_batch_rows.push_back(std::move(row));
  }
  const double f32_vs_f64_b32 =
      batch_rates[2 * kBatchRows - 1].median / b_last_rate;
  std::printf("  f32 B=32 vs f64 B=32: %.2fx\n", f32_vs_f64_b32);

  // Analytic traffic estimate: each parameter streamed once per
  // message-passing iteration (per-step re-reads assumed cache-resident;
  // encoder/readout weights slightly overcounted), amortized over the
  // batch, plus the plan arena written and read once per replay. A model
  // of memory *demand*, not a counter measurement — good for comparing
  // tiers and batch widths, not for absolute DRAM numbers.
  const std::size_t param_count = model.parameter_count();
  const auto traffic_row = [&](tensor::DType dtype, int b, double rate,
                               support::Json::Array& rows) {
    const std::size_t eb = tensor::dtype_element_bytes(dtype);
    gnn::PlanShape tier_shape = shape;
    tier_shape.dtype = dtype;
    const auto plan = gnn::compile_plan(graphs[0], tier_shape, b);
    const double weight_stream =
        static_cast<double>(param_count * eb) * cfg.iterations;
    const double arena_bytes =
        static_cast<double>(plan->meta.scratch_elems) *
        static_cast<double>(eb);
    const double per_placement = (weight_stream + 2.0 * arena_bytes) / b;
    const double gb_per_s = per_placement * rate / 1e9;
    std::printf("  %-5s %5d %14.0f %15.0f %10.2f\n",
                tensor::dtype_name(dtype), b, rate, per_placement, gb_per_s);
    support::Json::Object row;
    row["dtype"] = std::string(tensor::dtype_name(dtype));
    row["batch"] = b;
    row["placements_per_s"] = rate;
    row["est_bytes_per_placement"] = per_placement;
    row["effective_gb_per_s"] = gb_per_s;
    rows.push_back(std::move(row));
  };
  std::printf("\nestimated memory traffic (analytic weight+arena model)\n");
  std::printf("  %-5s %5s %14s %15s %10s\n", "dtype", "B", "placements/s",
              "est bytes/pl", "eff GB/s");
  support::Json::Array traffic_rows;
  for (std::size_t i = 0; i < kBatchRows; ++i) {
    traffic_row(tensor::DType::kF64, kBatches[i], batch_rates[i].median,
                traffic_rows);
  }
  for (std::size_t i = 0; i < kBatchRows; ++i) {
    traffic_row(tensor::DType::kF32, kBatches[i],
                batch_rates[kBatchRows + i].median, traffic_rows);
  }

  // 6. Ranking-fidelity gate. The committed thresholds: the reduced tiers
  //    must reproduce the f64 ordering of SA-neighbor objectives on at
  //    least this fraction of comparable pairs, and a fixed-step SA run
  //    on the f32 oracle must land within the noise band of the f64 run's
  //    objective-at-budget.
  constexpr double kF32RankGate = 0.97;
  constexpr double kBf16RankGate = 0.90;
  constexpr double kSaObjectiveBand = 0.02;  // |f32 - f64| / f64
  constexpr int kRankSample = 128;
  const auto gate_placements = walk_placements(system, kRankSample, 97);
  std::vector<double> obj_f64(gate_placements.size());
  std::vector<double> obj_f32(gate_placements.size());
  std::vector<double> obj_bf16(gate_placements.size());
  core::Surrogate(model).total_throughput_batch(system, gate_placements,
                                                obj_f64);
  core::Surrogate(model_f32).total_throughput_batch(system, gate_placements,
                                                    obj_f32);
  core::Surrogate(model_bf16).total_throughput_batch(system, gate_placements,
                                                     obj_bf16);
  const auto rank_f32 = gnn::pairwise_rank_agreement(obj_f64, obj_f32);
  const auto rank_bf16 = gnn::pairwise_rank_agreement(obj_f64, obj_bf16);
  std::printf("\nranking fidelity vs f64 (%d SA-neighbor placements)\n",
              kRankSample);
  std::printf("  %-5s %12s %12s %8s %10s  gate >= %s\n", "tier", "concordant",
              "discordant", "ties", "agreement", "threshold");
  const auto print_rank = [](const char* tier, const gnn::RankAgreement& r,
                             double gate) {
    std::printf("  %-5s %12llu %12llu %8llu %10.4f  %.2f %s\n", tier,
                static_cast<unsigned long long>(r.concordant),
                static_cast<unsigned long long>(r.discordant),
                static_cast<unsigned long long>(r.reference_ties),
                r.agreement(), gate, r.agreement() >= gate ? "PASS" : "FAIL");
  };
  print_rank("f32", rank_f32, kF32RankGate);
  print_rank("bf16", rank_bf16, kBf16RankGate);

  // Objective-at-budget: identical SA schedule/seed on each tier's oracle;
  // trajectories may diverge (accept decisions compare tier objectives)
  // but the achieved objective must not.
  optim::SaConfig sa;
  sa.max_steps = 2000;
  sa.seed = 404;
  const auto initial = optim::initial_placement(system);
  core::Surrogate sur_f64(model);
  optim::SurrogateEvaluator eval_f64(sur_f64);
  const auto sa_f64 = optim::anneal(system, initial, eval_f64, sa);
  core::Surrogate sur_f32(model_f32);
  optim::SurrogateEvaluator eval_f32(sur_f32);
  const auto sa_f32 = optim::anneal(system, initial, eval_f32, sa);
  // Both tiers' best placements are re-scored by the f64 oracle so the
  // comparison measures search quality, not the tiers' score offsets.
  const double sa_f32_rescored =
      eval_f64.total_throughput(system, sa_f32.best);
  const double sa_rel_diff =
      std::abs(sa_f32_rescored - sa_f64.best_objective) /
      std::abs(sa_f64.best_objective);
  const bool sa_pass = sa_rel_diff <= kSaObjectiveBand;
  std::printf("\nSA objective at %d steps (f64-rescored best placements)\n",
              sa.max_steps);
  std::printf("  f64 oracle %.6f | f32 oracle %.6f | rel diff %.4f "
              "(band %.2f) %s\n",
              sa_f64.best_objective, sa_f32_rescored, sa_rel_diff,
              kSaObjectiveBand, sa_pass ? "PASS" : "FAIL");

  const bool gate_pass = rank_f32.agreement() >= kF32RankGate &&
                         rank_bf16.agreement() >= kBf16RankGate && sa_pass;

  // 7. Per-width kernel table.
  support::Json kernels_doc = kernel_table(min_seconds);

  support::Json::Object doc;
  support::Json::Object config;
  config["hidden"] = cfg.hidden;
  config["iterations"] = cfg.iterations;
  config["devices"] = system.num_devices();
  config["chains"] = system.num_chains();
  config["kernel_isa"] = tensor::kernels::isa();
  doc["config"] = std::move(config);
  support::Json::Object single;
  single["interpreted_b1_placements_per_s"] = rates_json(interp_b1);
  single["replay_b1_placements_per_s"] = rates_json(replay_b1);
  single["replay_vs_interpret_b1_speedup"] =
      replay_b1.median / interp_b1.median;
  doc["single_stream"] = std::move(single);
  doc["batched"] = std::move(batch_rows);
  doc["batch32_vs_batch1_speedup"] = b32_vs_b1;
  support::Json::Object plan_sec;
  plan_sec["compile_ms_width1"] = compile_ms_b1;
  plan_sec["compile_ms_width32"] = compile_ms_b32;
  doc["plan"] = std::move(plan_sec);
  support::Json::Object e2e;
  e2e["scalar_placements_per_s"] = e2e_scalar;
  e2e["batched32_placements_per_s"] = e2e_batched;
  e2e["speedup"] = e2e_batched / e2e_scalar;
  doc["end_to_end"] = std::move(e2e);

  support::Json::Object rp;
  rp["f32_single_stream_placements_per_s"] = f32_single_rate;
  rp["f32_single_stream_vs_f64"] = f32_single_rate / replay_b1.median;
  rp["f32_batched"] = std::move(f32_batch_rows);
  rp["f32_b32_vs_f64_b32_speedup"] = f32_vs_f64_b32;
  const auto rank_json = [](const gnn::RankAgreement& r, double gate) {
    support::Json::Object o;
    o["concordant"] = static_cast<double>(r.concordant);
    o["discordant"] = static_cast<double>(r.discordant);
    o["reference_ties"] = static_cast<double>(r.reference_ties);
    o["agreement"] = r.agreement();
    o["threshold"] = gate;
    o["pass"] = r.agreement() >= gate;
    return o;
  };
  rp["rank_sample_placements"] = kRankSample;
  rp["rank_f32"] = rank_json(rank_f32, kF32RankGate);
  rp["rank_bf16"] = rank_json(rank_bf16, kBf16RankGate);
  support::Json::Object sa_doc;
  sa_doc["steps"] = sa.max_steps;
  sa_doc["f64_best_objective"] = sa_f64.best_objective;
  sa_doc["f32_best_objective_rescored_f64"] = sa_f32_rescored;
  sa_doc["rel_diff"] = sa_rel_diff;
  sa_doc["band"] = kSaObjectiveBand;
  sa_doc["pass"] = sa_pass;
  rp["sa_objective_at_budget"] = std::move(sa_doc);
  rp["gate_pass"] = gate_pass;
  doc["reduced_precision"] = std::move(rp);
  doc["traffic"] = std::move(traffic_rows);
  doc["kernel_table"] = std::move(kernels_doc);

  std::ofstream out(out_path);
  out << support::Json(std::move(doc)).dump(2) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!gate_pass) {
    std::printf("RANK-FIDELITY GATE FAILURE: reduced tier regressed beyond "
                "the committed thresholds\n");
    return 1;
  }
  return 0;
}
