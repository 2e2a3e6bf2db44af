// bench_serve_scale — SLO load harness for the scale-out serving tier.
//
// Drives a serve::Router in front of N in-process serve::Server backends
// with an OPEN-LOOP load generator: arrivals follow a precomputed Poisson
// schedule and are injected at their scheduled instants regardless of how
// the system is doing, so queueing delay shows up in the measured latency
// instead of silently throttling the generator (closed-loop benches
// flatter an overloaded server). Latency is measured from the *scheduled*
// arrival, per-tenant deadline classes ride on the requests, and typed
// rejects (overloaded / deadline_exceeded / upstream_failed) are counted
// as shed.
//
// The backends run an EMULATED oracle: every placement evaluation sleeps a
// fixed service time instead of running the GNN. That makes each backend's
// capacity analytically known (workers / service_time) and — crucially —
// time-bound rather than CPU-bound, so on the single-core hosts this repo
// targets the harness still measures the *serving tier* (routing, batching,
// admission, failover) and goodput genuinely scales with backend count, as
// it would when each backend fronts its own accelerator.
//
// Tenancy is arranged so the capacity formula is actually reachable: the
// flusher only batches a prefix of SAME-system placements, so each backend
// gets one tenant system whose name is searched (on the same deterministic
// HashRing the router builds) to consistent-hash onto that backend, and
// max_batch = workers so one full batch saturates the pool in a single
// service time. Each tenant system carries two deadline classes (strict /
// lax), and max_pending is a small multiple of max_batch so overload turns
// into fast typed "overloaded" rejects instead of unbounded queue latency.
//
// Two experiments, emitted to BENCH_serve_scale.json (override with
// CHAINNET_SCALE_OUT):
//   scaling:        fixed offered load (1.15x the 3-backend capacity)
//                   against N = 1, 2, 3 backends -> goodput must grow with N
//   overload_sweep: N = 3 backends, offered load swept from 0.4x to 1.8x of
//                   capacity -> goodput saturates, shed rate rises
//                   monotonically
//
//   CHAINNET_SCALE_SERVICE_US  emulated per-placement service time (20000)
//   CHAINNET_SCALE_WORKERS     pool workers per backend (4)
//   CHAINNET_SCALE_BACKENDS    max backends N (3)
//   CHAINNET_SCALE_SECONDS     open-loop seconds per point (2.0)
//   CHAINNET_SCALE_OUT         output JSON path (BENCH_serve_scale.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "edge/problem.h"
#include "optim/evaluator.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/hash_ring.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "support/json.h"
#include "support/rng.h"

namespace {

using namespace chainnet;
using Clock = std::chrono::steady_clock;

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value ? std::atof(value) : fallback;
}

/// Fixed-service-time oracle: evaluation cost is wall time, not CPU. The
/// returned value is a deterministic function of the placement so repeated
/// queries stay consistent.
class EmulatedEvaluator final : public optim::PlacementEvaluator {
 public:
  explicit EmulatedEvaluator(std::chrono::microseconds service)
      : service_(service) {}

  double total_throughput(const edge::EdgeSystem&,
                          const edge::Placement& placement) override {
    record_evaluation();
    std::this_thread::sleep_for(service_);
    return 1.0 + static_cast<double>(placement.canonical_hash() % 997);
  }

 private:
  std::chrono::microseconds service_;
};

struct HarnessConfig {
  int service_us = 20000;
  int workers = 4;
  int max_backends = 3;
  double seconds = 2.0;
  double strict_deadline_ms = 150.0;
  double lax_deadline_ms = 400.0;
  /// Admission bound, in batches: queue wait tops out around
  /// queue_batches * service_time, comfortably under the strict deadline.
  int queue_batches = 3;

  /// Placements per second one backend can absorb: max_batch = workers, so
  /// a full batch fans one placement per worker and completes in one
  /// service time.
  double backend_capacity() const {
    return static_cast<double>(workers) * 1e6 / service_us;
  }
  /// Worst-case round trip of an ACCEPTED request: full admission queue
  /// ahead of it plus its own batch, plus scheduling slack.
  double accepted_rtt_s() const {
    return (queue_batches + 1) * service_us / 1e6 + 0.02;
  }
};

/// One tenant system name per backend, searched so that the router's
/// deterministic ring (same backend count, same vnodes) hashes each name
/// onto its own backend. This is what makes per-backend queues
/// single-system — the flusher batches a prefix of same-system placements,
/// so mixed-tenant queues would degrade batches toward size 1.
std::vector<std::string> pinned_tenant_names(int backends, int vnodes) {
  const serve::HashRing ring(static_cast<std::size_t>(backends), vnodes);
  std::vector<std::string> names(static_cast<std::size_t>(backends));
  std::vector<char> found(static_cast<std::size_t>(backends), 0);
  int remaining = backends;
  for (int k = 0; remaining > 0; ++k) {
    const std::string name = "tenant-" + std::to_string(k);
    const std::size_t b = ring.pick(serve::HashRing::hash_bytes(name));
    if (!found[b]) {
      found[b] = 1;
      names[b] = name;
      --remaining;
    }
  }
  return names;
}

struct PointResult {
  int backends = 0;
  double offered_qps = 0.0;
  double elapsed_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok_within_deadline = 0;
  std::uint64_t ok_late = 0;
  std::uint64_t shed_overloaded = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_upstream = 0;
  std::uint64_t shed_other = 0;
  std::uint64_t transport_errors = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  double goodput_qps() const {
    return elapsed_s > 0.0 ? static_cast<double>(ok_within_deadline) /
                                 elapsed_s
                           : 0.0;
  }
  std::uint64_t shed_total() const {
    return shed_overloaded + shed_deadline + shed_upstream + shed_other;
  }
  double shed_rate() const {
    return sent > 0 ? static_cast<double>(shed_total()) / sent : 0.0;
  }
};

/// One backend process-in-miniature: pool + service + server, constructed
/// in dependency order.
struct Backend {
  std::unique_ptr<runtime::ThreadPool> pool;
  std::unique_ptr<runtime::EvalService> service;
  std::unique_ptr<serve::Server> server;
};

PointResult run_point(const HarnessConfig& harness,
                      const edge::EdgeSystem& system,
                      const std::vector<edge::Placement>& placements,
                      int backends, double offered_qps) {
  const auto service_time = std::chrono::microseconds(harness.service_us);
  runtime::EvalService::EvaluatorFactory factory =
      [service_time](support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
    return std::make_unique<EmulatedEvaluator>(service_time);
  };

  std::vector<Backend> fleet;
  serve::RouterConfig router_cfg;
  const auto tenant_names =
      pinned_tenant_names(backends, router_cfg.vnodes_per_backend);
  for (int b = 0; b < backends; ++b) {
    Backend backend;
    backend.pool = std::make_unique<runtime::ThreadPool>(harness.workers);
    backend.service = std::make_unique<runtime::EvalService>(
        *backend.pool, factory, 7 + static_cast<std::uint64_t>(b));
    serve::ServerConfig server_cfg;
    server_cfg.max_batch = harness.workers;
    server_cfg.flush_window_ms = 0.2;
    // Tight admission bound: anything past queue_batches full batches is
    // answered "overloaded" immediately, which keeps accepted-request
    // latency bounded by accepted_rtt() and frees generator connections
    // fast under overload.
    server_cfg.max_pending = static_cast<std::size_t>(
        harness.queue_batches * harness.workers);
    backend.server =
        std::make_unique<serve::Server>(*backend.service, server_cfg);
    // Every backend loads every tenant system so a failover (health-probe
    // ejection mid-run) reroutes cleanly instead of "unknown system".
    for (const auto& name : tenant_names) {
      backend.server->add_system(name, system);
    }
    backend.server->start();
    router_cfg.backends.push_back(
        serve::BackendAddress{"127.0.0.1", backend.server->port()});
    fleet.push_back(std::move(backend));
  }
  // System affinity + one pinned tenant system per backend: each backend's
  // pending queue stays single-system, so flusher batches fill to
  // max_batch and the analytic capacity is actually reachable.
  router_cfg.affinity = serve::RouteAffinity::kSystem;
  router_cfg.health_interval_ms = 100.0;
  router_cfg.metrics_port = -1;  // the metrics path has its own test
  serve::Router router(router_cfg);
  router.start();

  // Precompute the Poisson arrival schedule (open loop: the offered load
  // is a property of the schedule, not of how fast the system answers).
  support::Rng arrivals_rng(42);
  const std::size_t total = static_cast<std::size_t>(
      std::max(1.0, offered_qps * harness.seconds));
  std::vector<double> schedule(total);
  double t = 0.0;
  for (std::size_t i = 0; i < total; ++i) {
    t += arrivals_rng.exponential(1.0 / offered_qps);
    schedule[i] = t;
  }

  // Enough connections that the generator never becomes the bottleneck:
  // accepted requests hold a connection for at most accepted_rtt() (the
  // admission queue is bounded), rejects return in ~a millisecond, so
  // offered * accepted_rtt * 1.5 connections keep the schedule on time
  // even if every request were accepted and worst-case slow.
  const int clients = static_cast<int>(std::clamp(
      offered_qps * harness.accepted_rtt_s() * 1.5, 16.0, 96.0));

  std::atomic<std::size_t> next{0};
  std::vector<PointResult> partial(static_cast<std::size_t>(clients));
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PointResult& mine = partial[static_cast<std::size_t>(c)];
      auto& lat = latencies[static_cast<std::size_t>(c)];
      std::unique_ptr<serve::Client> client;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= schedule.size()) break;
        const auto scheduled =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(schedule[i]));
        std::this_thread::sleep_until(scheduled);
        // Tenant classes: each pinned system carries a strict-deadline and
        // a lax-deadline tenant, interleaved across arrivals.
        const std::size_t tenant = i % (2 * tenant_names.size());
        const std::string& tenant_system = tenant_names[tenant / 2];
        const double deadline_ms = tenant % 2 == 0
                                       ? harness.strict_deadline_ms
                                       : harness.lax_deadline_ms;
        const auto& placement = placements[i % placements.size()];
        ++mine.sent;
        try {
          if (!client) {
            client = std::make_unique<serve::Client>("127.0.0.1",
                                                     router.port());
          }
          client->evaluate_one(placement, tenant_system, deadline_ms);
          const double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - scheduled)
                                .count();
          lat.push_back(ms);
          if (ms <= deadline_ms) {
            ++mine.ok_within_deadline;
          } else {
            ++mine.ok_late;
          }
        } catch (const serve::ServeError& e) {
          switch (e.code()) {
            case serve::ErrorCode::kOverloaded: ++mine.shed_overloaded; break;
            case serve::ErrorCode::kDeadlineExceeded:
              ++mine.shed_deadline;
              break;
            case serve::ErrorCode::kUpstreamFailed:
              ++mine.shed_upstream;
              break;
            default: ++mine.shed_other; break;
          }
        } catch (const std::exception&) {
          ++mine.transport_errors;
          client.reset();  // reconnect on the next arrival
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  router.stop();
  for (auto& backend : fleet) backend.server->stop();

  PointResult result;
  result.backends = backends;
  result.offered_qps = offered_qps;
  result.elapsed_s = elapsed;
  std::vector<double> all;
  for (int c = 0; c < clients; ++c) {
    const PointResult& mine = partial[static_cast<std::size_t>(c)];
    result.sent += mine.sent;
    result.ok_within_deadline += mine.ok_within_deadline;
    result.ok_late += mine.ok_late;
    result.shed_overloaded += mine.shed_overloaded;
    result.shed_deadline += mine.shed_deadline;
    result.shed_upstream += mine.shed_upstream;
    result.shed_other += mine.shed_other;
    result.transport_errors += mine.transport_errors;
    all.insert(all.end(), latencies[static_cast<std::size_t>(c)].begin(),
               latencies[static_cast<std::size_t>(c)].end());
  }
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    result.p50_ms = all[all.size() / 2];
    // Nearest rank: the ceil(0.99 n)-th smallest sample, 1-based.
    result.p99_ms = all[static_cast<std::size_t>(std::ceil(
                            0.99 * static_cast<double>(all.size()))) -
                        1];
  }
  return result;
}

support::Json point_json(const PointResult& point) {
  support::Json row;
  row["backends"] = support::Json(point.backends);
  row["offered_qps"] = support::Json(point.offered_qps);
  row["goodput_qps"] = support::Json(point.goodput_qps());
  row["sent"] = support::Json(static_cast<double>(point.sent));
  row["ok_within_deadline"] =
      support::Json(static_cast<double>(point.ok_within_deadline));
  row["ok_late"] = support::Json(static_cast<double>(point.ok_late));
  row["shed_rate"] = support::Json(point.shed_rate());
  row["shed_overloaded"] =
      support::Json(static_cast<double>(point.shed_overloaded));
  row["shed_deadline"] =
      support::Json(static_cast<double>(point.shed_deadline));
  row["shed_upstream"] =
      support::Json(static_cast<double>(point.shed_upstream));
  row["transport_errors"] =
      support::Json(static_cast<double>(point.transport_errors));
  row["p50_ms"] = support::Json(point.p50_ms);
  row["p99_ms"] = support::Json(point.p99_ms);
  return row;
}

void print_point(const char* tag, const PointResult& point) {
  std::printf("  %-10s N=%d offered %7.0f/s -> goodput %7.0f/s "
              "(p50 %6.1fms, p99 %6.1fms, shed %4.1f%%, late %llu)\n",
              tag, point.backends, point.offered_qps, point.goodput_qps(),
              point.p50_ms, point.p99_ms, 100.0 * point.shed_rate(),
              static_cast<unsigned long long>(point.ok_late));
}

}  // namespace

int main() {
  HarnessConfig harness;
  harness.service_us = std::max(100, env_int("CHAINNET_SCALE_SERVICE_US",
                                             20000));
  harness.workers = std::max(1, env_int("CHAINNET_SCALE_WORKERS", 4));
  harness.max_backends = std::max(1, env_int("CHAINNET_SCALE_BACKENDS", 3));
  harness.seconds = std::max(0.2, env_double("CHAINNET_SCALE_SECONDS", 2.0));
  const char* out_env = std::getenv("CHAINNET_SCALE_OUT");
  const std::string out_path = out_env ? out_env : "BENCH_serve_scale.json";

  support::Rng gen_rng(5);
  const auto system = edge::generate_placement_problem(
      edge::PlacementProblemParams::paper(13), gen_rng);
  support::Rng placement_rng(23);
  std::vector<edge::Placement> placements;
  for (int i = 0; i < 64; ++i) {
    placements.push_back(edge::random_placement(system, placement_rng));
  }

  const double capacity_n =
      harness.backend_capacity() * harness.max_backends;
  std::printf("bench_serve_scale: emulated service %dus x %d workers -> "
              "%.0f placements/s per backend (%.0f/s at N=%d)\n\n",
              harness.service_us, harness.workers,
              harness.backend_capacity(), capacity_n, harness.max_backends);

  // Experiment 1: goodput scaling. The offered load exceeds what any
  // smaller fleet can serve, so goodput is capacity-limited at every N and
  // must grow as backends are added.
  std::printf("goodput scaling (offered %.0f/s fixed):\n",
              1.15 * capacity_n);
  std::vector<PointResult> scaling;
  for (int n = 1; n <= harness.max_backends; ++n) {
    scaling.push_back(run_point(harness, system, placements, n,
                                1.15 * capacity_n));
    print_point("scale", scaling.back());
  }

  // Experiment 2: overload sweep at full fleet size.
  static constexpr double kFractions[] = {0.4, 0.7, 0.9, 1.1, 1.4, 1.8};
  std::printf("\noverload sweep (N=%d, capacity %.0f/s):\n",
              harness.max_backends, capacity_n);
  std::vector<PointResult> sweep;
  for (const double fraction : kFractions) {
    sweep.push_back(run_point(harness, system, placements,
                              harness.max_backends, fraction * capacity_n));
    print_point("sweep", sweep.back());
  }

  support::Json doc;
  {
    support::Json config_doc;
    config_doc["service_us"] = support::Json(harness.service_us);
    config_doc["workers_per_backend"] = support::Json(harness.workers);
    config_doc["backend_capacity_qps"] =
        support::Json(harness.backend_capacity());
    config_doc["max_backends"] = support::Json(harness.max_backends);
    config_doc["seconds_per_point"] = support::Json(harness.seconds);
    config_doc["queue_batches"] = support::Json(harness.queue_batches);
    config_doc["strict_deadline_ms"] =
        support::Json(harness.strict_deadline_ms);
    config_doc["lax_deadline_ms"] = support::Json(harness.lax_deadline_ms);
    doc["config"] = std::move(config_doc);
  }
  {
    support::Json rows;
    for (const auto& point : scaling) rows.push_back(point_json(point));
    doc["scaling"] = std::move(rows);
  }
  {
    support::Json rows;
    for (const auto& point : sweep) rows.push_back(point_json(point));
    doc["overload_sweep"] = std::move(rows);
  }
  if (!scaling.empty()) {
    doc["scaling_goodput_ratio"] = support::Json(
        scaling.front().goodput_qps() > 0.0
            ? scaling.back().goodput_qps() / scaling.front().goodput_qps()
            : 0.0);
  }
  std::ofstream out(out_path);
  out << doc.dump(2) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
