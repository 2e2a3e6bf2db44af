// Scale-out front end: a router that speaks the same length-prefixed JSON
// protocol as serve::Server and consistent-hashes every eval request across
// N backend servers.
//
//   clients ──tcp──► Router ──tcp──► backend 0 (serve::Server)
//                      │    └──tcp──► backend 1
//                      │        ...
//                      ├─ health thread: stats-probe every backend on a
//                      │  timer; probe failure ejects a backend from the
//                      │  healthy mask, the next success reinstates it
//                      └─ metrics listener: GET anything -> Prometheus
//                         plain-text exposition of router + backend counters
//
// Routing policy: the key is the FNV-1a hash of the eval's system name
// (RouteAffinity::kSystem, the default) so all requests for one system land
// on one backend — that keeps each backend's EvalCache and graph-build
// workspaces hot for the systems it owns. kPlacement additionally folds the
// first placement's canonical_hash into the key: identical (system,
// placement) pairs still co-locate (cache hits survive) while distinct
// placements of a single hot system spread across all backends. Requests a
// router cannot attribute (malformed placements, absent system field) route
// on what is parseable; the backend owns rejecting them.
//
// Failure handling: a backend that fails mid-request (connect, write, or
// read) is ejected and the request is retried ONCE on the next healthy
// backend in ring-walk order; a second failure answers the client with the
// typed "upstream_failed" error. "load_system" and "reload" fan out to
// every backend; "stats" merges the router's own counters with a live
// per-backend snapshot; "ping" and "shutdown" are answered by the router.
// Both listeners are serve::Listener cores (listener.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/hash_ring.h"
#include "serve/listener.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "support/json.h"

namespace chainnet::serve {

/// One backend address in the router's static membership list.
struct BackendAddress {
  std::string host;
  int port = 0;

  std::string label() const { return host + ":" + std::to_string(port); }
};

/// What the routing key is built from; see the header comment.
enum class RouteAffinity {
  kSystem,     ///< system name only: one system -> one backend
  kPlacement,  ///< system name + first placement hash: spreads hot systems
};

struct RouterConfig {
  std::string host = "127.0.0.1";
  int port = 0;          ///< 0 binds an ephemeral port; see Router::port()
  int metrics_port = 0;  ///< Prometheus listener; -1 disables it entirely
  std::vector<BackendAddress> backends;
  int vnodes_per_backend = 128;
  RouteAffinity affinity = RouteAffinity::kSystem;
  /// Health-probe period. Each tick sends `stats` to every backend; the
  /// response doubles as the cached counter snapshot for /metrics.
  double health_interval_ms = 200.0;
  /// Per-attempt bound on connecting to a backend.
  double connect_timeout_ms = 1000.0;
};

/// Router-side counters (the backends keep their own; ServerMetrics).
/// LINT:counters — Counter is the relaxed-atomic type from metrics.h.
struct RouterMetrics : FrameMetrics {
  Counter evals_routed;        ///< eval requests answered by a backend
  Counter retries;             ///< evals re-routed after a backend failure
  Counter upstream_failures;   ///< evals answered with upstream_failed
  Counter fanout_requests;     ///< load_system / reload broadcasts
  Counter ejections;           ///< healthy -> unhealthy transitions
  Counter reinstatements;      ///< unhealthy -> healthy transitions
  Counter metrics_scrapes;
  LatencyHistogram route_latency;  ///< frame decoded -> response written
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();  // stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the client and metrics listeners and starts the accept + health
  /// threads. Backends do not need to be up yet — the health thread
  /// admits them as they appear. Throws std::runtime_error on bind failure.
  void start();

  /// Actually-bound ports (resolve port 0). Valid after start();
  /// metrics_port() is -1 when the metrics listener is disabled.
  int port() const noexcept { return listener_.port(); }
  int metrics_port() const noexcept { return metrics_listener_.port(); }

  /// Blocks until a client sends {"type":"shutdown"} or stop() is called;
  /// wait_for is the poll-friendly variant (true = shutdown, false =
  /// timeout).
  void wait() { listener_.wait(); }
  bool wait_for(std::chrono::milliseconds timeout) {
    return listener_.wait_for(timeout);
  }

  /// Stops accepting, joins every thread, closes every socket. Idempotent.
  /// Backends are left running — the router does not own them.
  void stop();

  const RouterMetrics& metrics() const noexcept { return metrics_; }

  /// Healthy flags by backend index, as the health thread last saw them.
  std::vector<char> healthy_snapshot() const;

  /// The `stats` response body: router counters, per-backend health and a
  /// live (best-effort) stats snapshot from each healthy backend.
  support::Json stats_json() const;

  /// The Prometheus text exposition served on the metrics port.
  std::string prometheus_text() const;

 private:
  void serve_client(int fd);
  void serve_metrics(int fd);
  void health_loop();

  // These return the serialized response payload: a routed eval relays the
  // backend's bytes verbatim instead of re-parsing and re-dumping them.
  std::string route_eval(const support::Json& request,
                         const std::string& payload,
                         std::vector<int>& upstreams);
  std::string fanout(const std::string& payload, std::vector<int>& upstreams);

  /// The consistent-hash key of an eval request (affinity-dependent).
  std::uint64_t routing_key(const support::Json& request) const;

  /// One request/response round trip against backend `b`, using (and
  /// maintaining) the caller's cached connection. A stale cached socket
  /// gets one transparent fresh-connect retry; returns false only when the
  /// backend is genuinely unreachable or misbehaving.
  bool backend_roundtrip(std::size_t b, const std::string& payload,
                         std::string& response, std::vector<int>& upstreams);
  int connect_backend(std::size_t b) const;
  /// A `stats` round trip on a fresh connection to backend `b`: the parsed
  /// reply, or null when the backend is unreachable or answers garbage.
  support::Json probe_stats(std::size_t b) const;

  /// Copies of healthy_ and backend_stats_, taken under one lock.
  std::pair<std::vector<char>, std::vector<support::Json>> health_state()
      const;
  void mark_backend(std::size_t b, bool healthy_now);

  RouterConfig config_;
  HashRing ring_;
  RouterMetrics metrics_;
  std::vector<Counter> backend_forwards_;  // sized once, never resized
  std::vector<Counter> backend_errors_;

  // Health state: written by the health thread and by sessions observing a
  // mid-request failure; read on every routing decision.
  mutable std::mutex health_mutex_;
  std::vector<char> healthy_;                  // GUARDED_BY(health_mutex_)
  std::vector<support::Json> backend_stats_;   // GUARDED_BY(health_mutex_)

  std::thread health_thread_;
  Listener listener_;
  Listener metrics_listener_;
};

}  // namespace chainnet::serve
