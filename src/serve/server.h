// TCP serving front end for the concurrent evaluation runtime, on the
// connection core of serve/listener.h: one session thread per connection
// speaks the length-prefixed JSON protocol of serve/protocol.h; eval
// requests are microbatched across connections into
// EvalService::evaluate_batch by a dedicated flusher thread (flush when
// max_batch placements pend or the oldest has waited flush_window_ms).
// Admission control bounds the pending queue — a full queue fast-rejects
// with a typed "overloaded" error — and per-request deadlines drop expired
// work *before* it reaches an evaluator. stop() shuts down gracefully: stop
// accepting, drain the pending queue, answer every in-flight request, then
// join the sessions.
//
// Threading map (all TSan-clean):
//   session threads -> parse requests, enqueue eval items, wait on the
//                      request future, write the response (in order per
//                      connection; concurrency comes from connections)
//   flusher thread  -> forms batches, calls EvalService, fulfills promises
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "edge/model.h"
#include "edge/placement.h"
#include "runtime/eval_cache.h"
#include "runtime/eval_service.h"
#include "serve/listener.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "tensor/dtype.h"

namespace chainnet::serve {

class ModelRegistry;

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 binds an ephemeral port; see Server::port()
  /// Flush a batch as soon as this many placements pend.
  int max_batch = 32;
  /// ... or once the oldest pending placement has waited this long.
  double flush_window_ms = 0.5;
  /// Admission bound: placements pending beyond this are fast-rejected.
  std::size_t max_pending = 1024;
  /// Optional: the cache the evaluators share, so `stats` can report the
  /// hit rate. The server never touches it beyond reading stats().
  std::shared_ptr<runtime::EvalCache> cache;
  /// Optional: the versioned model registry behind the evaluators. Enables
  /// the `reload` request (zero-downtime hot swap) and the `model` section
  /// of `stats`. The server must have been built with registry_factory
  /// evaluators for a reload to take effect.
  std::shared_ptr<ModelRegistry> registry;
  /// Numeric tier the server's evaluators run at, reported in the `runtime`
  /// section of `stats` alongside the dispatched kernel ISA. Informational
  /// only (the evaluators were already built at their tier); registry-backed
  /// servers additionally report the per-version tier under `model`.
  tensor::DType dtype = tensor::DType::kF64;
};

class Server {
 public:
  /// The service (and its pool) must outlive the server.
  explicit Server(runtime::EvalService& service, ServerConfig config = {});
  ~Server();  // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a system under `name`; eval requests reference it by name.
  /// Thread-safe (the load_system request uses it live). Re-registering a
  /// name throws — requests may still hold the old pointer.
  void add_system(std::string name, edge::EdgeSystem system);

  /// Binds, listens, and starts the accept + flusher threads. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// The actually-bound port (resolves port 0). Valid after start().
  int port() const noexcept { return listener_.port(); }

  /// Blocks until a client sends {"type":"shutdown"} or stop() is called.
  /// wait_for returns true under the same conditions, false on timeout —
  /// a poll-friendly variant for callers that also watch signals.
  void wait() { listener_.wait(); }
  bool wait_for(std::chrono::milliseconds timeout) {
    return listener_.wait_for(timeout);
  }

  /// Graceful shutdown: stop accepting, drain pending evaluations (every
  /// admitted request is answered), join all threads. Idempotent.
  void stop();

  const ServerMetrics& metrics() const noexcept { return metrics_; }

  /// The `stats` response body (also handed out over the wire).
  support::Json stats_json() const;

 private:
  struct RequestState;
  struct PendingItem;
  using Clock = std::chrono::steady_clock;

  void flusher_loop();

  /// The eval/stats/load_system/reload half of the protocol; nullopt for
  /// any other type.
  std::optional<std::string> handle(const std::string& type,
                                    const support::Json& request);
  support::Json handle_eval(const support::Json& request);
  support::Json handle_reload(const support::Json& request);
  const edge::EdgeSystem* find_system(const std::string& name) const;

  runtime::EvalService& service_;
  ServerConfig config_;
  std::chrono::nanoseconds flush_window_;

  // Registry of named systems; pointers are stable (never erased).
  mutable std::mutex systems_mutex_;
  std::map<std::string, std::unique_ptr<edge::EdgeSystem>>
      systems_;  // GUARDED_BY(systems_mutex_)

  // Microbatcher state (mutable: stats_json reads the depth under lock).
  mutable std::mutex batch_mutex_;
  std::condition_variable batch_cv_;
  std::deque<PendingItem> pending_;  // GUARDED_BY(batch_mutex_)
  bool draining_ = false;            // GUARDED_BY(batch_mutex_)

  ServerMetrics metrics_;
  std::thread flusher_thread_;
  Listener listener_;
};

}  // namespace chainnet::serve
