#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>
#include <utility>

#include "edge/json_io.h"
#include "gnn/plan.h"
#include "serve/registry.h"
#include "tensor/kernels.h"

namespace chainnet::serve {

using support::Json;

/// Shared completion state of one eval request. All mutation happens on the
/// flusher thread (values, failure, completion); the session thread only
/// waits on `done` and reads afterwards, synchronized by the promise.
struct Server::RequestState {
  explicit RequestState(std::size_t n) : values(n), remaining(n) {}

  std::vector<double> values;
  std::atomic<std::size_t> remaining;
  std::atomic<bool> failed{false};
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::promise<void> done;

  void fail(ErrorCode c, const std::string& m) {
    bool expected = false;
    if (failed.compare_exchange_strong(expected, true)) {
      code = c;
      message = m;
    }
  }
  void complete_one() {
    if (remaining.fetch_sub(1) == 1) done.set_value();
  }
};

/// One placement awaiting evaluation, queued by a session thread.
struct Server::PendingItem {
  std::shared_ptr<RequestState> state;
  std::size_t index = 0;
  const edge::EdgeSystem* system = nullptr;
  edge::Placement placement;
  Clock::time_point enqueued;
  Clock::time_point deadline;  // time_point::max() when none
};

namespace {

/// Client deadlines saturate here: converting an arbitrary double to the
/// clock's integer rep overflows for huge values, and anything beyond an
/// hour is indistinguishable from "no deadline" for a microbatched eval.
constexpr double kMaxDeadlineMs = 3600.0 * 1000.0;

}  // namespace

Server::Server(runtime::EvalService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      flush_window_(std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double, std::milli>(
              std::max(0.0, config_.flush_window_ms)))),
      listener_([this](int fd) {
        listener_.serve_frames(
            fd, metrics_, metrics_.service_latency,
            [this](const std::string& type, const Json& request,
                   const std::string&) { return handle(type, request); });
      }) {
  config_.max_batch = std::max(1, config_.max_batch);
  config_.max_pending = std::max<std::size_t>(1, config_.max_pending);
}

Server::~Server() { stop(); }

void Server::add_system(std::string name, edge::EdgeSystem system) {
  system.validate();
  std::lock_guard<std::mutex> lock(systems_mutex_);
  auto [it, inserted] = systems_.emplace(
      std::move(name), std::make_unique<edge::EdgeSystem>(std::move(system)));
  if (!inserted) {
    throw std::runtime_error("system '" + it->first +
                             "' is already registered");
  }
}

const edge::EdgeSystem* Server::find_system(const std::string& name) const {
  std::lock_guard<std::mutex> lock(systems_mutex_);
  const auto it = systems_.find(name);
  // Registry entries are never erased, so the pointer stays valid after
  // the lock is dropped.
  return it == systems_.end() ? nullptr : it->second.get();
}

void Server::start() {
  listener_.start(config_.host, config_.port);
  flusher_thread_ = std::thread([this] { flusher_loop(); });
}

void Server::stop() {
  // 1. Stop accepting.
  if (!listener_.stop_accepting()) return;
  // 2. Drain the batcher. New evals are rejected as shutting_down; the
  //    flusher exits only once the pending queue is empty, so every
  //    admitted request has its promise fulfilled after the join.
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    draining_ = true;
  }
  batch_cv_.notify_all();
  if (flusher_thread_.joinable()) flusher_thread_.join();
  // 3. Half-close the connections and join their sessions: one still
  //    writing a drained response finishes the write first.
  listener_.close_connections();
}

std::optional<std::string> Server::handle(const std::string& type,
                                          const Json& request) {
  if (type == "eval") return handle_eval(request).dump();
  if (type == "stats") {
    Json response = stats_json();
    response["ok"] = Json(true);
    return response.dump();
  }
  if (type == "reload") return handle_reload(request).dump();
  if (type == "load_system") {
    try {
      const std::string name = request.at("name").as_string();
      add_system(name, edge::system_from_json(request.at("system")));
      return ok_response().dump();
    } catch (const std::exception& e) {
      metrics_.bad_requests.add();
      return error_response(ErrorCode::kBadRequest, e.what()).dump();
    }
  }
  return std::nullopt;
}

Json Server::handle_reload(const Json& request) {
  if (!config_.registry) {
    metrics_.bad_requests.add();
    return error_response(ErrorCode::kBadRequest,
                          "server was started without a model registry");
  }
  std::string manifest_path;
  try {
    manifest_path = request.at("manifest").as_string();
  } catch (const std::exception& e) {
    metrics_.bad_requests.add();
    return error_response(ErrorCode::kBadRequest, e.what());
  }
  // Runs inline on this connection's session thread: only the reloading
  // client blocks while the new version builds; every other connection
  // keeps evaluating against the still-active version, and the flip is a
  // pointer swap — no request ever sees a half-loaded model.
  try {
    const ModelVersionInfo info = config_.registry->load(manifest_path);
    Json response = ok_response();
    response["version"] = Json(static_cast<double>(info.version));
    response["checksum"] = Json(tensor::checksum_to_string(info.checksum));
    response["state"] = Json(info.state);
    return response;
  } catch (const tensor::SerializeError& e) {
    // A bad manifest or corrupt weight file is the client's problem; the
    // previously active version is untouched.
    metrics_.bad_requests.add();
    return error_response(ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return error_response(ErrorCode::kInternal, e.what());
  }
}

Json Server::handle_eval(const Json& request) {
  metrics_.eval_requests.add();
  const auto now = Clock::now();
  const edge::EdgeSystem* system = nullptr;
  std::vector<edge::Placement> placements;
  auto deadline = Clock::time_point::max();
  // Every field access sits inside this try: the accessors throw on
  // wrong-typed values, and nothing a client sends may escape as an
  // exception.
  try {
    const std::string system_name = request.get_string("system", "default");
    system = find_system(system_name);
    if (system == nullptr) {
      return error_response(ErrorCode::kUnknownSystem,
                            "no system named '" + system_name +
                                "' is loaded");
    }
    const auto& docs = request.at("placements").as_array();
    if (docs.empty()) {
      throw support::JsonError("placements must be non-empty", 0);
    }
    placements.reserve(docs.size());
    for (const auto& doc : docs) {
      edge::Placement placement = parse_placement(doc);
      placement.validate(*system);
      placements.push_back(std::move(placement));
    }
    const double deadline_ms = request.get_number("deadline_ms", 0.0);
    if (deadline_ms > 0.0) {
      deadline = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               std::min(deadline_ms, kMaxDeadlineMs)));
    }
  } catch (const std::exception& e) {
    metrics_.bad_requests.add();
    return error_response(ErrorCode::kBadRequest, e.what());
  }
  metrics_.placements_received.add(placements.size());

  auto state = std::make_shared<RequestState>(placements.size());
  auto done = state->done.get_future();
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    if (draining_) {
      metrics_.rejects_shutdown.add();
      return error_response(ErrorCode::kShuttingDown, "server is draining");
    }
    if (pending_.size() + placements.size() > config_.max_pending) {
      metrics_.rejects_overload.add();
      return error_response(
          ErrorCode::kOverloaded,
          "pending queue full (" + std::to_string(pending_.size()) + " of " +
              std::to_string(config_.max_pending) + " placements)");
    }
    for (std::size_t i = 0; i < placements.size(); ++i) {
      pending_.push_back(PendingItem{state, i, system,
                                     std::move(placements[i]), now,
                                     deadline});
    }
  }
  batch_cv_.notify_all();
  done.wait();

  if (state->failed.load(std::memory_order_acquire)) {
    return error_response(state->code, state->message);
  }
  Json values;
  for (double v : state->values) values.push_back(Json(v));
  Json response = ok_response();
  response["values"] = std::move(values);
  return response;
}

void Server::flusher_loop() {
  std::unique_lock<std::mutex> lock(batch_mutex_);
  for (;;) {
    if (pending_.empty()) {
      if (draining_) return;
      batch_cv_.wait(lock, [this] { return draining_ || !pending_.empty(); });
      continue;
    }
    if (static_cast<int>(pending_.size()) < config_.max_batch && !draining_) {
      // Wait for the batch to fill, but no longer than the flush window of
      // the oldest pending placement.
      const auto flush_at = pending_.front().enqueued + flush_window_;
      batch_cv_.wait_until(lock, flush_at, [this] {
        return static_cast<int>(pending_.size()) >= config_.max_batch ||
               draining_;
      });
      if (pending_.empty()) continue;
    }

    // Pop expired items (dropped before evaluation) and a same-system
    // prefix of up to max_batch placements; a system change ends the batch
    // and the remainder flushes on the next iteration.
    const auto now = Clock::now();
    std::vector<PendingItem> expired;
    std::vector<PendingItem> batch;
    const edge::EdgeSystem* system = nullptr;
    while (!pending_.empty() &&
           static_cast<int>(batch.size()) < config_.max_batch) {
      PendingItem& front = pending_.front();
      if (now >= front.deadline) {
        expired.push_back(std::move(front));
        pending_.pop_front();
        continue;
      }
      if (system == nullptr) {
        system = front.system;
      } else if (front.system != system) {
        break;
      }
      batch.push_back(std::move(front));
      pending_.pop_front();
    }
    // LINT:manual-lock(the flusher drops batch_mutex_ around the evaluate
    // call so sessions can keep admitting work during a long batch; it only
    // touches the popped-off locals until it re-locks below)
    lock.unlock();

    for (auto& item : expired) {
      metrics_.deadline_drops.add();
      item.state->fail(ErrorCode::kDeadlineExceeded,
                       "deadline expired before evaluation");
      item.state->complete_one();
    }
    if (!batch.empty()) {
      std::vector<edge::Placement> placements;
      placements.reserve(batch.size());
      for (auto& item : batch) placements.push_back(std::move(item.placement));
      metrics_.batches_flushed.add();
      metrics_.batch_sizes.record(batch.size());
      try {
        const auto values = service_.evaluate_batch(*system, placements);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          batch[i].state->values[batch[i].index] = values[i];
        }
        metrics_.placements_evaluated.add(batch.size());
      } catch (const std::exception& e) {
        for (auto& item : batch) {
          item.state->fail(ErrorCode::kInternal, e.what());
        }
      }
      for (auto& item : batch) item.state->complete_one();
    }
    // LINT:manual-lock(re-acquires batch_mutex_ for the next loop pass;
    // pairs with the waived unlock above)
    lock.lock();
  }
}

Json Server::stats_json() const {
  Json doc;
  const auto count = [](const Counter& c) {
    return Json(static_cast<double>(c.value()));
  };
  doc["connections_accepted"] = count(metrics_.connections_accepted);
  doc["requests"] = count(metrics_.requests_total);
  doc["eval_requests"] = count(metrics_.eval_requests);
  doc["placements_received"] = count(metrics_.placements_received);
  doc["placements_evaluated"] = count(metrics_.placements_evaluated);
  doc["batches"] = count(metrics_.batches_flushed);
  doc["rejects_overload"] = count(metrics_.rejects_overload);
  doc["rejects_shutdown"] = count(metrics_.rejects_shutdown);
  doc["deadline_drops"] = count(metrics_.deadline_drops);
  doc["parse_errors"] = count(metrics_.parse_errors);
  doc["bad_requests"] = count(metrics_.bad_requests);
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    doc["queue_depth"] = Json(static_cast<double>(pending_.size()));
  }
  doc["pool_queue_depth"] =
      Json(static_cast<double>(service_.pool().queue_depth()));

  const auto latency = metrics_.service_latency.snapshot();
  Json lat;
  lat["count"] = Json(static_cast<double>(latency.total));
  lat["mean_s"] = Json(latency.mean());
  lat["p50_s"] = Json(latency.quantile(0.50));
  lat["p95_s"] = Json(latency.quantile(0.95));
  lat["p99_s"] = Json(latency.quantile(0.99));
  doc["service_latency"] = std::move(lat);

  // Batch-size histogram as [size, count] pairs, zero rows elided; the
  // final slot aggregates sizes >= the histogram bound.
  const auto sizes = metrics_.batch_sizes.snapshot();
  Json histogram;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 0) continue;
    Json row;
    row.push_back(Json(static_cast<double>(i)));
    row.push_back(Json(static_cast<double>(sizes[i])));
    histogram.push_back(std::move(row));
  }
  if (histogram.is_null()) histogram = Json(Json::Array{});
  doc["batch_size_histogram"] = std::move(histogram);

  // Runtime-resolved execution environment: the kernel ISA tier this
  // process dispatched and the numeric tier the evaluators run at.
  {
    Json runtime;
    runtime["kernel_isa"] = Json(std::string(tensor::kernels::isa()));
    runtime["dtype"] = Json(std::string(tensor::dtype_name(config_.dtype)));
    doc["runtime"] = std::move(runtime);
  }
  if (config_.registry) {
    doc["model"] = config_.registry->stats_json();
  }
  // Compiled-plan cache counters: the registry's cache when one is serving
  // (hot swaps share it across versions), else the eval service's own.
  {
    const auto& plans = config_.registry ? config_.registry->plan_cache()
                                         : service_.plan_cache();
    const gnn::PlanCache::Stats stats = plans->stats();
    Json cache;
    cache["hits"] = Json(static_cast<double>(stats.hits));
    cache["compiles"] = Json(static_cast<double>(stats.compiles));
    cache["entries"] = Json(static_cast<double>(stats.entries));
    cache["evictions"] = Json(static_cast<double>(stats.evictions));
    doc["plan_cache"] = std::move(cache);
  }
  if (config_.cache) {
    const auto stats = config_.cache->stats();
    Json cache;
    cache["hits"] = Json(static_cast<double>(stats.hits));
    cache["misses"] = Json(static_cast<double>(stats.misses));
    cache["entries"] = Json(static_cast<double>(stats.entries));
    cache["evictions"] = Json(static_cast<double>(stats.evictions));
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    cache["hit_rate"] =
        Json(lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0);
    doc["cache"] = std::move(cache);
  }
  return doc;
}

}  // namespace chainnet::serve
