#include "serve/router.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "tensor/kernels.h"

namespace chainnet::serve {

using support::Json;

namespace {

/// Bound on a blocked upstream read: a backend that accepted the request
/// but will never answer (wedged, not dead) must not pin a router reader
/// forever. Generous because a reload round trip builds a model.
constexpr timeval kUpstreamRecvTimeout{30, 0};
constexpr timeval kUpstreamSendTimeout{5, 0};
/// Bound on reading the HTTP request line of a metrics scrape.
constexpr timeval kMetricsRecvTimeout{2, 0};

void append_metric(std::string& out, std::string_view name,
                   std::string_view type, std::string_view labels,
                   double value) {
  if (!type.empty()) {
    out.append("# TYPE ").append(name).append(" ").append(type).append("\n");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out.append(name);
  if (!labels.empty()) out.append("{").append(labels).append("}");
  out.append(" ").append(buf).append("\n");
}

std::string backend_label(const BackendAddress& addr) {
  return "backend=\"" + addr.label() + "\"";
}

bool response_ok(const Json& doc) {
  return doc.is_object() && doc.has("ok") && doc.at("ok").is_bool() &&
         doc.at("ok").as_bool();
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      ring_(config_.backends.size(),
            std::max(1, config_.vnodes_per_backend)),
      backend_forwards_(config_.backends.size()),
      backend_errors_(config_.backends.size()),
      // Optimistic start: every backend is presumed healthy until a probe
      // or a live request says otherwise, so traffic flows at once.
      healthy_(config_.backends.size(), 1),  // LINT:unguarded(constructor)
      backend_stats_(config_.backends.size()),  // LINT:unguarded(constructor)
      listener_([this](int fd) { serve_client(fd); }),
      metrics_listener_([this](int fd) { serve_metrics(fd); }) {
  if (config_.backends.empty()) {
    throw std::runtime_error("Router: at least one backend is required");
  }
}

Router::~Router() { stop(); }

void Router::start() {
  listener_.start(config_.host, config_.port);
  if (config_.metrics_port >= 0) {
    try {
      metrics_listener_.start(config_.host, config_.metrics_port);
    } catch (...) {
      listener_.stop();
      throw;
    }
  }
  health_thread_ = std::thread([this] { health_loop(); });
}

void Router::stop() {
  if (!listener_.stop_accepting()) return;
  metrics_listener_.stop_accepting();
  if (health_thread_.joinable()) health_thread_.join();
  // A session blocked on an upstream round trip finishes within the
  // upstream recv/send timeouts: stop() is graceful, not instantaneous.
  listener_.close_connections();
  metrics_listener_.close_connections();
}

void Router::serve_client(int fd) {
  // Each client connection keeps one lazily-opened socket per backend:
  // requests on one connection are serial, so the sockets are single-owner,
  // and a long-lived client amortizes its connects to zero.
  std::vector<int> upstreams(config_.backends.size(), -1);
  listener_.serve_frames(
      fd, metrics_, metrics_.route_latency,
      [&](const std::string& type, const Json& request,
          const std::string& payload) -> std::optional<std::string> {
        if (type == "eval") return route_eval(request, payload, upstreams);
        if (type == "load_system" || type == "reload") {
          return fanout(payload, upstreams);
        }
        if (type == "stats") {
          Json response = stats_json();
          response["ok"] = Json(true);
          return response.dump();
        }
        return std::nullopt;
      });
  for (int up : upstreams) {
    if (up >= 0) ::close(up);
  }
}

std::uint64_t Router::routing_key(const Json& request) const {
  const std::string system = request.get_string("system", "default");
  std::uint64_t key = HashRing::hash_bytes(system);
  if (config_.affinity != RouteAffinity::kPlacement) return key;
  // Best-effort: fold in the first placement's canonical hash so one hot
  // system spreads across backends while identical (system, placement)
  // pairs still co-locate. Anything malformed routes on the system hash
  // alone — the backend owns the authoritative reject.
  try {
    const auto& docs = request.at("placements").as_array();
    if (!docs.empty()) {
      key = HashRing::mix(key, parse_placement(docs.front()).canonical_hash());
    }
  } catch (const std::exception&) {
    // fall through: system-only key
  }
  return key;
}

std::string Router::route_eval(const Json& request, const std::string& payload,
                               std::vector<int>& upstreams) {
  const std::uint64_t key = routing_key(request);
  const auto order = ring_.sequence(key);
  std::vector<char> healthy = healthy_snapshot();

  std::string response;
  int attempts = 0;
  for (const std::size_t b : order) {
    if (!healthy[b]) continue;
    if (attempts == 1) metrics_.retries.add();
    ++attempts;
    if (backend_roundtrip(b, payload, response, upstreams)) {
      backend_forwards_[b].add();
      metrics_.evals_routed.add();
      return response;
    }
    backend_errors_[b].add();
    mark_backend(b, false);
    healthy[b] = 0;
    if (attempts >= 2) break;  // original + one retry, then give up
  }
  metrics_.upstream_failures.add();
  return error_response(
             ErrorCode::kUpstreamFailed,
             attempts == 0
                 ? "no healthy backends"
                 : std::to_string(attempts) + " backend(s) failed mid-request")
      .dump();
}

std::string Router::fanout(const std::string& payload,
                           std::vector<int>& upstreams) {
  metrics_.fanout_requests.add();
  Json results;
  bool all_ok = true;
  for (std::size_t b = 0; b < config_.backends.size(); ++b) {
    Json entry;
    entry["backend"] = Json(config_.backends[b].label());
    std::string response;
    if (backend_roundtrip(b, payload, response, upstreams)) {
      try {
        Json doc = Json::parse(response);
        all_ok = all_ok && response_ok(doc);
        entry["response"] = std::move(doc);
      } catch (const std::exception& e) {
        all_ok = false;
        entry["response"] =
            error_response(ErrorCode::kUpstreamFailed, e.what());
      }
    } else {
      backend_errors_[b].add();
      mark_backend(b, false);
      all_ok = false;
      entry["response"] = error_response(ErrorCode::kUpstreamFailed,
                                         "backend unreachable");
    }
    results.push_back(std::move(entry));
  }
  Json response = all_ok ? ok_response()
                         : error_response(ErrorCode::kUpstreamFailed,
                                          "one or more backends failed");
  response["results"] = std::move(results);
  return response.dump();
}

int Router::connect_backend(std::size_t b) const {
  const BackendAddress& addr = config_.backends[b];
  sockaddr_in sa;
  if (!ipv4_address(addr.host, addr.port, sa)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // Non-blocking connect bounded by connect_timeout_ms, then back to
  // blocking I/O with send/recv timeouts for the round trips.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa),
                           sizeof(sa));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms =
        std::max(1, static_cast<int>(config_.connect_timeout_ms));
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &kUpstreamRecvTimeout,
               sizeof(kUpstreamRecvTimeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kUpstreamSendTimeout,
               sizeof(kUpstreamSendTimeout));
  set_low_latency(fd);
  return fd;
}

bool Router::backend_roundtrip(std::size_t b, const std::string& payload,
                               std::string& response,
                               std::vector<int>& upstreams) {
  std::string frame_error;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool cached = upstreams[b] >= 0;
    if (!cached) {
      upstreams[b] = connect_backend(b);
      if (upstreams[b] < 0) return false;
    }
    if (write_frame(upstreams[b], payload)) {
      const FrameStatus status =
          read_frame(upstreams[b], response, frame_error);
      if (status == FrameStatus::kOk) return true;
    }
    ::close(upstreams[b]);
    upstreams[b] = -1;
    // A cached socket may simply be stale (backend restarted since the
    // last request): one transparent retry on a fresh connection. A fresh
    // connection failing is a real backend failure.
    if (!cached) return false;
  }
  return false;
}

void Router::mark_backend(std::size_t b, bool healthy_now) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  const bool was = healthy_[b] != 0;
  if (was == healthy_now) return;
  healthy_[b] = healthy_now ? 1 : 0;
  if (healthy_now) {
    metrics_.reinstatements.add();
  } else {
    metrics_.ejections.add();
  }
}

std::pair<std::vector<char>, std::vector<Json>> Router::health_state()
    const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return {healthy_, backend_stats_};
}

std::vector<char> Router::healthy_snapshot() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return healthy_;
}

Json Router::probe_stats(std::size_t b) const {
  // Fresh connection per probe: the probe then validates the full
  // accept -> serve path, not just an already-open socket.
  const int fd = connect_backend(b);
  if (fd < 0) return Json();
  std::string response;
  std::string frame_error;
  const bool answered =
      write_frame(fd, R"({"type":"stats"})") &&
      read_frame(fd, response, frame_error) == FrameStatus::kOk;
  ::close(fd);
  try {
    return answered ? Json::parse(response) : Json();
  } catch (const std::exception&) {
    return Json();  // unparseable stats: no snapshot
  }
}

void Router::health_loop() {
  const auto interval = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::duration<double, std::milli>(
          std::max(1.0, config_.health_interval_ms)));
  do {
    for (std::size_t b = 0; b < config_.backends.size(); ++b) {
      Json stats = probe_stats(b);
      const bool alive = response_ok(stats);
      if (alive) {
        std::lock_guard<std::mutex> lock(health_mutex_);
        backend_stats_[b] = std::move(stats);
      }
      mark_backend(b, alive);
    }
  } while (!listener_.wait_stopped_for(interval));
}

Json Router::stats_json() const {
  Json doc;
  const auto count = [](const Counter& c) {
    return Json(static_cast<double>(c.value()));
  };
  doc["connections_accepted"] = count(metrics_.connections_accepted);
  doc["requests"] = count(metrics_.requests_total);
  doc["evals_routed"] = count(metrics_.evals_routed);
  doc["retries"] = count(metrics_.retries);
  doc["upstream_failures"] = count(metrics_.upstream_failures);
  doc["fanout_requests"] = count(metrics_.fanout_requests);
  doc["parse_errors"] = count(metrics_.parse_errors);
  doc["bad_requests"] = count(metrics_.bad_requests);
  doc["ejections"] = count(metrics_.ejections);
  doc["reinstatements"] = count(metrics_.reinstatements);
  doc["metrics_scrapes"] = count(metrics_.metrics_scrapes);

  const auto latency = metrics_.route_latency.snapshot();
  Json lat;
  lat["count"] = Json(static_cast<double>(latency.total));
  lat["mean_s"] = Json(latency.mean());
  lat["p50_s"] = Json(latency.quantile(0.50));
  lat["p95_s"] = Json(latency.quantile(0.95));
  lat["p99_s"] = Json(latency.quantile(0.99));
  doc["route_latency"] = std::move(lat);

  auto [healthy, cached] = health_state();
  Json backends;
  for (std::size_t b = 0; b < config_.backends.size(); ++b) {
    Json entry;
    entry["address"] = Json(config_.backends[b].label());
    entry["healthy"] = Json(healthy[b] != 0);
    entry["forwarded"] = count(backend_forwards_[b]);
    entry["errors"] = count(backend_errors_[b]);
    // Live snapshot when reachable so a stats caller (the reload test, an
    // operator) sees the backend's *current* model section; the cached
    // health-probe snapshot is the fallback.
    Json stats = healthy[b] ? probe_stats(b) : Json();
    if (stats.is_null()) stats = std::move(cached[b]);
    if (!stats.is_null()) entry["stats"] = std::move(stats);
    backends.push_back(std::move(entry));
  }
  doc["backends"] = std::move(backends);
  return doc;
}

std::string Router::prometheus_text() const {
  std::string out;
  out.reserve(4096);
  const auto v = [](const Counter& c) {
    return static_cast<double>(c.value());
  };
  // Build-info style gauge: the runtime-resolved kernel ISA tier of this
  // router process, as labels on a constant-1 metric (Prometheus idiom for
  // exposing strings).
  append_metric(out, "chainnet_router_build_info", "gauge",
                std::string("kernel_isa=\"") + tensor::kernels::isa() + "\"",
                1.0);
  append_metric(out, "chainnet_router_requests_total", "counter", "",
                v(metrics_.requests_total));
  append_metric(out, "chainnet_router_evals_routed_total", "counter", "",
                v(metrics_.evals_routed));
  append_metric(out, "chainnet_router_retries_total", "counter", "",
                v(metrics_.retries));
  append_metric(out, "chainnet_router_upstream_failures_total", "counter", "",
                v(metrics_.upstream_failures));
  append_metric(out, "chainnet_router_parse_errors_total", "counter", "",
                v(metrics_.parse_errors));
  append_metric(out, "chainnet_router_bad_requests_total", "counter", "",
                v(metrics_.bad_requests));
  append_metric(out, "chainnet_router_ejections_total", "counter", "",
                v(metrics_.ejections));
  append_metric(out, "chainnet_router_reinstatements_total", "counter", "",
                v(metrics_.reinstatements));
  append_metric(out, "chainnet_router_metrics_scrapes_total", "counter", "",
                v(metrics_.metrics_scrapes));

  const auto latency = metrics_.route_latency.snapshot();
  out.append("# TYPE chainnet_router_latency_seconds summary\n");
  append_metric(out, "chainnet_router_latency_seconds", "",
                "quantile=\"0.5\"", latency.quantile(0.50));
  append_metric(out, "chainnet_router_latency_seconds", "",
                "quantile=\"0.95\"", latency.quantile(0.95));
  append_metric(out, "chainnet_router_latency_seconds", "",
                "quantile=\"0.99\"", latency.quantile(0.99));
  append_metric(out, "chainnet_router_latency_seconds_sum", "", "",
                latency.sum);
  append_metric(out, "chainnet_router_latency_seconds_count", "", "",
                static_cast<double>(latency.total));

  auto [healthy, cached] = health_state();
  const auto per_backend = [&](const char* name, const char* type,
                               const auto& value) {
    out.append("# TYPE ").append(name).append(" ").append(type).append("\n");
    for (std::size_t b = 0; b < config_.backends.size(); ++b) {
      append_metric(out, name, "", backend_label(config_.backends[b]),
                    value(b));
    }
  };
  per_backend("chainnet_router_backend_up", "gauge",
              [&](std::size_t b) { return healthy[b] ? 1.0 : 0.0; });
  per_backend("chainnet_router_backend_forwarded_total", "counter",
              [&](std::size_t b) { return v(backend_forwards_[b]); });
  per_backend("chainnet_router_backend_errors_total", "counter",
              [&](std::size_t b) { return v(backend_errors_[b]); });
  // Backend-reported counters, aggregated from the health probes' cached
  // stats snapshots (absent until the first successful probe).
  struct Field {
    const char* metric;
    const char* type;
    const char* key;
  };
  static constexpr Field kFields[] = {
      {"chainnet_backend_requests_total", "counter", "requests"},
      {"chainnet_backend_placements_evaluated_total", "counter",
       "placements_evaluated"},
      {"chainnet_backend_batches_total", "counter", "batches"},
      {"chainnet_backend_rejects_overload_total", "counter",
       "rejects_overload"},
      {"chainnet_backend_deadline_drops_total", "counter", "deadline_drops"},
      {"chainnet_backend_queue_depth", "gauge", "queue_depth"},
  };
  for (const Field& field : kFields) {
    bool typed = false;
    for (std::size_t b = 0; b < config_.backends.size(); ++b) {
      if (cached[b].is_null() || !cached[b].has(field.key)) continue;
      if (!typed) {
        out.append("# TYPE ").append(field.metric).append(" ").append(
            field.type);
        out.append("\n");
        typed = true;
      }
      append_metric(out, field.metric, "",
                    backend_label(config_.backends[b]),
                    cached[b].get_number(field.key, 0.0));
    }
  }
  return out;
}

void Router::serve_metrics(int fd) {
  // Best-effort HTTP: read whatever request bytes arrive (bounded by the
  // recv timeout), answer one exposition, hang up. Every scraper speaks
  // this.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &kMetricsRecvTimeout,
               sizeof(kMetricsRecvTimeout));
  char buf[1024];
  while (::recv(fd, buf, sizeof(buf), 0) < 0 && errno == EINTR) {
  }
  metrics_.metrics_scrapes.add();
  const std::string body = prometheus_text();
  std::string response;
  response.reserve(body.size() + 160);
  response.append("HTTP/1.0 200 OK\r\n");
  response.append(
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n");
  response.append("Content-Length: " + std::to_string(body.size()) + "\r\n");
  response.append("Connection: close\r\n\r\n");
  response.append(body);
  send_all(fd, response);
}

}  // namespace chainnet::serve
