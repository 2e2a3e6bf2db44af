// Bench-side span tracing. Spans are opened only around calls the benchmark
// makes into the system's public functions, and inside the evaluators it
// installs, so the code under test is never modified. Each thread appends to
// its own log; the record path shares nothing but a relaxed load of the
// on/off flag. Logs are read once the traced threads are idle, reduced to
// per-layer self times, and written out as Chrome trace-event JSON.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// The modules of src/ a span can belong to, plus the benchmark's own loop.
/// gnn and tensor run inside core.forward spans: their time is core's.
enum class Layer : int { kBench, kSearch, kServe, kRuntime, kCore, kEdge };
inline constexpr int kLayerCount = 6;
inline constexpr const char* kLayerNames[kLayerCount] = {
    "bench", "search", "serve", "runtime", "core", "edge"};

struct Span {
  const char* name = "";  ///< static string
  Layer layer = Layer::kBench;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root span
  int thread = 0;
  int width = 0;  ///< placements the call scored (0: not a scoring call)

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Disjoint [start_ns, end_ns) intervals in ascending order.
using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;

inline double total_seconds(const Intervals& intervals) {
  double total = 0.0;
  for (const auto& [start, end] : intervals) {
    total += static_cast<double>(end - start) * 1e-9;
  }
  return total;
}

/// Seconds of [start_ns, end_ns) that fall inside `intervals`.
inline double clipped_seconds(std::int64_t start_ns, std::int64_t end_ns,
                              const Intervals& intervals) {
  double total = 0.0;
  for (const auto& [start, end] : intervals) {
    const std::int64_t lo = std::max(start, start_ns);
    const std::int64_t hi = std::min(end, end_ns);
    if (hi > lo) total += static_cast<double>(hi - lo) * 1e-9;
  }
  return total;
}

class Tracer {
 public:
  static Tracer& get() {
    static Tracer tracer;
    return tracer;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Turns recording on or off. Called by the one thread that drives the
  /// run; the on-intervals it logs are the traced wall time.
  void set_enabled(bool on) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (on == enabled_.load(std::memory_order_relaxed)) return;
    toggles_.emplace_back(now_ns(), on);
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Parent given to spans opened on a thread that has no open span of its
  /// own: how an evaluator span on a pool worker names the search trial
  /// that caused it. -1 leaves such spans as roots.
  void set_ambient_parent(std::int64_t id) {
    ambient_.store(id, std::memory_order_relaxed);
  }

  /// The intervals recording was on within [from_ns, to_ns], in order.
  Intervals on_intervals(std::int64_t from_ns, std::int64_t to_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    Intervals out;
    for (std::size_t i = 0; i < toggles_.size(); ++i) {
      if (!toggles_[i].second) continue;
      const std::int64_t on = std::max(toggles_[i].first, from_ns);
      const std::int64_t off = std::min(
          i + 1 < toggles_.size() ? toggles_[i + 1].first : to_ns, to_ns);
      if (off > on) out.emplace_back(on, off);
    }
    return out;
  }

  /// Every recorded span. Call only while no traced thread is running.
  std::vector<Span> spans() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& log : logs_) {
      all.insert(all.end(), log->spans.begin(), log->spans.end());
    }
    return all;
  }

  /// Writes every span as a Chrome trace-event "complete" event (loadable
  /// in chrome://tracing or Perfetto). Same quiescence rule as spans().
  bool write_chrome_json(const std::string& path) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
    bool first = true;
    for (const Span& s : spans()) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"width\":%d}}",
                   first ? "" : ",\n", s.name,
                   kLayerNames[static_cast<int>(s.layer)], s.thread,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.width);
      first = false;
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  friend class ScopedSpan;
  using Clock = std::chrono::steady_clock;

  struct ThreadLog {
    int thread = 0;
    std::int64_t next_seq = 0;
    std::vector<std::int64_t> open;  ///< ids of this thread's open spans
    std::vector<Span> spans;
  };

  /// The calling thread's log, registered on its first span. The tracer
  /// owns every log, so spans outlive the threads that recorded them.
  ThreadLog& here() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->thread = static_cast<int>(logs_.size());
    }
    return *log;
  }

  const Clock::time_point epoch_ = Clock::now();
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> ambient_{-1};
  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;        // GUARDED_BY(mutex_)
  std::vector<std::pair<std::int64_t, bool>> toggles_;  // GUARDED_BY(mutex_)
};

/// Records one span over its scope when tracing is on; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer, int width = 0) {
    Tracer& tracer = Tracer::get();
    if (!tracer.enabled()) return;
    log_ = &tracer.here();
    Span span;
    span.name = name;
    span.layer = layer;
    span.width = width;
    span.thread = log_->thread;
    span.id = (static_cast<std::int64_t>(log_->thread) << 40) |
              log_->next_seq++;
    span.parent = log_->open.empty()
                      ? tracer.ambient_.load(std::memory_order_relaxed)
                      : log_->open.back();
    index_ = log_->spans.size();
    log_->open.push_back(span.id);
    log_->spans.push_back(span);
    log_->spans[index_].start_ns = tracer.now_ns();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    log_->spans[index_].end_ns = Tracer::get().now_ns();
    log_->open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// -1 when tracing was off at construction.
  std::int64_t id() const { return log_ ? log_->spans[index_].id : -1; }

 private:
  Tracer::ThreadLog* log_ = nullptr;
  std::size_t index_ = 0;
};

/// Self time per layer, counted only inside the `traced` intervals. At
/// every instant the spans with no open child share the instant equally, so
/// concurrent spans split it and the layer totals add up to the traced time
/// covered by at least one span. A span's self time is thus its duration
/// minus the part of it its children cover, divided among whatever ran
/// alongside.
struct LayerTimes {
  std::array<double, kLayerCount> self_s{};
  double covered_s = 0.0;
};

inline LayerTimes layer_self_times(const std::vector<Span>& spans,
                                   const Intervals& traced) {
  std::unordered_map<std::int64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::ptrdiff_t> parent(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index_of.find(spans[i].parent);
    if (it != index_of.end()) {
      parent[i] = static_cast<std::ptrdiff_t>(it->second);
    }
  }

  struct Event {
    std::int64_t t;
    bool start;
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(2 * spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    events.push_back({spans[i].start_ns, true, i});
    events.push_back({spans[i].end_ns, false, i});
  }
  // Starts sort before ends at equal times, so a zero-length span opens
  // before it closes.
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              return a.t != b.t ? a.t < b.t : a.start > b.start;
            });

  LayerTimes out;
  std::vector<int> open_children(spans.size(), 0);
  std::vector<char> active(spans.size(), 0);
  std::array<int, kLayerCount> leaves{};
  int total_leaves = 0;
  const auto add_leaf = [&](std::size_t i, int delta) {
    leaves[static_cast<std::size_t>(spans[i].layer)] += delta;
    total_leaves += delta;
  };
  std::int64_t prev = events.empty() ? 0 : events.front().t;
  for (const Event& e : events) {
    if (total_leaves > 0 && e.t > prev) {
      const double dt = clipped_seconds(prev, e.t, traced);
      for (int l = 0; l < kLayerCount; ++l) {
        out.self_s[static_cast<std::size_t>(l)] +=
            dt * leaves[static_cast<std::size_t>(l)] / total_leaves;
      }
      out.covered_s += dt;
    }
    prev = e.t;
    const std::ptrdiff_t p = parent[e.span];
    const auto pi = static_cast<std::size_t>(p);
    if (e.start) {
      if (p >= 0) {
        if (active[pi] && open_children[pi] == 0) add_leaf(pi, -1);
        ++open_children[pi];
      }
      active[e.span] = 1;
      if (open_children[e.span] == 0) add_leaf(e.span, +1);
    } else {
      if (open_children[e.span] == 0) add_leaf(e.span, -1);
      active[e.span] = 0;
      if (p >= 0) {
        --open_children[pi];
        if (active[pi] && open_children[pi] == 0) add_leaf(pi, +1);
      }
    }
  }
  return out;
}

}  // namespace perfbench
