// Lock-cheap live metrics for the serving layer: relaxed-atomic counters, a
// geometric-bucket latency histogram with percentile extraction, and a
// linear batch-size histogram. Everything here is written on request /
// flush hot paths by many threads at once, so recording is a handful of
// relaxed fetch_adds — no mutex, no allocation. Snapshots are taken by the
// `stats` endpoint; they are monotonic-consistent per counter but not
// cross-counter atomic (live counters, not a checkpoint), which is exactly
// what an operations dashboard wants.
//
// LINT:counters — every relaxed atomic here is a monotonic statistic; no
// other code may order around these loads/stores.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace chainnet::serve {

/// Monotonic event counter (relaxed atomics; saturation is a non-issue at
/// one increment per request).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Histogram over positive values (latencies in seconds) with geometric
/// bucket edges: bucket 0 covers (0, min_value], bucket i covers
/// (min_value*growth^{i-1}, min_value*growth^i], and the last bucket is the
/// +inf overflow. With the defaults (1 us floor, 1.25 growth, 80 buckets)
/// the range reaches ~47 s with <= 25% quantile error per bucket — plenty
/// for p50/p95/p99 service-latency reporting.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double min_value = 1e-6, double growth = 1.25,
                            int buckets = 80);

  void record(double value) noexcept;

  struct Snapshot {
    std::vector<std::uint64_t> counts;  ///< per bucket, overflow last
    std::vector<double> upper_edges;    ///< upper edge per bucket (last inf)
    std::uint64_t total = 0;
    double sum = 0.0;

    /// Upper edge of the bucket holding the q-quantile observation
    /// (q in [0,1]); 0 when empty.
    double quantile(double q) const;
    double mean() const { return total == 0 ? 0.0 : sum / total; }
  };
  Snapshot snapshot() const;

 private:
  int bucket_for(double value) const noexcept;

  double min_value_;
  double inv_log_growth_;
  std::vector<double> upper_edges_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Linear histogram over small integer sizes: slot i counts observations of
/// exactly i, the last slot counts >= max_size. Slot 0 is unused for batch
/// sizes but kept so indices read literally.
class SizeHistogram {
 public:
  explicit SizeHistogram(std::size_t max_size = 64);

  void record(std::size_t size) noexcept;
  std::vector<std::uint64_t> snapshot() const;
  std::uint64_t total() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  std::size_t max_size() const noexcept { return counts_.size() - 1; }

 private:
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> total_{0};
};

/// The counters the connection core (listener.h) keeps for a front end.
struct FrameMetrics {
  Counter connections_accepted;
  Counter requests_total;  ///< every decoded frame, any type
  Counter parse_errors;    ///< malformed frames / JSON
  Counter bad_requests;
};

/// Every live counter the `stats` endpoint reports. Owned by serve::Server;
/// split out so tests and benches can assert on it directly.
struct ServerMetrics : FrameMetrics {
  Counter eval_requests;        ///< eval requests admitted or rejected
  Counter placements_received;  ///< placements carried by eval requests
  Counter placements_evaluated; ///< placements actually scored
  Counter batches_flushed;
  Counter rejects_overload;     ///< admission-control fast rejects
  Counter rejects_shutdown;     ///< evals arriving while draining
  Counter deadline_drops;       ///< expired before evaluation
  LatencyHistogram service_latency;  ///< frame decoded -> response written
  SizeHistogram batch_sizes;
};

}  // namespace chainnet::serve
