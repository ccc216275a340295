// Process-wide metrics registry: lock-cheap counters, gauges and
// log-bucketed histograms, threaded through the bulk loader, the
// segment store and both query engines.
//
// Design constraints, in order:
//
//   1. Zero cost when off.  Recording is gated on a single process-wide
//      atomic flag (MetricsEnabled) checked relaxed at every site, and
//      every instrumented site is *coarse* — per load stage, per
//      segment decode, per pool job, per query — never per triple.
//      With the flag clear (the default) an instrumented hot path pays
//      one predictable branch; the committed BENCH_*.json baselines
//      are recorded in exactly that state.
//
//   2. Lock-free recording.  Counter::Add, Gauge::Set and
//      Histogram::Observe are relaxed atomic operations; the registry
//      mutex is taken only at registration (once per site, cached in a
//      function-local static) and at snapshot time.  Safe under the
//      PR 4 pool from any number of threads.
//
//   3. Stable pointers.  Registered instruments live for the process
//      (deque storage, never erased), so call sites hold raw pointers.
//
// Naming convention: "<subsystem>.<what>[_<unit>]", e.g.
// "loader.parse_ns", "segment.decodes", "exec.query_ns".  The
// snapshot renders as one JSON object (RenderJson) — the shape served
// by the future trial_serve stats endpoint and uploaded by CI as
// METRICS_*.json.

#ifndef TRIAL_UTIL_METRICS_H_
#define TRIAL_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace trial {

/// True when metric recording is on.  Off by default; flipped by
/// SetMetricsEnabled or by the TRIAL_METRICS environment variable
/// (any non-empty value, checked once at first query).
bool MetricsEnabled();
void SetMetricsEnabled(bool on);

/// Monotonic steady-clock nanoseconds — the time base every duration
/// metric and the query trace spans share.
uint64_t MonotonicNanos();

/// A monotonically increasing count (events, bytes, rows).
class Counter {
 public:
  void Add(uint64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> v_{0};
};

/// A last-value instrument (pool size, bytes currently mapped).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> v_{0};
};

/// A log2-bucketed histogram of nonnegative values (latencies in ns,
/// sizes in bytes/rows).  Bucket b counts values in [2^(b-1), 2^b);
/// bucket 0 counts zeros and ones.  Exact count/sum/min/max ride
/// along, so percentile *estimates* (bucket boundaries) and exact
/// means are both available from one instrument.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Observes elapsed wall nanoseconds into a histogram on destruction.
/// The clock is read only when metrics are enabled at construction;
/// a disabled scope costs the flag check and nothing else.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(h), start_(MetricsEnabled() ? MonotonicNanos() : 0) {}
  ~ScopedTimer() {
    if (start_ != 0) h_->Observe(MonotonicNanos() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  uint64_t start_;
};

/// A point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value;
  };
  struct GaugeValue {
    std::string name;
    int64_t value;
  };
  struct HistogramValue {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  ///< 0 when count == 0
    uint64_t max = 0;
    /// (bucket upper bound, count) pairs for non-empty buckets only.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

/// The process-wide registry.  Get* registers on first use and returns
/// the same stable pointer forever after; instruments record regardless
/// of the enabled flag (call sites gate on MetricsEnabled()).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// The snapshot as one stable JSON object:
  ///   {"counters": {"loader.lines": 12, ...},
  ///    "gauges": {...},
  ///    "histograms": {"loader.parse_ns":
  ///        {"count": 3, "sum": 9e6, "min": ..., "max": ...,
  ///         "buckets": [[4194304, 2], [8388608, 1]]}, ...}}
  std::string RenderJson() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace trial

#endif  // TRIAL_UTIL_METRICS_H_
