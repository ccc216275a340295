#include "util/metrics.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace trial {
namespace {

std::atomic<bool> g_enabled{false};

// TRIAL_METRICS in the environment enables recording without touching
// caller code — the CI smoke runs and ad-hoc diagnosis both use it.
// Checked exactly once; SetMetricsEnabled overrides either way after.
bool EnvDefault() {
  const char* v = std::getenv("TRIAL_METRICS");
  return v != nullptr && *v != '\0';
}

}  // namespace

bool MetricsEnabled() {
  static const bool env_init = [] {
    if (EnvDefault()) g_enabled.store(true, std::memory_order_relaxed);
    return true;
  }();
  (void)env_init;
  return g_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Histogram::Observe(uint64_t value) {
  // Bucket index: position of the highest set bit + 1, so bucket b
  // holds [2^(b-1), 2^b) and values 0/1 land in bucket 0.
  int b = 0;
  for (uint64_t v = value; v > 1; v >>= 1) ++b;
  if (value > 1) ++b;
  if (b >= kBuckets) b = kBuckets - 1;  // values >= 2^63 share the top bucket
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Racy min/max updates lose only to a concurrent tighter value —
  // acceptable for diagnostics, and never torn (single atomics).
  uint64_t prev = min_.load(std::memory_order_relaxed);
  while (value < prev &&
         !min_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
  prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

// ---- registry ----------------------------------------------------------

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // Deques: stable addresses for the lifetime of the process.
  std::deque<std::pair<std::string, Counter>> counters;
  std::deque<std::pair<std::string, Gauge>> gauges;
  std::deque<std::pair<std::string, Histogram>> histograms;
  std::unordered_map<std::string, Counter*> counter_by_name;
  std::unordered_map<std::string, Gauge*> gauge_by_name;
  std::unordered_map<std::string, Histogram*> histogram_by_name;
};

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumented sites hold raw pointers that must
  // outlive every static destructor (atexit I/O).
  static MetricsRegistry* reg = new MetricsRegistry();
  return *reg;
}

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.counter_by_name.find(name);
  if (it != i.counter_by_name.end()) return it->second;
  i.counters.emplace_back(std::piecewise_construct,
                          std::forward_as_tuple(name),
                          std::forward_as_tuple());
  Counter* c = &i.counters.back().second;
  i.counter_by_name.emplace(name, c);
  return c;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.gauge_by_name.find(name);
  if (it != i.gauge_by_name.end()) return it->second;
  i.gauges.emplace_back(std::piecewise_construct,
                        std::forward_as_tuple(name),
                        std::forward_as_tuple());
  Gauge* g = &i.gauges.back().second;
  i.gauge_by_name.emplace(name, g);
  return g;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.histogram_by_name.find(name);
  if (it != i.histogram_by_name.end()) return it->second;
  i.histograms.emplace_back(std::piecewise_construct,
                            std::forward_as_tuple(name),
                            std::forward_as_tuple());
  Histogram* h = &i.histograms.back().second;
  i.histogram_by_name.emplace(name, h);
  return h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  MetricsSnapshot snap;
  snap.counters.reserve(i.counters.size());
  for (const auto& [name, c] : i.counters) {
    snap.counters.push_back({name, c.value()});
  }
  snap.gauges.reserve(i.gauges.size());
  for (const auto& [name, g] : i.gauges) {
    snap.gauges.push_back({name, g.value()});
  }
  snap.histograms.reserve(i.histograms.size());
  for (const auto& [name, h] : i.histograms) {
    MetricsSnapshot::HistogramValue v;
    v.name = name;
    v.count = h.count();
    v.sum = h.sum();
    if (v.count > 0) {
      v.min = h.min_.load(std::memory_order_relaxed);
      v.max = h.max_.load(std::memory_order_relaxed);
    }
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      uint64_t n = h.buckets_[b].load(std::memory_order_relaxed);
      if (n == 0) continue;
      // The top bucket also absorbs clamped values >= 2^63.
      uint64_t upper =
          b >= Histogram::kBuckets - 1 ? UINT64_MAX : (uint64_t{1} << b);
      v.buckets.emplace_back(upper, n);
    }
    snap.histograms.push_back(std::move(v));
  }
  return snap;
}

std::string MetricsRegistry::RenderJson() const {
  MetricsSnapshot snap = Snapshot();
  std::string out = "{\n  \"counters\": {";
  char buf[64];
  bool first = true;
  for (const auto& c : snap.counters) {
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(c.value));
    out.append(first ? "\n" : ",\n");
    out.append("    \"").append(c.name).append("\": ").append(buf);
    first = false;
  }
  out.append(first ? "},\n" : "\n  },\n");
  out.append("  \"gauges\": {");
  first = true;
  for (const auto& g : snap.gauges) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(g.value));
    out.append(first ? "\n" : ",\n");
    out.append("    \"").append(g.name).append("\": ").append(buf);
    first = false;
  }
  out.append(first ? "},\n" : "\n  },\n");
  out.append("  \"histograms\": {");
  first = true;
  for (const auto& h : snap.histograms) {
    out.append(first ? "\n" : ",\n");
    out.append("    \"").append(h.name).append("\": {");
    std::snprintf(buf, sizeof buf, "\"count\": %llu, \"sum\": %llu",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum));
    out.append(buf);
    std::snprintf(buf, sizeof buf, ", \"min\": %llu, \"max\": %llu",
                  static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.max));
    out.append(buf);
    out.append(", \"buckets\": [");
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      std::snprintf(buf, sizeof buf, "%s[%llu, %llu]", b > 0 ? ", " : "",
                    static_cast<unsigned long long>(h.buckets[b].first),
                    static_cast<unsigned long long>(h.buckets[b].second));
      out.append(buf);
    }
    out.append("]}");
    first = false;
  }
  out.append(first ? "}\n" : "\n  }\n");
  out.append("}\n");
  return out;
}

}  // namespace trial
