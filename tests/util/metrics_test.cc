// The process metrics registry: named instrument identity, counter and
// gauge semantics, the log2 histogram bucketing, the global enable
// flag, snapshot/JSON rendering, and thread-safety under a concurrent
// hammer (the TSan configuration runs this suite).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "storage/triple_set.h"
#include "util/metrics.h"

namespace trial {
namespace {

// The registry is process-global and other suites may have touched it;
// every test uses its own instrument names and asserts deltas.

const MetricsSnapshot::HistogramValue* FindHisto(const MetricsSnapshot& snap,
                                                 const std::string& name) {
  for (const auto& e : snap.histograms) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c1 = reg.GetCounter("test.identity.counter");
  Counter* c2 = reg.GetCounter("test.identity.counter");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(reg.GetGauge("test.identity.gauge"),
            reg.GetGauge("test.identity.gauge"));
  EXPECT_EQ(reg.GetHistogram("test.identity.histo"),
            reg.GetHistogram("test.identity.histo"));
  // Distinct names are distinct instruments.
  EXPECT_NE(c1, reg.GetCounter("test.identity.counter2"));
}

TEST(MetricsRegistry, CounterAndGaugeBasics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test.basics.counter");
  uint64_t before = c->value();
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), before + 42);

  Gauge* g = reg.GetGauge("test.basics.gauge");
  g->Set(17);
  EXPECT_EQ(g->value(), 17);
  g->Add(-20);
  EXPECT_EQ(g->value(), -3);
}

TEST(MetricsHistogram, Log2BucketBoundaries) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("test.buckets.histo");
  // 0 and 1 land in the first bucket (upper bound 1); 2 and 3 in
  // [2,4); 4 in [4,8); a huge value clamps into the top bucket.
  h->Observe(0);
  h->Observe(1);
  h->Observe(2);
  h->Observe(3);
  h->Observe(4);
  h->Observe(UINT64_MAX);

  MetricsSnapshot snap = reg.Snapshot();
  const MetricsSnapshot::HistogramValue* found =
      FindHisto(snap, "test.buckets.histo");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 6u);
  EXPECT_EQ(found->min, 0u);
  EXPECT_EQ(found->max, UINT64_MAX);
  EXPECT_EQ(found->sum, uint64_t{10} + UINT64_MAX);  // wraps, and that's fine

  uint64_t total = 0;
  uint64_t at_upper_1 = 0, at_upper_4 = 0, at_upper_8 = 0, at_top = 0;
  for (const auto& b : found->buckets) {
    total += b.second;
    if (b.first == 1) at_upper_1 = b.second;
    if (b.first == 4) at_upper_4 = b.second;
    if (b.first == 8) at_upper_8 = b.second;
    if (b.first == UINT64_MAX) at_top = b.second;
  }
  EXPECT_EQ(total, found->count) << "buckets must sum to the count";
  EXPECT_EQ(at_upper_1, 2u);  // 0, 1
  EXPECT_EQ(at_upper_4, 2u);  // 2, 3
  EXPECT_EQ(at_upper_8, 1u);  // 4
  EXPECT_EQ(at_top, 1u);      // the clamped UINT64_MAX
}

TEST(MetricsFlag, SetMetricsEnabledIsReadBack) {
  bool was = MetricsEnabled();
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(was);
  // The instruments themselves always record; the flag only gates the
  // instrumentation sites (callers check it before reading clocks).
  Counter* c = MetricsRegistry::Global().GetCounter("test.flag.counter");
  uint64_t before = c->value();
  c->Increment();
  EXPECT_EQ(c->value(), before + 1);
}

TEST(MetricsRender, JsonContainsRegisteredInstruments) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.render.counter")->Add(7);
  reg.GetGauge("test.render.gauge")->Set(5);
  reg.GetHistogram("test.render.histo")->Observe(100);
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.render.counter\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.render.gauge\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.render.histo\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;
}

TEST(MetricsTimer, ScopedTimerObservesOnlyWhenEnabledAtConstruction) {
  bool was = MetricsEnabled();
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.timer.histo");
  SetMetricsEnabled(false);
  uint64_t before = h->count();
  { ScopedTimer t(h); }
  EXPECT_EQ(h->count(), before);
  SetMetricsEnabled(true);
  { ScopedTimer t(h); }
  EXPECT_EQ(h->count(), before + 1);
  SetMetricsEnabled(was);
}

// An in-memory permutation build is counted once, when it sorts; a
// cached order and a run with metrics off count nothing.
TEST(MetricsStorage, PermutationBuildsAreCounted) {
  bool was = MetricsEnabled();
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* builds = reg.GetCounter("storage.perm_builds");
  Histogram* ns = reg.GetHistogram("storage.perm_build_ns");
  const std::vector<Triple> spo = {{0, 2, 1}, {1, 0, 2}, {2, 1, 0}};
  SetMetricsEnabled(true);
  uint64_t builds0 = builds->value();
  uint64_t ns0 = ns->count();
  TripleSet s = TripleSet::FromSortedUnique(spo);
  s.Materialize(IndexOrder::kSPO);  // born built: no build
  s.Materialize(IndexOrder::kPOS);
  s.Materialize(IndexOrder::kPOS);  // cached
  s.Materialize(IndexOrder::kOSP);
  EXPECT_EQ(builds->value(), builds0 + 2);
  EXPECT_EQ(ns->count(), ns0 + 2);
  SetMetricsEnabled(false);
  TripleSet t = TripleSet::FromSortedUnique(spo);
  t.Materialize(IndexOrder::kOSP);
  EXPECT_EQ(builds->value(), builds0 + 2);
  EXPECT_EQ(ns->count(), ns0 + 2);
  SetMetricsEnabled(was);
}

TEST(MetricsClock, MonotonicNanosNeverGoesBackwards) {
  uint64_t prev = MonotonicNanos();
  for (int i = 0; i < 1000; ++i) {
    uint64_t now = MonotonicNanos();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

// Concurrency: registrations, counter bumps and histogram observations
// race across threads; totals must come out exact and TSan-clean.
TEST(MetricsThreads, ConcurrentRegisterAndRecordIsExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t c_before = reg.GetCounter("test.mt.counter")->value();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Every thread re-resolves by name (exercising the registry
      // lock) and records on shared and per-thread instruments.
      Counter* c = reg.GetCounter("test.mt.counter");
      Histogram* h = reg.GetHistogram("test.mt.histo");
      Counter* own = reg.GetCounter("test.mt.own." + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(static_cast<uint64_t>(i));
        own->Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("test.mt.counter")->value(),
            c_before + uint64_t{kThreads} * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("test.mt.own." + std::to_string(t))->value(),
              uint64_t{kPerThread});
  }
  MetricsSnapshot snap = reg.Snapshot();
  const MetricsSnapshot::HistogramValue* found =
      FindHisto(snap, "test.mt.histo");
  ASSERT_NE(found, nullptr);
  EXPECT_GE(found->count, uint64_t{kThreads} * kPerThread);
  uint64_t total = 0;
  for (const auto& b : found->buckets) total += b.second;
  EXPECT_EQ(total, found->count);
}

}  // namespace
}  // namespace trial
