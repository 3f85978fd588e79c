// Tests for the src/obs observability layer: counter/gauge/histogram
// semantics and the per-thread sharded write path (hammered from a
// ThreadPool; run under TSan via scripts/check.sh), MetricSet label
// bags, trace span nesting with counts and JSON export, and the global
// TraceRing's bounded eviction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace ips {
namespace {

// --- MetricSet ---

TEST(MetricSetTest, SetAddGetAndInsertionOrder) {
  MetricSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.Get("missing"), 0u);
  EXPECT_FALSE(set.Has("missing"));
  set.Set("b", 2);
  set.Set("a", 1);
  set.Add("b", 3);
  set.Add("c", 4);
  EXPECT_EQ(set.Get("a"), 1u);
  EXPECT_EQ(set.Get("b"), 5u);
  EXPECT_EQ(set.Get("c"), 4u);
  ASSERT_EQ(set.items().size(), 3u);
  // Insertion order is preserved, not sorted.
  EXPECT_EQ(set.items()[0].first, "b");
  EXPECT_EQ(set.items()[1].first, "a");
  EXPECT_EQ(set.items()[2].first, "c");
  set.Set("b", 7);
  EXPECT_EQ(set.Get("b"), 7u);
  ASSERT_EQ(set.items().size(), 3u);
}

// --- Counters, gauges, histograms ---

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "x.count");
  // Kinds are namespaced independently.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("x.count")),
            static_cast<void*>(a));
}

TEST(MetricsRegistryTest, CounterAddsAndResets) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  EXPECT_EQ(counter->Value(), 0u);
  counter->Increment();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 42u);
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0u);
}

TEST(MetricsRegistryTest, GaugeTracksValueAndMax) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("g");
  gauge->Set(3.0);
  gauge->Set(9.0);
  gauge->Set(5.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 5.0);
  EXPECT_DOUBLE_EQ(gauge->Max(), 9.0);
  gauge->Add(-2.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 3.0);
  gauge->Reset();
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
  EXPECT_DOUBLE_EQ(gauge->Max(), 0.0);
}

TEST(MetricsRegistryTest, HistogramCountsSumsAndQuantiles) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("h");
  for (int i = 0; i < 100; ++i) hist->Observe(1.0);
  EXPECT_EQ(hist->Count(), 100u);
  EXPECT_DOUBLE_EQ(hist->Sum(), 100.0);
  EXPECT_DOUBLE_EQ(hist->Mean(), 1.0);
  // Log-scale buckets: the median of all-1.0 observations lands in the
  // bucket whose upper edge is within a factor of two of the value.
  const double median = hist->ApproxQuantile(0.5);
  EXPECT_GE(median, 1.0);
  EXPECT_LE(median, 2.0);
  std::uint64_t total = 0;
  for (const std::uint64_t c : hist->BucketCounts()) total += c;
  EXPECT_EQ(total, 100u);
  hist->Reset();
  EXPECT_EQ(hist->Count(), 0u);
}

TEST(MetricsRegistryTest, ExportJsonListsEveryKind) {
  MetricsRegistry registry;
  registry.GetCounter("alpha.count")->Add(7);
  registry.GetGauge("beta.depth")->Set(2.5);
  registry.GetHistogram("gamma.seconds")->Observe(0.25);
  const auto json = registry.ExportJson();
  ASSERT_TRUE(json.ok());
  for (const char* needle :
       {"counters", "gauges", "histograms", "alpha.count", "beta.depth",
        "gamma.seconds"}) {
    EXPECT_NE(json->find(needle), std::string::npos) << needle;
  }
  // The table dashboard renders one row per metric without crashing.
  EXPECT_NO_THROW(registry.ToTable());
}

TEST(MetricsRegistryTest, ExportFailpointLeavesMetricsIntact) {
  MetricsRegistry registry;
  registry.GetCounter("kept.count")->Add(3);
  {
    ScopedFailpoint fp("obs/export");
    EXPECT_FALSE(registry.ExportJson().ok());
  }
  EXPECT_EQ(registry.GetCounter("kept.count")->Value(), 3u);
  EXPECT_TRUE(registry.ExportJson().ok());
}

// Bytes below 0x20 that are not layout newlines: each one makes the
// document invalid JSON.
std::size_t RawControlBytes(const std::string& json) {
  return std::count_if(json.begin(), json.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20 && c != '\n';
  });
}

// Tenant ids arrive from outside and become metric names
// ("serve.qos.<tenant>.*"); span names and labels come from callers.
// Neither export may pass a control byte through raw, and a non-finite
// span time prints as null, not a bare nan.
TEST(MetricsRegistryTest, ExportsEscapeEveryControlByte) {
  const std::string name = "serve.qos.t\x01\r.submitted";
  MetricsRegistry registry;
  registry.GetCounter(name)->Add(1);
  registry.GetGauge(name)->Set(1.0);
  registry.GetHistogram(name)->Observe(1.0);
  const auto metrics = registry.ExportJson();
  ASSERT_TRUE(metrics.ok());
  Trace trace(name);
  trace.AddCount(trace.RecordSpan(name, std::nan("")), name, 1);
  const std::string spans = trace.ToJson();
  for (const std::string& json : {*metrics, spans}) {
    EXPECT_EQ(RawControlBytes(json), 0u) << json;
    EXPECT_NE(json.find("serve.qos.t\\u0001\\r.submitted"),
              std::string::npos);
  }
  EXPECT_EQ(spans.find("nan"), std::string::npos) << spans;
  EXPECT_NE(spans.find("null"), std::string::npos) << spans;
}

// The per-thread sharded fast path: many writers, zero lost updates,
// and values that survive writer-thread exit. Run under TSan in CI.
TEST(MetricsRegistryTest, ConcurrentWritersMergeExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hammer.count");
  Gauge* gauge = registry.GetGauge("hammer.gauge");
  Histogram* hist = registry.GetHistogram("hammer.hist");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  {
    ThreadPool pool(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.Schedule([&] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          counter->Increment();
          gauge->Add(1.0);
          hist->Observe(0.5);
        }
      });
    }
    // Concurrent readers race the writers benignly (relaxed snapshots).
    pool.Schedule([&] {
      (void)counter->Value();
      (void)hist->Count();
      (void)registry.ExportJson();
    });
    pool.Wait();
  }
  // The pool's threads are gone; merged values are exact.
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(gauge->Value(),
                   static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(hist->Count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(hist->Sum(),
                   0.5 * static_cast<double>(kThreads * kPerThread));
}

// --- Trace spans ---

TEST(TraceTest, NestsSpansWithCountsAndFindsThem) {
  Trace trace("unit");
  {
    TraceSpan root(&trace, "root");
    {
      TraceSpan child(&trace, "child");
      child.AddCount("items", 3);
      child.AddCount("items", 2);
    }
    const std::size_t extra = trace.RecordSpan("extra", 0.5);
    trace.AddCount(extra, "items", 5);
    trace.AddCount(extra, "other", 1);
  }
  ASSERT_EQ(trace.spans().size(), 3u);
  const Trace::Span* root = trace.FindSpan("root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, Trace::kNoParent);
  EXPECT_EQ(root->depth, 0u);
  const Trace::Span* child = trace.FindSpan("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(trace.spans()[child->parent].name, "root");
  EXPECT_EQ(child->depth, 1u);
  ASSERT_EQ(child->counts.size(), 1u);
  EXPECT_EQ(child->counts[0].second, 5u);  // 3 + 2 accumulated
  const Trace::Span* extra = trace.FindSpan("extra");
  ASSERT_NE(extra, nullptr);
  EXPECT_DOUBLE_EQ(extra->seconds, 0.5);
  EXPECT_EQ(trace.spans()[extra->parent].name, "root");
  EXPECT_EQ(trace.TotalCount("items"), 10u);
  EXPECT_EQ(trace.TotalCount("other"), 1u);
  EXPECT_EQ(trace.TotalCount("missing"), 0u);
  EXPECT_EQ(trace.FindSpan("missing"), nullptr);
  const std::string json = trace.ToJson();
  for (const char* needle : {"unit", "root", "child", "extra", "items"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  EXPECT_NO_THROW(trace.ToTable());
}

TEST(TraceTest, NullTraceSpansAreNoOps) {
  TraceSpan span(nullptr, "ghost");
  span.AddCount("items", 1);  // must not crash
}

TEST(TraceRingTest, EvictsOldestBeyondCapacity) {
  TraceRing ring(/*capacity=*/2);
  for (const char* label : {"a", "b", "c"}) {
    ring.Record(std::make_shared<const Trace>(label));
  }
  EXPECT_EQ(ring.size(), 2u);
  const auto recent = ring.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0]->label(), "c");  // most recent first
  EXPECT_EQ(recent[1]->label(), "b");
  EXPECT_EQ(ring.Recent(/*limit=*/1).size(), 1u);
  const auto json = ring.ExportJson();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"c\""), std::string::npos);
  EXPECT_EQ(json->find("\"a\""), std::string::npos);  // evicted
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
}

// Concurrent recording into the ring (the publish path queries take
// after tracing). Run under TSan in CI.
TEST(TraceRingTest, ConcurrentRecordsStayBounded) {
  TraceRing ring(/*capacity=*/8);
  {
    ThreadPool pool(4);
    for (int t = 0; t < 4; ++t) {
      pool.Schedule([&ring, t] {
        std::string label = "t";
        label += std::to_string(t);
        for (int i = 0; i < 500; ++i) {
          auto trace = std::make_shared<Trace>(label);
          { TraceSpan span(trace.get(), "work"); }
          ring.Record(std::move(trace));
          (void)ring.Recent(/*limit=*/2);
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_TRUE(ring.ExportJson().ok());
}

}  // namespace
}  // namespace ips
