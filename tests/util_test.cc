// Tests for src/util: status, stats, table printing, the JSON writer,
// thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/failpoint.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace ips {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  const Status status = Status::InvalidArgument("bad k");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad k");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "INVALID_ARGUMENT");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FAILED_PRECONDITION");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "INTERNAL");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
            "DEADLINE_EXCEEDED");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDataLoss), "DATA_LOSS");
  // A code outside the enum range falls through to the default name.
  EXPECT_EQ(StatusCodeToString(static_cast<StatusCode>(99)), "UNKNOWN");
}

TEST(StatusTest, EveryFactoryMatchesItsCode) {
  EXPECT_EQ(Status::InvalidArgument("m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("m").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("m").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("m").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("m").code(), StatusCode::kInternal);
  const Status exhausted = Status::ResourceExhausted("pool saturated");
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.ToString(), "RESOURCE_EXHAUSTED: pool saturated");
  EXPECT_EQ(Status::DeadlineExceeded("m").code(),
            StatusCode::kDeadlineExceeded);
  const Status unavailable = Status::Unavailable("shard down");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "UNAVAILABLE: shard down");
  const Status data_loss = Status::DataLoss("bad checksum");
  EXPECT_EQ(data_loss.code(), StatusCode::kDataLoss);
  EXPECT_EQ(data_loss.ToString(), "DATA_LOSS: bad checksum");
}

// --- Failpoint firing modes (one-shot basics live in chaos_test) ---

TEST(FailpointTest, FireEveryNthFiresPeriodically) {
  Failpoints::Arm("util-test/every", Status::Unavailable("periodic"),
                  FireEvery{2});
  // Hits 2, 4, 6 fire; odd hits pass.
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(Failpoints::Hit("util-test/every").ok());
    const Status fired = Failpoints::Hit("util-test/every");
    EXPECT_EQ(fired.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(Failpoints::HitCount("util-test/every"), 6u);
  Failpoints::DisarmAll();
  EXPECT_TRUE(Failpoints::Hit("util-test/every").ok());
}

TEST(FailpointTest, FireWithProbIsDeterministicPerSeed) {
  auto pattern = [](std::uint64_t seed) {
    Failpoints::Arm("util-test/prob",
                    Status::Unavailable("coin flip"),
                    FireWithProb{0.25, seed});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!Failpoints::Hit("util-test/prob").ok());
    }
    Failpoints::Disarm("util-test/prob");
    return fired;
  };
  const auto first = pattern(7);
  EXPECT_EQ(first, pattern(7));       // replayable: same seed, same firing
  EXPECT_NE(first, pattern(8));       // and seed-sensitive
  const std::size_t fired_count =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired_count, 0u);   // p = 0.25 over 64 hits fires some...
  EXPECT_LT(fired_count, 64u);  // ...but not all
}

TEST(FailpointTest, FireWithProbExtremesNeverAndAlways) {
  Failpoints::Arm("util-test/p0", Status::Internal("never"),
                  FireWithProb{0.0});
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(Failpoints::Hit("util-test/p0").ok());
  }
  Failpoints::Arm("util-test/p1", Status::Internal("always"),
                  FireWithProb{1.0});
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(Failpoints::Hit("util-test/p1").ok());
  }
  Failpoints::DisarmAll();
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, ValueOnErrorDies) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_DEATH(result.value(), "NOT_FOUND");
}

TEST(CheckTest, FailureAborts) {
  EXPECT_DEATH(IPS_CHECK(1 == 2) << "custom context", "custom context");
  EXPECT_DEATH(IPS_CHECK_EQ(3, 4), "3 == 4");
}

TEST(OnlineStatsTest, MeanAndVariance) {
  OnlineStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_NEAR(stats.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.Mean(), 0.0);
  EXPECT_EQ(stats.Variance(), 0.0);
  EXPECT_EQ(stats.StdError(), 0.0);
}

TEST(OnlineStatsTest, SingleSampleHasZeroVariance) {
  OnlineStats stats;
  stats.Add(3.5);
  EXPECT_DOUBLE_EQ(stats.Mean(), 3.5);
  EXPECT_EQ(stats.Variance(), 0.0);
}

TEST(PercentileTest, InterpolatesLinearly) {
  const std::vector<double> sorted = {0.0, 10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.5), 15.0);
}

TEST(SummarizeTest, ComputesOrderStatistics) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const Summary summary = Summarize(samples);
  EXPECT_EQ(summary.count, 100u);
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_NEAR(summary.p50, 50.5, 1e-9);
  EXPECT_NEAR(summary.p90, 90.1, 1e-9);
  EXPECT_FALSE(summary.ToString().empty());
}

TEST(RollingP99Test, NearestRankOverTheHeldSamples) {
  RollingP99<128> window;
  EXPECT_EQ(window.P99(), 0.0);  // empty
  window.Add(100.0);
  EXPECT_EQ(window.P99(), 100.0);  // n = 1: the only sample
  for (int v = 99; v >= 1; --v) window.Add(v);
  EXPECT_EQ(window.P99(), 99.0);  // n = 100: ceil(99.00) = 99th smallest
  for (int v = 101; v <= 128; ++v) window.Add(v);
  EXPECT_EQ(window.P99(), 127.0);  // n = 128: ceil(126.72) = 127th
  EXPECT_EQ(window.count(), 128u);
}

TEST(RollingP99Test, WrapsAroundKeepingTheLastNSamples) {
  RollingP99<4> window;
  for (double v : {10.0, 20.0, 30.0, 40.0}) window.Add(v);
  EXPECT_EQ(window.P99(), 40.0);  // ceil(3.96) = 4th of 4
  for (double v : {1.0, 2.0, 3.0}) window.Add(v);
  EXPECT_EQ(window.P99(), 40.0);  // {1, 2, 3, 40}: 10, 20, 30 are gone
  window.Add(4.0);
  EXPECT_EQ(window.P99(), 4.0);
  EXPECT_EQ(window.count(), 8u);
}

TEST(BernoulliTest, EstimateAndHalfWidth) {
  const BernoulliEstimate estimate = EstimateBernoulli(25, 100);
  EXPECT_DOUBLE_EQ(estimate.p_hat, 0.25);
  EXPECT_NEAR(estimate.HalfWidth(2.0), 2.0 * std::sqrt(0.25 * 0.75 / 100.0),
              1e-12);
}

TEST(BernoulliTest, ZeroTrials) {
  const BernoulliEstimate estimate = EstimateBernoulli(0, 0);
  EXPECT_EQ(estimate.p_hat, 0.0);
  EXPECT_EQ(estimate.HalfWidth(3.0), 0.0);
}

TEST(TablePrinterTest, MarkdownAligned) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::ostringstream out;
  table.PrintMarkdown(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(rendered.find("|-------|"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream out;
  table.PrintCsv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, RowArityMismatchDies) {
  TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only one"}), "IPS_CHECK_EQ");
}

TEST(TablePrinterTest, CsvExportHonorsEnvironment) {
  TablePrinter table({"x", "y"});
  table.AddRow({"1", "2"});
  // Without the variable: no file is written.
  unsetenv("IPS_BENCH_CSV_DIR");
  EXPECT_FALSE(MaybeExportCsv(table, "probe"));
  // With it: the CSV lands in the directory.
  const std::string dir = ::testing::TempDir();
  setenv("IPS_BENCH_CSV_DIR", dir.c_str(), 1);
  EXPECT_TRUE(MaybeExportCsv(table, "probe"));
  std::ifstream file(dir + "/probe.csv");
  ASSERT_TRUE(file.is_open());
  std::string line;
  std::getline(file, line);
  EXPECT_EQ(line, "x,y");
  unsetenv("IPS_BENCH_CSV_DIR");
  std::remove((dir + "/probe.csv").c_str());
}

TEST(FormatTest, FixedAndScientific) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatSci(12345.0, 2), "1.23e+04");
  EXPECT_EQ(Format(7), "7");
}

// --- JsonWriter ---

TEST(JsonWriterTest, NestsWithSeparatorsAndEmptyContainers) {
  JsonWriter json;
  json.BeginObject();
  json.Key("n").Uint(3);
  json.Key("list").BeginArray().Double(0.5).Bool(false).String("x").EndArray();
  json.Key("empty_object").BeginObject().EndObject();
  json.Key("empty_array").BeginArray().EndArray();
  json.Key("nested").BeginArray().BeginObject().Key("a").Bool(true);
  json.EndObject().EndArray();
  json.EndObject();
  EXPECT_EQ(json.Take(),
            "{\n"
            "  \"n\": 3,\n"
            "  \"list\": [\n"
            "    0.5,\n"
            "    false,\n"
            "    \"x\"\n"
            "  ],\n"
            "  \"empty_object\": {},\n"
            "  \"empty_array\": [],\n"
            "  \"nested\": [\n"
            "    {\n"
            "      \"a\": true\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, EscapesEveryControlByteAndNullsNonFiniteDoubles) {
  JsonWriter json;
  json.BeginArray();
  json.String(std::string("q\"b\\n\nr\rt\t\x01\x1f\0.", 14));
  json.Double(std::numeric_limits<double>::quiet_NaN());
  json.Double(-std::numeric_limits<double>::infinity());
  json.Double(1.0 / 3.0);
  json.Uint(std::numeric_limits<std::uint64_t>::max());
  json.EndArray();
  EXPECT_EQ(json.Take(),
            "[\n"
            "  \"q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u001f\\u0000.\",\n"
            "  null,\n"
            "  null,\n"
            "  0.333333,\n"
            "  18446744073709551615\n"
            "]\n");
}

TEST(JsonWriterTest, MisnestingAborts) {
  EXPECT_DEATH(JsonWriter().BeginObject().Uint(1), "needs a Key");
  EXPECT_DEATH(JsonWriter().BeginArray().Key("k"), "inside an object");
  EXPECT_DEATH(JsonWriter().BeginArray().EndObject(), "unbalanced");
  EXPECT_DEATH((void)JsonWriter().BeginArray().Take(), "unfinished");
  EXPECT_DEATH(JsonWriter().Uint(1).Uint(2), "one root value");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int value = 0;
  pool.Schedule([&value] { value = 7; });
  EXPECT_EQ(value, 7);
  pool.Wait();  // no-op
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForTest, NullPoolIsSequential) {
  std::vector<int> hits(64, 0);
  ParallelFor(nullptr, hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
  });
  for (int hit : hits) EXPECT_EQ(hit, 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  ParallelFor(&pool, 0, [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Schedule([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    // No Wait(): destruction runs the still-queued tasks before joining.
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentWaitCallersAllReturn) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&pool] { pool.Wait(); });
  }
  pool.Wait();
  for (auto& waiter : waiters) waiter.join();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ThrowingTaskSurfacesAtWaitNotTerminate) {
  ThreadPool pool(2);
  pool.Schedule([] { throw std::runtime_error("task exploded"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The exception was consumed; the pool keeps working.
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitStatusConvertsExceptionToInternal) {
  ThreadPool pool(2);
  pool.Schedule([] { throw std::runtime_error("task exploded"); });
  const Status status = pool.WaitStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("task exploded"), std::string::npos);
  EXPECT_TRUE(pool.WaitStatus().ok());
}

TEST(ThreadPoolTest, InlinePoolCapturesThrowingTask) {
  ThreadPool pool(0);
  pool.Schedule([] { throw std::runtime_error("inline explosion"); });
  const Status status = pool.WaitStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("inline explosion"), std::string::npos);
}

TEST(ParallelForTest, FewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(&pool, hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForTest, BodyExceptionPropagatesOnce) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 512,
                           [](std::size_t, std::size_t) {
                             throw std::runtime_error("chunk failed");
                           }),
               std::runtime_error);
  // A second job on the same pool runs to completion.
  std::atomic<int> covered{0};
  ParallelFor(&pool, 128, [&covered](std::size_t begin, std::size_t end) {
    covered += static_cast<int>(end - begin);
  });
  EXPECT_EQ(covered.load(), 128);
}

TEST(ParallelForStatusTest, PropagatesFirstError) {
  ThreadPool pool(4);
  const Status status = ParallelForStatus(
      &pool, 1000, [](std::size_t begin, std::size_t) {
        if (begin == 0) return Status::InvalidArgument("bad chunk");
        return Status::Ok();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ParallelForStatusTest, InlineExecutionAndOkPath) {
  EXPECT_TRUE(ParallelForStatus(nullptr, 10,
                                [](std::size_t, std::size_t) {
                                  return Status::Ok();
                                })
                  .ok());
  const Status status = ParallelForStatus(
      nullptr, 10, [](std::size_t, std::size_t) -> Status {
        throw std::runtime_error("inline body threw");
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace ips
