// Tests of the scatter-gather ShardedEngine (serve/sharded_engine.h):
// merge correctness against the exact single-node answer, deterministic
// global-index tie-breaking, shard accounting, retry and hedging
// behavior, trace children, and construction validation. Heavier
// failure injection (breaker trip/recover, all-shards-down) lives in
// chaos_test.cc.

#include "serve/sharded_engine.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/top_k.h"
#include "rng/random.h"
#include "serve/batch_scheduler.h"
#include "util/failpoint.h"

namespace ips {
namespace {

class ShardedTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisarmAll(); }
};

QueryOptions ForcedBrute(std::size_t k) {
  QueryOptions options;
  options.k = k;
  options.force_algorithm = QueryAlgo::kBruteForce;
  return options;
}

// The shard labels partition the fan-out: every shard a query reached
// either answered or was lost.
void ExpectShardPartition(const QueryStats& stats) {
  EXPECT_EQ(stats.metrics.Get("serve.shard.ok") +
                stats.metrics.Get("serve.shard.failed"),
            stats.metrics.Get("serve.shard.total"));
}

TEST_F(ShardedTest, RetryableCodeClassification) {
  EXPECT_TRUE(IsRetryableShardStatus(StatusCode::kUnavailable));
  // Shedding is deliberate back-pressure; retrying amplifies overload.
  EXPECT_FALSE(IsRetryableShardStatus(StatusCode::kResourceExhausted));
  // A late answer does not get later by retrying.
  EXPECT_FALSE(IsRetryableShardStatus(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryableShardStatus(StatusCode::kInternal));
  EXPECT_FALSE(IsRetryableShardStatus(StatusCode::kInvalidArgument));
}

TEST_F(ShardedTest, MergeMatchesExactTopKAcrossShardCounts) {
  Rng rng(21);
  const Matrix data = MakeUnitBallGaussian(97, 8, 0.9, &rng);
  const Matrix queries = MakeUnitBallGaussian(6, 8, 0.9, &rng);
  const QueryOptions options = ForcedBrute(5);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = shards;
    const auto engine = ShardedEngine::Create(data, sharded_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->num_shards(), shards);
    EXPECT_EQ((*engine)->dim(), data.cols());
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const auto q = queries.Row(qi);
      const auto result = (*engine)->Query({q, options});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const auto exact =
          TopKBruteForce(data, q, options.k, options.is_signed);
      ASSERT_EQ(result->matches.size(), exact.size());
      for (std::size_t i = 0; i < exact.size(); ++i) {
        EXPECT_EQ(result->matches[i].index, exact[i].index);
        EXPECT_DOUBLE_EQ(result->matches[i].value, exact[i].value);
      }
      EXPECT_FALSE(result->partial);
      EXPECT_EQ(result->stats.metrics.Get("serve.shard.total"), shards);
      EXPECT_EQ(result->stats.metrics.Get("serve.shard.ok"), shards);
      EXPECT_EQ(result->stats.metrics.Get("serve.shard.failed"), 0u);
      ExpectShardPartition(result->stats);
      // Forced brute scans every row exactly once across the partition.
      EXPECT_EQ(result->stats.dot_products, data.rows());
    }
  }
}

TEST_F(ShardedTest, TieBreakUsesGlobalIndexAcrossShards) {
  // Every row identical: all scores tie, so the merged top-k must be
  // exactly the lowest *global* indices in order — shard-local indices
  // or gather order must never leak into the ranking.
  Matrix data(8, 4);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      data.At(r, c) = 0.25 * static_cast<double>(c + 1);
    }
  }
  ShardedEngineOptions options;
  options.num_shards = 4;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<double> q(4, 0.5);
  const auto result = (*engine)->Query({q, ForcedBrute(5)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->matches.size(), 5u);
  for (std::size_t i = 0; i < result->matches.size(); ++i) {
    EXPECT_EQ(result->matches[i].index, i);
  }
}

TEST_F(ShardedTest, ShardOffsetsPartitionContiguously) {
  Rng rng(22);
  // 10 rows over 4 shards: 3, 3, 2, 2.
  const Matrix data = MakeUnitBallGaussian(10, 4, 0.9, &rng);
  ShardedEngineOptions options;
  options.num_shards = 4;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->shard_offset(0), 0u);
  EXPECT_EQ((*engine)->shard_offset(1), 3u);
  EXPECT_EQ((*engine)->shard_offset(2), 6u);
  EXPECT_EQ((*engine)->shard_offset(3), 8u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    covered += (*engine)->shard(i).data().rows();
  }
  EXPECT_EQ(covered, data.rows());
}

TEST_F(ShardedTest, BatchQueryMatchesSingleQueries) {
  Rng rng(23);
  const Matrix data = MakeUnitBallGaussian(64, 8, 0.9, &rng);
  const Matrix queries = MakeUnitBallGaussian(7, 8, 0.9, &rng);
  ShardedEngineOptions options;
  options.num_shards = 3;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const QueryOptions request = ForcedBrute(4);
  const auto batched = (*engine)->BatchQuery(queries, request, {});
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->size(), queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto single = (*engine)->Query({queries.Row(qi), request});
    ASSERT_TRUE(single.ok());
    const QueryResult& member = (*batched)[qi];
    ASSERT_EQ(member.matches.size(), single->matches.size());
    for (std::size_t i = 0; i < member.matches.size(); ++i) {
      EXPECT_EQ(member.matches[i].index, single->matches[i].index);
      EXPECT_DOUBLE_EQ(member.matches[i].value, single->matches[i].value);
    }
    EXPECT_FALSE(member.partial);
    EXPECT_EQ(member.stats.metrics.Get("serve.shard.total"), 3u);
    EXPECT_EQ(member.stats.metrics.Get("serve.shard.ok"), 3u);
  }
  // Empty batch short-circuits without fan-out.
  const auto empty = (*engine)->BatchQuery(Matrix(), request, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(ShardedTest, TransientUnavailableIsRetriedToSuccess) {
  Rng rng(24);
  const Matrix data = MakeUnitBallGaussian(48, 6, 0.9, &rng);
  ShardedEngineOptions options;
  options.num_shards = 2;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // One-shot: shard 0's first attempt fails kUnavailable, its retry
  // succeeds — the query comes back whole, not partial.
  Failpoints::Arm("serve/shard/query/0", 1,
                  Status::Unavailable("transient blip"));
  const std::vector<double> q(6, 0.1);
  const auto result = (*engine)->Query({q, ForcedBrute(3)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->partial);
  EXPECT_EQ(result->stats.metrics.Get("serve.shard.ok"), 2u);
  EXPECT_EQ(result->stats.metrics.Get("serve.shard.failed"), 0u);
  EXPECT_EQ(result->stats.metrics.Get("serve.shard.retries"), 1u);
}

TEST_F(ShardedTest, NonRetryableShardFailureDegradesToPartial) {
  Rng rng(25);
  const Matrix data = MakeUnitBallGaussian(40, 6, 0.9, &rng);
  ShardedEngineOptions options;
  options.num_shards = 2;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // Internal errors are not retried: shard 1 is lost on its single
  // attempt, the survivors still answer (partial = true).
  Failpoints::Arm("serve/shard/query/1", Status::Internal("disk fault"),
                  FireEvery{1});
  const std::vector<double> q(6, 0.1);
  const auto result = (*engine)->Query({q, ForcedBrute(5)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->stats.metrics.Get("serve.shard.total"), 2u);
  EXPECT_EQ(result->stats.metrics.Get("serve.shard.ok"), 1u);
  EXPECT_EQ(result->stats.metrics.Get("serve.shard.failed"), 1u);
  ExpectShardPartition(result->stats);
  EXPECT_FALSE(result->stats.metrics.Has("serve.shard.retries"));
  // Every surviving match comes from shard 0's global range.
  const std::size_t boundary = (*engine)->shard_offset(1);
  for (const SearchMatch& match : result->matches) {
    EXPECT_LT(match.index, boundary);
  }
}

TEST_F(ShardedTest, PredictedStragglerIsHedged) {
  Rng rng(26);
  const Matrix data = MakeUnitBallGaussian(48, 6, 0.9, &rng);
  ShardedEngineOptions options;
  options.num_shards = 2;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  QueryOptions request;
  request.k = 3;
  RequestContext context;
  context.deadline_seconds = 0.01;
  const std::vector<double> q(6, 0.1);
  // Shard 0's primary path stalls 20 ms on every call; the 9 ms shard
  // budget cannot absorb that, so once the latency tracker has seen the
  // 8 stalled calls it needs it predicts the miss and answers through
  // the hedge.
  Failpoints::Arm("serve/shard/slow/0", Status::Internal("straggler"),
                  FireEvery{1});
  for (int i = 0; i < 8; ++i) {
    const auto warmup = (*engine)->Query({q, request, context});
    ASSERT_TRUE(warmup.ok()) << warmup.status().ToString();
    EXPECT_EQ(warmup->stats.metrics.Get("serve.shard.hedged"), 0u);
  }
  const std::size_t stalls = Failpoints::HitCount("serve/shard/slow/0");
  EXPECT_EQ(stalls, 8u);
  const auto hedged = (*engine)->Query({q, request, context});
  ASSERT_TRUE(hedged.ok()) << hedged.status().ToString();
  EXPECT_EQ(hedged->stats.metrics.Get("serve.shard.hedged"), 1u);
  EXPECT_FALSE(hedged->partial);
  EXPECT_EQ(hedged->stats.metrics.Get("serve.shard.ok"), 2u);
  // The hedge detoured around the stall: its path never reached the
  // stall site, and so slept no 20 ms.
  EXPECT_EQ(Failpoints::HitCount("serve/shard/slow/0"), stalls);
  EXPECT_LT(hedged->stats.exec_seconds, 0.02);
}

TEST_F(ShardedTest, TraceRecordsOneChildSpanPerShard) {
  Rng rng(27);
  const Matrix data = MakeUnitBallGaussian(32, 6, 0.9, &rng);
  ShardedEngineOptions options;
  options.num_shards = 4;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  QueryOptions request = ForcedBrute(2);
  request.trace = true;
  const auto result = (*engine)->Query({std::vector<double>(6, 0.1), request});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->stats.trace, nullptr);
  const Trace& trace = *result->stats.trace;
  ASSERT_NE(trace.FindSpan("serve/sharded_query"), nullptr);
  for (std::size_t i = 0; i < 4; ++i) {
    const Trace::Span* span =
        trace.FindSpan("serve/shard/" + std::to_string(i));
    ASSERT_NE(span, nullptr) << "missing child span for shard " << i;
    EXPECT_EQ(span->depth, 1u);
  }
  EXPECT_EQ(trace.TotalCount("ok"), 4u);
}

TEST_F(ShardedTest, UniformFailureCodePropagatesUnchanged) {
  Rng rng(28);
  const Matrix data = MakeUnitBallGaussian(32, 6, 0.9, &rng);
  ShardedEngineOptions options;
  options.num_shards = 2;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // A forced sketch path rejects exact-precision requests on *every*
  // shard with kInvalidArgument; the uniform code surfaces unchanged
  // rather than hiding behind a generic kUnavailable summary.
  QueryOptions request;
  request.force_algorithm = QueryAlgo::kSketch;
  request.precision = QueryPrecision::kExact;
  const auto result = (*engine)->Query({std::vector<double>(6, 0.1), request});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardedTest, CoordinatorValidatesRequestBeforeFanOut) {
  Rng rng(29);
  const Matrix data = MakeUnitBallGaussian(32, 6, 0.9, &rng);
  ShardedEngineOptions two_shards;
  two_shards.num_shards = 2;
  const auto engine = ShardedEngine::Create(data, two_shards);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // Wrong dimension.
  EXPECT_FALSE((*engine)->Query({std::vector<double>(5, 0.1), ForcedBrute(1)})
                   .ok());
  // NaN query.
  std::vector<double> poisoned(6, 0.1);
  poisoned[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE((*engine)->Query({poisoned, ForcedBrute(1)}).ok());
  // Invalid options (k = 0).
  QueryOptions zero_k;
  zero_k.k = 0;
  EXPECT_FALSE((*engine)->Query({std::vector<double>(6, 0.1), zero_k}).ok());
}

TEST_F(ShardedTest, RetiredPrecisionValuesAreRejected) {
  Rng rng(31);
  const Matrix data = MakeUnitBallGaussian(32, 6, 0.9, &rng);
  ShardedEngineOptions options;
  options.num_shards = 2;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Matrix queries = MakeUnitBallGaussian(3, 6, 0.9, &rng);
  // 3 was the deleted sketch-filter precision; 7 was never a value.
  for (const int raw : {3, 7}) {
    QueryOptions request;
    request.precision = static_cast<QueryPrecision>(raw);
    EXPECT_EQ((*engine)->Query({queries.Row(0), request}).status().code(),
              StatusCode::kInvalidArgument)
        << raw;
    EXPECT_EQ((*engine)->BatchQuery(queries, request, {}).status().code(),
              StatusCode::kInvalidArgument)
        << raw;
  }
}

TEST_F(ShardedTest, CreateRejectsInvalidOptions) {
  Rng rng(30);
  const Matrix data = MakeUnitBallGaussian(16, 4, 0.9, &rng);
  {
    ShardedEngineOptions options;
    options.num_shards = 0;
    EXPECT_FALSE(ShardedEngine::Create(data, options).ok());
  }
  {
    ShardedEngineOptions options;
    options.num_shards = 17;  // more shards than rows
    EXPECT_FALSE(ShardedEngine::Create(data, options).ok());
  }
  EXPECT_FALSE(ShardedEngine::Create(Matrix(), ShardedEngineOptions{}).ok());
}

TEST_F(ShardedTest, BatchSchedulerDrivesShardedEngine) {
  Rng rng(31);
  const Matrix data = MakeUnitBallGaussian(64, 6, 0.9, &rng);
  ShardedEngineOptions options;
  options.num_shards = 2;
  const auto engine = ShardedEngine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  BatchSchedulerOptions scheduler_options;
  scheduler_options.num_threads = 2;
  // The scheduler drives the sharded fleet through the same QueryEngine
  // interface as a single-node engine.
  BatchScheduler scheduler(engine->get(), scheduler_options);
  std::vector<std::future<BatchScheduler::Result>> futures;
  const Matrix queries = MakeUnitBallGaussian(12, 6, 0.9, &rng);
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto q = queries.Row(qi);
    futures.push_back(scheduler.Submit(
        {std::vector<double>(q.begin(), q.end()), ForcedBrute(3)}));
  }
  for (std::size_t qi = 0; qi < futures.size(); ++qi) {
    const auto result = futures[qi].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto exact = TopKBruteForce(data, queries.Row(qi), 3, true);
    ASSERT_EQ(result->matches.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(result->matches[i].index, exact[i].index);
    }
    EXPECT_EQ(result->stats.metrics.Get("serve.shard.total"), 2u);
    EXPECT_FALSE(result->partial);
  }
}

}  // namespace
}  // namespace ips
