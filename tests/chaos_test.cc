// Chaos tests for the failure-hardening layer: every armed failpoint and
// every invalid-input class must surface as a descriptive non-OK Status
// through the public API — never an abort, never std::terminate — and
// the same object/API must accept a subsequent valid request (graceful
// degradation, not poisoned state).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/io.h"
#include "core/mips_index.h"
#include "core/similarity_join.h"
#include "core/symmetric_index.h"
#include "lsh/bucket_join.h"
#include "lsh/simhash.h"
#include "lsh/tables.h"
#include "lsh/transforms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rng/random.h"
#include "serve/batch_scheduler.h"
#include "serve/engine.h"
#include "serve/sharded_engine.h"
#include "sketch/sketch_mips.h"
#include "storage/blocked_join.h"
#include "storage/snapshot.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace ips {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisarmAll(); }

  static JoinSpec ValidSpec() {
    JoinSpec spec;
    spec.s = 0.5;
    spec.c = 0.5;
    spec.is_signed = true;
    return spec;
  }
};

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// --- Failpoint framework basics ---

TEST_F(ChaosTest, DisarmedFailpointsAreInvisible) {
  EXPECT_FALSE(Failpoints::AnyArmed());
  EXPECT_TRUE(ParseMatrixCsv("1,2\n3,4\n").ok());
}

TEST_F(ChaosTest, FailpointFiresOnNthHitExactlyOnce) {
  ScopedFailpoint fp("io/parse-line", /*nth=*/2);
  // Line 1 parses; line 2 hits the trigger.
  const auto result = ParseMatrixCsv("1,2\n3,4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("io/parse-line"),
            std::string::npos);
  EXPECT_EQ(fp.hit_count(), 2u);
  // The site fired once; the same API call now succeeds.
  EXPECT_TRUE(ParseMatrixCsv("1,2\n3,4\n").ok());
}

TEST_F(ChaosTest, FailpointCarriesArmedStatusCode) {
  const std::string path = TempPath("chaos_read.csv");
  IPS_CHECK_OK(SaveMatrixCsv(path, Matrix(2, 2)));
  Failpoints::Arm("io/read", 1,
                  Status::ResourceExhausted("file descriptor limit"));
  const auto result = LoadMatrixCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("file descriptor limit"),
            std::string::npos);
  // Degraded gracefully: the next read succeeds.
  EXPECT_TRUE(LoadMatrixCsv(path).ok());
  std::remove(path.c_str());
}

TEST_F(ChaosTest, WriteFailpointSurfacesAndRecovers) {
  const std::string path = TempPath("chaos_write.csv");
  ScopedFailpoint fp("io/write");
  EXPECT_FALSE(SaveMatrixCsv(path, Matrix(1, 1)).ok());
  EXPECT_TRUE(SaveMatrixCsv(path, Matrix(1, 1)).ok());
  std::remove(path.c_str());
}

// --- ThreadPool / ParallelFor under injected and thrown failures ---

TEST_F(ChaosTest, ScheduleFailpointSurfacesAtWaitStatus) {
  ThreadPool pool(4);
  ScopedFailpoint fp("threadpool/schedule", /*nth=*/3);
  const Status status =
      ParallelForStatus(&pool, 100, [](std::size_t, std::size_t) {
        return Status::Ok();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("threadpool/schedule"), std::string::npos);
  // The pool is not poisoned: the next run completes cleanly.
  std::atomic<int> hits{0};
  EXPECT_TRUE(ParallelForStatus(&pool, 100,
                                [&hits](std::size_t begin, std::size_t end) {
                                  hits += static_cast<int>(end - begin);
                                  return Status::Ok();
                                })
                  .ok());
  EXPECT_EQ(hits.load(), 100);
}

TEST_F(ChaosTest, ParallelForBodyThrowPropagatesExactlyOneError) {
  ThreadPool pool(4);
  bool caught = false;
  try {
    ParallelFor(&pool, 1000, [](std::size_t, std::size_t) {
      throw std::runtime_error("poisoned chunk");
    });
  } catch (const std::runtime_error& error) {
    caught = true;
    EXPECT_STREQ(error.what(), "poisoned chunk");
  }
  EXPECT_TRUE(caught);
  // Pool survives for the next job.
  std::atomic<int> covered{0};
  ParallelFor(&pool, 256, [&covered](std::size_t begin, std::size_t end) {
    covered += static_cast<int>(end - begin);
  });
  EXPECT_EQ(covered.load(), 256);
}

TEST_F(ChaosTest, ParallelForStatusCancelsRemainingChunks) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  const Status status = ParallelForStatus(
      &pool, 1 << 20, [&executed](std::size_t begin, std::size_t) {
        if (begin == 0) {
          return Status::FailedPrecondition("first chunk rejects");
        }
        executed.fetch_add(1);
        return Status::Ok();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // 16 chunks were scheduled; cancellation means not all ran (the exact
  // count is timing-dependent, but the failing chunk never counts).
  EXPECT_LT(executed.load(), 16);
}

// --- Validated construction: every invalid-input class ---

TEST_F(ChaosTest, IndexCreateRejectsNanRows) {
  Matrix data(3, 2);
  data.At(1, 1) = std::numeric_limits<double>::quiet_NaN();
  const auto index = BruteForceIndex::Create(data);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(index.status().message().find("row 1"), std::string::npos);
  EXPECT_NE(index.status().message().find("column 1"), std::string::npos);
}

TEST_F(ChaosTest, IndexCreateRejectsEmptyDataset) {
  const Matrix empty;
  EXPECT_FALSE(BruteForceIndex::Create(empty).ok());
  Rng rng(1);
  EXPECT_FALSE(TreeMipsIndex::Create(empty, 8, &rng).ok());
  EXPECT_FALSE(SketchIndex::Create(empty, SketchMipsParams{}, &rng).ok());
}

TEST_F(ChaosTest, TreeCreateRejectsBadParameters) {
  Rng rng(2);
  const Matrix data = MakeUnitBallGaussian(10, 4, 0.5, &rng);
  EXPECT_FALSE(TreeMipsIndex::Create(data, 0, &rng).ok());
  EXPECT_FALSE(TreeMipsIndex::Create(data, 8, nullptr).ok());
  EXPECT_TRUE(TreeMipsIndex::Create(data, 8, &rng).ok());
}

TEST_F(ChaosTest, LshCreateRejectsDimensionMismatch) {
  Rng rng(3);
  const Matrix data = MakeUnitBallGaussian(10, 4, 0.5, &rng);
  // Transform expects 8-dimensional input, data is 4-dimensional.
  const DualBallTransform transform(8, 1.0);
  const SimHashFamily family(transform.output_dim());
  const auto index =
      LshMipsIndex::Create(data, &transform, family, LshTableParams{}, &rng);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
  // Family hashing a different dimension than the raw data.
  const SimHashFamily narrow(3);
  EXPECT_FALSE(
      LshMipsIndex::Create(data, nullptr, narrow, LshTableParams{}, &rng)
          .ok());
}

TEST_F(ChaosTest, LshCreateRejectsZeroAmplification) {
  Rng rng(4);
  const Matrix data = MakeUnitBallGaussian(10, 4, 0.5, &rng);
  const SimHashFamily family(4);
  LshTableParams params;
  params.k = 0;
  EXPECT_FALSE(
      LshMipsIndex::Create(data, nullptr, family, params, &rng).ok());
  EXPECT_FALSE(LshTables::Create(family, data, params, &rng).ok());
}

TEST_F(ChaosTest, SketchCreateRejectsBadKappa) {
  Rng rng(5);
  const Matrix data = MakeUnitBallGaussian(10, 4, 0.5, &rng);
  SketchMipsParams params;
  params.kappa = 1.5;
  const auto index = SketchIndex::Create(data, params, &rng);
  ASSERT_FALSE(index.ok());
  EXPECT_NE(index.status().message().find("kappa"), std::string::npos);
  params.kappa = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(SketchIndex::Create(data, params, &rng).ok());
  params.kappa = 4.0;
  EXPECT_TRUE(SketchIndex::Create(data, params, &rng).ok());
}

TEST_F(ChaosTest, SymmetricCreateRejectsBadEpsilonAndNorms) {
  Rng rng(6);
  const Matrix data = MakeUnitBallGaussian(16, 4, 0.5, &rng);
  LshTableParams params;
  EXPECT_FALSE(SymmetricMipsIndex::Create(data, 0.0, params, &rng).ok());
  EXPECT_FALSE(SymmetricMipsIndex::Create(data, 1.5, params, &rng).ok());
  // A row outside the unit ball violates the Section 4.2 precondition.
  Matrix big = data;
  big.At(0, 0) = 3.0;
  const auto index = SymmetricMipsIndex::Create(big, 0.25, params, &rng);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(index.status().message().find("row 0"), std::string::npos);
}

TEST_F(ChaosTest, BucketJoinCheckedRejectsMismatchedSides) {
  Rng rng(7);
  const Matrix data = MakeUnitBallGaussian(10, 4, 0.5, &rng);
  const Matrix queries = MakeUnitBallGaussian(5, 4, 0.5, &rng);
  const Matrix wrong_rows = MakeUnitBallGaussian(9, 4, 0.5, &rng);
  const SimHashFamily family(4);
  const auto mismatch =
      LshBucketJoinChecked(family, wrong_rows, data, queries, queries, 0.5,
                           0.25, true, LshTableParams{}, &rng);
  ASSERT_FALSE(mismatch.ok());
  const auto inverted =
      LshBucketJoinChecked(family, data, data, queries, queries,
                           /*s=*/0.25, /*cs=*/0.5, true, LshTableParams{},
                           &rng);
  ASSERT_FALSE(inverted.ok());
  EXPECT_NE(inverted.status().message().find("exceeds"), std::string::npos);
  EXPECT_TRUE(LshBucketJoinChecked(family, data, data, queries, queries,
                                   0.5, 0.25, true, LshTableParams{}, &rng)
                  .ok());
}

TEST_F(ChaosTest, JoinSpecValidation) {
  JoinSpec spec = ValidSpec();
  EXPECT_TRUE(ValidateJoinSpec(spec).ok());
  spec.c = 1.5;
  EXPECT_FALSE(ValidateJoinSpec(spec).ok());
  spec.c = 0.0;
  EXPECT_FALSE(ValidateJoinSpec(spec).ok());
  spec.c = 0.5;
  spec.s = -1.0;
  EXPECT_FALSE(ValidateJoinSpec(spec).ok());
  spec.s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateJoinSpec(spec).ok());
}

TEST_F(ChaosTest, CheckedJoinsRejectBadInputThenServeGoodInput) {
  Rng rng(8);
  ThreadPool pool(4);
  const Matrix data = MakeUnitBallGaussian(64, 6, 0.9, &rng);
  const Matrix queries = MakeUnitBallGaussian(8, 6, 0.9, &rng);
  const JoinSpec spec = ValidSpec();

  // Dimension mismatch.
  const Matrix narrow = MakeUnitBallGaussian(8, 3, 0.9, &rng);
  EXPECT_FALSE(ExactJoinChecked(data, narrow, spec, &pool).ok());
  // NaN smuggled into a query row.
  Matrix poisoned = queries;
  poisoned.At(2, 0) = std::numeric_limits<double>::quiet_NaN();
  const auto bad = ExactJoinChecked(data, poisoned, spec, &pool);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("row 2"), std::string::npos);
  // Invalid spec.
  JoinSpec bad_spec = spec;
  bad_spec.c = 2.0;
  EXPECT_FALSE(ExactJoinChecked(data, queries, bad_spec, &pool).ok());

  // The same matrices and pool then serve a valid request.
  const auto good = ExactJoinChecked(data, queries, spec, &pool);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->per_query.size(), queries.rows());

  // And the index-driven flavor agrees end to end.
  const auto index = BruteForceIndex::Create(data);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(IndexJoinChecked(**index, poisoned, spec).ok());
  const auto via_index = IndexJoinChecked(**index, queries, spec);
  ASSERT_TRUE(via_index.ok());
  double recall = 1.0;
  EXPECT_EQ(VerifyJoinContract(*via_index, *good, spec, &recall), 0u);
  EXPECT_DOUBLE_EQ(recall, 1.0);
}

// --- Build-path failpoints: armed faults fail the build, not the process ---

TEST_F(ChaosTest, EveryBuildFailpointFailsOnceThenRecovers) {
  Rng rng(9);
  const Matrix data = MakeUnitBallGaussian(32, 4, 0.5, &rng);
  const SimHashFamily family(4);

  {
    ScopedFailpoint fp("core/index-build");
    EXPECT_FALSE(BruteForceIndex::Create(data).ok());
    EXPECT_TRUE(BruteForceIndex::Create(data).ok());
  }
  {
    ScopedFailpoint fp("lsh/tables-build");
    EXPECT_FALSE(LshTables::Create(family, data, LshTableParams{}, &rng).ok());
    EXPECT_TRUE(LshTables::Create(family, data, LshTableParams{}, &rng).ok());
  }
  {
    ScopedFailpoint fp("sketch/build");
    EXPECT_FALSE(SketchIndex::Create(data, SketchMipsParams{}, &rng).ok());
    EXPECT_TRUE(SketchIndex::Create(data, SketchMipsParams{}, &rng).ok());
  }
  {
    ScopedFailpoint fp("core/symmetric-build");
    LshTableParams params;
    params.k = 2;
    params.l = 4;
    EXPECT_FALSE(SymmetricMipsIndex::Create(data, 0.25, params, &rng).ok());
    EXPECT_TRUE(SymmetricMipsIndex::Create(data, 0.25, params, &rng).ok());
  }
  {
    ScopedFailpoint fp("lsh/bucket-join");
    EXPECT_FALSE(LshBucketJoinChecked(family, data, data, data, data, 0.5,
                                      0.25, true, LshTableParams{}, &rng)
                     .ok());
    EXPECT_TRUE(LshBucketJoinChecked(family, data, data, data, data, 0.5,
                                     0.25, true, LshTableParams{}, &rng)
                    .ok());
  }
  {
    ScopedFailpoint fp("core/exact-join");
    const JoinSpec spec = ValidSpec();
    EXPECT_FALSE(ExactJoinChecked(data, data, spec).ok());
    EXPECT_TRUE(ExactJoinChecked(data, data, spec).ok());
  }
}

TEST_F(ChaosTest, ExactJoinChunkFailpointCancelsCleanly) {
  Rng rng(10);
  ThreadPool pool(4);
  const Matrix data = MakeUnitBallGaussian(128, 6, 0.9, &rng);
  const JoinSpec spec = ValidSpec();
  {
    ScopedFailpoint fp("core/exact-join-chunk");
    const auto result = ExactJoinChecked(data, data, spec, &pool);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("core/exact-join-chunk"),
              std::string::npos);
  }
  // The pool and inputs serve the next request, and the result matches
  // the single-threaded baseline.
  const auto parallel = ExactJoinChecked(data, data, spec, &pool);
  ASSERT_TRUE(parallel.ok());
  const auto serial = ExactJoinChecked(data, data, spec, nullptr);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(parallel->per_query.size(), serial->per_query.size());
  for (std::size_t qi = 0; qi < serial->per_query.size(); ++qi) {
    ASSERT_EQ(parallel->per_query[qi].has_value(),
              serial->per_query[qi].has_value());
    if (serial->per_query[qi].has_value()) {
      EXPECT_EQ(parallel->per_query[qi]->data, serial->per_query[qi]->data);
    }
  }
}

// --- Serve-path failpoints: plan, schedule, deadline ---

TEST_F(ChaosTest, ServePlanFailpointFailsRequestThenRecovers) {
  Rng rng(11);
  const auto engine = Engine::Create(MakeUnitBallGaussian(64, 6, 0.9, &rng));
  ASSERT_TRUE(engine.ok());
  const std::vector<double> q(6, 0.1);
  {
    ScopedFailpoint fp("serve/plan");
    const auto result = (*engine)->Query({q, {}});
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("serve/plan"),
              std::string::npos);
  }
  // The engine is not poisoned: the next request is served.
  EXPECT_TRUE((*engine)->Query({q, {}}).ok());
}

TEST_F(ChaosTest, ServeScheduleFailpointShedsAtAdmission) {
  Rng rng(12);
  const auto engine = Engine::Create(MakeUnitBallGaussian(64, 6, 0.9, &rng));
  ASSERT_TRUE(engine.ok());
  BatchScheduler scheduler(engine->get());
  {
    Failpoints::Arm("serve/schedule", 1,
                    Status::ResourceExhausted("admission queue fault"));
    auto future =
        scheduler.Submit({std::vector<double>(6, 0.1), {}});
    const auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(result.status().message().find("admission queue fault"),
              std::string::npos);
    Failpoints::DisarmAll();
  }
  // The next submission is admitted and served.
  auto good = scheduler.Submit({std::vector<double>(6, 0.1), {}});
  EXPECT_TRUE(good.get().ok());
}

TEST_F(ChaosTest, QosAdmitFailpointShedsAndKeepsTenantPartition) {
  Rng rng(14);
  const auto engine = Engine::Create(MakeUnitBallGaussian(64, 6, 0.9, &rng));
  ASSERT_TRUE(engine.ok());
  BatchScheduler scheduler(engine->get());
  RequestContext context;
  context.tenant_id = "chaos";
  {
    Failpoints::Arm("serve/qos/admit", 1,
                    Status::ResourceExhausted("qos admission fault"));
    auto future =
        scheduler.Submit({std::vector<double>(6, 0.1), {}, context});
    const auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(result.status().message().find("qos admission fault"),
              std::string::npos);
    Failpoints::DisarmAll();
  }
  // The injected admission failure is accounted exactly like a real
  // shed: the tenant's partition invariant holds and the next
  // submission from the same tenant is served.
  auto good = scheduler.Submit({std::vector<double>(6, 0.1), {}, context});
  EXPECT_TRUE(good.get().ok());
  scheduler.Drain();
  const TenantCounters tenant = scheduler.tenant_counters("chaos");
  EXPECT_EQ(tenant.submitted, 2u);
  EXPECT_EQ(tenant.shed, 1u);
  EXPECT_EQ(tenant.completed, 1u);
  EXPECT_EQ(tenant.submitted,
            tenant.completed + tenant.shed + tenant.expired);
}

TEST_F(ChaosTest, ServeDeadlineFailpointFailsBatchWithoutLeakingWork) {
  Rng rng(13);
  const auto engine = Engine::Create(MakeUnitBallGaussian(64, 6, 0.9, &rng));
  ASSERT_TRUE(engine.ok());
  BatchSchedulerOptions options;
  options.num_threads = 2;
  options.max_batch = 16;
  BatchScheduler scheduler(engine->get(), options);
  std::vector<std::future<BatchScheduler::Result>> futures;
  {
    ScopedFailpoint fp("serve/deadline");
    for (int i = 0; i < 16; ++i) {
      futures.push_back(
          scheduler.Submit({std::vector<double>(6, 0.1), {}}));
    }
    // Every future resolves — the injected fault cancels the batch, and
    // unexecuted requests are answered with the batch error, not leaked.
    std::size_t failed = 0;
    for (auto& future : futures) {
      const auto result = future.get();
      if (!result.ok()) ++failed;
    }
    EXPECT_GE(failed, 1u);
  }
  // Subsequent requests are served normally.
  auto good = scheduler.Submit({std::vector<double>(6, 0.1), {}});
  EXPECT_TRUE(good.get().ok());
}

// --- Serve-path failpoints under batched execution ---

TEST_F(ChaosTest, ServePlanFailpointFailsBatchQueryThenRecovers) {
  Rng rng(15);
  const auto engine = Engine::Create(MakeUnitBallGaussian(64, 6, 0.9, &rng));
  ASSERT_TRUE(engine.ok());
  const Matrix queries = MakeUnitBallGaussian(4, 6, 0.9, &rng);
  {
    ScopedFailpoint fp("serve/plan");
    const auto result = (*engine)->BatchQuery(queries, {}, {});
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("serve/plan"),
              std::string::npos);
  }
  const auto good = (*engine)->BatchQuery(queries, {}, {});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), queries.rows());
}

TEST_F(ChaosTest, ServePlanFailpointFailsScheduledBatchGroupThenRecovers) {
  Rng rng(16);
  const auto engine = Engine::Create(MakeUnitBallGaussian(64, 6, 0.9, &rng));
  ASSERT_TRUE(engine.ok());
  BatchSchedulerOptions options;
  options.num_threads = 2;
  options.max_batch = 8;
  BatchScheduler scheduler(engine->get(), options);
  {
    // Repeating: every grouped Engine::BatchQuery's plan step fails, so
    // each submitted request resolves with the plan error.
    Failpoints::Arm("serve/plan", Status::Internal("planner wedged"),
                    FireEvery{1});
    std::vector<std::future<BatchScheduler::Result>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(
          scheduler.Submit({std::vector<double>(6, 0.1), {}}));
    }
    for (auto& future : futures) {
      const auto result = future.get();
      ASSERT_FALSE(result.ok());
      EXPECT_NE(result.status().message().find("planner wedged"),
                std::string::npos);
    }
    Failpoints::DisarmAll();
  }
  // The repeated fault may have tripped shard 1's breaker; once its
  // 0.1 s cooldown has elapsed the next call is the half-open probe,
  // which succeeds and closes it.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto good = scheduler.Submit({std::vector<double>(6, 0.1), {}});
  EXPECT_TRUE(good.get().ok());
}

TEST_F(ChaosTest, ServeDeadlineFailpointFailsPerQueryPathToo) {
  // Same injection as ServeDeadlineFailpointFailsBatchWithoutLeakingWork
  // but every request asks for a distinct k, so no two share a batched
  // call: the per-request path must cancel just as cleanly.
  Rng rng(17);
  const auto engine = Engine::Create(MakeUnitBallGaussian(64, 6, 0.9, &rng));
  ASSERT_TRUE(engine.ok());
  BatchSchedulerOptions options;
  options.num_threads = 2;
  options.max_batch = 16;
  BatchScheduler scheduler(engine->get(), options);
  std::vector<std::future<BatchScheduler::Result>> futures;
  {
    ScopedFailpoint fp("serve/deadline");
    for (std::size_t k = 1; k <= 16; ++k) {
      QueryOptions request;
      request.k = k;
      futures.push_back(
          scheduler.Submit({std::vector<double>(6, 0.1), request}));
    }
    std::size_t failed = 0;
    for (auto& future : futures) {
      if (!future.get().ok()) ++failed;
    }
    EXPECT_GE(failed, 1u);
  }
  auto good = scheduler.Submit({std::vector<double>(6, 0.1), {}});
  EXPECT_TRUE(good.get().ok());
}

// --- Sharded scatter-gather failpoints ---

StatusOr<std::unique_ptr<ShardedEngine>> MakeShardedFixture(
    Rng* rng, ShardedEngineOptions options = {}) {
  return ShardedEngine::Create(MakeUnitBallGaussian(64, 6, 0.9, rng),
                               options);
}

TEST_F(ChaosTest, ShardQueryFailpointYieldsPartialResult) {
  Rng rng(18);
  const auto engine = MakeShardedFixture(&rng);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<double> q(6, 0.1);
  {
    // One-shot kInternal: exactly one shard call fails, is not retried,
    // and the query degrades instead of failing.
    ScopedFailpoint fp("serve/shard/query");
    const auto result = (*engine)->Query({q, {}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->partial);
    EXPECT_EQ(result->stats.metrics.Get("serve.shard.total"), 4u);
    EXPECT_EQ(result->stats.metrics.Get("serve.shard.ok"), 3u);
    EXPECT_EQ(result->stats.metrics.Get("serve.shard.failed"), 1u);
    EXPECT_EQ(result->stats.metrics.Get("serve.shard.ok") +
                  result->stats.metrics.Get("serve.shard.failed"),
              result->stats.metrics.Get("serve.shard.total"));
    EXPECT_FALSE(result->matches.empty());
  }
  // The fleet is not poisoned: the next query is whole.
  const auto clean = (*engine)->Query({q, {}});
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->partial);
  EXPECT_EQ(clean->stats.metrics.Get("serve.shard.ok"), 4u);
}

TEST_F(ChaosTest, AllShardsDownSurfacesUniformStatusThenRecovers) {
  Rng rng(19);
  const auto engine = MakeShardedFixture(&rng);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<double> q(6, 0.1);
  {
    // Every attempt on every shard fails kUnavailable: retries are spent
    // (3 attempts x 4 shards), then the whole query fails with the
    // uniform code — the only case Query returns a Status.
    Failpoints::Arm("serve/shard/query",
                    Status::Unavailable("backend down"), FireEvery{1});
    const auto result = (*engine)->Query({q, {}});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(Failpoints::HitCount("serve/shard/query"), 12u);
    Failpoints::DisarmAll();
  }
  // One lost call per shard stays below the trip threshold (3), so no
  // breaker opened: the next query recovers the whole fleet at once.
  const auto recovered = (*engine)->Query({q, {}});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->partial);
  EXPECT_EQ(recovered->stats.metrics.Get("serve.shard.ok"), 4u);
}

TEST_F(ChaosTest, CircuitBreakerTripsSkipsAndRecovers) {
  Rng rng(20);
  ShardedEngineOptions options;
  options.num_shards = 2;
  const auto engine = MakeShardedFixture(&rng, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<double> q(6, 0.1);
  Failpoints::Arm("serve/shard/query/1",
                  Status::Unavailable("shard 1 flapping"), FireEvery{1});
  // Three consecutive failed calls trip shard 1's breaker. Each call
  // spends its 3 attempts on the retryable kUnavailable first.
  for (int i = 0; i < 3; ++i) {
    const auto result = (*engine)->Query({q, {}});
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->partial);
    EXPECT_EQ(result->stats.metrics.Get("serve.shard.retries"), 2u);
  }
  EXPECT_EQ((*engine)->breaker_state(1), ShardedEngine::BreakerState::kOpen);
  const std::size_t hits_when_tripped =
      Failpoints::HitCount("serve/shard/query/1");
  EXPECT_EQ(hits_when_tripped, 9u);
  // While open, shard 1 is ejected from the scatter set: still partial
  // answers, but the shard is never called (hit count stays flat).
  const auto skipped = (*engine)->Query({q, {}});
  ASSERT_TRUE(skipped.ok());
  EXPECT_TRUE(skipped->partial);
  EXPECT_EQ(Failpoints::HitCount("serve/shard/query/1"), hits_when_tripped);
  // Fault cleared + the 0.1 s cooldown elapsed: the half-open probe
  // succeeds and closes the breaker; the fleet serves whole answers
  // again.
  Failpoints::DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ((*engine)->breaker_state(1),
            ShardedEngine::BreakerState::kHalfOpen);
  const auto probe = (*engine)->Query({q, {}});
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_FALSE(probe->partial);
  EXPECT_EQ((*engine)->breaker_state(1),
            ShardedEngine::BreakerState::kClosed);
}

TEST_F(ChaosTest, SlowShardStragglerIsHedgedAroundNotFailed) {
  Rng rng(37);
  ShardedEngineOptions options;
  options.num_shards = 2;
  const auto engine = MakeShardedFixture(&rng, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  QueryOptions request;
  request.k = 3;
  RequestContext context;
  context.deadline_seconds = 0.01;
  const std::vector<double> q(6, 0.1);
  // A straggling shard is a *slowness* fault, not a failure: the 20 ms
  // injected stall blows the 9 ms shard budget, so after the 8 observed
  // stalls it needs the predictor routes the shards through the hedge
  // fallback — answers stay whole, nothing is marked failed, no breaker
  // trips.
  Failpoints::Arm("serve/shard/slow", Status::Internal("straggler"),
                  FireEvery{1});
  for (int i = 0; i < 8; ++i) {
    const auto warmup = (*engine)->Query({q, request, context});
    ASSERT_TRUE(warmup.ok()) << warmup.status().ToString();
  }
  const std::size_t stalls = Failpoints::HitCount("serve/shard/slow");
  const auto hedged = (*engine)->Query({q, request, context});
  ASSERT_TRUE(hedged.ok()) << hedged.status().ToString();
  EXPECT_EQ(hedged->stats.metrics.Get("serve.shard.hedged"), 2u);
  // No shard reached the stall site on the hedged query, so none slept
  // the 20 ms stall.
  EXPECT_EQ(Failpoints::HitCount("serve/shard/slow"), stalls);
  EXPECT_LT(hedged->stats.exec_seconds, 0.02);
  EXPECT_FALSE(hedged->partial);
  EXPECT_EQ(hedged->stats.metrics.Get("serve.shard.failed"), 0u);
  Failpoints::DisarmAll();
  // Stall cleared: the fleet serves un-hedged again once the latency
  // window drains the stalled samples out.
  EXPECT_EQ((*engine)->breaker_state(0), ShardedEngine::BreakerState::kClosed);
  EXPECT_EQ((*engine)->breaker_state(1), ShardedEngine::BreakerState::kClosed);
}

TEST_F(ChaosTest, ShardBuildFailpointFailsCreateThenRecovers) {
  Rng rng(21);
  const Matrix data = MakeUnitBallGaussian(64, 6, 0.9, &rng);
  {
    ScopedFailpoint fp("serve/shard/build");
    EXPECT_FALSE(ShardedEngine::Create(data, ShardedEngineOptions{}).ok());
  }
  {
    // Per-shard variant: only shard 2's build slot fires.
    ScopedFailpoint fp("serve/shard/build/2", /*nth=*/1,
                       Status::ResourceExhausted("shard 2 oom"));
    const auto failed = ShardedEngine::Create(data, ShardedEngineOptions{});
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(ShardedEngine::Create(data, ShardedEngineOptions{}).ok());
}

TEST_F(ChaosTest, ShardFailpointUnderBatchQueryDegradesEveryMember) {
  Rng rng(22);
  const auto engine = MakeShardedFixture(&rng);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Matrix queries = MakeUnitBallGaussian(5, 6, 0.9, &rng);
  {
    // Losing one shard's whole batch call marks every member partial —
    // no member silently pretends full coverage.
    ScopedFailpoint fp("serve/shard/query/0", /*nth=*/1,
                       Status::Internal("mid-batch fault"));
    const auto result = (*engine)->BatchQuery(queries, {}, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), queries.rows());
    for (const QueryResult& member : *result) {
      EXPECT_TRUE(member.partial);
      EXPECT_EQ(member.stats.metrics.Get("serve.shard.failed"), 1u);
      EXPECT_EQ(member.stats.metrics.Get("serve.shard.ok"), 3u);
    }
  }
  const auto clean = (*engine)->BatchQuery(queries, {}, {});
  ASSERT_TRUE(clean.ok());
  for (const QueryResult& member : *clean) EXPECT_FALSE(member.partial);
}

TEST_F(ChaosTest, ShardFailpointUnderScheduledBatchExecution) {
  Rng rng(23);
  ShardedEngineOptions options;
  options.num_shards = 2;
  const auto engine = MakeShardedFixture(&rng, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  BatchSchedulerOptions scheduler_options;
  scheduler_options.num_threads = 2;
  BatchScheduler scheduler(engine->get(), scheduler_options);
  {
    Failpoints::Arm("serve/shard/query/1",
                    Status::Internal("shard 1 down"), FireEvery{1});
    std::vector<std::future<BatchScheduler::Result>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(
          scheduler.Submit({std::vector<double>(6, 0.1), {}}));
    }
    for (auto& future : futures) {
      const auto result = future.get();
      // Scheduled sharded traffic degrades exactly like direct calls.
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->partial);
      EXPECT_EQ(result->stats.metrics.Get("serve.shard.failed"), 1u);
    }
    Failpoints::DisarmAll();
  }
  // The repeated fault may have tripped shard 1's breaker; once its
  // 0.1 s cooldown has elapsed the next call is the half-open probe,
  // which succeeds and closes it.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto good = scheduler.Submit({std::vector<double>(6, 0.1), {}});
  const auto clean = good.get();
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->partial);
}

// --- Storage failpoints: every I/O fault is a Status, never torn state ---

TEST_F(ChaosTest, StorageFailpointsFailOnceThenRecover) {
  Rng rng(24);
  const Matrix data = MakeUnitBallGaussian(32, 4, 0.5, &rng);
  const std::string path = TempPath("chaos_storage.ips");

  for (const char* point : {"storage/open-write", "storage/write",
                            "storage/rename"}) {
    ScopedFailpoint fp(point);
    EXPECT_FALSE(storage::SaveMatrixSnapshot(data, path).ok()) << point;
    EXPECT_TRUE(storage::SaveMatrixSnapshot(data, path).ok()) << point;
  }
  for (const char* point : {"storage/open-read", "storage/read"}) {
    ScopedFailpoint fp(point);
    EXPECT_FALSE(storage::LoadMatrixSnapshot(path).ok()) << point;
    EXPECT_TRUE(storage::LoadMatrixSnapshot(path).ok()) << point;
  }
  {
    ScopedFailpoint fp("storage/mmap");
    EXPECT_FALSE(storage::MapMatrixSnapshot(path).ok());
    EXPECT_TRUE(storage::MapMatrixSnapshot(path).ok());
  }
  {
    const SimHashFamily family(4);
    storage::BlockedJoinOptions options;
    options.s_threshold = 0.5;
    options.cs_threshold = 0.25;
    ScopedFailpoint fp("storage/blocked-join");
    EXPECT_FALSE(
        storage::BlockedBucketJoin(family, path, path, options).ok());
    EXPECT_TRUE(
        storage::BlockedBucketJoin(family, path, path, options).ok());
  }
  std::remove(path.c_str());
}

TEST_F(ChaosTest, EngineSnapshotFailpointsFailOnceThenRecover) {
  Rng rng(25);
  const auto engine = Engine::Create(MakeUnitBallGaussian(64, 6, 0.9, &rng));
  ASSERT_TRUE(engine.ok());
  const std::string dir = TempPath("chaos_engine_snap");
  {
    ScopedFailpoint fp("serve/snapshot-save");
    EXPECT_FALSE((*engine)->SaveSnapshot(dir).ok());
  }
  ASSERT_TRUE((*engine)->SaveSnapshot(dir).ok());
  {
    ScopedFailpoint fp("serve/snapshot-load");
    EXPECT_FALSE(Engine::CreateFromSnapshot(dir).ok());
  }
  const auto warm = Engine::CreateFromSnapshot(dir);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  // A fault in the middle of reading the snapshot surfaces too: the
  // nth-hit trigger lands inside the section reads, not at open.
  {
    ScopedFailpoint fp("storage/read", /*nth=*/3);
    EXPECT_FALSE(Engine::CreateFromSnapshot(dir).ok());
  }
  EXPECT_TRUE(Engine::CreateFromSnapshot(dir).ok());
}

// --- Observability failpoints ---

TEST_F(ChaosTest, ObsExportFailpointNeverPoisonsQueryResults) {
  Rng rng(14);
  const auto engine = Engine::Create(MakeUnitBallGaussian(64, 6, 0.9, &rng));
  ASSERT_TRUE(engine.ok());
  const std::vector<double> q(6, 0.1);
  QueryOptions traced;
  traced.trace = true;
  {
    ScopedFailpoint fp("obs/export");
    // An armed export failpoint never touches the query path — even a
    // traced query that publishes to the very ring being exported.
    const auto result = (*engine)->Query({q, traced});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result->stats.trace, nullptr);
    EXPECT_FALSE(MetricsRegistry::Global().ExportJson().ok());
  }
  {
    ScopedFailpoint fp("obs/export");
    EXPECT_FALSE(TraceRing::Global().ExportJson().ok());
    // The export fault does not poison subsequent query results either.
    const auto result = (*engine)->Query({q, traced});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result->stats.trace, nullptr);
  }
  // Disarmed: exports succeed and see the recorded trace and metrics.
  const auto metrics_json = MetricsRegistry::Global().ExportJson();
  ASSERT_TRUE(metrics_json.ok());
  EXPECT_NE(metrics_json->find("counters"), std::string::npos);
  const auto traces_json = TraceRing::Global().ExportJson();
  ASSERT_TRUE(traces_json.ok());
  EXPECT_TRUE((*engine)->Query({q, traced}).ok());
}

}  // namespace
}  // namespace ips
