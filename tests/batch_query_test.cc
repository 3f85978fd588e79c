// The BatchQuery contract suite: for every MipsIndex implementation —
// brute force, ball tree, LSH, sketch, symmetric, norm-range —
// BatchQuery(queries, options) must be semantically identical to
// calling Query once per row (mips_index.h). Indexes with specialized
// batch paths (brute's tiled BlockTopK, LSH's gathered verification)
// are held to the same equivalence as the per-query fallback.
//
// Score comparison: every exact score is the one fma chain (kernels.h),
// whichever path computes it and whichever kernel table is active, so
// batch results are bitwise equal to per-query results: the same
// indices, the same score bits, the same tie order. The scalar leg
// (batch_query_test_scalar) holds the same binary to the same form.
//
// Also covered here: the one index contract (IndexContractTest: what
// each index rejects, in Query and BatchQuery alike, and how a traced
// Query publishes or nests its spans), the batch-aware QueryStats
// (batch_size, Merge), the shared batch trace, the "core.batch.*"
// traffic counters, and the serve layer's batched
// execution (Engine::BatchQuery and the BatchScheduler's coalesced
// groups) against per-query ground truth.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/norm_range_index.h"
#include "core/query.h"
#include "core/symmetric_index.h"
#include "linalg/matrix.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "serve/batch_scheduler.h"
#include "serve/engine.h"

namespace ips {
namespace {

Matrix RandomGaussian(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (double& v : out.Row(i)) v = rng->NextGaussian();
  }
  return out;
}

// Batch and per-query answers agree bitwise: the same indices in the
// same order with the same score bits (see the file comment).
void ExpectSameMatches(const std::vector<SearchMatch>& got,
                       const std::vector<SearchMatch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].index, want[j].index) << "rank " << j;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j].value),
              std::bit_cast<std::uint64_t>(want[j].value))
        << "rank " << j;
  }
}

// The equivalence oracle: BatchQuery == N x Query, match-for-match.
void ExpectBatchEqualsPerQuery(const MipsIndex& index, const Matrix& queries,
                               const QueryOptions& options) {
  SCOPED_TRACE("index=" + index.Name());
  auto batch = index.BatchQuery(queries, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), queries.rows());
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    QueryStats single_stats;
    auto single = index.Query(queries.Row(i), options, &single_stats);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    const QueryResult& got = (*batch)[i];
    ExpectSameMatches(got.matches, *single);
    EXPECT_EQ(got.stats.algorithm, single_stats.algorithm);
    EXPECT_EQ(got.stats.batch_size, 1u);  // per-member stats, not merged
  }
}

class BatchEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(41);
    data_ = MakeUnitBallGaussian(300, 12, 0.3, &rng);
    queries_ = MakeUnitBallGaussian(17, 12, 0.7, &rng);
  }
  Matrix data_;
  Matrix queries_;
};

TEST_F(BatchEquivalenceTest, BruteForceSignedAndUnsigned) {
  const BruteForceIndex index(data_);
  for (const bool is_signed : {true, false}) {
    QueryOptions options;
    options.k = 5;
    options.is_signed = is_signed;
    ExpectBatchEqualsPerQuery(index, queries_, options);
  }
}

TEST_F(BatchEquivalenceTest, BruteForceWideRowsAreBitwise) {
  // 33 columns cross every column path of the kernels (a 16-wide body,
  // 4-wide steps, a ragged tail), where a second rounding of the tiled
  // scorer against the per-query scan would show in the score bits.
  Rng rng(61);
  const Matrix data = MakeUnitBallGaussian(300, 33, 0.3, &rng);
  const Matrix queries = MakeUnitBallGaussian(17, 33, 0.7, &rng);
  const BruteForceIndex index(data);
  for (const bool is_signed : {true, false}) {
    QueryOptions options;
    options.k = 5;
    options.is_signed = is_signed;
    ExpectBatchEqualsPerQuery(index, queries, options);
  }
}

TEST_F(BatchEquivalenceTest, BruteForceBatchOfOneAndKPastN) {
  const BruteForceIndex index(data_);
  QueryOptions options;
  options.k = data_.rows() + 10;  // k > n: every row comes back, ranked
  Rng rng(43);
  const Matrix one = RandomGaussian(1, data_.cols(), &rng);
  ExpectBatchEqualsPerQuery(index, one, options);
}

TEST_F(BatchEquivalenceTest, BallTree) {
  Rng rng(47);
  const TreeMipsIndex index(data_, 8, &rng);
  QueryOptions options;
  options.k = 4;
  options.is_signed = true;
  ExpectBatchEqualsPerQuery(index, queries_, options);
}

TEST_F(BatchEquivalenceTest, Lsh) {
  Rng rng(53);
  const PlantedInstance planted =
      MakePlantedInstance(400, 20, 16, 0.9, 1.0, &rng);
  const DualBallTransform transform(16, 1.0);
  const SimHashFamily base(transform.output_dim());
  LshTableParams params;
  params.k = 6;
  params.l = 16;
  const LshMipsIndex index(planted.data, &transform, base, params, &rng);
  QueryOptions options;
  options.k = 3;
  options.is_signed = true;
  ExpectBatchEqualsPerQuery(index, planted.queries, options);
}

TEST_F(BatchEquivalenceTest, Sketch) {
  Rng rng(59);
  SketchMipsParams params;
  const SketchIndex index(data_, params, &rng);
  QueryOptions options;
  options.k = 1;
  options.is_signed = false;  // the Section 4.3 argmax path is unsigned
  ExpectBatchEqualsPerQuery(index, queries_, options);
}

TEST_F(BatchEquivalenceTest, SymmetricViaDefaultFallback) {
  Rng rng(61);
  LshTableParams params;
  params.k = 6;
  params.l = 16;
  const auto index = SymmetricMipsIndex::Create(data_, 0.25, params, &rng);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  QueryOptions options;
  options.k = 3;
  options.is_signed = true;
  ExpectBatchEqualsPerQuery(**index, queries_, options);
}

TEST_F(BatchEquivalenceTest, NormRangeViaDefaultFallback) {
  Rng rng(67);
  NormRangeParams params;
  params.bucket_size = 64;
  const NormRangeIndex index(data_, params, &rng);
  QueryOptions options;
  options.k = 4;
  options.is_signed = true;
  ExpectBatchEqualsPerQuery(index, queries_, options);
}

// ---------------------------------------------------------------------
// Contract edges: empty batches, whole-batch failure, traces, stats.
// ---------------------------------------------------------------------

TEST_F(BatchEquivalenceTest, EmptyBatchYieldsEmptyVector) {
  const BruteForceIndex index(data_);
  const Matrix empty(0, 0);
  const QueryOptions options;
  auto result = index.BatchQuery(empty, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
}

TEST_F(BatchEquivalenceTest, TreeUnsignedAndSketchFallbackMatchPerQuery) {
  Rng rng(73);
  const TreeMipsIndex tree(data_, 8, &rng);
  QueryOptions unsigned_options;
  unsigned_options.is_signed = false;
  unsigned_options.k = 3;
  // The tree answers unsigned top-k with the unsigned bound.
  ExpectBatchEqualsPerQuery(tree, queries_, unsigned_options);

  // Signed and k>1 shapes run the sketch index's exact fallback scan
  // (what each index rejects is pinned by the IndexContractTest table).
  SketchMipsParams params;
  const SketchIndex sketch(data_, params, &rng);
  QueryOptions top5;
  top5.is_signed = false;
  top5.k = 5;
  EXPECT_TRUE(sketch.BatchQuery(queries_, top5).ok());
  ExpectBatchEqualsPerQuery(sketch, queries_, top5);
}

// ---------------------------------------------------------------------
// The one index contract, one table row per index: every request shape
// an index cannot answer fails Query and BatchQuery alike with
// kInvalidArgument, and a traced Query either publishes its own trace
// or records its spans into the caller's.
// ---------------------------------------------------------------------

struct ContractRow {
  std::unique_ptr<MipsIndex> index;
  // Precisions the index rejects.
  std::vector<QueryPrecision> rejected_precisions;
  // True when unsigned queries are rejected (norm-range).
  bool signed_only = false;
  // A span every traced Query of the index records.
  std::string span;
};

class IndexContractTest : public BatchEquivalenceTest {
 protected:
  // All six indexes over data_.
  std::vector<ContractRow> Rows() {
    Rng rng(97);
    const LshTableParams lsh_params{.k = 6, .l = 16};
    NormRangeParams norm_range_params;
    norm_range_params.bucket_size = 64;
    std::vector<ContractRow> rows;
    rows.push_back({std::make_unique<BruteForceIndex>(data_), {}, false,
                    "brute"});
    rows.push_back({std::make_unique<TreeMipsIndex>(data_, 8, &rng),
                    {QueryPrecision::kQuantizedRerank}, false, "tree"});
    rows.push_back({std::make_unique<LshMipsIndex>(data_, nullptr, family_,
                                                   lsh_params, &rng),
                    {}, false, "lsh"});
    rows.push_back(
        {std::make_unique<SketchIndex>(data_, SketchMipsParams{}, &rng),
         {QueryPrecision::kExact, QueryPrecision::kQuantizedRerank}, false,
         "sketch"});
    rows.push_back({std::make_unique<SymmetricMipsIndex>(data_, 0.25,
                                                         lsh_params, &rng),
                    {}, false, "membership"});
    rows.push_back(
        {std::make_unique<NormRangeIndex>(data_, norm_range_params, &rng),
         {QueryPrecision::kQuantizedRerank}, true, "norm-range"});
    return rows;
  }

  const SimHashFamily family_{12};
};

TEST_F(IndexContractTest, UnanswerableRequestsFailQueryAndBatchAlike) {
  Rng rng(101);
  const Matrix wrong_dim = RandomGaussian(3, data_.cols() + 1, &rng);
  for (const ContractRow& row : Rows()) {
    const MipsIndex& index = *row.index;
    SCOPED_TRACE("index=" + index.Name());
    std::vector<std::pair<std::string, QueryOptions>> rejected;
    QueryOptions k0;
    k0.k = 0;
    rejected.emplace_back("k=0", k0);
    for (const QueryPrecision precision : row.rejected_precisions) {
      QueryOptions options;
      options.precision = precision;
      rejected.emplace_back(
          "precision=" + std::string(QueryPrecisionName(precision)), options);
    }
    if (row.signed_only) {
      QueryOptions options;
      options.is_signed = false;
      rejected.emplace_back("unsigned", options);
    }
    for (const auto& [label, options] : rejected) {
      SCOPED_TRACE(label);
      EXPECT_EQ(index.Query(queries_.Row(0), options).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(index.BatchQuery(queries_, options).status().code(),
                StatusCode::kInvalidArgument);
    }
    SCOPED_TRACE("wrong dimension");
    const QueryOptions options;
    EXPECT_EQ(index.Query(wrong_dim.Row(0), options).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index.BatchQuery(wrong_dim, options).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(IndexContractTest, TracedQueryPublishesOrNestsTheIndexSpans) {
  for (const ContractRow& row : Rows()) {
    const MipsIndex& index = *row.index;
    SCOPED_TRACE("index=" + index.Name());
    QueryOptions options;
    QueryStats untraced;
    ASSERT_TRUE(index.Query(queries_.Row(0), options, &untraced).ok());
    EXPECT_EQ(untraced.trace, nullptr);

    // No caller trace: the index publishes one labelled with its name.
    options.trace = true;
    QueryStats published;
    ASSERT_TRUE(index.Query(queries_.Row(0), options, &published).ok());
    ASSERT_NE(published.trace, nullptr);
    EXPECT_EQ(published.trace->label(), index.Name());
    EXPECT_NE(published.trace->FindSpan(row.span), nullptr);

    // A caller-held trace receives the spans and is not republished.
    Trace caller("caller");
    QueryStats nested;
    ASSERT_TRUE(index.Query(queries_.Row(0), options, &nested, &caller).ok());
    EXPECT_EQ(nested.trace, nullptr);
    EXPECT_NE(caller.FindSpan(row.span), nullptr);
  }
}

TEST_F(BatchEquivalenceTest, BatchSharesOneTrace) {
  const BruteForceIndex brute(data_);
  QueryOptions options;
  options.k = 2;
  options.trace = true;
  auto traced = brute.BatchQuery(queries_, options);
  ASSERT_TRUE(traced.ok());
  ASSERT_NE((*traced)[0].stats.trace, nullptr);
  for (const QueryResult& result : *traced) {
    EXPECT_EQ(result.stats.trace, (*traced)[0].stats.trace);
  }
  // The fallback path shares its batch trace the same way.
  Rng rng(79);
  NormRangeParams params;
  const NormRangeIndex norm_range(data_, params, &rng);
  auto fallback = norm_range.BatchQuery(queries_, options);
  ASSERT_TRUE(fallback.ok());
  ASSERT_NE((*fallback)[0].stats.trace, nullptr);
  EXPECT_EQ((*fallback)[1].stats.trace, (*fallback)[0].stats.trace);

  options.trace = false;
  auto untraced = brute.BatchQuery(queries_, options);
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ((*untraced)[0].stats.trace, nullptr);
}

TEST_F(BatchEquivalenceTest, BatchTrafficCountersAdvance) {
  Counter* const calls =
      MetricsRegistry::Global().GetCounter("core.batch.calls");
  Counter* const queries =
      MetricsRegistry::Global().GetCounter("core.batch.queries");
  Counter* const fallback =
      MetricsRegistry::Global().GetCounter("core.batch.fallback_queries");
  const auto calls0 = calls->Value();
  const auto queries0 = queries->Value();
  const auto fallback0 = fallback->Value();

  const BruteForceIndex brute(data_);
  const QueryOptions options;
  ASSERT_TRUE(brute.BatchQuery(queries_, options).ok());
  EXPECT_EQ(calls->Value(), calls0 + 1);
  EXPECT_EQ(queries->Value(), queries0 + queries_.rows());
  EXPECT_EQ(fallback->Value(), fallback0);  // specialized path, no fallback

  Rng rng(83);
  NormRangeParams params;
  const NormRangeIndex norm_range(data_, params, &rng);
  ASSERT_TRUE(norm_range.BatchQuery(queries_, options).ok());
  EXPECT_EQ(calls->Value(), calls0 + 2);
  EXPECT_EQ(fallback->Value(), fallback0 + queries_.rows());
}

TEST(QueryStatsMerge, SumsCountersAndsDeadlineKeepsIdentity) {
  QueryStats a;
  a.algorithm = QueryAlgo::kLsh;
  a.candidates = 10;
  a.dot_products = 12;
  a.exec_seconds = 0.5;
  a.queue_seconds = 0.25;
  a.metrics.Set("lsh.tables.buckets_hit", 3);
  QueryStats b;
  b.algorithm = QueryAlgo::kBruteForce;
  b.candidates = 7;
  b.dot_products = 7;
  b.exec_seconds = 1.0;
  b.deadline_met = false;
  b.metrics.Set("lsh.tables.buckets_hit", 2);
  b.metrics.Set("core.brute.points_scored", 7);

  a.Merge(b);
  EXPECT_EQ(a.algorithm, QueryAlgo::kLsh);  // identity of `this` kept
  EXPECT_EQ(a.candidates, 17u);
  EXPECT_EQ(a.dot_products, 19u);
  EXPECT_DOUBLE_EQ(a.exec_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.queue_seconds, 0.25);
  EXPECT_FALSE(a.deadline_met);
  EXPECT_EQ(a.batch_size, 2u);
  EXPECT_EQ(a.metrics.Get("lsh.tables.buckets_hit"), 5u);
  EXPECT_EQ(a.metrics.Get("core.brute.points_scored"), 7u);

  // Merging a batch's per-query stats accumulates the member count.
  QueryStats c;
  a.Merge(c);
  EXPECT_EQ(a.batch_size, 3u);
  EXPECT_TRUE(c.deadline_met);
}

// ---------------------------------------------------------------------
// Serve layer: Engine::BatchQuery and the scheduler's coalesced groups.
// ---------------------------------------------------------------------

class ServeBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(89);
    Matrix data = MakeUnitBallGaussian(400, 10, 0.3, &rng);
    queries_ = MakeUnitBallGaussian(12, 10, 0.7, &rng);
    auto engine = Engine::Create(std::move(data));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }
  std::unique_ptr<Engine> engine_;
  Matrix queries_;
};

TEST_F(ServeBatchTest, EngineBatchMatchesPerQueryOnEveryForcedPath) {
  for (const QueryAlgo algo :
       {QueryAlgo::kBruteForce, QueryAlgo::kBallTree, QueryAlgo::kLsh}) {
    SCOPED_TRACE(std::string(QueryAlgoName(algo)));
    QueryOptions options;
    options.k = 3;
    options.is_signed = true;
    options.force_algorithm = algo;
    auto batch = engine_->BatchQuery(queries_, options, {});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), queries_.rows());
    for (std::size_t i = 0; i < queries_.rows(); ++i) {
      auto single = engine_->Query({queries_.Row(i), options});
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      const QueryResult& got = (*batch)[i];
      ExpectSameMatches(got.matches, single->matches);
      EXPECT_EQ(got.plan.algorithm, algo);
      EXPECT_GT(got.stats.exec_seconds, 0.0);  // amortized batch time
    }
  }
}

TEST_F(ServeBatchTest, EngineBatchEdgeCases) {
  QueryOptions options;
  auto empty = engine_->BatchQuery(Matrix(0, 0), options, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  options.k = 0;
  EXPECT_FALSE(engine_->BatchQuery(queries_, options, {}).ok());

  QueryOptions unsigned_tree;
  unsigned_tree.is_signed = false;
  unsigned_tree.force_algorithm = QueryAlgo::kBallTree;
  auto forced = engine_->BatchQuery(queries_, unsigned_tree, {});
  ASSERT_FALSE(forced.ok());  // same forced-path validation as Query
  EXPECT_EQ(forced.status().code(), StatusCode::kInvalidArgument);
}

// Collects the scheduler answers for every row of `queries`.
std::vector<BatchScheduler::Result> RunThroughScheduler(
    const Engine& engine, const Matrix& queries, const QueryOptions& options,
    const BatchSchedulerOptions& scheduler_options,
    SchedulerCounters* counters) {
  BatchScheduler scheduler(&engine, scheduler_options);
  std::vector<std::future<BatchScheduler::Result>> futures;
  futures.reserve(queries.rows());
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    futures.push_back(scheduler.Submit(
        {std::vector<double>(queries.Row(i).begin(), queries.Row(i).end()),
         options}));
  }
  std::vector<BatchScheduler::Result> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  scheduler.Drain();
  *counters = scheduler.counters();
  return results;
}

TEST_F(ServeBatchTest, SchedulerBatchedExecutionMatchesSequential) {
  QueryOptions options;
  options.k = 3;
  options.force_algorithm = QueryAlgo::kBruteForce;
  ASSERT_TRUE(engine_->EnsureIndex(QueryAlgo::kBruteForce).ok());

  SchedulerCounters counters;
  const auto results =
      RunThroughScheduler(*engine_, queries_, options, {}, &counters);

  // Coalesced answers agree with direct per-query engine answers.
  for (std::size_t i = 0; i < queries_.rows(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    auto truth = engine_->Query({queries_.Row(i), options});
    ASSERT_TRUE(truth.ok());
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    const QueryResult& got = results[i].value();
    ExpectSameMatches(got.matches, truth->matches);
    EXPECT_TRUE(got.stats.deadline_met);
    EXPECT_GE(got.stats.queue_seconds, 0.0);
  }

  EXPECT_EQ(counters.submitted, queries_.rows());
  EXPECT_EQ(counters.completed + counters.shed + counters.expired,
            counters.submitted);
  EXPECT_LE(counters.batched_queries, counters.completed);
}

TEST_F(ServeBatchTest, SchedulerCoalescesCompatibleRequests) {
  QueryOptions options;
  options.k = 2;
  options.force_algorithm = QueryAlgo::kBruteForce;
  ASSERT_TRUE(engine_->EnsureIndex(QueryAlgo::kBruteForce).ok());

  // The dispatcher drains the queue into one batch per wakeup, so
  // requests that pile up while a batch executes coalesce into groups.
  // Scheduling is timing-dependent; retry a few rounds until a batched
  // group is observed (the first round nearly always suffices).
  BatchSchedulerOptions scheduler_options;
  scheduler_options.num_threads = 0;  // inline execution in the dispatcher
  bool saw_batched_group = false;
  for (int round = 0; round < 5 && !saw_batched_group; ++round) {
    SchedulerCounters counters;
    const auto results = RunThroughScheduler(*engine_, queries_, options,
                                             scheduler_options, &counters);
    for (const auto& result : results) ASSERT_TRUE(result.ok());
    saw_batched_group = counters.batch_groups > 0;
  }
  EXPECT_TRUE(saw_batched_group)
      << "no compatible group was ever coalesced in 5 rounds";
}

}  // namespace
}  // namespace ips
