// Tests for the src/serve subsystem: planner decisions, engine
// dispatch through the serve Request envelope (query span +
// core::QueryOptions + RequestContext), trace spans and registry
// metrics of served queries, the recall contract of planner-selected
// answers against exact ground truth, the planner's live re-fitting,
// eviction, and pinned routing across a workload shift, and the QoS
// batch scheduler (admission, token buckets, priority lanes, shedding,
// expiry, drain, shutdown, per-tenant counter partition).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/query.h"
#include "core/top_k.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rng/random.h"
#include "serve/batch_scheduler.h"
#include "serve/engine.h"
#include "serve/planner.h"
#include "serve/request.h"
#include "serve/sharded_engine.h"
#include "util/status.h"

namespace ips {
namespace {

Matrix SmallSpreadData(std::size_t n, std::size_t dim, Rng* rng) {
  return MakeUnitBallGaussian(n, dim, /*min_norm=*/0.9, rng);
}

Matrix LargeSpreadData(std::size_t n, std::size_t dim, Rng* rng) {
  return MakeLatentFactorVectors(n, dim, /*skew=*/1.0, rng);
}

// --- Planner decision table ---

class PlannerTest : public ::testing::Test {
 protected:
  static Planner MakePlanner(double lsh_recall, double lsh_fraction,
                             double tree_fraction = 0.4) {
    DatasetProfile profile;
    profile.n = 10000;
    profile.dim = 32;
    profile.min_norm = 0.5;
    profile.max_norm = 1.0;
    profile.mean_norm = 0.8;
    PlannerCalibration calib;
    calib.tree_fraction = tree_fraction;
    calib.lsh_candidate_fraction = lsh_fraction;
    calib.lsh_recall = lsh_recall;
    calib.lsh_topk_recall = lsh_recall;
    calib.sketch_recall = 0.6;
    calib.sketch_cost = 500.0;
    calib.probe_queries = 16;
    return Planner(profile, calib, /*audit_every=*/16);
  }
};

TEST_F(PlannerTest, LowTargetPicksCheapLsh) {
  const Planner planner = MakePlanner(/*lsh_recall=*/0.95,
                                      /*lsh_fraction=*/0.05);
  QueryOptions request;
  request.k = 10;
  request.recall_target = 0.8;
  const auto decision = planner.Plan(request);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->algorithm, QueryAlgo::kLsh);
  EXPECT_LT(decision->expected_dot_products, 10000.0);
}

TEST_F(PlannerTest, FullRecallPicksExactPath) {
  const Planner planner = MakePlanner(0.99, 0.05);
  QueryOptions request;
  request.recall_target = 1.0;
  const auto decision = planner.Plan(request);
  ASSERT_TRUE(decision.ok());
  // LSH recall 0.99 < 1.0 + margin: only exact paths qualify, and the
  // calibrated tree (40% scan) beats brute force.
  EXPECT_EQ(decision->algorithm, QueryAlgo::kBallTree);
}

TEST_F(PlannerTest, RecallMarginGuardsBorderlineLsh) {
  // Probe recall 0.84 fails a 0.8 target once the 0.05 margin applies.
  const Planner planner = MakePlanner(0.84, 0.05);
  QueryOptions request;
  request.recall_target = 0.8;
  const auto decision = planner.Plan(request);
  ASSERT_TRUE(decision.ok());
  EXPECT_NE(decision->algorithm, QueryAlgo::kLsh);
}

TEST_F(PlannerTest, UnsignedTopOnePrefersSketchWhenCheapest) {
  Planner planner = MakePlanner(/*lsh_recall=*/0.2, /*lsh_fraction=*/0.5,
                                /*tree_fraction=*/0.9);
  QueryOptions request;
  request.k = 1;
  request.recall_target = 0.5;
  request.is_signed = false;
  const auto decision = planner.Plan(request);
  ASSERT_TRUE(decision.ok());
  // The planner keeps unsigned requests off the tree and LSH misses the
  // target; sketch (500 dots)
  // beats brute (10000 dots).
  EXPECT_EQ(decision->algorithm, QueryAlgo::kSketch);
}

TEST_F(PlannerTest, CandidateBudgetPrefersCheaperEligiblePath) {
  const Planner planner = MakePlanner(0.99, 0.05, /*tree_fraction=*/0.4);
  QueryOptions request;
  request.recall_target = 0.8;
  request.candidate_budget = 1000;  // tree (4000) is over, lsh (~756) fits
  const auto decision = planner.Plan(request);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->algorithm, QueryAlgo::kLsh);
  EXPECT_LE(decision->expected_dot_products, 1000.0);
}

TEST_F(PlannerTest, RejectsMalformedRequests) {
  const Planner planner = MakePlanner(0.9, 0.1);
  QueryOptions request;
  request.k = 0;
  EXPECT_FALSE(planner.Plan(request).ok());
  request.k = 1;
  request.recall_target = 0.0;
  EXPECT_FALSE(planner.Plan(request).ok());
  request.recall_target = 1.5;
  EXPECT_FALSE(planner.Plan(request).ok());
  request.recall_target = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(planner.Plan(request).ok());
}

TEST(PlannerReasonTest, DecisionsCarryAReasonCode) {
  DatasetProfile profile;
  profile.n = 10000;
  profile.dim = 32;
  profile.min_norm = 0.5;
  profile.max_norm = 1.0;
  PlannerCalibration calib;
  calib.tree_fraction = 0.4;
  calib.lsh_candidate_fraction = 0.05;
  calib.lsh_recall = 0.99;
  calib.lsh_topk_recall = 0.99;
  calib.quant_recall = 0.5;
  calib.probe_queries = 16;
  const Planner planner(profile, calib, /*audit_every=*/16);

  QueryOptions request;
  request.recall_target = 0.8;
  auto plan = planner.Plan(request);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->reason, PlanReason::kCheapestEligible);
  EXPECT_FALSE(plan->over_budget);
  // No row fits a 10-dot budget: the cheapest eligible one is flagged.
  request.candidate_budget = 10;
  plan = planner.Plan(request);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, QueryAlgo::kLsh);
  EXPECT_EQ(plan->reason, PlanReason::kCheapestEligible);
  EXPECT_TRUE(plan->over_budget);
  // Pinned to int8, no row clears 0.8 + margin: the bar turns advisory.
  request.precision = QueryPrecision::kQuantizedRerank;
  plan = planner.Plan(request);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->precision, QueryPrecision::kQuantizedRerank);
  EXPECT_EQ(plan->reason, PlanReason::kRecallShortfall);
  EXPECT_TRUE(plan->over_budget);
  // Forced requests are priced from their row, never chosen.
  request = QueryOptions();
  request.force_algorithm = QueryAlgo::kBallTree;
  plan = planner.Plan(request);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->reason, PlanReason::kForced);
  EXPECT_EQ(plan->expected_dot_products, 4000.0);
  request.is_signed = false;
  EXPECT_EQ(planner.Plan(request).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Engine basics ---

TEST(EngineTest, CreateRejectsBadData) {
  EXPECT_FALSE(Engine::Create(Matrix()).ok());
  Matrix poisoned(4, 3);
  poisoned.At(1, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(Engine::Create(std::move(poisoned)).ok());
}

TEST(EngineTest, RejectsBadQueriesAndRequests) {
  Rng rng(21);
  const auto engine = Engine::Create(SmallSpreadData(200, 8, &rng));
  ASSERT_TRUE(engine.ok());
  QueryOptions request;
  const std::vector<double> wrong_dim(5, 0.1);
  EXPECT_FALSE((*engine)->Query({wrong_dim, request}).ok());
  std::vector<double> poisoned(8, 0.1);
  poisoned[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE((*engine)->Query({poisoned, request}).ok());
  const std::vector<double> good(8, 0.1);
  QueryOptions bad = request;
  bad.k = 0;
  EXPECT_FALSE((*engine)->Query({good, bad}).ok());
  bad = request;
  bad.recall_target = 2.0;
  EXPECT_FALSE((*engine)->Query({good, bad}).ok());
  EXPECT_TRUE((*engine)->Query({good, request}).ok());
}

TEST(EngineTest, RetiredPrecisionValuesAreRejected) {
  Rng rng(24);
  const Matrix data = SmallSpreadData(200, 8, &rng);
  const auto engine = Engine::Create(data);
  ASSERT_TRUE(engine.ok());
  Matrix queries(3, 8);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    for (std::size_t j = 0; j < queries.cols(); ++j) {
      queries.At(i, j) = rng.NextGaussian();
    }
  }
  // The planner's live table has kNumQueryPrecisions columns; a value
  // past its end must be turned away before any lookup, planned or
  // forced. 3 was the deleted sketch-filter precision.
  const std::optional<QueryAlgo> paths[] = {
      std::nullopt, QueryAlgo::kBruteForce, QueryAlgo::kBallTree,
      QueryAlgo::kLsh, QueryAlgo::kSketch};
  for (const int raw : {3, 7}) {
    for (const std::optional<QueryAlgo>& path : paths) {
      for (const bool is_signed : {true, false}) {
        QueryOptions request;
        request.precision = static_cast<QueryPrecision>(raw);
        request.force_algorithm = path;
        request.is_signed = is_signed;
        SCOPED_TRACE(testing::Message()
                     << "precision " << raw << " path "
                     << (path ? QueryAlgoName(*path) : "planned")
                     << " signed " << is_signed);
        EXPECT_EQ((*engine)->Query({queries.Row(0), request}).status().code(),
                  StatusCode::kInvalidArgument);
        EXPECT_EQ(
            (*engine)->BatchQuery(queries, request, {}).status().code(),
            StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(EngineTest, ForcedAlgorithmRespectsCapabilities) {
  Rng rng(22);
  const auto engine = Engine::Create(SmallSpreadData(200, 8, &rng));
  ASSERT_TRUE(engine.ok());
  const std::vector<double> q(8, 0.2);
  QueryOptions request;
  request.k = 3;
  request.is_signed = false;
  request.force_algorithm = QueryAlgo::kBallTree;
  // The engine routes only signed requests to the tree, even forced.
  EXPECT_FALSE((*engine)->Query({q, request}).ok());
  request.force_algorithm = QueryAlgo::kSketch;
  // k=3 unsigned runs the sketch index's exact fallback scan, so it
  // returns the forced brute-force answer; what the sketch path cannot
  // honor is an explicit exact (or quantized) precision.
  const auto fallback = (*engine)->Query({q, request});
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->stats.algorithm, QueryAlgo::kSketch);
  EXPECT_EQ(fallback->stats.candidates_pruned, 0u);
  QueryOptions brute_request = request;
  brute_request.force_algorithm = QueryAlgo::kBruteForce;
  const auto brute = (*engine)->Query({q, brute_request});
  ASSERT_TRUE(brute.ok());
  ASSERT_EQ(fallback->matches.size(), brute->matches.size());
  for (std::size_t j = 0; j < brute->matches.size(); ++j) {
    EXPECT_EQ(fallback->matches[j].index, brute->matches[j].index);
    EXPECT_EQ(fallback->matches[j].value, brute->matches[j].value);
  }
  request.precision = QueryPrecision::kExact;
  EXPECT_FALSE((*engine)->Query({q, request}).ok());
  request.precision = QueryPrecision::kAuto;
  request.k = 1;
  const auto sketch = (*engine)->Query({q, request});
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->stats.algorithm, QueryAlgo::kSketch);
  // Unsigned k=1 with kAuto takes the §4.3 argmax descent: no pruning
  // bookkeeping, exactly one recovered candidate re-scored.
  EXPECT_EQ(sketch->stats.candidates_pruned, 0u);
}

TEST(EngineTest, ForcedPathsAgreeWithBruteForceAtFullRecall) {
  Rng rng(23);
  const Matrix data = SmallSpreadData(300, 10, &rng);
  const auto engine = Engine::Create(data);
  ASSERT_TRUE(engine.ok());
  QueryOptions request;
  request.k = 5;
  request.recall_target = 1.0;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> q(10);
    for (double& v : q) v = rng.NextGaussian();
    const auto exact = TopKBruteForce(data, q, 5, /*is_signed=*/true);
    QueryOptions forced = request;
    forced.force_algorithm = QueryAlgo::kBallTree;
    const auto via_tree = (*engine)->Query({q, forced});
    ASSERT_TRUE(via_tree.ok());
    ASSERT_EQ(via_tree->matches.size(), exact.size());
    for (std::size_t t = 0; t < exact.size(); ++t) {
      // Deterministic tie-breaking makes this an exact index match.
      EXPECT_EQ(via_tree->matches[t].index, exact[t].index) << "rank " << t;
    }
  }
}

TEST(EngineTest, ForcedAndPlannedVariantsArePinned) {
  // Every forced path and the planner, under every precision, on both
  // signs at k = 1 and k = 10: the variant that served each request
  // ("+audit" when it was shadow-audited), or "#i", the i-th distinct
  // rejection (code and message) in order of first appearance.
  Rng rng(27);
  EngineOptions options;
  options.audit_every = 1;
  const auto engine = Engine::Create(SmallSpreadData(600, 8, &rng), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<double> q(8);
  for (double& v : q) v = rng.NextGaussian();
  const std::optional<QueryAlgo> paths[] = {
      std::nullopt, QueryAlgo::kBruteForce, QueryAlgo::kBallTree,
      QueryAlgo::kLsh, QueryAlgo::kSketch};
  std::ostringstream table;
  std::vector<std::string> rejections;
  for (const std::optional<QueryAlgo>& path : paths) {
    for (const QueryPrecision precision :
         {QueryPrecision::kAuto, QueryPrecision::kExact,
          QueryPrecision::kQuantizedRerank}) {
      table << (path ? QueryAlgoName(*path) : "planned") << " "
            << QueryPrecisionName(precision) << ":";
      // Columns: signed k=1, signed k=10, unsigned k=1, unsigned k=10.
      for (const bool is_signed : {true, false}) {
        for (const std::size_t k : {1, 10}) {
          QueryOptions request;
          request.k = k;
          request.is_signed = is_signed;
          request.force_algorithm = path;
          request.precision = precision;
          const auto served = (*engine)->Query({q, request});
          if (!served.ok()) {
            const std::string why = served.status().ToString();
            auto it = std::find(rejections.begin(), rejections.end(), why);
            if (it == rejections.end()) {
              it = rejections.insert(rejections.end(), why);
            }
            table << " #" << it - rejections.begin();
            continue;
          }
          table << " " << QueryAlgoName(served->plan.algorithm) << "/"
                << QueryPrecisionName(served->plan.precision);
          if (served->stats.metrics.Has("serve.feedback.audit_dots")) {
            table << "+audit";
          }
        }
      }
      table << "\n";
    }
  }
  EXPECT_EQ(table.str(),
            "planned auto: tree/exact tree/exact brute/quant+audit "
            "brute/quant+audit\n"
            "planned exact: tree/exact tree/exact lsh/exact+audit "
            "lsh/exact+audit\n"
            "planned quant: brute/quant+audit brute/quant+audit "
            "brute/quant+audit brute/quant+audit\n"
            "brute auto: brute/auto brute/auto brute/auto brute/auto\n"
            "brute exact: brute/exact brute/exact brute/exact brute/exact\n"
            "brute quant: brute/quant brute/quant brute/quant brute/quant\n"
            "tree auto: tree/auto tree/auto #0 #0\n"
            "tree exact: tree/exact tree/exact #0 #0\n"
            "tree quant: #1 #1 #0 #0\n"
            "lsh auto: lsh/auto lsh/auto lsh/auto lsh/auto\n"
            "lsh exact: lsh/exact lsh/exact lsh/exact lsh/exact\n"
            "lsh quant: lsh/quant lsh/quant lsh/quant lsh/quant\n"
            "sketch auto: sketch/auto sketch/auto sketch/auto sketch/auto\n"
            "sketch exact: #2 #2 #2 #2\n"
            "sketch quant: #2 #2 #2 #2\n");
  EXPECT_EQ(rejections,
            (std::vector<std::string>{
                "INVALID_ARGUMENT: the serving engine routes only signed "
                "queries to the ball tree",
                "INVALID_ARGUMENT: ball-tree top-k is exact only (its "
                "branch-and-bound prunes on exact scores); use brute/lsh for "
                "quantized re-rank",
                "INVALID_ARGUMENT: sketch index answers kAuto precision only "
                "(argmax descent or exact fallback scan); use brute/tree/lsh "
                "for exact or quantized precision"}));
}

TEST(EngineTest, StatsAccountForWork) {
  Rng rng(24);
  const auto engine = Engine::Create(SmallSpreadData(400, 8, &rng));
  ASSERT_TRUE(engine.ok());
  std::vector<double> q(8);
  for (double& v : q) v = rng.NextGaussian();
  QueryOptions request;
  request.k = 3;
  request.recall_target = 1.0;
  request.force_algorithm = QueryAlgo::kBruteForce;
  const auto brute = (*engine)->Query({q, request});
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(brute->stats.dot_products, 400u);
  request.force_algorithm = QueryAlgo::kBallTree;
  const auto tree = (*engine)->Query({q, request});
  ASSERT_TRUE(tree.ok());
  EXPECT_GE(tree->stats.dot_products, 3u);
  EXPECT_LE(tree->stats.dot_products, 400u);
  EXPECT_EQ(brute->stats.algorithm, QueryAlgo::kBruteForce);
  EXPECT_EQ(tree->stats.algorithm, QueryAlgo::kBallTree);
  // Merge is the one aggregation primitive: work sums, requests count.
  QueryStats total = brute->stats;
  total.Merge(tree->stats);
  EXPECT_EQ(total.batch_size, 2u);
  EXPECT_EQ(total.dot_products,
            brute->stats.dot_products + tree->stats.dot_products);
}

TEST(EngineTest, TracedLshQueryExportsFullSpanTree) {
  Rng rng(25);
  const auto engine = Engine::Create(SmallSpreadData(600, 12, &rng));
  ASSERT_TRUE(engine.ok());
  std::vector<double> q(12);
  for (double& v : q) v = rng.NextGaussian();
  QueryOptions request;
  request.k = 3;
  request.trace = true;
  request.force_algorithm = QueryAlgo::kLsh;
  const auto served = (*engine)->Query({q, request});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const std::shared_ptr<const Trace> trace = served->stats.trace;
  ASSERT_NE(trace, nullptr);
  // The full hash -> bucket -> dedup -> verify -> top-k pipeline is
  // nested under the serve/query -> lsh spans.
  for (const char* name : {"serve/query", "serve/plan", "lsh", "hash",
                           "bucket", "dedup", "verify", "top-k"}) {
    EXPECT_NE(trace->FindSpan(name), nullptr) << name;
  }
  // Span counts agree with the stats returned for the same query.
  EXPECT_EQ(trace->TotalCount("candidates"), served->stats.candidates);
  EXPECT_EQ(trace->TotalCount("unique_candidates"),
            served->stats.candidates);
  EXPECT_EQ(trace->TotalCount("unique_candidates") +
                trace->TotalCount("duplicates"),
            trace->TotalCount("raw_candidates"));
  // The completed trace is published to the global ring and its JSON
  // export names every stage.
  const auto recent = TraceRing::Global().Recent(/*limit=*/1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].get(), trace.get());
  const std::string json = trace->ToJson();
  for (const char* name : {"hash", "bucket", "dedup", "verify", "top-k"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  // Tracing is opt-in: an untraced query leaves stats.trace empty.
  request.trace = false;
  const auto untraced = (*engine)->Query({q, request});
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->stats.trace, nullptr);
}

// --- Recall contract: planner-selected answers hit the target ---

struct RecallCase {
  const char* name;
  bool small_spread;
  double recall_target;
};

class RecallContract : public ::testing::TestWithParam<RecallCase> {};

TEST_P(RecallContract, PlannerSelectionAchievesRequestedRecall) {
  const RecallCase param = GetParam();
  Rng rng(31);
  const std::size_t kN = 2000, kDim = 16, kK = 5, kQueries = 50;
  const Matrix data = param.small_spread ? SmallSpreadData(kN, kDim, &rng)
                                         : LargeSpreadData(kN, kDim, &rng);
  EngineOptions options;
  options.seed = 77;
  const auto engine = Engine::Create(data, options);
  ASSERT_TRUE(engine.ok());

  QueryOptions request;
  request.k = kK;
  request.recall_target = param.recall_target;

  std::size_t hit = 0, promised = 0;
  Rng query_rng(32);
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    std::vector<double> q(kDim);
    for (double& v : q) v = query_rng.NextGaussian();
    const auto exact = TopKBruteForce(data, q, kK, /*is_signed=*/true);
    const auto served = (*engine)->Query({q, request});
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    promised += exact.size();
    for (const auto& truth : exact) {
      for (const auto& match : served->matches) {
        if (match.index == truth.index) {
          ++hit;
          break;
        }
      }
    }
  }
  const double recall =
      static_cast<double>(hit) / static_cast<double>(promised);
  EXPECT_GE(recall, param.recall_target)
      << "planner chose "
      << QueryAlgoName((*engine)
                           ->Query({std::vector<double>(kDim, 0.1), request})
                           ->stats.algorithm);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RecallContract,
    ::testing::Values(RecallCase{"small_spread_r80", true, 0.8},
                      RecallCase{"small_spread_exact", true, 1.0},
                      RecallCase{"large_spread_r80", false, 0.8},
                      RecallCase{"large_spread_exact", false, 1.0}),
    [](const ::testing::TestParamInfo<RecallCase>& info) {
      return info.param.name;
    });

// --- Batch scheduler ---

TEST(BatchSchedulerTest, ServesConcurrentSubmissions) {
  Rng rng(41);
  const auto engine = Engine::Create(SmallSpreadData(500, 8, &rng));
  ASSERT_TRUE(engine.ok());
  BatchSchedulerOptions options;
  options.num_threads = 4;
  BatchScheduler scheduler(engine->get(), options);

  QueryOptions request;
  request.k = 3;
  std::vector<std::future<BatchScheduler::Result>> futures;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> q(8);
    for (double& v : q) v = rng.NextGaussian();
    futures.push_back(scheduler.Submit({q, request}));
  }
  std::size_t ok = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->matches.size(), 3u);
    EXPECT_GE(result->stats.queue_seconds, 0.0);
    ++ok;
  }
  EXPECT_EQ(ok, 200u);
  scheduler.Drain();  // counters are final once nothing is in flight
  const SchedulerCounters counters = scheduler.counters();
  EXPECT_EQ(counters.submitted, 200u);
  EXPECT_EQ(counters.completed, 200u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_GE(counters.batches, 1u);
  // Partition invariant: every submission lands in exactly one bucket.
  EXPECT_EQ(counters.shed + counters.completed + counters.expired,
            counters.submitted);
}

TEST(BatchSchedulerTest, ShedsLoadBeyondQueueBound) {
  Rng rng(42);
  // A deliberately slow engine call is unnecessary: a tiny queue bound
  // with a burst of submissions forces shedding regardless of timing.
  const auto engine = Engine::Create(SmallSpreadData(2000, 16, &rng));
  ASSERT_TRUE(engine.ok());
  BatchSchedulerOptions options;
  options.num_threads = 1;
  options.max_queue = 2;
  options.max_batch = 2;
  BatchScheduler scheduler(engine->get(), options);

  // The per-scheduler counters are mirrored into the process registry;
  // snapshot it so deltas can be compared below.
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::uint64_t submitted_before =
      registry.GetCounter("serve.scheduler.submitted")->Value();
  const std::uint64_t shed_before =
      registry.GetCounter("serve.scheduler.shed")->Value();
  const std::uint64_t expired_before =
      registry.GetCounter("serve.scheduler.expired")->Value();
  const std::uint64_t completed_before =
      registry.GetCounter("serve.scheduler.completed")->Value();

  QueryOptions request;
  request.recall_target = 1.0;
  request.force_algorithm = QueryAlgo::kBruteForce;
  std::vector<std::future<BatchScheduler::Result>> futures;
  for (int i = 0; i < 300; ++i) {
    futures.push_back(
        scheduler.Submit({std::vector<double>(16, 0.1), request}));
  }
  std::size_t shed = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  scheduler.Drain();
  const SchedulerCounters counters = scheduler.counters();
  EXPECT_EQ(counters.shed, shed);
  EXPECT_GT(counters.shed, 0u);  // the burst must actually overflow
  // Shed requests are not double-counted as completed: the three
  // outcome buckets partition the submissions exactly.
  EXPECT_EQ(counters.completed, 300u - shed);
  EXPECT_EQ(counters.expired, 0u);
  EXPECT_EQ(counters.shed + counters.completed + counters.expired,
            counters.submitted);
  // The registry mirror advanced by exactly the same amounts.
  EXPECT_EQ(registry.GetCounter("serve.scheduler.submitted")->Value() -
                submitted_before,
            counters.submitted);
  EXPECT_EQ(registry.GetCounter("serve.scheduler.shed")->Value() -
                shed_before,
            counters.shed);
  EXPECT_EQ(registry.GetCounter("serve.scheduler.expired")->Value() -
                expired_before,
            counters.expired);
  EXPECT_EQ(registry.GetCounter("serve.scheduler.completed")->Value() -
                completed_before,
            counters.completed);
}

TEST(BatchSchedulerTest, ExpiredDeadlineFailsWithoutEngineWork) {
  Rng rng(43);
  const auto engine = Engine::Create(SmallSpreadData(200, 8, &rng));
  ASSERT_TRUE(engine.ok());
  BatchScheduler scheduler(engine->get());
  // A 1ns deadline is in the past by the time the batch runs.
  RequestContext tight;
  tight.deadline_seconds = 1e-9;
  auto future =
      scheduler.Submit({std::vector<double>(8, 0.1), {}, tight});
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  scheduler.Drain();
  EXPECT_GE(scheduler.counters().expired, 1u);
  // The scheduler still serves the next request.
  auto good = scheduler.Submit({std::vector<double>(8, 0.1), {}});
  EXPECT_TRUE(good.get().ok());
}

TEST(BatchSchedulerTest, RejectsInvalidContexts) {
  Rng rng(44);
  const auto engine = Engine::Create(SmallSpreadData(100, 8, &rng));
  ASSERT_TRUE(engine.ok());
  BatchScheduler scheduler(engine->get());
  RequestContext zero;
  zero.deadline_seconds = 0.0;
  EXPECT_FALSE(
      scheduler.Submit({std::vector<double>(8, 0.1), {}, zero}).get().ok());
  RequestContext nan;
  nan.deadline_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      scheduler.Submit({std::vector<double>(8, 0.1), {}, nan}).get().ok());
  RequestContext bad_priority;
  bad_priority.priority = static_cast<RequestPriority>(17);
  EXPECT_FALSE(scheduler.Submit({std::vector<double>(8, 0.1), {}, bad_priority})
                   .get()
                   .ok());
  // Context validation failures are rejected before accounting: nothing
  // was submitted, shed, or completed on their behalf.
  scheduler.Drain();
  EXPECT_EQ(scheduler.counters().submitted, 0u);
}

TEST(BatchSchedulerTest, DrainWaitsForAllInFlightWork) {
  Rng rng(45);
  const auto engine = Engine::Create(SmallSpreadData(500, 8, &rng));
  ASSERT_TRUE(engine.ok());
  BatchScheduler scheduler(engine->get());
  std::vector<std::future<BatchScheduler::Result>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(
        scheduler.Submit({std::vector<double>(8, 0.05), {}}));
  }
  scheduler.Drain();
  for (auto& future : futures) {
    // Drain returned, so every future is already ready.
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  EXPECT_EQ(scheduler.counters().completed, 64u);
}

TEST(BatchSchedulerTest, ShutdownAnswersEveryQueuedRequest) {
  Rng rng(46);
  const auto engine = Engine::Create(SmallSpreadData(2000, 16, &rng));
  ASSERT_TRUE(engine.ok());
  std::vector<std::future<BatchScheduler::Result>> futures;
  {
    BatchSchedulerOptions options;
    options.num_threads = 1;
    options.max_batch = 4;
    BatchScheduler scheduler(engine->get(), options);
    QueryOptions request;
    request.recall_target = 1.0;
    request.force_algorithm = QueryAlgo::kBruteForce;
    for (int i = 0; i < 128; ++i) {
      futures.push_back(
          scheduler.Submit({std::vector<double>(16, 0.1), request}));
    }
    // Scheduler destructs here with work still queued.
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto result = future.get();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

// --- Stale-calibration regression (BENCH_serve targets_met 0.07) ---

TEST_F(PlannerTest, TopKRequestsPriceLshOffTopKRecall) {
  // Warmup measured recall@1 = 0.9 but recall@5 = 0.2: the bucket set
  // usually holds the argmax yet misses most of a top-5 on skewed-norm
  // data. A k=5 request must not ride the @1 number into LSH; a k=1
  // request may still use it.
  DatasetProfile profile;
  profile.n = 10000;
  profile.dim = 32;
  profile.min_norm = 0.5;
  profile.max_norm = 1.0;
  profile.mean_norm = 0.8;
  PlannerCalibration calib;
  calib.tree_fraction = 0.9;  // tree barely cheaper than brute
  calib.lsh_candidate_fraction = 0.05;
  calib.lsh_recall = 0.9;
  calib.lsh_topk_recall = 0.2;
  calib.probe_queries = 16;
  const Planner planner(profile, calib, /*audit_every=*/16);

  QueryOptions topk;
  topk.k = 5;
  topk.recall_target = 0.8;
  const auto topk_plan = planner.Plan(topk);
  ASSERT_TRUE(topk_plan.ok());
  EXPECT_NE(topk_plan->algorithm, QueryAlgo::kLsh)
      << "k=5 routed to LSH off a recall@1-only calibration";

  QueryOptions top1;
  top1.k = 1;
  top1.recall_target = 0.8;
  const auto top1_plan = planner.Plan(top1);
  ASSERT_TRUE(top1_plan.ok());
  EXPECT_EQ(top1_plan->algorithm, QueryAlgo::kLsh);
}

TEST(EngineCalibrationTest, MeasuresTopKLshRecallSeparately) {
  Rng rng(91);
  const auto engine = Engine::Create(LargeSpreadData(1500, 16, &rng));
  ASSERT_TRUE(engine.ok());
  const PlannerCalibration& calib = (*engine)->planner().calibration();
  EXPECT_GE(calib.lsh_topk_recall, 0.0);
  EXPECT_LE(calib.lsh_topk_recall, 1.0);
  // On skewed-norm data the top-5 recall is the binding number; the
  // warmup must have measured it at all (the old calibration left it
  // implicitly equal to recall@1).
  EXPECT_GE(calib.lsh_recall, 0.0);
}

// --- Live estimate table: re-fitting, eviction, audit cadence ---

class FeedbackTest : public ::testing::Test {
 protected:
  static Planner MakePlanner(std::size_t audit_every = 16) {
    DatasetProfile profile;
    profile.n = 10000;
    profile.dim = 32;
    profile.min_norm = 0.5;
    profile.max_norm = 1.0;
    profile.mean_norm = 0.8;
    PlannerCalibration calib;
    calib.tree_fraction = 0.9;
    calib.lsh_candidate_fraction = 0.05;
    calib.lsh_recall = 0.95;
    calib.lsh_topk_recall = 0.95;
    calib.probe_queries = 16;
    return Planner(profile, calib, audit_every);
  }
};

TEST_F(FeedbackTest, SegmentBucketsPinKAndSignedness) {
  QueryOptions request;
  request.k = 1;
  EXPECT_EQ(Planner::SegmentOf(request), 0u);
  request.is_signed = false;
  EXPECT_EQ(Planner::SegmentOf(request), 1u);
  request.is_signed = true;
  request.k = 5;
  EXPECT_EQ(Planner::SegmentOf(request), 2u);
  request.is_signed = false;
  EXPECT_EQ(Planner::SegmentOf(request), 3u);
  request.is_signed = true;
  request.k = 9;
  EXPECT_EQ(Planner::SegmentOf(request), 4u);
  request.is_signed = false;
  EXPECT_EQ(Planner::SegmentOf(request), 5u);
}

TEST_F(FeedbackTest, AuditCadenceFollowsAuditEvery) {
  const Planner planner = MakePlanner(/*audit_every=*/4);
  QueryOptions request;
  request.k = 3;
  const PlanDecision lsh{QueryAlgo::kLsh, QueryPrecision::kExact};
  // An exact row is never audited and does not count toward the cadence.
  EXPECT_FALSE(planner.BeginAudit(
      request, PlanDecision{QueryAlgo::kBallTree, QueryPrecision::kExact}));
  // First query of a segment audits, then every fourth.
  EXPECT_TRUE(planner.BeginAudit(request, lsh));
  EXPECT_FALSE(planner.BeginAudit(request, lsh));
  EXPECT_FALSE(planner.BeginAudit(request, lsh));
  EXPECT_FALSE(planner.BeginAudit(request, lsh));
  EXPECT_TRUE(planner.BeginAudit(request, lsh));
  // A different segment has its own counter.
  QueryOptions other;
  other.k = 1;
  EXPECT_TRUE(planner.BeginAudit(other, lsh));
  // An explicit precision is audited like kAuto; a forced path never is
  // and does not count toward the cadence.
  QueryOptions exact;
  exact.k = 9;
  exact.precision = QueryPrecision::kExact;
  QueryOptions forced = exact;
  forced.force_algorithm = QueryAlgo::kLsh;
  EXPECT_FALSE(planner.BeginAudit(forced, lsh));
  EXPECT_TRUE(planner.BeginAudit(exact, lsh));
}

TEST_F(FeedbackTest, ObservedMissesEvictThePathForThatSegment) {
  const Planner planner = MakePlanner();

  QueryOptions request;
  request.k = 5;
  request.recall_target = 0.8;
  const auto before = planner.Plan(request);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->algorithm, QueryAlgo::kLsh)
      << "warmup calibration was supposed to make LSH the cheap winner";

  // Audits observe recall far below the 0.8 target. Each moves the live
  // curve 0.1 of the way from the 0.95 warmup prior (0.865, 0.789,
  // 0.720, 0.658), but the prior keeps pricing the path until the
  // fourth audit makes the curve live: that audit evicts it, since
  // 0.658 is under the 0.85 bar (target + margin).
  for (int audit = 1; audit <= 3; ++audit) {
    planner.RecordAudit(request, QueryAlgo::kLsh, QueryPrecision::kExact,
                        /*observed_recall=*/0.1, /*observed_cost=*/600.0);
    EXPECT_EQ(planner.counters().evictions, 0u) << "audit " << audit;
    const auto still = planner.Plan(request);
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still->algorithm, QueryAlgo::kLsh) << "audit " << audit;
  }
  planner.RecordAudit(request, QueryAlgo::kLsh, QueryPrecision::kExact,
                      /*observed_recall=*/0.1, /*observed_cost=*/600.0);
  const auto after = planner.Plan(request);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->algorithm, QueryAlgo::kLsh);
  EXPECT_EQ(planner.counters().evictions, 1u);
  EXPECT_EQ(planner.counters().audits, 4u);

  // The k=1 segment never saw those audits: its plan still uses the
  // warmup numbers and may route LSH.
  QueryOptions top1;
  top1.k = 1;
  top1.recall_target = 0.8;
  const auto other = planner.Plan(top1);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->algorithm, QueryAlgo::kLsh);
}

TEST(FeedbackEngineTest, BatchQueryAuditsEveryCoalescedMember) {
  // Engine::BatchQuery (the scheduler's coalesced path, and every
  // sharded batch's shard call) audits each member under the same gate
  // and per-segment cadence as Query: with audit_every = 1, every
  // planner-routed can-miss member is audited.
  Rng rng(44);
  EngineOptions options;
  options.audit_every = 1;
  const auto engine = Engine::Create(SmallSpreadData(600, 8, &rng), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  QueryOptions request;
  request.k = 1;
  request.is_signed = false;
  request.recall_target = 0.5;
  const Matrix queries = SmallSpreadData(6, 8, &rng);
  const auto results = (*engine)->BatchQuery(queries, request, {});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), queries.rows());
  const PlanDecision& plan = results->front().plan;
  ASSERT_FALSE(plan.algorithm == QueryAlgo::kBruteForce &&
               plan.precision == QueryPrecision::kExact)
      << "expected a plan that can miss";
  EXPECT_EQ((*engine)->planner().counters().audits, queries.rows());
  for (const QueryResult& member : *results) {
    EXPECT_TRUE(member.stats.metrics.Has("serve.feedback.audit_dots"));
  }
}

// --- Decision pin: the feedback loop's routing, request by request ---

// A scaled-down copy of bench_serve's qos corpus: a skewed-norm catalog
// in the first 16 dims plus high-norm near-tie rows (4 directions,
// perturbed below int8 resolution) in the last 8. The stream queries
// catalog rows for its first half and Gaussians for its second, the
// shift only live audits can price.
constexpr std::size_t kPinN = 1024;
constexpr std::size_t kPinDim = 24;
constexpr std::size_t kPinTiesStart = 960;
constexpr std::size_t kPinQueries = 256;
constexpr std::size_t kPinShift = 128;

Matrix MakeNearTieCorpus(Rng* rng) {
  Matrix data(kPinN, kPinDim);
  for (std::size_t i = 0; i < kPinTiesStart; ++i) {
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < 16; ++j) {
      data.At(i, j) = rng->NextGaussian();
      norm_sq += data.At(i, j) * data.At(i, j);
    }
    const double scale =
        1.0 / (std::sqrt(norm_sq) * static_cast<double>(i + 1));
    for (std::size_t j = 0; j < 16; ++j) data.At(i, j) *= scale;
  }
  double dirs[4][8];
  for (auto& dir : dirs) {
    double norm_sq = 0.0;
    for (double& v : dir) {
      v = rng->NextGaussian();
      norm_sq += v * v;
    }
    for (double& v : dir) v /= std::sqrt(norm_sq);
  }
  for (std::size_t i = kPinTiesStart; i < kPinN; ++i) {
    const auto& dir = dirs[(i - kPinTiesStart) % 4];
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < 8; ++j) {
      data.At(i, 16 + j) = dir[j] + 5e-4 * rng->NextGaussian();
      norm_sq += data.At(i, 16 + j) * data.At(i, 16 + j);
    }
    const double scale = 8.0 / std::sqrt(norm_sq);
    for (std::size_t j = 0; j < 8; ++j) data.At(i, 16 + j) *= scale;
  }
  return data;
}

TEST(FeedbackPinTest, RoutingAcrossAShiftIsPinned) {
  Rng rng(2026);
  const Matrix data = MakeNearTieCorpus(&rng);
  EngineOptions options;
  options.seed = 31;
  options.sketch_params.kappa = 3.0;
  options.probe_queries = 64;
  options.probe_sample = 256;
  // Every fifth descent is audited. The live cost re-fit prices the
  // descent above brute force after five audits, so this cadence is
  // what spreads them across the shift.
  options.audit_every = 5;
  const auto engine = Engine::Create(data, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (QueryAlgo algo : {QueryAlgo::kBruteForce, QueryAlgo::kBallTree,
                         QueryAlgo::kLsh, QueryAlgo::kSketch}) {
    ASSERT_TRUE((*engine)->EnsureIndex(algo).ok());
  }

  // One two-letter code per request: the first letters of the plan's
  // algorithm and precision names ("te" = tree/exact, "sa" =
  // sketch/auto, "be" = brute/exact, ...).
  std::string decisions;
  std::vector<std::size_t> audited;
  std::vector<std::size_t> hedged;
  std::vector<double> q(kPinDim);
  for (std::size_t i = 0; i < kPinQueries; ++i) {
    if (i < kPinShift) {
      const auto row =
          data.Row(static_cast<std::size_t>(rng.NextBounded(kPinTiesStart)));
      std::copy(row.begin(), row.end(), q.begin());
    } else {
      for (double& v : q) v = rng.NextGaussian();
    }
    QueryOptions request;
    request.recall_target = i % 3 == 0 ? 0.7 : i % 3 == 1 ? 0.9 : 1.0;
    if (i % 4 == 3) {
      request.is_signed = false;
    } else {
      request.k = 5;
    }
    const auto served = (*engine)->Query({q, request});
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    decisions += QueryAlgoName(served->plan.algorithm)[0];
    decisions += QueryPrecisionName(served->plan.precision)[0];
    decisions += ' ';
    if (served->stats.metrics.Has("serve.feedback.audit_dots")) {
      audited.push_back(i);
    }
    if (served->stats.metrics.Has("serve.feedback.hedged")) {
      hedged.push_back(i);
    }
  }

  // The argmax descent serves the unsigned target-0.7 requests. Its
  // audits hit before the shift and miss after it (hedges 183, 243);
  // the second miss evicts it, and request 255 falls back to
  // brute/exact.
  EXPECT_EQ(decisions,
            "te te te sa te te te be te te te be te te te sa "
            "te te te be te te te be te te te sa te te te be "
            "te te te be te te te sa te te te be te te te be "
            "te te te sa te te te be te te te be te te te sa "
            "te te te be te te te be te te te sa te te te be "
            "te te te be te te te sa te te te be te te te be "
            "te te te sa te te te be te te te be te te te sa "
            "te te te be te te te be te te te sa te te te be "
            "te te te be te te te sa te te te be te te te be "
            "te te te sa te te te be te te te be te te te sa "
            "te te te be te te te be te te te sa te te te be "
            "te te te be te te te sa te te te be te te te be "
            "te te te sa te te te be te te te be te te te sa "
            "te te te be te te te be te te te sa te te te be "
            "te te te be te te te sa te te te be te te te be "
            "te te te sa te te te be te te te be te te te be ");
  EXPECT_EQ(audited, (std::vector<std::size_t>{3, 63, 123, 183, 243}));
  EXPECT_EQ(hedged, (std::vector<std::size_t>{183, 243}));
  const FeedbackCounters counters = (*engine)->planner().counters();
  EXPECT_EQ(counters.audits, 5u);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.hedged, 2u);
}

TEST(EngineOptionsTest, ValidationRejectsZeroAuditEvery) {
  EngineOptions options;
  EXPECT_TRUE(ValidateEngineOptions(options).ok());
  options.audit_every = 0;
  EXPECT_FALSE(ValidateEngineOptions(options).ok());
}

// --- The serve envelope: one contract for every engine and call ---

TEST(ServeEnvelopeTest, EveryEngineAndCallKeepsOneContract) {
  // {Engine, ShardedEngine with S = 1, 2} x {Query, BatchQuery}: the
  // Status of each rejection, and for accepted calls (untraced, then
  // traced) the timing, the deadline verdict, the trace each call
  // publishes and attaches, and the registry counters it moves.
  Rng rng(30);
  const Matrix data = SmallSpreadData(64, 8, &rng);
  const auto engine = Engine::Create(data);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<std::unique_ptr<ShardedEngine>> sharded;
  for (const std::size_t shards : {1, 2}) {
    ShardedEngineOptions options;
    options.num_shards = shards;
    auto built = ShardedEngine::Create(data, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    sharded.push_back(std::move(built).value());
  }
  const std::pair<const char*, const QueryEngine*> engines[] = {
      {"engine", engine->get()},
      {"sharded1", sharded[0].get()},
      {"sharded2", sharded[1].get()}};
  const char* const counters[] = {
      "serve.engine.requests",      "serve.engine.batch.requests",
      "serve.engine.batch.queries", "serve.engine.traced",
      "serve.shard.queries",        "serve.shard.batch.requests",
      "serve.shard.batch.queries",  "serve.shard.traced"};
  auto read_counters = [&] {
    std::vector<std::uint64_t> values;
    for (const char* name : counters) {
      values.push_back(MetricsRegistry::Global().GetCounter(name)->Value());
    }
    return values;
  };
  // The table is one stream: every cell is written into it, never
  // concatenated from string temporaries first.
  std::ostringstream table;
  auto write_moved = [&](const std::vector<std::uint64_t>& before,
                         const std::vector<std::uint64_t>& after) {
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (after[i] != before[i]) {
        table << " " << counters[i] << "+" << after[i] - before[i];
      }
    }
  };
  auto write_trace = [&](const std::shared_ptr<const Trace>& trace) {
    if (trace == nullptr) {
      table << "none";
      return;
    }
    table << trace->label() << "("
          << (trace->spans().empty() ? "" : trace->spans()[0].name) << ")";
  };

  Matrix queries(2, 8);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    for (std::size_t j = 0; j < queries.cols(); ++j) {
      queries.At(i, j) = rng.NextGaussian();
    }
  }
  // Each rejection row refers to named, fully built inputs.
  const QueryOptions defaults;
  QueryOptions k_zero;
  k_zero.k = 0;
  QueryOptions recall_zero;
  recall_zero.recall_target = 0.0;
  const RequestContext no_context;
  RequestContext negative_deadline;
  negative_deadline.deadline_seconds = -1.0;
  const Matrix narrow(2, 5);
  Matrix with_nan = queries;
  with_nan.At(1, 3) = std::numeric_limits<double>::quiet_NaN();
  struct Rejection {
    const char* name;
    const QueryOptions* options;
    const RequestContext* context;
    const Matrix* queries;
  };
  const Rejection rejections[] = {
      {"k=0", &k_zero, &no_context, &queries},
      {"recall=0", &recall_zero, &no_context, &queries},
      {"width", &defaults, &no_context, &narrow},
      {"nan", &defaults, &no_context, &with_nan},
      {"context", &defaults, &negative_deadline, &queries}};

  for (const auto& [name, served] : engines) {
    for (const bool batch : {false, true}) {
      const char* const call = batch ? " batch " : " query ";
      for (const Rejection& bad : rejections) {
        const Status status =
            batch ? served->BatchQuery(*bad.queries, *bad.options,
                                       *bad.context)
                        .status()
                  : served->Query({bad.queries->Row(1), *bad.options,
                                   *bad.context})
                        .status();
        table << name << call << bad.name << ": " << status.ToString()
              << "\n";
      }
      for (const bool traced : {false, true}) {
        QueryOptions options;
        options.k = 3;
        options.trace = traced;
        RequestContext context;
        context.deadline_seconds = 60.0;
        TraceRing::Global().Clear();
        const std::vector<std::uint64_t> before = read_counters();
        std::vector<QueryResult> results;
        if (batch) {
          auto answered = served->BatchQuery(queries, options, context);
          ASSERT_TRUE(answered.ok())
              << name << call << answered.status().ToString();
          results = std::move(answered).value();
        } else {
          auto answered = served->Query({queries.Row(0), options, context});
          ASSERT_TRUE(answered.ok())
              << name << call << answered.status().ToString();
          results.push_back(std::move(answered).value());
        }
        const std::vector<std::uint64_t> after = read_counters();
        const auto ring = TraceRing::Global().Recent();
        table << name << call << (traced ? "traced" : "untraced")
              << ": ring ";
        write_trace(ring.empty() ? nullptr : ring[0]);
        table << " ring_size " << ring.size() << " attached";
        for (const QueryResult& result : results) {
          EXPECT_GT(result.stats.exec_seconds, 0.0) << name << call;
          EXPECT_TRUE(result.stats.deadline_met) << name << call;
          EXPECT_EQ(result.matches.size(), 3u) << name << call;
          table << " ";
          write_trace(result.stats.trace);
        }
        table << " |";
        write_moved(before, after);
        table << "\n";
      }
    }
  }
  EXPECT_EQ(
      table.str(),
      "engine query k=0: INVALID_ARGUMENT: top-k query needs k >= 1\n"
      "engine query recall=0: INVALID_ARGUMENT: recall target must "
      "lie in (0, 1], got 0.000000\n"
      "engine query width: INVALID_ARGUMENT: serve query has "
      "dimension 5, expected 8\n"
      "engine query nan: INVALID_ARGUMENT: serve query has non-finite "
      "value nan at index 3\n"
      "engine query context: INVALID_ARGUMENT: deadline must be "
      "positive (infinity = none), got -1.000000\n"
      "engine query untraced: ring none ring_size 0 attached none | "
      "serve.engine.requests+1\n"
      "engine query traced: ring serve(serve/query) ring_size 1 "
      "attached serve(serve/query) | serve.engine.requests+1 "
      "serve.engine.traced+1\n"
      "engine batch k=0: INVALID_ARGUMENT: top-k query needs k >= 1\n"
      "engine batch recall=0: INVALID_ARGUMENT: recall target must "
      "lie in (0, 1], got 0.000000\n"
      "engine batch width: INVALID_ARGUMENT: serve batch queries has "
      "5 columns, expected 8\n"
      "engine batch nan: INVALID_ARGUMENT: serve batch queries has "
      "non-finite value nan at row 1, column 3\n"
      "engine batch context: INVALID_ARGUMENT: deadline must be "
      "positive (infinity = none), got -1.000000\n"
      "engine batch untraced: ring none ring_size 0 attached none "
      "none | serve.engine.batch.requests+1 "
      "serve.engine.batch.queries+2\n"
      "engine batch traced: ring serve.batch(serve/batch_query) "
      "ring_size 1 attached ball-tree.batch(batch.fallback) "
      "ball-tree.batch(batch.fallback) | "
      "serve.engine.batch.requests+1 serve.engine.batch.queries+2 "
      "serve.engine.traced+1\n"
      "sharded1 query k=0: INVALID_ARGUMENT: top-k query needs k >= "
      "1\n"
      "sharded1 query recall=0: INVALID_ARGUMENT: recall target must "
      "lie in (0, 1], got 0.000000\n"
      "sharded1 query width: INVALID_ARGUMENT: sharded query has "
      "dimension 5, expected 8\n"
      "sharded1 query nan: INVALID_ARGUMENT: sharded query has "
      "non-finite value nan at index 3\n"
      "sharded1 query context: INVALID_ARGUMENT: deadline must be "
      "positive (infinity = none), got -1.000000\n"
      "sharded1 query untraced: ring none ring_size 0 attached none | "
      "serve.engine.requests+1 serve.shard.queries+1\n"
      "sharded1 query traced: ring serve.sharded(serve/sharded_query) "
      "ring_size 1 attached serve.sharded(serve/sharded_query) | "
      "serve.engine.requests+1 serve.shard.queries+1 "
      "serve.shard.traced+1\n"
      "sharded1 batch k=0: INVALID_ARGUMENT: top-k query needs k >= "
      "1\n"
      "sharded1 batch recall=0: INVALID_ARGUMENT: recall target must "
      "lie in (0, 1], got 0.000000\n"
      "sharded1 batch width: INVALID_ARGUMENT: sharded batch queries "
      "has 5 columns, expected 8\n"
      "sharded1 batch nan: INVALID_ARGUMENT: sharded batch queries "
      "has non-finite value nan at row 1, column 3\n"
      "sharded1 batch context: INVALID_ARGUMENT: deadline must be "
      "positive (infinity = none), got -1.000000\n"
      "sharded1 batch untraced: ring none ring_size 0 attached none "
      "none | serve.engine.batch.requests+1 "
      "serve.engine.batch.queries+2 serve.shard.batch.requests+1 "
      "serve.shard.batch.queries+2\n"
      "sharded1 batch traced: ring "
      "serve.sharded.batch(serve/sharded_batch_query) ring_size 1 "
      "attached none none | serve.engine.batch.requests+1 "
      "serve.engine.batch.queries+2 serve.shard.batch.requests+1 "
      "serve.shard.batch.queries+2 serve.shard.traced+1\n"
      "sharded2 query k=0: INVALID_ARGUMENT: top-k query needs k >= "
      "1\n"
      "sharded2 query recall=0: INVALID_ARGUMENT: recall target must "
      "lie in (0, 1], got 0.000000\n"
      "sharded2 query width: INVALID_ARGUMENT: sharded query has "
      "dimension 5, expected 8\n"
      "sharded2 query nan: INVALID_ARGUMENT: sharded query has "
      "non-finite value nan at index 3\n"
      "sharded2 query context: INVALID_ARGUMENT: deadline must be "
      "positive (infinity = none), got -1.000000\n"
      "sharded2 query untraced: ring none ring_size 0 attached none | "
      "serve.engine.requests+2 serve.shard.queries+1\n"
      "sharded2 query traced: ring serve.sharded(serve/sharded_query) "
      "ring_size 1 attached serve.sharded(serve/sharded_query) | "
      "serve.engine.requests+2 serve.shard.queries+1 "
      "serve.shard.traced+1\n"
      "sharded2 batch k=0: INVALID_ARGUMENT: top-k query needs k >= "
      "1\n"
      "sharded2 batch recall=0: INVALID_ARGUMENT: recall target must "
      "lie in (0, 1], got 0.000000\n"
      "sharded2 batch width: INVALID_ARGUMENT: sharded batch queries "
      "has 5 columns, expected 8\n"
      "sharded2 batch nan: INVALID_ARGUMENT: sharded batch queries "
      "has non-finite value nan at row 1, column 3\n"
      "sharded2 batch context: INVALID_ARGUMENT: deadline must be "
      "positive (infinity = none), got -1.000000\n"
      "sharded2 batch untraced: ring none ring_size 0 attached none "
      "none | serve.engine.batch.requests+2 "
      "serve.engine.batch.queries+4 serve.shard.batch.requests+1 "
      "serve.shard.batch.queries+2\n"
      "sharded2 batch traced: ring "
      "serve.sharded.batch(serve/sharded_batch_query) ring_size 1 "
      "attached none none | serve.engine.batch.requests+2 "
      "serve.engine.batch.queries+4 serve.shard.batch.requests+1 "
      "serve.shard.batch.queries+2 serve.shard.traced+1\n");
}

// --- QoS: token buckets, priority lanes, per-tenant partition ---

// QueryEngine double that records the order queries reach the engine
// (marker = round(query[0] * 100)) and delegates to a real Engine.
class RecordingEngine : public QueryEngine {
 public:
  explicit RecordingEngine(const Engine* inner) : inner_(inner) {}
  std::size_t dim() const override { return inner_->dim(); }
  StatusOr<QueryResult> Query(const Request& request) const override {
    {
      MutexLock lock(mutex_);
      order_.push_back(static_cast<int>(request.query[0] * 100.0 + 0.5));
    }
    return inner_->Query(request);
  }
  StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options,
      const RequestContext& context) const override {
    {
      MutexLock lock(mutex_);
      for (std::size_t i = 0; i < queries.rows(); ++i) {
        order_.push_back(static_cast<int>(queries.At(i, 0) * 100.0 + 0.5));
      }
    }
    return inner_->BatchQuery(queries, options, context);
  }
  std::vector<int> order() const {
    MutexLock lock(mutex_);
    return order_;
  }

 private:
  const Engine* inner_;
  mutable Mutex mutex_;
  mutable std::vector<int> order_;
};

TEST(QosTest, TokenBucketShedsOnlyTheOverloadedTenant) {
  Rng rng(61);
  const auto engine = Engine::Create(SmallSpreadData(300, 8, &rng));
  ASSERT_TRUE(engine.ok());
  BatchSchedulerOptions options;
  options.num_threads = 2;
  // The aggressor gets a 5-token bucket refilling at 1/s: a burst of
  // 100 sheds ~95 of them. The victim has no quota.
  options.tenant_quotas["aggressor"] =
      TenantQuota{/*tokens_per_second=*/1.0, /*burst=*/5.0};
  BatchScheduler scheduler(engine->get(), options);

  RequestContext aggressor;
  aggressor.tenant_id = "aggressor";
  RequestContext victim;
  victim.tenant_id = "victim";
  std::vector<std::future<BatchScheduler::Result>> futures;
  // 10x overload: 100 aggressor submissions against 10 victim ones,
  // interleaved so the victim competes with the burst in real time.
  for (int i = 0; i < 100; ++i) {
    futures.push_back(
        scheduler.Submit({std::vector<double>(8, 0.1), {}, aggressor}));
    if (i % 10 == 0) {
      futures.push_back(
          scheduler.Submit({std::vector<double>(8, 0.2), {}, victim}));
    }
  }
  for (auto& future : futures) (void)future.get();
  scheduler.Drain();

  const TenantCounters noisy = scheduler.tenant_counters("aggressor");
  const TenantCounters quiet = scheduler.tenant_counters("victim");
  EXPECT_EQ(noisy.submitted, 100u);
  EXPECT_GE(noisy.shed, 90u);  // burst of 5 + trickle refill
  EXPECT_EQ(quiet.submitted, 10u);
  EXPECT_EQ(quiet.shed, 0u);  // the overload never touches the victim
  EXPECT_EQ(quiet.completed, 10u);
  // The victim's latency stays bounded while the aggressor floods: a
  // wildly generous ceiling that only breaks if isolation fails and
  // victim requests queue behind the full overload.
  EXPECT_GT(quiet.p99_seconds, 0.0);
  EXPECT_LT(quiet.p99_seconds, 5.0);
  // Per-tenant partition invariant.
  EXPECT_EQ(noisy.shed + noisy.expired + noisy.completed, noisy.submitted);
  EXPECT_EQ(quiet.shed + quiet.expired + quiet.completed, quiet.submitted);
  // Both tenants are enumerable and mirrored in the registry.
  const auto tenants = scheduler.tenants();
  EXPECT_NE(std::find(tenants.begin(), tenants.end(), "aggressor"),
            tenants.end());
  EXPECT_NE(std::find(tenants.begin(), tenants.end(), "victim"),
            tenants.end());
  EXPECT_GE(MetricsRegistry::Global()
                .GetCounter("serve.qos.aggressor.shed")
                ->Value(),
            noisy.shed);
}

TEST(QosTest, InteractiveLaneOvertakesEarlierBatchTraffic) {
  Rng rng(62);
  const auto engine = Engine::Create(SmallSpreadData(200, 8, &rng));
  ASSERT_TRUE(engine.ok());
  RecordingEngine recorder(engine->get());
  BatchSchedulerOptions options;
  // Inline pool: the recorded order (batched calls record their rows
  // in row order) IS the dispatch order, deterministically.
  options.num_threads = 0;
  options.max_batch = 2;
  BatchScheduler scheduler(&recorder, options);

  scheduler.Pause();
  RequestContext batch_ctx;
  batch_ctx.priority = RequestPriority::kBatch;
  RequestContext interactive_ctx;
  interactive_ctx.priority = RequestPriority::kInteractive;
  std::vector<std::future<BatchScheduler::Result>> futures;
  // Four batch-priority requests enqueue FIRST (markers 1..4), then two
  // interactive ones (markers 5, 6).
  for (int marker = 1; marker <= 4; ++marker) {
    std::vector<double> q(8, 0.1);
    q[0] = 0.01 * marker;
    futures.push_back(scheduler.Submit({q, {}, batch_ctx}));
  }
  for (int marker = 5; marker <= 6; ++marker) {
    std::vector<double> q(8, 0.1);
    q[0] = 0.01 * marker;
    futures.push_back(scheduler.Submit({q, {}, interactive_ctx}));
  }
  scheduler.Resume();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  scheduler.Drain();

  const std::vector<int> order = recorder.order();
  ASSERT_EQ(order.size(), 6u);
  // The first dispatched request is interactive, and every interactive
  // request runs before the batch lane's tail (markers 3 and 4) —
  // later-arriving high-priority traffic overtook the earlier batch
  // queue under weighted dispatch.
  EXPECT_EQ(order.front(), 5);
  const auto pos = [&](int marker) {
    return std::find(order.begin(), order.end(), marker) - order.begin();
  };
  EXPECT_LT(pos(5), pos(3));
  EXPECT_LT(pos(5), pos(4));
  EXPECT_LT(pos(6), pos(3));
  EXPECT_LT(pos(6), pos(4));
}

TEST(QosTest, FillLevelAdmissionShedsLowPriorityFirst) {
  Rng rng(63);
  const auto engine = Engine::Create(SmallSpreadData(200, 8, &rng));
  ASSERT_TRUE(engine.ok());
  BatchSchedulerOptions options;
  options.num_threads = 0;
  options.max_queue = 12;  // kBatch sheds from 6 queued (half the queue)
  BatchScheduler scheduler(engine->get(), options);

  scheduler.Pause();  // everything queues; fill level climbs
  RequestContext batch_ctx;
  batch_ctx.priority = RequestPriority::kBatch;
  RequestContext interactive_ctx;
  interactive_ctx.priority = RequestPriority::kInteractive;
  std::vector<std::future<BatchScheduler::Result>> batch_futures;
  std::vector<std::future<BatchScheduler::Result>> interactive_futures;
  for (int i = 0; i < 10; ++i) {
    batch_futures.push_back(
        scheduler.Submit({std::vector<double>(8, 0.1), {}, batch_ctx}));
  }
  for (int i = 0; i < 6; ++i) {
    interactive_futures.push_back(scheduler.Submit(
        {std::vector<double>(8, 0.1), {}, interactive_ctx}));
  }
  scheduler.Resume();
  std::size_t batch_shed = 0;
  for (auto& future : batch_futures) {
    const auto result = future.get();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      ++batch_shed;
    }
  }
  // The batch lane overflowed its fill bound (6 of 12) while every
  // interactive submission was admitted and served.
  EXPECT_GE(batch_shed, 4u);
  for (auto& future : interactive_futures) {
    EXPECT_TRUE(future.get().ok());
  }
  scheduler.Drain();
  const SchedulerCounters counters = scheduler.counters();
  EXPECT_EQ(counters.shed + counters.completed + counters.expired,
            counters.submitted);
}

}  // namespace
}  // namespace ips
