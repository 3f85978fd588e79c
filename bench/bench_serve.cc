// Serving benchmark: the planner against every fixed single-algorithm
// policy on two mixed-recall-target workloads, batched against
// per-query engine execution, sharded scatter-gather, straggler
// hedging, the QoS section, and the overhead of the observability
// layer (instrumented QueryBruteForce vs the plain TopKBruteForce
// baseline). Writes BENCH_serve.json, embedding the key
// process-registry counters alongside the section results, and gates
// every section. Latency under load belongs to the open-loop serve
// workloads of bench/e2e, not to this bench.
//
// The headline claim is that the per-request planner beats
// the best fixed algorithm that still meets every recall target --
// fewer exact dot products at equal (or better) recall -- on at least
// one workload. With mixed targets (0.7 / 0.9 / 1.0), a fixed
// approximate policy misses the exact-recall requests while fixed brute
// force overpays for the cheap ones, so the planner wins by routing.

#include <array>
#include <cmath>
#include <cstdlib>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "core/dataset.h"
#include "core/query.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "serve/batch_scheduler.h"
#include "serve/engine.h"
#include "serve/query_engine.h"
#include "serve/request.h"
#include "serve/sharded_engine.h"
#include "util/failpoint.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ips {
namespace {

constexpr std::size_t kN = 4000;
constexpr std::size_t kDim = 24;
constexpr std::size_t kQueries = 300;
constexpr std::size_t kK = 5;

struct PolicyResult {
  std::string name;
  double recall_mean = 0.0;
  double targets_met_fraction = 0.0;
  std::size_t dot_products_total = 0;
  std::size_t answered = 0;
  bool meets_all_targets = false;
  /// Answered requests per path, indexed by QueryAlgo.
  std::array<std::size_t, kNumQueryAlgos> selection{};
};

// The recall target of request i: a fixed 0.7/0.9/1.0 rotation.
double TargetFor(std::size_t i) {
  switch (i % 3) {
    case 0: return 0.7;
    case 1: return 0.9;
    default: return 1.0;
  }
}

// The request shape of request i: three quarters signed top-5 (the
// workload of PRs 2-7), one quarter unsigned argmax (the recommender
// shape the §4.3 sketch answers natively). Mixing shapes is what lets
// the planner's (sketch, argmax) variant surface — an all-signed
// workload never routes there.
QueryOptions RequestFor(std::size_t i) {
  QueryOptions request;
  request.recall_target = TargetFor(i);
  if (i % 4 == 3) {
    request.k = 1;
    request.is_signed = false;
  } else {
    request.k = kK;
  }
  return request;
}

// Runs every request of the workload through `engine` under one policy
// and scores recall per request against exact ground truth. `forced`
// empty = planner routing; `precision` kAuto = the path's native mode.
PolicyResult ScoreStream(const Engine& engine, const Matrix& data,
                         const Matrix& queries, const std::string& name,
                         std::optional<QueryAlgo> forced,
                         QueryPrecision precision) {
  PolicyResult result;
  result.name = name;
  double recall_sum = 0.0;
  std::size_t targets_met = 0;
  // Per-target-group recall: a recall target is a statistical contract,
  // so a policy satisfies target t when the *mean* recall over the
  // requests that asked for t reaches t.
  std::map<double, std::pair<double, std::size_t>> by_target;
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    QueryOptions request = RequestFor(qi);
    request.force_algorithm = forced;
    request.precision = precision;
    const auto exact = TopKBruteForce(data, queries.Row(qi), request.k,
                                      request.is_signed);
    const auto response = engine.Query({queries.Row(qi), request});
    if (!response.ok()) continue;  // forced path can't answer this request
    ++result.answered;
    result.dot_products_total += response->stats.dot_products;
    ++result.selection[static_cast<std::size_t>(response->stats.algorithm)];
    const double recall =
        static_cast<double>(TopKHits(exact, response->matches)) /
        static_cast<double>(exact.size());
    recall_sum += recall;
    auto& group = by_target[request.recall_target];
    group.first += recall;
    group.second += 1;
    if (recall >= request.recall_target - 1e-12) ++targets_met;
  }
  if (result.answered > 0) {
    result.recall_mean = recall_sum / static_cast<double>(result.answered);
  }
  result.targets_met_fraction =
      static_cast<double>(targets_met) / static_cast<double>(queries.rows());
  // A policy meets the workload's targets when it answered every
  // request and every target group's mean recall reaches its target.
  result.meets_all_targets = result.answered == queries.rows();
  for (const auto& [target, group] : by_target) {
    const double group_mean = group.first / static_cast<double>(group.second);
    if (group_mean < target - 1e-9) result.meets_all_targets = false;
  }
  return result;
}

PolicyResult RunPolicy(const Engine& engine, const Matrix& data,
                       const Matrix& queries, std::optional<QueryAlgo> forced) {
  const std::string name = forced.has_value()
                               ? std::string(QueryAlgoName(*forced))
                               : std::string("planner");
  return ScoreStream(engine, data, queries, name, forced,
                     QueryPrecision::kAuto);
}

// Prints the policies as a table and writes them as the section's
// "policies" array.
void ReportPolicies(const std::vector<PolicyResult>& policies,
                    JsonWriter& json) {
  TablePrinter table({"policy", "recall", "targets met", "dot products",
                      "meets all"});
  json.Key("policies").BeginArray();
  for (const PolicyResult& policy : policies) {
    table.AddRow({policy.name, FormatFixed(policy.recall_mean, 3),
                  FormatFixed(policy.targets_met_fraction, 3),
                  Format(policy.dot_products_total),
                  policy.meets_all_targets ? "yes" : "no"});
    json.BeginObject().Key("name").String(policy.name);
    json.Key("recall_mean").Double(policy.recall_mean);
    json.Key("targets_met_fraction").Double(policy.targets_met_fraction);
    json.Key("dot_products_total").Uint(policy.dot_products_total);
    json.Key("answered").Uint(policy.answered);
    json.Key("meets_all_targets").Bool(policy.meets_all_targets);
    json.EndObject();
  }
  json.EndArray();
  table.PrintMarkdown(std::cout);
}

// Runs the planner and every fixed algorithm over one workload, writes
// its element of "workloads", and returns whether the planner meets
// every target with strictly fewer dot products than the best fixed
// policy that also meets them.
bool RunWorkload(const std::string& name, const Matrix& data, Rng* rng,
                 JsonWriter& json) {
  std::cout << "=== workload: " << name << " ===\n";
  EngineOptions options;
  options.seed = 31;
  // kappa trades the sketch descent's approximation for cost
  // (n^(1 - 2/kappa) sketch rows per query): at the default 4.0 the
  // descent prices above the quantized brute scan and can never win.
  // 3.0 is the serving-tuned point — calibration still measures its
  // real recall, so the planner only routes to it where that recall
  // clears the request's target.
  options.sketch_params.kappa = 3.0;
  auto engine = Engine::Create(data, options);
  if (!engine.ok()) {
    std::cerr << "engine: " << engine.status().ToString() << "\n";
    std::exit(1);
  }
  // Build all indexes up front so policies compare serving cost only.
  for (QueryAlgo algo :
       {QueryAlgo::kBallTree, QueryAlgo::kLsh, QueryAlgo::kSketch}) {
    const Status built = (*engine)->EnsureIndex(algo);
    if (!built.ok()) {
      std::cerr << "build: " << built.ToString() << "\n";
      std::exit(1);
    }
  }

  Matrix queries(kQueries, kDim);
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    for (std::size_t j = 0; j < kDim; ++j) {
      queries.At(qi, j) = rng->NextGaussian();
    }
  }

  std::vector<PolicyResult> policies;  // [0] = planner
  policies.push_back(RunPolicy(**engine, data, queries, std::nullopt));
  for (QueryAlgo algo : {QueryAlgo::kBruteForce, QueryAlgo::kBallTree,
                         QueryAlgo::kLsh, QueryAlgo::kSketch}) {
    policies.push_back(RunPolicy(**engine, data, queries, algo));
  }
  // Brute force always meets every target, so a best fixed policy
  // exists.
  const PolicyResult& planner = policies.front();
  std::size_t best_fixed = std::numeric_limits<std::size_t>::max();
  for (std::size_t p = 1; p < policies.size(); ++p) {
    if (policies[p].meets_all_targets) {
      best_fixed = std::min(best_fixed, policies[p].dot_products_total);
    }
  }
  const bool planner_wins =
      planner.meets_all_targets && planner.dot_products_total < best_fixed;

  json.BeginObject().Key("name").String(name);
  json.Key("planner_selection").BeginObject();
  for (std::size_t a = 0; a < kNumQueryAlgos; ++a) {
    json.Key(QueryAlgoName(static_cast<QueryAlgo>(a)))
        .Uint(planner.selection[a]);
  }
  json.EndObject();
  ReportPolicies(policies, json);
  json.EndObject();
  std::cout << "planner " << (planner_wins ? "beats" : "does not beat")
            << " the best fixed policy (" << planner.dot_products_total
            << " vs " << best_fixed << " dot products)\n\n";
  return planner_wins;
}

// ---------------------------------------------------------------------
// Batched execution A/B: Engine::BatchQuery against the sequential
// path (one Engine::Query per request).
// ---------------------------------------------------------------------

void RunBatchedSection(Rng* rng, BenchReport& report) {
  constexpr std::size_t kBatchN = 4096;
  constexpr std::size_t kBatchDim = 64;
  constexpr std::size_t kBatchQueries = 256;
  std::cout << "=== batched execution (n=" << kBatchN << ", dim=" << kBatchDim
            << ", " << kBatchQueries << " queries) ===\n";
  const Matrix data =
      MakeUnitBallGaussian(kBatchN, kBatchDim, /*min_norm=*/0.3, rng);
  auto engine = Engine::Create(data);
  if (!engine.ok()) {
    std::cerr << "engine: " << engine.status().ToString() << "\n";
    std::exit(1);
  }
  const Status built = (*engine)->EnsureIndex(QueryAlgo::kBruteForce);
  if (!built.ok()) {
    std::cerr << "build: " << built.ToString() << "\n";
    std::exit(1);
  }
  Matrix queries(kBatchQueries, kBatchDim);
  for (std::size_t qi = 0; qi < kBatchQueries; ++qi) {
    for (std::size_t j = 0; j < kBatchDim; ++j) {
      queries.At(qi, j) = rng->NextGaussian();
    }
  }
  QueryOptions request;
  request.k = kK;
  // Force brute so both paths answer with identical exact recall and
  // the A/B measures execution alone, not planner routing.
  request.force_algorithm = QueryAlgo::kBruteForce;

  // Warm both paths (index pinned, metric cells, caches).
  if (!(*engine)->Query({queries.Row(0), request}).ok() ||
      !(*engine)->BatchQuery(queries, request, {}).ok()) {
    std::cerr << "warmup query failed\n";
    std::exit(1);
  }

  WallTimer timer;
  std::vector<QueryResult> sequential;
  sequential.reserve(kBatchQueries);
  for (std::size_t qi = 0; qi < kBatchQueries; ++qi) {
    auto response = (*engine)->Query({queries.Row(qi), request});
    if (!response.ok()) {
      std::cerr << "query: " << response.status().ToString() << "\n";
      std::exit(1);
    }
    sequential.push_back(*std::move(response));
  }
  const double sequential_ms = timer.Millis();

  timer.Restart();
  auto batched = (*engine)->BatchQuery(queries, request, {});
  const double batched_ms = timer.Millis();
  if (!batched.ok()) {
    std::cerr << "batch query: " << batched.status().ToString() << "\n";
    std::exit(1);
  }
  const double speedup = batched_ms > 0.0 ? sequential_ms / batched_ms : 0.0;
  bool agree = batched->size() == sequential.size();
  for (std::size_t qi = 0; agree && qi < sequential.size(); ++qi) {
    const auto& a = sequential[qi].matches;
    const auto& b = (*batched)[qi].matches;
    agree = a.size() == b.size();
    for (std::size_t j = 0; agree && j < a.size(); ++j) {
      agree = a[j].index == b[j].index;
    }
  }

  std::cout << "engine: sequential " << FormatFixed(sequential_ms, 1)
            << "ms, batched " << FormatFixed(batched_ms, 1) << "ms, speedup "
            << FormatFixed(speedup, 2) << "x, results "
            << (agree ? "agree" : "DISAGREE") << "\n\n";
  JsonWriter& json = report.json();
  json.Key("batched").BeginObject();
  json.Key("n").Uint(kBatchN);
  json.Key("dim").Uint(kBatchDim);
  json.Key("queries").Uint(kBatchQueries);
  json.Key("sequential_ms").Double(sequential_ms);
  json.Key("batched_ms").Double(batched_ms);
  json.Key("speedup").Double(speedup);
  json.Key("results_agree").Bool(agree);
  json.EndObject();
  // Engine::BatchQuery answers the workload at >= 2x the sequential
  // per-query path, with identical matches.
  report.Holds("batched.results_agree", agree);
  report.AtLeast("batched.speedup", speedup, 2.0);
}

// ---------------------------------------------------------------------
// Sharded scatter-gather: ShardedEngine at S=1 and S=4 against
// the single-Engine baseline on a forced-brute workload, plus the
// straggler-hedging A/B under an injected slow shard.
// ---------------------------------------------------------------------

// Sequential-loop qps of any QueryEngine, collecting the match indices
// of every answer so callers can cross-check determinism.
double SequentialQps(const QueryEngine& engine, const Matrix& queries,
                     const QueryOptions& request,
                     std::vector<std::vector<std::size_t>>* indices) {
  if (indices != nullptr) indices->clear();
  WallTimer timer;
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto response = engine.Query({queries.Row(qi), request});
    if (!response.ok()) {
      std::cerr << "sharded bench query: " << response.status().ToString()
                << "\n";
      std::exit(1);
    }
    if (indices != nullptr) {
      std::vector<std::size_t> row;
      row.reserve(response->matches.size());
      for (const auto& match : response->matches) row.push_back(match.index);
      indices->push_back(std::move(row));
    }
  }
  const double elapsed = timer.Seconds();
  return elapsed > 0.0 ? static_cast<double>(queries.rows()) / elapsed : 0.0;
}

void RunShardedSection(Rng* rng, BenchReport& report) {
  constexpr std::size_t kShardN = 8192;
  constexpr std::size_t kShardDim = 48;
  constexpr std::size_t kShardQueries = 128;
  std::cout << "=== sharded scatter-gather (n=" << kShardN << ", dim="
            << kShardDim << ", " << kShardQueries << " queries) ===\n";
  const Matrix data =
      MakeUnitBallGaussian(kShardN, kShardDim, /*min_norm=*/0.3, rng);
  Matrix queries(kShardQueries, kShardDim);
  for (std::size_t qi = 0; qi < kShardQueries; ++qi) {
    for (std::size_t j = 0; j < kShardDim; ++j) {
      queries.At(qi, j) = rng->NextGaussian();
    }
  }
  QueryOptions request;
  request.k = kK;
  // Forced brute: every policy answers exactly, so the comparison
  // isolates fan-out/merge cost from planner routing.
  request.force_algorithm = QueryAlgo::kBruteForce;

  auto baseline = Engine::Create(data);
  ShardedEngineOptions one_shard;
  one_shard.num_shards = 1;
  auto s1 = ShardedEngine::Create(data, one_shard);
  ShardedEngineOptions four_shards;
  four_shards.num_shards = 4;
  auto s4 = ShardedEngine::Create(data, four_shards);
  if (!baseline.ok() || !s1.ok() || !s4.ok()) {
    std::cerr << "sharded bench engine build failed\n";
    std::exit(1);
  }
  for (const Status& built : {(*baseline)->EnsureIndex(QueryAlgo::kBruteForce),
                              (*s1)->EnsureIndex(QueryAlgo::kBruteForce),
                              (*s4)->EnsureIndex(QueryAlgo::kBruteForce)}) {
    if (!built.ok()) {
      std::cerr << "sharded bench build: " << built.ToString() << "\n";
      std::exit(1);
    }
  }

  // Warm every path once (pool threads, metric cells).
  std::vector<std::vector<std::size_t>> baseline_indices;
  std::vector<std::vector<std::size_t>> sharded_indices;
  (void)SequentialQps(**baseline, queries, request, nullptr);
  (void)SequentialQps(**s4, queries, request, nullptr);

  const double baseline_qps =
      SequentialQps(**baseline, queries, request, &baseline_indices);
  const double s1_qps = SequentialQps(**s1, queries, request, nullptr);
  const double s4_qps =
      SequentialQps(**s4, queries, request, &sharded_indices);
  const double speedup_s4 = baseline_qps > 0.0 ? s4_qps / baseline_qps : 0.0;
  const bool agree = baseline_indices == sharded_indices;

  std::cout << "baseline " << FormatFixed(baseline_qps, 1) << " qps, S=1 "
            << FormatFixed(s1_qps, 1) << " qps, S=4 " << FormatFixed(s4_qps, 1)
            << " qps (speedup " << FormatFixed(speedup_s4, 2)
            << "x), results " << (agree ? "agree" : "DISAGREE") << "\n\n";
  JsonWriter& json = report.json();
  json.Key("sharded").BeginObject();
  json.Key("n").Uint(kShardN);
  json.Key("dim").Uint(kShardDim);
  json.Key("queries").Uint(kShardQueries);
  json.Key("baseline_qps").Double(baseline_qps);
  json.Key("s1_qps").Double(s1_qps);
  json.Key("s4_qps").Double(s4_qps);
  json.Key("speedup_s4").Double(speedup_s4);
  json.Key("results_agree").Bool(agree);
  json.EndObject();
  // The >= 3x scatter-gather speedup is a statement about parallel
  // hardware; on a serialized machine (< 4 hardware threads) the honest
  // gate is that the coordination layer (pool hop, budgets, breaker,
  // merge) keeps the sharded path within 2x of the baseline's cost.
  report.Holds("sharded.results_agree", agree);
  report.AtLeast("sharded.speedup_s4", speedup_s4,
                  ThreadPool::DefaultThreadCount() >= 4 ? 3.0 : 0.5);
}

// One timed pass of the hedging A/B: shard 0's primary path stalls
// 0.02 s (the "serve/shard/slow" failpoint) on every call; with hedging
// enabled the latency tracker predicts the budget miss after the warmup
// and detours through the forced-brute fallback.
void RunHedgeSection(Rng* rng, BenchReport& report) {
  constexpr std::size_t kHedgeN = 2048;
  constexpr std::size_t kHedgeDim = 32;
  constexpr std::size_t kWarmup = 32;
  constexpr std::size_t kHedgeQueries = 300;
  std::cout << "=== hedged requests (n=" << kHedgeN << ", dim=" << kHedgeDim
            << ", " << kHedgeQueries << " queries, slow shard 0) ===\n";
  const Matrix data =
      MakeUnitBallGaussian(kHedgeN, kHedgeDim, /*min_norm=*/0.3, rng);
  Matrix queries(kHedgeQueries, kHedgeDim);
  for (std::size_t qi = 0; qi < kHedgeQueries; ++qi) {
    for (std::size_t j = 0; j < kHedgeDim; ++j) {
      queries.At(qi, j) = rng->NextGaussian();
    }
  }
  QueryOptions request;
  request.k = kK;
  // Exact recall routes the planner to brute force without forcing the
  // algorithm (a forced path disables hedging by design).
  request.recall_target = 1.0;
  RequestContext context;
  context.deadline_seconds = 0.01;

  const auto run = [&](bool hedging, std::size_t* hedged,
                       std::size_t* partial) {
    ShardedEngineOptions options;
    options.num_shards = 4;
    options.hedge = hedging;
    auto engine = ShardedEngine::Create(data, options);
    if (!engine.ok() || !(*engine)->EnsureIndex(QueryAlgo::kBruteForce).ok()) {
      std::cerr << "hedge bench engine build failed\n";
      std::exit(1);
    }
    Failpoints::Arm("serve/shard/slow/0", Status::Internal("straggler"),
                    FireEvery{1});
    for (std::size_t qi = 0; qi < kWarmup; ++qi) {
      const auto response =
          (*engine)->Query({queries.Row(qi % queries.rows()), request, context});
      if (!response.ok()) {
        std::cerr << "hedge warmup: " << response.status().ToString() << "\n";
        std::exit(1);
      }
    }
    std::vector<double> latencies_ms;
    latencies_ms.reserve(kHedgeQueries);
    for (std::size_t qi = 0; qi < kHedgeQueries; ++qi) {
      WallTimer timer;
      const auto response = (*engine)->Query({queries.Row(qi), request, context});
      latencies_ms.push_back(timer.Millis());
      if (!response.ok()) {
        std::cerr << "hedge query: " << response.status().ToString() << "\n";
        std::exit(1);
      }
      if (hedged != nullptr) {
        *hedged += response->stats.metrics.Get("serve.shard.hedged");
      }
      if (partial != nullptr && response->partial) ++*partial;
    }
    Failpoints::Disarm("serve/shard/slow/0");
    return Summarize(std::move(latencies_ms)).p99;
  };

  std::size_t hedged_count = 0;
  std::size_t partial_count = 0;
  const double p99_unhedged_ms = run(false, nullptr, nullptr);
  const double p99_hedged_ms = run(true, &hedged_count, &partial_count);
  const double ratio =
      p99_hedged_ms > 0.0 ? p99_unhedged_ms / p99_hedged_ms : 0.0;

  std::cout << "p99 unhedged " << FormatFixed(p99_unhedged_ms, 2)
            << "ms, hedged " << FormatFixed(p99_hedged_ms, 2) << "ms, ratio "
            << FormatFixed(ratio, 2) << "x, " << hedged_count
            << " hedged calls, " << partial_count << " partial answers\n\n";
  JsonWriter& json = report.json();
  json.Key("hedge").BeginObject();
  json.Key("queries").Uint(kHedgeQueries);
  json.Key("p99_unhedged_ms").Double(p99_unhedged_ms);
  json.Key("p99_hedged_ms").Double(p99_hedged_ms);
  json.Key("ratio").Double(ratio);
  json.Key("hedged_count").Uint(hedged_count);
  json.Key("partial_count").Uint(partial_count);
  json.EndObject();
  // With a deterministic straggler on shard 0, hedging fires and cuts
  // tail latency by >= 2x.
  report.AtLeast("hedge.ratio", ratio, 2.0);
  report.AtLeast("hedge.hedged_count", hedged_count, 1);
}

// ---------------------------------------------------------------------
// QoS section. Two claims, both gated:
//   (a) The planner with its feedback loop on beats every fixed (algo,
//       precision) policy on a stream whose character shifts mid-run:
//       the first half queries the corpus's own distribution (exactly
//       what warmup calibration probed), the second half switches to
//       Gaussian queries where the calibrated recall curves are wrong.
//       Static calibration cannot see the shift; the shadow audits can.
//   (b) Per-tenant token buckets + priority lanes hold a victim
//       tenant's p99 under a 10x overload from an aggressor tenant.
// ---------------------------------------------------------------------

constexpr std::size_t kQosQueries = 320;
constexpr std::size_t kQosShift = 160;

// The shifting corpus. Rows [0, kQosTiesStart): latent-factor rows
// confined to the first 16 dims -- the "catalog" every in-distribution
// query ranks against, where top-k margins dwarf int8 quantization
// error. Rows [kQosTiesStart, kN): high-norm near-tie rows living in
// the last 8 dims -- 4 directions x 64 rows each, perturbed by kQosEta
// (below int8 resolution), so their relative order is invisible to the
// quantized scorer. In-distribution queries (corpus rows, zero in the
// last 8 dims) never score a near-tie row above the catalog, so warmup
// calibration and the pre-shift half see quantized re-rank behaving;
// post-shift Gaussian queries have energy in the last 8 dims, rank the
// near-tie rows on top, and quantized survivor selection starts
// dropping true top-k members. That is the shift the feedback loop
// exists for: no warmup calibration can price it, only live audits.
constexpr std::size_t kQosTiesStart = 3744;  // 117 full quantizer blocks
constexpr std::size_t kQosTieDirs = 4;
constexpr double kQosTieNorm = 8.0;
constexpr double kQosEta = 5e-4;

Matrix MakeQosCorpus(Rng* rng) {
  Matrix data(kN, kDim);
  for (std::size_t i = 0; i < kQosTiesStart; ++i) {
    const auto row = data.Row(i);
    for (std::size_t j = 0; j < 16; ++j) row[j] = rng->NextGaussian();
    kernels::NormalizeInPlace(row);
    kernels::ScaleInPlace(row, std::pow(static_cast<double>(i + 1), -1.0));
  }
  double dirs[kQosTieDirs][8];
  for (auto& dir : dirs) {
    double norm_sq = 0.0;
    for (double& v : dir) {
      v = rng->NextGaussian();
      norm_sq += v * v;
    }
    for (double& v : dir) v /= std::sqrt(norm_sq);
  }
  for (std::size_t i = kQosTiesStart; i < kN; ++i) {
    const auto row = data.Row(i);
    const auto& dir = dirs[(i - kQosTiesStart) % kQosTieDirs];
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < 8; ++j) {
      row[16 + j] = dir[j] + kQosEta * rng->NextGaussian();
      norm_sq += row[16 + j] * row[16 + j];
    }
    const double scale = kQosTieNorm / std::sqrt(norm_sq);
    for (std::size_t j = 0; j < 8; ++j) row[16 + j] *= scale;
  }
  return data;
}

// 10x overload: every victim (interactive) submission rides alongside
// ten aggressor (batch) submissions; the aggressor's token bucket and
// the weighted lanes must keep the victim whole.
void RunQosOverload(const Engine& engine, const Matrix& queries,
                    BenchReport& report) {
  constexpr std::size_t kVictims = 60;
  constexpr std::size_t kOverloadFactor = 10;
  constexpr double kVictimBoundMs = 250.0;

  BatchSchedulerOptions options;
  options.max_queue = 4096;
  TenantQuota aggressor_quota;
  aggressor_quota.tokens_per_second = 25.0;
  aggressor_quota.burst = 50.0;
  options.tenant_quotas["reports"] = aggressor_quota;
  BatchScheduler scheduler(&engine, options);

  QueryOptions request;
  request.k = kK;
  request.recall_target = 0.9;
  std::vector<std::future<BatchScheduler::Result>> futures;
  futures.reserve(kVictims * (kOverloadFactor + 1));
  for (std::size_t i = 0; i < kVictims; ++i) {
    for (std::size_t a = 0; a < kOverloadFactor; ++a) {
      RequestContext aggressor;
      aggressor.tenant_id = "reports";
      aggressor.priority = RequestPriority::kBatch;
      const auto row = queries.Row((i * kOverloadFactor + a) % queries.rows());
      futures.push_back(scheduler.Submit(
          {std::vector<double>(row.begin(), row.end()), request, aggressor}));
    }
    RequestContext victim;
    victim.tenant_id = "search";
    victim.priority = RequestPriority::kInteractive;
    const auto row = queries.Row(i % queries.rows());
    futures.push_back(scheduler.Submit(
        {std::vector<double>(row.begin(), row.end()), request, victim}));
  }
  for (auto& future : futures) (void)future.get();
  scheduler.Drain();

  const TenantCounters victim = scheduler.tenant_counters("search");
  const TenantCounters aggressor = scheduler.tenant_counters("reports");
  const double victim_p99_ms = victim.p99_seconds * 1e3;
  const bool partition_ok =
      victim.submitted == victim.completed + victim.shed + victim.expired &&
      aggressor.submitted ==
          aggressor.completed + aggressor.shed + aggressor.expired;
  const bool pass = victim.shed == 0 && victim.expired == 0 &&
                    victim.completed == kVictims &&
                    victim_p99_ms <= kVictimBoundMs && aggressor.shed > 0 &&
                    partition_ok;
  std::cout << "overload: victim " << victim.completed << "/"
            << victim.submitted << " completed, " << victim.shed
            << " shed, p99 " << FormatFixed(victim_p99_ms, 3) << "ms (bound "
            << FormatFixed(kVictimBoundMs, 0) << "ms); aggressor "
            << aggressor.shed << "/" << aggressor.submitted << " shed\n\n";
  JsonWriter& json = report.json();
  json.Key("overload").BeginObject();
  json.Key("victim_submitted").Uint(victim.submitted);
  json.Key("victim_completed").Uint(victim.completed);
  json.Key("victim_shed").Uint(victim.shed);
  json.Key("victim_p99_ms").Double(victim_p99_ms);
  json.Key("victim_p99_bound_ms").Double(kVictimBoundMs);
  json.Key("aggressor_submitted").Uint(aggressor.submitted);
  json.Key("aggressor_completed").Uint(aggressor.completed);
  json.Key("aggressor_shed").Uint(aggressor.shed);
  json.Key("partition_ok").Bool(partition_ok);
  json.Key("pass").Bool(pass);
  json.EndObject();
  report.Holds("qos.overload.pass", pass);
}

void RunQosSection(Rng* rng, BenchReport& report) {
  std::cout << "=== qos: adaptive planner + tenant isolation (n=" << kN
            << ", dim=" << kDim << ", " << kQosQueries
            << " queries, shift at " << kQosShift << ") ===\n";
  const Matrix data = MakeQosCorpus(rng);

  EngineOptions options;
  options.seed = 31;
  options.sketch_params.kappa = 3.0;
  // More warmup probes than the default 16: the corpus's near-tie
  // rows are a 6% minority, and the calibration must sample a few of
  // them so quantized re-rank starts with an honest (sub-1.0) recall
  // estimate instead of a lucky perfect score.
  options.probe_queries = 64;
  // Serving-tuned audit cadence: every 2nd planner-routed can-miss
  // answer is shadow-audited, so the loop adapts within a few
  // requests of the shift. The audit scans are billed to the
  // adaptive policy's dot products below -- the win is net of them.
  options.audit_every = 2;
  auto created = Engine::Create(data, options);
  if (!created.ok()) {
    std::cerr << "qos engine: " << created.status().ToString() << "\n";
    std::exit(1);
  }
  const std::unique_ptr<Engine> engine = std::move(created).value();
  for (QueryAlgo algo :
       {QueryAlgo::kBallTree, QueryAlgo::kLsh, QueryAlgo::kSketch}) {
    const Status built = engine->EnsureIndex(algo);
    if (!built.ok()) {
      std::cerr << "qos build: " << built.ToString() << "\n";
      std::exit(1);
    }
  }

  // The shifting stream: first half in-distribution (catalog rows --
  // the same distribution Calibrate probed, where the approximate
  // paths really deliver their calibrated recall), second half
  // Gaussian (which ranks the near-tie rows on top, where they do
  // not).
  Matrix queries(kQosQueries, kDim);
  for (std::size_t qi = 0; qi < kQosQueries; ++qi) {
    if (qi < kQosShift) {
      const auto row =
          data.Row(static_cast<std::size_t>(rng->NextBounded(kQosTiesStart)));
      std::copy(row.begin(), row.end(), queries.Row(qi).begin());
    } else {
      for (std::size_t j = 0; j < kDim; ++j) {
        queries.At(qi, j) = rng->NextGaussian();
      }
    }
  }

  std::vector<PolicyResult> policies;  // [0] = adaptive planner
  policies.push_back(ScoreStream(*engine, data, queries, "adaptive",
                                 std::nullopt, QueryPrecision::kAuto));
  const FeedbackCounters feedback = engine->planner().counters();

  // Every fixed (algo, precision) policy, on the same engine: forced
  // requests never plan or audit, so they leave the planner's live
  // state as the adaptive stream left it. Combinations an index
  // rejects (tree on unsigned requests, exact precision on the sketch
  // index, ...) answer fewer requests and are disqualified by the
  // answered == submitted requirement, which is the honest outcome
  // for a fixed policy that cannot serve the whole stream.
  const std::pair<QueryAlgo, QueryPrecision> kFixed[] = {
      {QueryAlgo::kBruteForce, QueryPrecision::kExact},
      {QueryAlgo::kBruteForce, QueryPrecision::kQuantizedRerank},
      {QueryAlgo::kBallTree, QueryPrecision::kExact},
      {QueryAlgo::kLsh, QueryPrecision::kExact},
      {QueryAlgo::kLsh, QueryPrecision::kQuantizedRerank},
      {QueryAlgo::kSketch, QueryPrecision::kExact},
  };
  for (const auto& [algo, precision] : kFixed) {
    const std::string name = std::string(QueryAlgoName(algo)) + "/" +
                             std::string(QueryPrecisionName(precision));
    policies.push_back(
        ScoreStream(*engine, data, queries, name, algo, precision));
  }

  // Gate (a): the adaptive planner meets every target group across the
  // shift and spends fewer exact dots (audit scans included) than every
  // fixed policy that also meets them. brute/exact always qualifies, so
  // the comparison set is never empty.
  const PolicyResult& adaptive = policies.front();
  bool adaptive_wins = adaptive.meets_all_targets;
  for (std::size_t p = 1; p < policies.size(); ++p) {
    if (policies[p].meets_all_targets &&
        policies[p].dot_products_total <= adaptive.dot_products_total) {
      adaptive_wins = false;
    }
  }

  JsonWriter& json = report.json();
  json.Key("qos").BeginObject();
  json.Key("queries").Uint(kQosQueries);
  json.Key("shift_at").Uint(kQosShift);
  ReportPolicies(policies, json);
  std::cout << "feedback: " << feedback.audits << " audits, "
            << feedback.evictions << " evictions, " << feedback.hedged
            << " hedged\n";
  json.Key("feedback").BeginObject();
  json.Key("audits").Uint(feedback.audits);
  json.Key("evictions").Uint(feedback.evictions);
  json.Key("hedged").Uint(feedback.hedged);
  json.EndObject().Key("adaptive_wins").Bool(adaptive_wins);
  report.Holds("qos.adaptive_wins", adaptive_wins);
  RunQosOverload(*engine, queries, report);
  json.EndObject();
}

// Acceptance gate for the observability layer: the instrumented
// brute-force query path (registry counters + stats, no trace) must
// stay within 3% of the plain uninstrumented scan. One timing cannot
// decide a 3% bar on a shared machine, so the ratio is the median over
// kObsPairs baseline/instrumented pairs, alternating which side runs
// first; the reported times are sums over every pair.
constexpr int kObsPairs = 9;

void MeasureObsOverhead(const Matrix& data, const Matrix& queries,
                        BenchReport& report) {
  constexpr int kReps = 8;
  QueryOptions options;
  options.k = kK;
  double sink = 0.0;
  // Warm both paths once: caches, thread-local metric cells.
  sink += TopKBruteForce(data, queries.Row(0), kK, true).front().value;
  sink += QueryBruteForce(data, queries.Row(0), options).front().value;
  const auto time_ms = [&](bool instrumented) {
    WallTimer timer;
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
        QueryStats stats;
        sink += (instrumented ? QueryBruteForce(data, queries.Row(qi),
                                                options, &stats)
                              : TopKBruteForce(data, queries.Row(qi), kK,
                                               true))
                    .front()
                    .value;
      }
    }
    return timer.Millis();
  };

  double baseline_total_ms = 0.0;
  double instrumented_total_ms = 0.0;
  std::vector<double> ratios;
  for (int pair = 0; pair < kObsPairs; ++pair) {
    const bool baseline_first = pair % 2 == 0;
    const double first_ms = time_ms(!baseline_first);
    const double second_ms = time_ms(baseline_first);
    const double baseline_ms = baseline_first ? first_ms : second_ms;
    const double instrumented_ms = baseline_first ? second_ms : first_ms;
    baseline_total_ms += baseline_ms;
    instrumented_total_ms += instrumented_ms;
    ratios.push_back(baseline_ms > 0.0 ? instrumented_ms / baseline_ms : 1.0);
  }
  if (sink == std::numeric_limits<double>::infinity()) std::abort();
  const double ratio = Summarize(std::move(ratios)).p50;

  std::cout << "obs overhead: baseline " << FormatFixed(baseline_total_ms, 1)
            << "ms, instrumented " << FormatFixed(instrumented_total_ms, 1)
            << "ms, median pair ratio " << FormatFixed(ratio, 4) << "\n\n";
  JsonWriter& json = report.json();
  json.Key("obs_overhead").BeginObject();
  json.Key("pairs").Uint(kObsPairs);
  json.Key("baseline_ms").Double(baseline_total_ms);
  json.Key("instrumented_ms").Double(instrumented_total_ms);
  json.Key("ratio").Double(ratio);
  json.EndObject();
  report.AtMost("obs_overhead.ratio", ratio, 1.03);
}

// Key process-registry counters accumulated over the whole run, so
// regression diffs can see how much work each answer path did.
void WriteRegistry(JsonWriter& json) {
  const char* const kCounters[] = {
      "serve.engine.requests",     "serve.engine.selected.brute",
      "serve.engine.selected.tree", "serve.engine.selected.lsh",
      "serve.engine.selected.sketch", "serve.scheduler.submitted",
      "serve.scheduler.completed", "serve.scheduler.shed",
      "serve.scheduler.expired",   "serve.scheduler.batches",
      "serve.shard.calls",         "serve.shard.failed",
      "serve.shard.skipped",       "serve.shard.retries",
      "serve.shard.hedged",        "serve.shard.queries",
      "serve.shard.partial",       "core.brute.queries",
      "tree.queries",              "lsh.tables.queries"};
  json.Key("registry").BeginObject();
  for (const char* name : kCounters) {
    json.Key(name).Uint(MetricsRegistry::Global().GetCounter(name)->Value());
  }
  json.EndObject();
}

int Run() {
  BenchReport report("serve");
  JsonWriter& json = report.json();
  Rng rng(2026);
  json.Key("n").Uint(kN);
  json.Key("dim").Uint(kDim);
  json.Key("queries").Uint(kQueries);
  json.Key("k").Uint(kK);
  json.Key("workloads").BeginArray();
  std::size_t workloads_won = 0;
  workloads_won += RunWorkload(
      "small_norm_spread",
      MakeUnitBallGaussian(kN, kDim, /*min_norm=*/0.9, &rng), &rng, json);
  workloads_won += RunWorkload(
      "large_norm_spread",
      MakeLatentFactorVectors(kN, kDim, /*skew=*/1.0, &rng), &rng, json);
  json.EndArray();
  report.AtLeast("planner.workloads_won", workloads_won, 1);

  RunBatchedSection(&rng, report);
  RunShardedSection(&rng, report);
  RunHedgeSection(&rng, report);
  RunQosSection(&rng, report);

  const Matrix overhead_data =
      MakeUnitBallGaussian(kN, kDim, /*min_norm=*/0.9, &rng);
  Matrix overhead_queries(kQueries, kDim);
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    for (std::size_t j = 0; j < kDim; ++j) {
      overhead_queries.At(qi, j) = rng.NextGaussian();
    }
  }
  MeasureObsOverhead(overhead_data, overhead_queries, report);
  WriteRegistry(json);
  return report.Finish();
}

}  // namespace
}  // namespace ips

int main() { return ips::Run(); }
