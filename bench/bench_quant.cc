// Quantized two-stage scoring benchmark (DESIGN.md §13): exact brute
// force against the int8 quantized-rerank path on a small-norm-spread
// workload (unit-ball Gaussian) and a large-norm-spread workload (Zipf
// latent factors, the recommender shape where quantization shines).
// The survivor budget is swept, producing a throughput/recall curve;
// results land in BENCH_quant.json.
//
// Acceptance gate: on the large-norm-spread workload the quantized
// path must reach >= 2x the exact brute-force throughput at >= 0.95
// mean top-k recall for at least one survivor budget.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/dataset.h"
#include "core/query.h"
#include "core/top_k.h"
#include "linalg/matrix.h"
#include "linalg/quantized.h"
#include "rng/random.h"
#include "util/table.h"
#include "util/timer.h"

namespace ips {
namespace {

constexpr std::size_t kN = 8000;
constexpr std::size_t kDim = 64;
constexpr std::size_t kQueries = 200;
constexpr std::size_t kK = 10;
constexpr int kReps = 3;  // timing repetitions; best-of to damp jitter

// Exact ground-truth top-k for every query (also the recall denominator).
std::vector<std::vector<SearchMatch>> GroundTruth(const Matrix& data,
                                                  const Matrix& queries) {
  std::vector<std::vector<SearchMatch>> truth;
  truth.reserve(queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    truth.push_back(TopKBruteForce(data, queries.Row(qi), kK, true));
  }
  return truth;
}

double MeanRecall(const std::vector<std::vector<SearchMatch>>& truth,
                  const std::vector<std::vector<SearchMatch>>& got) {
  std::size_t hits = 0;
  std::size_t total = 0;
  for (std::size_t qi = 0; qi < truth.size(); ++qi) {
    total += truth[qi].size();
    hits += TopKHits(truth[qi], got[qi]);
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

// Times `run` over every query, best-of-kReps, returning qps and the
// answers of the last rep.
template <typename Fn>
double TimeLoop(const Matrix& queries, Fn run,
                std::vector<std::vector<SearchMatch>>* answers) {
  double best_seconds = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    answers->clear();
    answers->reserve(queries.rows());
    WallTimer timer;
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      answers->push_back(run(queries.Row(qi)));
    }
    best_seconds = std::min(best_seconds, timer.Seconds());
  }
  return best_seconds > 0.0
             ? static_cast<double>(queries.rows()) / best_seconds
             : 0.0;
}

// Sweeps the survivor budget on one workload, writes its element of
// "workloads" (one mode's throughput/recall curve; speedup is against
// the exact scan on the same workload), and returns the best speedup
// any budget reaches at >= 0.95 recall.
double RunWorkload(const std::string& name, const Matrix& data, Rng* rng,
                   JsonWriter& json) {
  std::cout << "=== workload: " << name << " (n=" << kN << ", dim=" << kDim
            << ", " << kQueries << " queries, k=" << kK << ") ===\n";
  Matrix queries(kQueries, kDim);
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    for (std::size_t j = 0; j < kDim; ++j) {
      queries.At(qi, j) = rng->NextGaussian();
    }
  }
  const auto truth = GroundTruth(data, queries);

  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);

  QueryOptions exact_options;
  exact_options.k = kK;
  std::vector<std::vector<SearchMatch>> answers;
  const double exact_qps = TimeLoop(
      queries,
      [&](std::span<const double> q) {
        return QueryBruteForce(data, q, exact_options);
      },
      &answers);
  std::cout << "exact: " << FormatFixed(exact_qps, 1) << " qps\n";

  // Survivor-budget sweep: 0 = the default policy (multiplier/floor),
  // then explicit caps through candidate_budget.
  const std::size_t budgets[] = {0, 20, 40, 80, 160, 320};
  const std::string mode = "quantized_rerank";

  TablePrinter table({"mode", "budget", "qps", "recall", "speedup",
                      "survivors"});
  json.BeginObject().Key("name").String(name);
  json.Key("exact_qps").Double(exact_qps);
  json.Key("modes").BeginArray();
  json.BeginObject().Key("name").String(mode);
  json.Key("points").BeginArray();
  double best_speedup = 0.0;
  for (const std::size_t budget : budgets) {
    QueryOptions options;
    options.k = kK;
    options.candidate_budget = budget;
    options.precision = QueryPrecision::kQuantizedRerank;
    std::size_t survivor_sum = 0;
    const double qps = TimeLoop(
        queries,
        [&](std::span<const double> q) {
          QueryStats stats;
          auto matches = QueryQuantizedRerank(data, qdata, q, options, &stats);
          survivor_sum += stats.rerank_exact_dots;
          return matches;
        },
        &answers);
    const double recall = MeanRecall(truth, answers);
    const double speedup = exact_qps > 0.0 ? qps / exact_qps : 0.0;
    const double mean_survivors = static_cast<double>(survivor_sum) /
                                  static_cast<double>(kReps * kQueries);
    if (recall >= 0.95) best_speedup = std::max(best_speedup, speedup);
    table.AddRow({mode,
                  budget == 0 ? std::string("default")
                              : std::to_string(budget),
                  FormatFixed(qps, 1), FormatFixed(recall, 3),
                  FormatFixed(speedup, 2), FormatFixed(mean_survivors, 1)});
    json.BeginObject().Key("budget").Uint(budget);
    json.Key("qps").Double(qps);
    json.Key("recall").Double(recall);
    json.Key("speedup").Double(speedup);
    json.Key("mean_survivors").Double(mean_survivors);
    json.EndObject();
  }
  json.EndArray().EndObject().EndArray().EndObject();
  table.PrintMarkdown(std::cout);
  std::cout << "\n";
  return best_speedup;
}

int Run() {
  BenchReport report("quant");
  JsonWriter& json = report.json();
  Rng rng(2026);
  json.Key("n").Uint(kN);
  json.Key("dim").Uint(kDim);
  json.Key("queries").Uint(kQueries);
  json.Key("k").Uint(kK);
  json.Key("workloads").BeginArray();
  // Only the large-norm-spread workload is gated (see the file comment).
  RunWorkload("small_norm_spread",
              MakeUnitBallGaussian(kN, kDim, /*min_norm=*/0.9, &rng), &rng,
              json);
  const double best_speedup = RunWorkload(
      "large_norm_spread",
      MakeLatentFactorVectors(kN, kDim, /*skew=*/1.0, &rng), &rng, json);
  json.EndArray();
  report.AtLeast("large_norm_spread.speedup_at_recall_0.95", best_speedup,
                 2.0);
  return report.Finish();
}

}  // namespace
}  // namespace ips

int main() { return ips::Run(); }
