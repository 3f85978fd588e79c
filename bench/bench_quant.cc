// Quantized two-stage scoring benchmark (DESIGN.md §13): exact brute
// force against the int8 quantized-rerank path on a small-norm-spread
// workload (unit-ball Gaussian) and a large-norm-spread workload (Zipf
// latent factors, the recommender shape where quantization shines).
// The survivor budget is swept, producing a throughput/recall curve;
// results land in BENCH_quant.json.
//
// Acceptance gate (ISSUE 8): on the large-norm-spread workload the
// quantized path must reach >= 2x the exact brute-force throughput at
// >= 0.95 mean top-k recall for at least one survivor budget.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/query.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/quantized.h"
#include "rng/random.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ips {
namespace {

constexpr std::size_t kN = 8000;
constexpr std::size_t kDim = 64;
constexpr std::size_t kQueries = 200;
constexpr std::size_t kK = 10;
constexpr int kReps = 3;  // timing repetitions; best-of to damp jitter

// One measured point of a mode's throughput/recall curve.
struct CurvePoint {
  std::size_t budget = 0;  // survivor budget (0 = the mode's default policy)
  double qps = 0.0;
  double recall = 0.0;
  double speedup = 0.0;       // vs the exact scan on the same workload
  double mean_survivors = 0.0;
};

struct ModeResult {
  std::string name;
  std::vector<CurvePoint> points;
};

struct WorkloadResult {
  std::string name;
  double exact_qps = 0.0;
  std::vector<ModeResult> modes;
  bool gated = false;      // whether the 2x/0.95 gate applies here
  bool gate_pass = false;
};

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

WorkloadResult RunWorkload(const std::string& name, const Matrix& data,
                           bool gated, Rng* rng) {
  std::cout << "=== workload: " << name << " (n=" << kN << ", dim=" << kDim
            << ", " << kQueries << " queries, k=" << kK << ", isa "
            << kernels::ActiveIsaName() << ") ===\n";
  WorkloadResult result;
  result.name = name;
  result.gated = gated;

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
  result.exact_qps = TimeLoop(
      queries,
      [&](std::span<const double> q) {
        return QueryBruteForce(data, q, exact_options);
      },
      &answers);
  std::cout << "exact: " << FormatFixed(result.exact_qps, 1) << " qps\n";

  // Survivor-budget sweep: 0 = the default policy (multiplier/floor),
  // then explicit caps through candidate_budget.
  const std::size_t budgets[] = {0, 20, 40, 80, 160, 320};

  TablePrinter table({"mode", "budget", "qps", "recall", "speedup",
                      "survivors"});
  ModeResult mode;
  mode.name = "quantized_rerank";
  for (const std::size_t budget : budgets) {
    QueryOptions options;
    options.k = kK;
    options.candidate_budget = budget;
    options.precision = QueryPrecision::kQuantizedRerank;
    CurvePoint point;
    point.budget = budget;
    std::size_t survivor_sum = 0;
    point.qps = TimeLoop(
        queries,
        [&](std::span<const double> q) {
          QueryStats stats;
          auto matches = QueryQuantizedRerank(data, qdata, q, options, &stats);
          survivor_sum += stats.rerank_exact_dots;
          return matches;
        },
        &answers);
    point.recall = MeanRecall(truth, answers);
    point.speedup =
        result.exact_qps > 0.0 ? point.qps / result.exact_qps : 0.0;
    point.mean_survivors = static_cast<double>(survivor_sum) /
                           static_cast<double>(kReps * kQueries);
    table.AddRow({mode.name,
                  budget == 0 ? std::string("default")
                              : std::to_string(budget),
                  FormatFixed(point.qps, 1), FormatFixed(point.recall, 3),
                  FormatFixed(point.speedup, 2),
                  FormatFixed(point.mean_survivors, 1)});
    mode.points.push_back(point);
  }
  result.modes.push_back(std::move(mode));
  table.PrintMarkdown(std::cout);

  if (gated) {
    for (const auto& point : result.modes.front().points) {
      if (point.speedup >= 2.0 && point.recall >= 0.95) {
        result.gate_pass = true;
        break;
      }
    }
    std::cout << "gate (quantized >= 2x at >= 0.95 recall): "
              << (result.gate_pass ? "pass" : "FAIL") << "\n";
  }
  std::cout << "\n";
  return result;
}

void WriteJson(const std::vector<WorkloadResult>& workloads,
               const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"quant\",\n  \"n\": " << kN
      << ",\n  \"dim\": " << kDim << ",\n  \"queries\": " << kQueries
      << ",\n  \"k\": " << kK << ",\n  \"isa\": \""
      << kernels::ActiveIsaName() << "\",\n  \"hardware_threads\": "
      << ThreadPool::DefaultThreadCount() << ",\n  \"workloads\": [\n";
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadResult& wl = workloads[w];
    out << "    {\n      \"name\": \"" << wl.name << "\",\n"
        << "      \"exact_qps\": " << wl.exact_qps << ",\n"
        << "      \"gated\": " << (wl.gated ? "true" : "false") << ",\n"
        << "      \"gate_pass\": " << (wl.gate_pass ? "true" : "false")
        << ",\n      \"modes\": [\n";
    for (std::size_t m = 0; m < wl.modes.size(); ++m) {
      const ModeResult& mode = wl.modes[m];
      out << "        {\"name\": \"" << mode.name << "\", \"points\": [\n";
      for (std::size_t p = 0; p < mode.points.size(); ++p) {
        const CurvePoint& point = mode.points[p];
        out << "          {\"budget\": " << point.budget
            << ", \"qps\": " << point.qps << ", \"recall\": " << point.recall
            << ", \"speedup\": " << point.speedup
            << ", \"mean_survivors\": " << point.mean_survivors << "}"
            << (p + 1 < mode.points.size() ? "," : "") << "\n";
      }
      out << "        ]}" << (m + 1 < wl.modes.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (w + 1 < workloads.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int Run() {
  Rng rng(2026);
  std::vector<WorkloadResult> workloads;
  workloads.push_back(RunWorkload(
      "small_norm_spread",
      MakeUnitBallGaussian(kN, kDim, /*min_norm=*/0.9, &rng),
      /*gated=*/false, &rng));
  workloads.push_back(RunWorkload(
      "large_norm_spread",
      MakeLatentFactorVectors(kN, kDim, /*skew=*/1.0, &rng),
      /*gated=*/true, &rng));

  WriteJson(workloads, "BENCH_quant.json");
  std::cout << "wrote BENCH_quant.json\n";

  for (const auto& wl : workloads) {
    if (wl.gated && !wl.gate_pass) {
      std::cerr << "FAIL: quantized path never reached 2x exact throughput "
                   "at 0.95 recall on "
                << wl.name << "\n";
      return 1;
    }
  }
  std::cout << "OK: quantized two-stage scoring passes the 2x / 0.95 gate\n";
  return 0;
}

}  // namespace
}  // namespace ips

int main() { return ips::Run(); }
