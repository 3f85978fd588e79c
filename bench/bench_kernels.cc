// Kernel benchmark: throughput of the dispatched linalg::kernels layer
// (dot, matvec, score_block, batched popcount) for the scalar and AVX2
// tables side by side, plus the headline batched-brute-force number the
// BatchQuery redesign is judged on: tiled BlockTopK over a 4096-query
// batch against the per-query scalar baseline (one ScalarOps dot per
// (row, query) pair, per-query partial sort — the pre-batching shape).
// Writes BENCH_kernels.json.
//
// Gates: the tiled and baseline answers agree, and with the AVX2 table
// active the tiled batched path is at least 4x the per-query scalar
// baseline. Under IPS_FORCE_SCALAR (or off x86) the speedup row is
// reported but not enforced: there the win is cache reuse alone, not
// cache reuse plus SIMD.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "rng/random.h"
#include "util/table.h"
#include "util/timer.h"

namespace ips {
namespace {

constexpr std::size_t kHeadlineRows = 4096;
constexpr std::size_t kHeadlineQueries = 4096;
constexpr std::size_t kHeadlineDim = 128;
constexpr std::size_t kHeadlineK = 10;

struct KernelRate {
  std::string kernel;
  std::size_t n = 0;
  double scalar_gflops = 0.0;
  double avx2_gflops = 0.0;  // 0 when AVX2 is unavailable
};

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (double& v : out.Row(i)) v = rng->NextGaussian();
  }
  return out;
}

// GFLOP/s of `ops.dot` on length-n vectors (2 flops per element).
double DotRate(const kernels::KernelOps& ops, std::size_t n, Rng* rng) {
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng->NextGaussian();
    y[i] = rng->NextGaussian();
  }
  const std::size_t iters = std::max<std::size_t>(1, (1u << 27) / n);
  double sink = 0.0;
  sink += ops.dot(x.data(), y.data(), n);  // warm
  WallTimer timer;
  for (std::size_t it = 0; it < iters; ++it) {
    sink += ops.dot(x.data(), y.data(), n);
  }
  const double seconds = timer.Seconds();
  if (sink == 12345.6789) std::abort();  // defeat dead-code elimination
  return 2.0 * static_cast<double>(n * iters) / seconds * 1e-9;
}

// GFLOP/s of `ops.matvec` over a rows x cols matrix.
double MatVecRate(const kernels::KernelOps& ops, std::size_t rows,
                  std::size_t cols, Rng* rng) {
  const Matrix data = RandomMatrix(rows, cols, rng);
  std::vector<double> q(cols), out(rows);
  for (double& v : q) v = rng->NextGaussian();
  const std::size_t iters = std::max<std::size_t>(1, (1u << 25) / (rows * cols));
  ops.matvec(data.Row(0).data(), rows, cols, q.data(), out.data());  // warm
  WallTimer timer;
  for (std::size_t it = 0; it < iters; ++it) {
    ops.matvec(data.Row(0).data(), rows, cols, q.data(), out.data());
  }
  const double seconds = timer.Seconds();
  return 2.0 * static_cast<double>(rows * cols * iters) / seconds * 1e-9;
}

// GFLOP/s of `ops.score_block` on a 64-row x 8-query tile (the shape
// BlockTopK feeds it).
double ScoreBlockRate(const kernels::KernelOps& ops, std::size_t cols,
                      Rng* rng) {
  constexpr std::size_t kRows = 64, kQ = 8;
  const Matrix data = RandomMatrix(kRows, cols, rng);
  const Matrix queries = RandomMatrix(kQ, cols, rng);
  std::vector<double> out(kRows * kQ);
  const std::size_t work = kRows * kQ * cols;
  const std::size_t iters = std::max<std::size_t>(1, (1u << 27) / work);
  ops.score_block(data.Row(0).data(), kRows, cols, queries.Row(0).data(), kQ,
                  cols, out.data(), kRows);  // warm
  WallTimer timer;
  for (std::size_t it = 0; it < iters; ++it) {
    ops.score_block(data.Row(0).data(), kRows, cols, queries.Row(0).data(),
                    kQ, cols, out.data(), kRows);
  }
  const double seconds = timer.Seconds();
  return 2.0 * static_cast<double>(work * iters) / seconds * 1e-9;
}

KernelRate MeasureKernel(const std::string& name, std::size_t n, Rng* rng,
                         double (*measure)(const kernels::KernelOps&,
                                           std::size_t, Rng*)) {
  KernelRate rate;
  rate.kernel = name;
  rate.n = n;
  rate.scalar_gflops = measure(kernels::ScalarOps(), n, rng);
  if (kernels::Avx2Available()) {
    rate.avx2_gflops = measure(kernels::Avx2Ops(), n, rng);
  }
  return rate;
}

// Billions of packed {0,1} bit-products per second via AndPopcountMany.
double PopcountRate(Rng* rng) {
  constexpr std::size_t kRows = 4096, kWords = 4;  // 256-bit rows
  std::vector<std::uint64_t> rows(kRows * kWords);
  std::vector<std::uint64_t> q(kWords);
  for (auto& w : rows) w = rng->NextUint64();
  for (auto& w : q) w = rng->NextUint64();
  std::vector<std::uint32_t> out(kRows);
  constexpr std::size_t kIters = 4096;
  kernels::AndPopcountMany(q.data(), rows.data(), kWords, kRows, out.data());
  WallTimer timer;
  for (std::size_t it = 0; it < kIters; ++it) {
    kernels::AndPopcountMany(q.data(), rows.data(), kWords, kRows,
                             out.data());
  }
  const double seconds = timer.Seconds();
  return static_cast<double>(kRows * kWords * 64 * kIters) / seconds * 1e-9;
}

// The pre-batching per-query shape: for every query, one scalar dot per
// data row into a materialized score vector, then a top-k partial sort
// in RanksBefore order (score desc, index asc).
std::vector<std::vector<SearchMatch>> PerQueryScalarBaseline(
    const Matrix& data, const Matrix& queries, std::size_t k) {
  const kernels::KernelOps& ops = kernels::ScalarOps();
  std::vector<std::vector<SearchMatch>> out(queries.rows());
  std::vector<SearchMatch> scored(data.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const double* q = queries.Row(qi).data();
    for (std::size_t r = 0; r < data.rows(); ++r) {
      scored[r].index = r;
      scored[r].value = ops.dot(data.Row(r).data(), q, data.cols());
    }
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                      RanksBefore);
    out[qi].assign(scored.begin(), scored.begin() + k);
  }
  return out;
}

// The headline: BlockTopK with the active table against the per-query
// scalar baseline.
void MeasureHeadline(Rng* rng, BenchReport& report) {
  std::cout << "headline: " << kHeadlineRows << " rows x "
            << kHeadlineQueries << " queries, dim " << kHeadlineDim
            << ", k=" << kHeadlineK << " (active ISA: "
            << kernels::ActiveIsaName() << ")\n";
  const Matrix data = RandomMatrix(kHeadlineRows, kHeadlineDim, rng);
  const Matrix queries = RandomMatrix(kHeadlineQueries, kHeadlineDim, rng);

  WallTimer timer;
  const auto baseline =
      PerQueryScalarBaseline(data, queries, kHeadlineK);
  const double baseline_ms = timer.Millis();

  timer.Restart();
  std::vector<kernels::TopKHeap> heaps(kHeadlineQueries,
                                       kernels::TopKHeap(kHeadlineK));
  kernels::BlockTopK(data, queries, /*absolute=*/false, heaps);
  std::vector<std::vector<SearchMatch>> tiled(kHeadlineQueries);
  for (std::size_t qi = 0; qi < kHeadlineQueries; ++qi) {
    tiled[qi] = heaps[qi].TakeSorted();
  }
  const double tiled_ms = timer.Millis();

  const double speedup = tiled_ms > 0.0 ? baseline_ms / tiled_ms : 0.0;
  bool agree = true;
  for (std::size_t qi = 0; qi < kHeadlineQueries; ++qi) {
    for (std::size_t j = 0; j < kHeadlineK; ++j) {
      if (tiled[qi][j].index != baseline[qi][j].index) agree = false;
    }
  }
  std::cout << "per-query scalar baseline: " << FormatFixed(baseline_ms, 1)
            << "ms, tiled BlockTopK: " << FormatFixed(tiled_ms, 1)
            << "ms, speedup " << FormatFixed(speedup, 2) << "x, results "
            << (agree ? "agree" : "DISAGREE") << "\n";
  JsonWriter& json = report.json();
  json.Key("batched_topk").BeginObject();
  json.Key("rows").Uint(kHeadlineRows);
  json.Key("queries").Uint(kHeadlineQueries);
  json.Key("dim").Uint(kHeadlineDim);
  json.Key("k").Uint(kHeadlineK);
  json.Key("per_query_scalar_ms").Double(baseline_ms);
  json.Key("tiled_ms").Double(tiled_ms);
  json.Key("speedup").Double(speedup);
  json.Key("results_agree").Bool(agree);
  json.EndObject();
  report.Holds("batched_topk.results_agree", agree);
  report.AtLeast("batched_topk.speedup", speedup, 4.0,
                 /*enforced=*/std::string(kernels::ActiveIsaName()) == "avx2");
}

int Run() {
  BenchReport report("kernels");
  Rng rng(2026);

  std::vector<KernelRate> rates;
  rates.push_back(MeasureKernel("dot", 128, &rng, DotRate));
  rates.push_back(MeasureKernel("dot", 1024, &rng, DotRate));
  rates.push_back(MeasureKernel(
      "matvec", 128, &rng,
      [](const kernels::KernelOps& ops, std::size_t cols, Rng* r) {
        return MatVecRate(ops, 2048, cols, r);
      }));
  rates.push_back(MeasureKernel("score_block", 128, &rng, ScoreBlockRate));

  TablePrinter table({"kernel", "n", "scalar GFLOP/s", "avx2 GFLOP/s"});
  JsonWriter& json = report.json();
  json.Key("rates").BeginArray();
  for (const KernelRate& rate : rates) {
    table.AddRow({rate.kernel, Format(rate.n),
                  FormatFixed(rate.scalar_gflops, 2),
                  rate.avx2_gflops > 0.0 ? FormatFixed(rate.avx2_gflops, 2)
                                         : std::string("-")});
    json.BeginObject().Key("kernel").String(rate.kernel);
    json.Key("n").Uint(rate.n);
    json.Key("scalar_gflops").Double(rate.scalar_gflops);
    json.Key("avx2_gflops").Double(rate.avx2_gflops);
    json.EndObject();
  }
  table.PrintMarkdown(std::cout);

  const double popcount_gbits = PopcountRate(&rng);
  std::cout << "popcount: " << FormatFixed(popcount_gbits, 1)
            << " Gbit-products/s\n\n";
  json.EndArray().Key("popcount_gbits_per_s").Double(popcount_gbits);

  MeasureHeadline(&rng, report);
  return report.Finish();
}

}  // namespace
}  // namespace ips

int main() { return ips::Run(); }
