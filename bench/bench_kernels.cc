// Kernel benchmark: throughput of the dispatched linalg::kernels layer
// (dot, the row-lane matvec, batched popcount) for the scalar and AVX2
// tables side by side, plus the headline batched-brute-force number the
// BatchQuery redesign is judged on: tiled BlockTopK over a 4096-query
// batch against the per-query scalar baseline (one ScalarOps dot per
// (row, query) pair, per-query partial sort — the pre-batching shape).
// Writes BENCH_kernels.json.
//
// Gates: the tiled and baseline answers agree, and with the AVX2 table
// active the tiled batched path is at least 4x the per-query scalar
// baseline, by the median ratio of kHeadlinePairs alternating pairs.
// Under IPS_FORCE_SCALAR (or off x86) the speedup row is reported but
// not enforced: there the win is cache reuse alone, not cache reuse
// plus SIMD.
//
// simhash_keys: (K, L) SimHash keys of a row set, hashed per function
// (one virtual HashData and one one-row, one-plane ProjectBlock call per
// bit: the per-bit path every other family keeps) against the SimHash
// keyer (one ProjectBlock call per row block and table), at
// join_planted's shape and at the serving engine's. Gates: the two
// paths give the same keys, and at the join shape the keyer is at least
// 1.5x the per-function path.
//
// join_block: one 256-query block of join_planted's instance (2048 x 32
// data, K = 16, L = 64) through the three joins of Definition 1: the
// exact join (BlockTopK at k = 1 over a thread pool), the LSH bucket
// join and the LSH index join. Reports the median ms per block over
// every block of the instance, repeated, and the bucket join's four
// pair counts summed over one pass of the blocks. Gate: the exact join
// equals the per-query TopKBruteForce loop, index and score bits.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/similarity_join.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "lsh/bucket_join.h"
#include "lsh/lsh_family.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
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

// GFLOP/s of `ops.score_rows` over every row of a rows x cols matrix
// (MatVec's call).
double MatVecRate(const kernels::KernelOps& ops, std::size_t rows,
                  std::size_t cols, Rng* rng) {
  const Matrix data = RandomMatrix(rows, cols, rng);
  std::vector<double> q(cols), out(rows);
  for (double& v : q) v = rng->NextGaussian();
  const std::size_t iters = std::max<std::size_t>(1, (1u << 25) / (rows * cols));
  // warm
  ops.score_rows(data.raw(), cols, nullptr, rows, q.data(), out.data());
  WallTimer timer;
  for (std::size_t it = 0; it < iters; ++it) {
    ops.score_rows(data.raw(), cols, nullptr, rows, q.data(), out.data());
  }
  const double seconds = timer.Seconds();
  return 2.0 * static_cast<double>(rows * cols * iters) / seconds * 1e-9;
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

// The tiled batched path: one BlockTopK over the whole batch.
std::vector<std::vector<SearchMatch>> TiledTopK(const Matrix& data,
                                                const Matrix& queries,
                                                std::size_t k) {
  std::vector<kernels::TopKHeap> heaps(queries.rows(), kernels::TopKHeap(k));
  kernels::BlockTopK(data, queries, /*absolute=*/false, heaps);
  std::vector<std::vector<SearchMatch>> out(queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    out[qi] = heaps[qi].TakeSorted();
  }
  return out;
}

// Alternating baseline/tiled pairs of the headline; its speedup is the
// median pair ratio, as obs_overhead's is, so one slow run on a shared
// host cannot flip the gate.
constexpr int kHeadlinePairs = 5;

// The headline: BlockTopK with the active table against the per-query
// scalar baseline.
void MeasureHeadline(Rng* rng, BenchReport& report) {
  std::cout << "headline: " << kHeadlineRows << " rows x "
            << kHeadlineQueries << " queries, dim " << kHeadlineDim
            << ", k=" << kHeadlineK << " (active ISA: "
            << kernels::ActiveIsaName() << ", median of " << kHeadlinePairs
            << " alternating pairs)\n";
  const Matrix data = RandomMatrix(kHeadlineRows, kHeadlineDim, rng);
  const Matrix queries = RandomMatrix(kHeadlineQueries, kHeadlineDim, rng);

  std::vector<std::vector<SearchMatch>> answers[2];  // baseline, tiled
  std::vector<double> runs_ms[2], ratios;
  for (int pair = 0; pair < kHeadlinePairs; ++pair) {
    for (const int side : {pair % 2, 1 - pair % 2}) {
      WallTimer timer;
      auto answer = side == 1
                        ? TiledTopK(data, queries, kHeadlineK)
                        : PerQueryScalarBaseline(data, queries, kHeadlineK);
      runs_ms[side].push_back(timer.Millis());
      answers[side] = std::move(answer);
    }
    ratios.push_back(runs_ms[0].back() / runs_ms[1].back());
  }
  const double baseline_ms = Summarize(runs_ms[0]).p50;
  const double tiled_ms = Summarize(runs_ms[1]).p50;
  const double speedup = Summarize(ratios).p50;
  bool agree = true;
  for (std::size_t qi = 0; qi < kHeadlineQueries; ++qi) {
    for (std::size_t j = 0; j < kHeadlineK; ++j) {
      if (answers[1][qi][j].index != answers[0][qi][j].index) agree = false;
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
  json.Key("pairs").Uint(kHeadlinePairs);
  json.Key("per_query_scalar_ms").Double(baseline_ms);
  json.Key("tiled_ms").Double(tiled_ms);
  json.Key("speedup").Double(speedup);
  json.Key("results_agree").Bool(agree);
  json.EndObject();
  report.Holds("batched_topk.results_agree", agree);
  report.AtLeast("batched_topk.speedup", speedup, 4.0,
                 /*enforced=*/std::string(kernels::ActiveIsaName()) == "avx2");
}

struct KeyShape {
  const char* name;
  std::size_t rows, dim, k, l;
};

// join_planted's bucket join and the serving engine's LSH index.
constexpr KeyShape kKeyShapes[] = {{"join", 2048, 34, 16, 64},
                                   {"engine", 20000, 66, 8, 32}};
// Alternating per-function / keyer pairs per shape; the speedup is the
// median pair ratio, as obs_overhead's is.
constexpr int kKeyPairs = 5;
constexpr std::uint64_t kKeySeed = 25;

// Table-major keys of every row, through l ConcatenatedLshFunctions.
std::vector<std::uint64_t> PerFunctionKeys(const SimHashFamily& family,
                                           const Matrix& rows,
                                           const KeyShape& shape) {
  Rng rng(kKeySeed);
  std::vector<std::uint64_t> keys(shape.l * rows.rows());
  for (std::size_t t = 0; t < shape.l; ++t) {
    const ConcatenatedLshFunction function(family, shape.k, &rng);
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      keys[t * rows.rows() + i] = function.HashData(rows.Row(i));
    }
  }
  return keys;
}

// The same keys through the keyer, one table per call over all rows, as
// the index build and the bucket join hash them.
std::vector<std::uint64_t> KeyerKeys(const SimHashFamily& family,
                                     const Matrix& rows,
                                     const KeyShape& shape) {
  Rng rng(kKeySeed);
  const std::unique_ptr<LshKeyer> keyer =
      family.SampleKeyer(shape.k, shape.l, &rng);
  const std::size_t n = rows.rows();
  std::vector<std::uint64_t> keys(shape.l * n);
  for (std::size_t t = 0; t < shape.l; ++t) {
    keyer->Keys({rows.raw(), n * rows.cols()}, HashSide::kData, t, t + 1,
                {keys.data() + t * n, n});
  }
  return keys;
}

void MeasureSimHashKeys(Rng* rng, BenchReport& report) {
  JsonWriter& json = report.json();
  json.Key("simhash_keys").BeginObject();
  json.Key("pairs").Uint(kKeyPairs);
  json.Key("shapes").BeginArray();
  TablePrinter table({"shape", "rows x dim", "K x L", "per-function ms",
                      "keyer ms", "keyer Mkeys/s", "keyer GFLOP/s",
                      "speedup", "keys agree"});
  bool all_agree = true;
  double join_speedup = 0.0;
  for (const KeyShape& shape : kKeyShapes) {
    const SimHashFamily family(shape.dim);
    const Matrix rows = RandomMatrix(shape.rows, shape.dim, rng);
    const bool agree =
        PerFunctionKeys(family, rows, shape) == KeyerKeys(family, rows, shape);
    all_agree = all_agree && agree;
    std::vector<double> per_function_ms, keyer_ms, ratios;
    std::uint64_t sink = 0;
    for (int pair = 0; pair < kKeyPairs; ++pair) {
      double ms[2];
      for (int side = 0; side < 2; ++side) {
        const bool keyer_side = (side == 1) == (pair % 2 == 0);
        WallTimer timer;
        sink += keyer_side ? KeyerKeys(family, rows, shape).back()
                           : PerFunctionKeys(family, rows, shape).back();
        ms[keyer_side ? 1 : 0] = timer.Millis();
      }
      per_function_ms.push_back(ms[0]);
      keyer_ms.push_back(ms[1]);
      ratios.push_back(ms[1] > 0.0 ? ms[0] / ms[1] : 0.0);
    }
    if (sink == 12345) std::cout << "";  // keep the keys live
    const double base_ms = Summarize(per_function_ms).p50;
    const double fast_ms = Summarize(keyer_ms).p50;
    const double speedup = Summarize(ratios).p50;
    const double keys = static_cast<double>(shape.rows * shape.l);
    const double flops = 2.0 * keys * static_cast<double>(shape.k * shape.dim);
    const auto per_s = [](double count, double ms) {
      return ms > 0.0 ? count / (ms * 1e-3) : 0.0;
    };
    if (std::string(shape.name) == "join") join_speedup = speedup;
    table.AddRow({shape.name,
                  Format(shape.rows) + " x " + Format(shape.dim),
                  Format(shape.k) + " x " + Format(shape.l),
                  FormatFixed(base_ms, 2), FormatFixed(fast_ms, 2),
                  FormatFixed(per_s(keys, fast_ms) * 1e-6, 1),
                  FormatFixed(per_s(flops, fast_ms) * 1e-9, 2),
                  FormatFixed(speedup, 2), agree ? "yes" : "NO"});
    json.BeginObject().Key("shape").String(shape.name);
    json.Key("rows").Uint(shape.rows);
    json.Key("dim").Uint(shape.dim);
    json.Key("k").Uint(shape.k);
    json.Key("l").Uint(shape.l);
    json.Key("per_function_ms").Double(base_ms);
    json.Key("keyer_ms").Double(fast_ms);
    json.Key("per_function_keys_per_s").Double(per_s(keys, base_ms));
    json.Key("keyer_keys_per_s").Double(per_s(keys, fast_ms));
    json.Key("per_function_gflops").Double(per_s(flops, base_ms) * 1e-9);
    json.Key("keyer_gflops").Double(per_s(flops, fast_ms) * 1e-9);
    json.Key("speedup").Double(speedup);
    json.Key("keys_agree").Bool(agree);
    json.EndObject();
  }
  json.EndArray();
  json.Key("keys_agree").Bool(all_agree);
  json.Key("speedup").Double(join_speedup);
  json.EndObject();
  std::cout << "simhash keys (active ISA: " << kernels::ActiveIsaName()
            << ", median of " << kKeyPairs << " alternating pairs):\n";
  table.PrintMarkdown(std::cout);
  std::cout << "\n";
  report.Holds("simhash_keys.keys_agree", all_agree);
  report.AtLeast("simhash_keys.speedup", join_speedup, 1.5);
}

// join_planted's instance and one block's joins (bench/e2e/config.json).
constexpr std::size_t kJoinDataRows = 2048;
constexpr std::size_t kJoinQueryRows = 2048;
constexpr std::size_t kJoinDim = 32;
constexpr std::size_t kJoinBlockRows = 256;
constexpr double kJoinPlantedTarget = 0.9;
constexpr double kJoinQueryRadius = 1.0;
constexpr double kJoinS = 0.8;
constexpr double kJoinC = 0.75;
constexpr std::size_t kJoinK = 16;
constexpr std::size_t kJoinL = 64;
constexpr std::uint64_t kJoinSeed = 1;
// Passes over the blocks; the ms rows are medians over every block run.
constexpr int kJoinRounds = 3;

// Each query's exact join entry equals its TopKBruteForce top-1, bit
// for bit, reported exactly when that top-1 reaches s.
bool ExactJoinMatchesBruteForce(const Matrix& data, const Matrix& queries,
                                const JoinSpec& spec,
                                const JoinResult& exact) {
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const SearchMatch top =
        TopKBruteForce(data, queries.Row(qi), 1, spec.is_signed).front();
    const auto& got = exact.per_query[qi];
    if (top.value < spec.s) {
      if (got.has_value()) return false;
      continue;
    }
    if (!got.has_value() || got->data != top.index ||
        std::bit_cast<std::uint64_t>(got->value) !=
            std::bit_cast<std::uint64_t>(top.value)) {
      return false;
    }
  }
  return true;
}

void MeasureJoinBlock(BenchReport& report) {
  Rng rng(kJoinSeed);
  const PlantedInstance planted =
      MakePlantedInstance(kJoinDataRows, kJoinQueryRows, kJoinDim,
                          kJoinPlantedTarget, kJoinQueryRadius, &rng);
  JoinSpec spec;
  spec.s = kJoinS;
  spec.c = kJoinC;
  spec.is_signed = true;
  LshTableParams lsh;
  lsh.k = kJoinK;
  lsh.l = kJoinL;
  const DualBallTransform transform(kJoinDim, kJoinQueryRadius);
  const SimHashFamily base(transform.output_dim());
  Rng index_rng(kJoinSeed + 1);
  auto index = LshMipsIndex::Create(planted.data, &transform, base, lsh,
                                    &index_rng);
  if (!index.ok()) Die("join_block index build", index.status());
  const Matrix hash_data = transform.TransformDataset(planted.data);
  std::vector<Matrix> blocks;
  for (std::size_t b = 0; b < kJoinQueryRows; b += kJoinBlockRows) {
    blocks.push_back(Matrix::View(planted.queries.Row(b).data(),
                                  kJoinBlockRows, kJoinDim));
  }
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  // The bucket join's pair counts: JSON key, then metric name.
  const std::pair<const char*, const char*> counts[] = {
      {"candidate_pairs", "lsh.join.candidate_pairs"},
      {"verified_pairs", "lsh.join.verified_pairs"},
      {"duplicate_pairs", "lsh.join.duplicate_pairs"},
      {"pairs_prefiltered", "lsh.join.pairs_prefiltered"}};
  std::uint64_t count_sums[4] = {0, 0, 0, 0};
  std::vector<double> exact_ms, bucket_ms, index_ms;
  bool exact_agree = true;
  for (int round = 0; round < kJoinRounds; ++round) {
    for (const Matrix& queries : blocks) {
      WallTimer exact_timer;
      auto exact = ExactJoinChecked(planted.data, queries, spec, &pool);
      exact_ms.push_back(exact_timer.Millis());
      if (!exact.ok()) Die("join_block exact join", exact.status());
      const Matrix hash_queries = transform.TransformQueries(queries);
      Rng join_rng(kJoinSeed);
      WallTimer bucket_timer;
      auto bucket = LshBucketJoinChecked(
          base, hash_data, planted.data, hash_queries, queries, spec.s,
          spec.cs(), spec.is_signed, lsh, &join_rng);
      bucket_ms.push_back(bucket_timer.Millis());
      if (!bucket.ok()) Die("join_block bucket join", bucket.status());
      WallTimer index_timer;
      auto indexed = IndexJoinChecked(**index, queries, spec);
      index_ms.push_back(index_timer.Millis());
      if (!indexed.ok()) Die("join_block index join", indexed.status());
      if (round > 0) continue;
      exact_agree = exact_agree &&
                    ExactJoinMatchesBruteForce(planted.data, queries, spec,
                                               exact.value());
      for (int c = 0; c < 4; ++c) {
        count_sums[c] += bucket->metrics.Get(counts[c].second);
      }
    }
  }
  const double exact_p50 = Summarize(exact_ms).p50;
  const double bucket_p50 = Summarize(bucket_ms).p50;
  const double index_p50 = Summarize(index_ms).p50;
  std::cout << "join block (" << kJoinDataRows << " x " << kJoinDim
            << " data, " << kJoinBlockRows << "-query blocks, K = " << kJoinK
            << ", L = " << kJoinL << ", median of " << exact_ms.size()
            << " block runs): exact " << FormatFixed(exact_p50, 2)
            << " ms, bucket " << FormatFixed(bucket_p50, 2) << " ms, index "
            << FormatFixed(index_p50, 2) << " ms; exact join "
            << (exact_agree ? "agrees with" : "DIFFERS from")
            << " the per-query scan\n\n";
  JsonWriter& json = report.json();
  json.Key("join_block").BeginObject();
  json.Key("data_rows").Uint(kJoinDataRows);
  json.Key("dim").Uint(kJoinDim);
  json.Key("block_rows").Uint(kJoinBlockRows);
  json.Key("blocks").Uint(blocks.size());
  json.Key("k").Uint(kJoinK);
  json.Key("l").Uint(kJoinL);
  json.Key("rounds").Uint(kJoinRounds);
  json.Key("pool_threads").Uint(pool.num_threads());
  json.Key("exact_ms").Double(exact_p50);
  json.Key("bucket_ms").Double(bucket_p50);
  json.Key("index_ms").Double(index_p50);
  for (int c = 0; c < 4; ++c) {
    json.Key(counts[c].first).Uint(count_sums[c]);
  }
  json.Key("exact_agree").Bool(exact_agree);
  json.EndObject();
  report.Holds("join_block.exact_agree", exact_agree);
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

  MeasureSimHashKeys(&rng, report);
  MeasureJoinBlock(report);
  MeasureHeadline(&rng, report);
  return report.Finish();
}

}  // namespace
}  // namespace ips

int main() { return ips::Run(); }
