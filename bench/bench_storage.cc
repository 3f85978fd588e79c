// Storage benchmark (DESIGN.md §12): time-to-first-answer of the three
// ways to stand up a serving engine — cold rebuild (Create + calibrate
// + index builds), heap snapshot load, and mmap zero-copy warm start —
// plus the out-of-core blocked join's block-size sweep under a raw
// SimHash family and one row under the composed DualBall + SimHash
// family the IPS join hashes with. Writes BENCH_storage.json.
//
// Acceptance gate: the mmap warm start must reach its first answer
// >= 10x faster than the cold rebuild; a miss exits nonzero so CI fails
// loudly instead of shipping a regressed startup path.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/dataset.h"
#include "core/query.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "serve/engine.h"
#include "storage/blocked_join.h"
#include "storage/snapshot.h"
#include "util/table.h"
#include "util/timer.h"

namespace ips {
namespace {

constexpr std::size_t kN = 20000;
constexpr std::size_t kDim = 48;
constexpr int kReps = 5;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::cerr << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

// One planner-routed query, the "first answer" being timed.
void FirstQuery(const Engine& engine) {
  QueryOptions options;
  options.k = 5;
  const auto result = engine.Query({engine.data().Row(0), options});
  if (!result.ok()) Die("first query", result.status());
}

// Cold path: build everything from the raw dataset (calibration probes
// plus the tree and LSH indexes a warm snapshot would carry).
double ColdStartMs(const Matrix& data) {
  WallTimer timer;
  auto engine = Engine::Create(data);
  if (!engine.ok()) Die("cold create", engine.status());
  for (QueryAlgo algo : {QueryAlgo::kBallTree, QueryAlgo::kLsh}) {
    const Status built = (*engine)->EnsureIndex(algo);
    if (!built.ok()) Die("cold build", built);
  }
  FirstQuery(**engine);
  return timer.Millis();
}

double WarmStartMs(const std::string& dir, bool use_mmap) {
  SnapshotLoadOptions load;
  load.use_mmap = use_mmap;
  WallTimer timer;
  auto engine = Engine::CreateFromSnapshot(dir, load);
  if (!engine.ok()) Die("warm load", engine.status());
  FirstQuery(**engine);
  return timer.Millis();
}

void RunWarmStartSection(Rng* rng, BenchReport& report) {
  std::cout << "=== warm start (n=" << kN << ", dim=" << kDim << ", "
            << kReps << " reps, best-of) ===\n";
  const Matrix data = MakeUnitBallGaussian(kN, kDim, /*min_norm=*/0.3, rng);

  // Author the snapshot once from a fully built engine.
  const std::string dir = "build/bench_storage_snapshot";
  {
    auto engine = Engine::Create(data);
    if (!engine.ok()) Die("snapshot author", engine.status());
    for (QueryAlgo algo : {QueryAlgo::kBallTree, QueryAlgo::kLsh}) {
      const Status built = (*engine)->EnsureIndex(algo);
      if (!built.ok()) Die("snapshot author build", built);
    }
    const Status saved = (*engine)->SaveSnapshot(dir);
    if (!saved.ok()) Die("snapshot save", saved);
  }

  double cold_ms = std::numeric_limits<double>::infinity();
  double heap_ms = std::numeric_limits<double>::infinity();
  double mmap_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    cold_ms = std::min(cold_ms, ColdStartMs(data));
    heap_ms = std::min(heap_ms, WarmStartMs(dir, false));
    mmap_ms = std::min(mmap_ms, WarmStartMs(dir, true));
  }
  const double speedup_heap = heap_ms > 0.0 ? cold_ms / heap_ms : 0.0;
  const double speedup_mmap = mmap_ms > 0.0 ? cold_ms / mmap_ms : 0.0;

  TablePrinter table({"path", "first answer (ms)", "vs cold"});
  table.AddRow({"cold rebuild", FormatFixed(cold_ms, 2), "1.00x"});
  table.AddRow({"snapshot (heap)", FormatFixed(heap_ms, 2),
                FormatFixed(speedup_heap, 2) + "x"});
  table.AddRow({"snapshot (mmap)", FormatFixed(mmap_ms, 2),
                FormatFixed(speedup_mmap, 2) + "x"});
  table.PrintMarkdown(std::cout);
  std::cout << "\n";
  JsonWriter& json = report.json();
  json.Key("warm_start").BeginObject();
  json.Key("cold_ms").Double(cold_ms);
  json.Key("heap_load_ms").Double(heap_ms);
  json.Key("mmap_load_ms").Double(mmap_ms);
  json.Key("speedup_heap").Double(speedup_heap);
  json.Key("speedup_mmap").Double(speedup_mmap);
  json.EndObject();
  report.AtLeast("warm_start.speedup_mmap", speedup_mmap, 10.0);
}

constexpr std::size_t kSweepRows = 32768;
constexpr std::size_t kSweepDim = 32;
constexpr std::size_t kSweepQueries = 256;

// Writes the sweep's Gaussian data and query rows, each times `scale`.
// Every call draws the same rows, so the scaled files are copies of the
// unscaled ones.
void WriteSweepInputs(double scale, const std::string& data_path,
                      const std::string& queries_path) {
  Rng rng(7);
  auto writer = storage::MatrixSnapshotWriter::Create(data_path, kSweepDim);
  if (!writer.ok()) Die("sweep writer", writer.status());
  std::vector<double> chunk(4096 * kSweepDim);
  for (std::size_t written = 0; written < kSweepRows; written += 4096) {
    for (double& v : chunk) v = scale * rng.NextGaussian();
    const Status appended = writer->AppendRows(chunk);
    if (!appended.ok()) Die("sweep append", appended);
  }
  const Status finished = writer->Finish();
  if (!finished.ok()) Die("sweep finish", finished);

  Matrix queries(kSweepQueries, kSweepDim);
  for (std::size_t i = 0; i < kSweepQueries; ++i) {
    for (std::size_t j = 0; j < kSweepDim; ++j) {
      queries.At(i, j) = scale * rng.NextGaussian();
    }
  }
  const Status saved = storage::SaveMatrixSnapshot(queries, queries_path);
  if (!saved.ok()) Die("sweep queries", saved);
}

// Out-of-core sweep: the same join at several block sizes. Small blocks
// pay per-pair hashing of the data side repeatedly (the data side is
// rehashed once per query block); big blocks approach the monolithic
// join's memory. The sweet spot is the fastest raw block size. One more
// row joins a unit-ball copy of the same rows (scaled by kIpsScale, the
// thresholds by its square) under DualBall + SimHash, the composed
// family the IPS join hashes with, at the raw sweep's 4096-row block.
void RunBlockSweep(JsonWriter& json) {
  // Norms of 32-dim Gaussian rows stay far below 16, so the scaled copy
  // lies inside the unit ball the dual-ball map requires.
  constexpr double kIpsScale = 1.0 / 16;
  std::cout << "=== out-of-core block sweep (" << kSweepRows << " x "
            << kSweepDim << " data, " << kSweepQueries << " queries) ===\n";

  const std::string data_path = "build/bench_storage_data.ips";
  const std::string queries_path = "build/bench_storage_queries.ips";
  const std::string ips_data_path = "build/bench_storage_ips_data.ips";
  const std::string ips_queries_path = "build/bench_storage_ips_queries.ips";
  WriteSweepInputs(1.0, data_path, queries_path);
  WriteSweepInputs(kIpsScale, ips_data_path, ips_queries_path);

  TablePrinter table({"family", "block rows", "pairs", "ms", "MB/s"});
  json.Key("block_sweep").BeginArray();
  auto run = [&](const LshFamily& family, const std::string& data,
                 const std::string& queries, std::size_t block_rows,
                 double scale) {
    storage::BlockedJoinOptions options;
    options.block_rows = block_rows;
    // A budget large enough for the biggest block keeps the sweep about
    // block geometry, not budget clamping.
    options.memory_budget_bytes = 256u << 20;
    options.params = {.k = 8, .l = 4};
    options.s_threshold = 32.0 * scale * scale;
    options.cs_threshold = 24.0 * scale * scale;
    options.seed = 7;
    // The files were just written and verified once below; skip the
    // re-verification inside the timed region.
    options.verify_checksums = false;

    storage::BlockedJoinStats stats;
    WallTimer timer;
    const auto result = storage::BlockedBucketJoin(family, data, queries,
                                                   options, &stats);
    const double ms = timer.Millis();
    if (!result.ok()) Die("sweep join", result.status());

    const double mb_per_s =
        ms > 0.0 ? static_cast<double>(stats.bytes_read) / 1e6 / (ms / 1e3)
                 : 0.0;
    table.AddRow({family.Name(), Format(block_rows), Format(stats.block_pairs),
                  FormatFixed(ms, 1), FormatFixed(mb_per_s, 1)});
    json.BeginObject().Key("family").String(family.Name());
    json.Key("block_rows").Uint(block_rows);
    json.Key("block_pairs").Uint(stats.block_pairs);
    json.Key("ms").Double(ms);
    json.Key("mb_per_s").Double(mb_per_s);
    json.EndObject();
    return ms;
  };
  // The sweet spot is a block geometry: only the raw family's rows count.
  const SimHashFamily family(kSweepDim);
  std::size_t sweet_spot = 0;
  double sweet_spot_ms = std::numeric_limits<double>::infinity();
  for (std::size_t block_rows : {1024u, 4096u, 16384u, 32768u}) {
    const double ms = run(family, data_path, queries_path, block_rows, 1.0);
    if (ms < sweet_spot_ms) {
      sweet_spot = block_rows;
      sweet_spot_ms = ms;
    }
  }
  const DualBallTransform transform(kSweepDim, 1.0);
  const SimHashFamily base(transform.output_dim());
  const TransformedLshFamily composed(&transform, &base);
  run(composed, ips_data_path, ips_queries_path, 4096, kIpsScale);
  json.EndArray().Key("sweet_spot_block_rows").Uint(sweet_spot);
  table.PrintMarkdown(std::cout);
  std::cout << "\n";
}

int Run() {
  BenchReport report("storage");
  Rng rng(2026);
  report.json().Key("n").Uint(kN);
  report.json().Key("dim").Uint(kDim);
  RunWarmStartSection(&rng, report);
  RunBlockSweep(report.json());
  return report.Finish();
}

}  // namespace
}  // namespace ips

int main() { return ips::Run(); }
