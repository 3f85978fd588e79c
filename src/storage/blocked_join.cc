#include "storage/blocked_join.h"

#include <algorithm>
#include <cmath>

#include "linalg/search_match.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "storage/snapshot.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace ips {
namespace storage {
namespace {

// Working-set multiple of one resident block: the data block, the query
// block, their two hash-space copies when the family composes a
// transform (about one block each: the maps the library ships add a few
// columns at most), and the per-pair hash table. LshBucketJoin holds one
// BucketTable at a time, over the smaller block of the pair: 4 bytes
// per row plus its keys and offsets. Its build scratch peaks near 60
// bytes per row when every key is distinct, and the transient directory
// the other block probes it through takes at most 64 bytes per bucket.
constexpr std::size_t kWorkingSetBlocks = 6;

std::size_t ResolveBlockRows(const BlockedJoinOptions& options,
                             std::size_t cols) {
  if (options.block_rows > 0) return options.block_rows;
  const std::size_t row_bytes = std::max<std::size_t>(1, cols * sizeof(double));
  const std::size_t block_bytes =
      options.memory_budget_bytes / kWorkingSetBlocks;
  return std::max<std::size_t>(1, block_bytes / row_bytes);
}

}  // namespace

StatusOr<BucketJoinResult> BlockedBucketJoin(const LshFamily& family,
                                             const std::string& data_path,
                                             const std::string& queries_path,
                                             const BlockedJoinOptions& options,
                                             BlockedJoinStats* stats) {
  IPS_FAILPOINT("storage/blocked-join");
  if (options.params.k < 1 || options.params.l < 1) {
    return Status::InvalidArgument(
        "blocked join needs k >= 1 and l >= 1, got k=" +
        std::to_string(options.params.k) + ", l=" +
        std::to_string(options.params.l));
  }
  if (options.memory_budget_bytes == 0) {
    return Status::InvalidArgument("blocked join memory budget must be > 0");
  }
  if (!std::isfinite(options.s_threshold) ||
      !std::isfinite(options.cs_threshold)) {
    return Status::InvalidArgument("join thresholds must be finite");
  }
  if (options.cs_threshold > options.s_threshold) {
    return Status::InvalidArgument(
        "cs threshold " + std::to_string(options.cs_threshold) +
        " exceeds s threshold " + std::to_string(options.s_threshold));
  }

  auto data_reader =
      MatrixBlockReader::Open(data_path, options.verify_checksums);
  IPS_RETURN_IF_ERROR(data_reader.status());
  auto query_reader =
      MatrixBlockReader::Open(queries_path, options.verify_checksums);
  IPS_RETURN_IF_ERROR(query_reader.status());

  if (data_reader->rows() == 0 || query_reader->rows() == 0) {
    return Status::InvalidArgument("blocked join inputs must be non-empty");
  }
  if (data_reader->cols() != query_reader->cols()) {
    return Status::InvalidArgument(
        "data dimension " + std::to_string(data_reader->cols()) +
        " != query dimension " + std::to_string(query_reader->cols()));
  }
  if (data_reader->cols() != family.dim()) {
    return Status::InvalidArgument(
        "snapshot dimension " + std::to_string(data_reader->cols()) +
        " != lsh family dimension " + std::to_string(family.dim()));
  }

  const std::size_t block_rows = ResolveBlockRows(options,
                                                  data_reader->cols());
  BlockedJoinStats local;
  local.data_rows = data_reader->rows();
  local.query_rows = query_reader->rows();
  local.block_rows = block_rows;
  local.data_blocks = (local.data_rows + block_rows - 1) / block_rows;
  local.query_blocks = (local.query_rows + block_rows - 1) / block_rows;

  BucketJoinResult result;
  result.per_query.resize(local.query_rows);
  std::size_t candidate_pairs = 0;
  std::size_t verified_pairs = 0;
  std::size_t duplicate_pairs = 0;
  std::size_t prefiltered_pairs = 0;

  // Blocks are reused across iterations (ReadRows only reallocates on a
  // shape change), so the steady-state footprint is the two blocks, their
  // hash-space copies, and the per-pair tables LshBucketJoin builds and
  // frees. Each block is mapped into hash space once per read, so the
  // pair join hashes with the base family and never re-runs the map.
  Matrix query_block;
  Matrix data_block;
  Matrix mapped_queries;
  Matrix mapped_data;
  for (std::size_t q0 = 0; q0 < local.query_rows; q0 += block_rows) {
    const std::size_t qn = std::min(block_rows, local.query_rows - q0);
    IPS_RETURN_IF_ERROR(query_reader->ReadRows(q0, qn, &query_block));
    local.bytes_read += qn * query_reader->cols() * sizeof(double);
    const Matrix& hash_queries = MapToHashSpace(
        family, query_block, /*query_side=*/true, &mapped_queries);
    for (std::size_t d0 = 0; d0 < local.data_rows; d0 += block_rows) {
      const std::size_t dn = std::min(block_rows, local.data_rows - d0);
      IPS_RETURN_IF_ERROR(data_reader->ReadRows(d0, dn, &data_block));
      local.bytes_read += dn * data_reader->cols() * sizeof(double);
      const Matrix& hash_data = MapToHashSpace(
          family, data_block, /*query_side=*/false, &mapped_data);
      ++local.block_pairs;

      // Fresh Rng per pair: table t's hash function is identical in
      // every block pair, which is what makes the blocked union equal
      // the monolithic join (see header).
      Rng rng(options.seed);
      const BucketJoinResult pair = LshBucketJoin(
          family.base(), hash_data, data_block, hash_queries, query_block,
          options.s_threshold, options.cs_threshold, options.is_signed,
          options.params, &rng);
      candidate_pairs += static_cast<std::size_t>(
          pair.metrics.Get("lsh.join.candidate_pairs"));
      verified_pairs += static_cast<std::size_t>(
          pair.metrics.Get("lsh.join.verified_pairs"));
      duplicate_pairs += static_cast<std::size_t>(
          pair.metrics.Get("lsh.join.duplicate_pairs"));
      prefiltered_pairs += static_cast<std::size_t>(
          pair.metrics.Get("lsh.join.pairs_prefiltered"));

      for (std::size_t qi = 0; qi < qn; ++qi) {
        const auto& pair_best = pair.per_query[qi];
        if (!pair_best.has_value()) continue;
        const std::size_t global_index = d0 + pair_best->first;
        auto& best = result.per_query[q0 + qi];
        if (!best.has_value() ||
            RanksBefore({global_index, pair_best->second},
                        {best->first, best->second})) {
          best = std::make_pair(global_index, pair_best->second);
        }
      }
    }
  }

  result.metrics.Set("lsh.join.candidate_pairs", candidate_pairs);
  result.metrics.Set("lsh.join.verified_pairs", verified_pairs);
  result.metrics.Set("lsh.join.duplicate_pairs", duplicate_pairs);
  result.metrics.Set("lsh.join.pairs_prefiltered", prefiltered_pairs);
  static Counter* const runs =
      MetricsRegistry::Global().GetCounter("storage.blocked_join.runs");
  static Counter* const pairs =
      MetricsRegistry::Global().GetCounter("storage.blocked_join.block_pairs");
  static Counter* const bytes =
      MetricsRegistry::Global().GetCounter("storage.blocked_join.bytes_read");
  runs->Increment();
  pairs->Add(local.block_pairs);
  bytes->Add(local.bytes_read);
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace storage
}  // namespace ips
