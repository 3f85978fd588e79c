// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Out-of-core bucket join: joins two point sets that live in matrix
// snapshot files and may be far larger than RAM. Rows are streamed in
// memory-budgeted blocks and every (query block, data block) pair runs
// through the in-memory LshBucketJoin driver; per-query bests merge
// across block pairs by RanksBefore over global data indices, so a tie
// split across data blocks resolves to the lowest index.
//
// Determinism: every block pair reseeds a fresh Rng(options.seed), so
// table t draws the *same* concatenated hash function in every block
// pair — and a (data, query) pair collides in some table of the blocked
// join iff it collides in the same table of a monolithic LshBucketJoin
// run with Rng(options.seed). The blocked result therefore equals the
// monolithic result exactly (tests/storage_test.cc holds it to that),
// while peak memory stays within the block budget instead of O(n).

#ifndef IPS_STORAGE_BLOCKED_JOIN_H_
#define IPS_STORAGE_BLOCKED_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "lsh/bucket_join.h"
#include "lsh/lsh_family.h"
#include "lsh/tables.h"
#include "util/status.h"

namespace ips {
namespace storage {

/// Tuning of one blocked join run.
struct BlockedJoinOptions {
  /// Hard budget for the join's working set (both resident blocks plus
  /// the per-pair hash tables). The blocked-join RSS test asserts the
  /// process peak stays within this.
  std::size_t memory_budget_bytes = 64u << 20;
  /// Rows per block; 0 derives the largest block whose working set
  /// (data block + query block, their hash-space copies under a composed
  /// family, and bucket tables: ~6x one block's bytes) fits the budget.
  std::size_t block_rows = 0;
  /// (K, L) amplification of every block pair's tables.
  LshTableParams params;
  /// Join thresholds and score mode (as LshBucketJoin).
  double s_threshold = 0.0;
  double cs_threshold = 0.0;
  bool is_signed = true;
  /// Seed of the per-block-pair hash function draws (see header note).
  std::uint64_t seed = 2026;
  /// Verify the snapshots' DSET checksums (streaming, bounded memory)
  /// before joining.
  bool verify_checksums = true;
};

/// Work accounting of one blocked join run.
struct BlockedJoinStats {
  std::size_t data_rows = 0;
  std::size_t query_rows = 0;
  std::size_t block_rows = 0;   // resolved block size
  std::size_t data_blocks = 0;
  std::size_t query_blocks = 0;
  std::size_t block_pairs = 0;
  /// Snapshot bytes streamed from disk across all block reads.
  std::size_t bytes_read = 0;
};

/// Joins the matrix snapshots at `data_path` and `queries_path` under
/// `family`, which hashes original rows: for IPS pass a
/// TransformedLshFamily. A composed family's transform maps each block
/// into hash space once as it is read (the query block once per query
/// block, each data block once per read), and the block pairs hash those
/// copies with family.base() — the same functions from the same draws,
/// so the answers equal hashing through the composed family itself.
/// Scores are signed or absolute inner products of the original rows per
/// options.is_signed; the result indexes rows of the data snapshot
/// globally, and its metrics sum the four lsh.join.* pair counts over
/// all block pairs. Failpoint: "storage/blocked-join".
[[nodiscard]] StatusOr<BucketJoinResult> BlockedBucketJoin(
    const LshFamily& family, const std::string& data_path,
    const std::string& queries_path, const BlockedJoinOptions& options,
    BlockedJoinStats* stats = nullptr);

}  // namespace storage
}  // namespace ips

#endif  // IPS_STORAGE_BLOCKED_JOIN_H_
