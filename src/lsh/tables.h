// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The classic (K, L) LSH index: L hash tables, each keyed by the
// concatenation of K draws from a family (AND-amplification inside a
// table, OR-amplification across tables). A query retrieves the union of
// its L buckets as candidates. With base gap (P1, P2), choosing
// K = log n / log(1/P2) and L = n^rho gives the usual sublinear search.
// Each table is one function and one BucketTable (lsh/bucket_table.h):
// the data rows' keys in CSR form, probed by binary search.

#ifndef IPS_LSH_TABLES_H_
#define IPS_LSH_TABLES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "lsh/bucket_table.h"
#include "lsh/lsh_family.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rng/random.h"
#include "util/status.h"

namespace ips {

/// Amplification parameters of an LSH index.
struct LshTableParams {
  /// Number of concatenated hash functions per table (AND).
  std::size_t k = 4;
  /// Number of tables (OR).
  std::size_t l = 8;

  /// Standard theory-driven choice: k = ceil(ln n / ln(1/p2)),
  /// l = ceil(n^rho) with rho = ln p1 / ln p2.
  static LshTableParams FromGap(std::size_t n, double p1, double p2);
};

/// L hash tables over a fixed data matrix.
class LshTables {
 public:
  /// Builds the index. `family` must outlive the index; `data` is
  /// only read here (each table hashes every row once into its keys).
  /// Preconditions are IPS_CHECKed; prefer Create for untrusted input.
  LshTables(const LshFamily& family, const Matrix& data,
            LshTableParams params, Rng* rng);

  /// Validated construction: rejects an empty or non-finite `data`,
  /// a dimension mismatch with `family`, k or l of zero, and a null
  /// `rng` with a descriptive Status instead of aborting. Failpoint:
  /// "lsh/tables-build".
  [[nodiscard]] static StatusOr<std::unique_ptr<LshTables>> Create(
      const LshFamily& family, const Matrix& data, LshTableParams params,
      Rng* rng);

  /// Restores an index from persisted buckets, skipping the O(n k l)
  /// re-hash of every data row — the expensive part of Create. `rng`
  /// must be positioned at the same state the building rng had (the
  /// storage layer saves Rng::State alongside the buckets), so the
  /// per-table function draws replay bit-identically and the saved
  /// buckets stay consistent with the functions. `buckets[t]` is
  /// installed as table t and must cover exactly `num_rows` rows.
  /// Takes the row count rather than the hashed matrix: the buckets
  /// already encode every data hash, so the restore path never needs
  /// the (possibly transformed) dataset at all.
  [[nodiscard]] static StatusOr<std::unique_ptr<LshTables>> CreateFromBuckets(
      const LshFamily& family, std::size_t num_rows, LshTableParams params,
      Rng* rng, std::vector<BucketTable> buckets);

  /// Indices of data rows sharing at least one bucket with `q`
  /// (deduplicated, ascending). Thread-safe: uses no per-query shared
  /// scratch, so a built index may serve concurrent queries. When
  /// `trace` is non-null, records the hash -> bucket -> dedup stage
  /// spans under the trace's open span; when `metrics` is non-null, sets
  /// the query's "lsh.tables.*" accounting in it (buckets_probed,
  /// buckets_hit, candidates_raw, candidates_unique, duplicates). Every
  /// call bumps the "lsh.tables.*" registry counters.
  [[nodiscard]] std::vector<std::size_t> Query(
      std::span<const double> q, Trace* trace = nullptr,
      MetricSet* metrics = nullptr) const;

  const LshTableParams& params() const { return params_; }

  /// Buckets of table `t` (immutable once built), for snapshotting.
  std::size_t num_tables() const { return tables_.size(); }
  const BucketTable& buckets(std::size_t t) const {
    return tables_[t].buckets;
  }

 private:
  LshTables() = default;  // CreateFromBuckets fills the members.

  struct Table {
    std::unique_ptr<ConcatenatedLshFunction> function;
    BucketTable buckets;
  };

  LshTableParams params_;
  std::vector<Table> tables_;
};

}  // namespace ips

#endif  // IPS_LSH_TABLES_H_
