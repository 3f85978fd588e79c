// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The LSH *bucket join*: instead of probing an index once per query,
// hash both point sets into the same (K, L) tables and enumerate
// colliding (data, query) pairs bucket by bucket -- the classic
// similarity-join operator built on LSH (cf. the I/O-efficient joins of
// [41]). Table by table, one LshKeyer (LshFamily::SampleKeyer) hashes
// all the data rows and all the queries -- for SimHash, one projection
// kernel call per row block, never one dot per bit. The keys of the
// side with fewer rows (the queries on a tie) go into one BucketTable
// (lsh/bucket_table.h), and every row of the other side probes it
// through a transient BucketDirectory, so a (query, row) pair occurs at
// most once per table. Which side is bucketed changes no answer, score
// bit or pair count: the same pairs collide in the same tables. Each
// candidate pair passes a lossless int8 prefilter (skipped only when
// its quantized estimate plus the rigorous rounding-error bound cannot
// reach cs), is then verified with one exact inner product, and for
// every query the best verified pair above cs is reported. The
// prefilter never changes the result set — it only replaces
// full-precision dots with one-byte-per-entry estimates for pairs that
// cannot qualify.

#ifndef IPS_LSH_BUCKET_JOIN_H_
#define IPS_LSH_BUCKET_JOIN_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "lsh/lsh_family.h"
#include "lsh/tables.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "util/status.h"

namespace ips {

/// Result of a bucket join: per-query best match (index into `data`,
/// exact score), or nullopt when no colliding pair scored >= cs.
/// Accounting lives in `metrics` under the run's registry metric names
/// (unified QueryStats-style labels, not bespoke fields):
///   "lsh.join.candidate_pairs" -- pairs enumerated across all tables
///                                 (before dedup);
///   "lsh.join.verified_pairs"  -- distinct pairs verified with an exact
///                                 inner product (each pair at most once
///                                 even when it collides in several
///                                 tables);
///   "lsh.join.duplicate_pairs" -- pairs skipped by cross-table
///                                 deduplication;
///   "lsh.join.pairs_prefiltered" -- distinct pairs the lossless int8
///                                 bound proved below cs, skipped before
///                                 exact verification. candidate ==
///                                 verified + duplicate + prefiltered.
struct BucketJoinResult {
  std::vector<std::optional<std::pair<std::size_t, double>>> per_query;
  MetricSet metrics;
};

/// Maps `rows` into the hash space of `family.base()`: when the family
/// composes a transform (family.transform() set), its data map — or its
/// query map when `query_side` — is applied to every row once, into
/// `*mapped`, and the result refers to `*mapped`; otherwise the result is
/// `rows` itself and `*mapped` is untouched. `rows` must have
/// family.dim() columns.
const Matrix& MapToHashSpace(const LshFamily& family, const Matrix& rows,
                             bool query_side, Matrix* mapped);

/// Runs the (cs, s) bucket join of `data` and `queries` under `family`.
/// Scores are signed or absolute inner products of the *original* rows
/// per `is_signed`; the keyer hashes `data` rows on the data side (h_p)
/// and `queries` rows on the query side (h_q).
///
/// `hash_data` / `hash_queries` are the representations to hash (must
/// have family.dim() columns); `data` / `queries` are the originals to
/// verify on. Pass the same matrix twice when no transform is involved.
/// For IPS, either pass a TransformedLshFamily with the originals as the
/// hash-space rows, or pre-transform both sides and pass its base family:
/// a composed family's rows are mapped once each (MapToHashSpace) and
/// hashed with family.base(), so both forms draw the same functions from
/// `rng`, cost the same, and return identical results and pair counts.
BucketJoinResult LshBucketJoin(const LshFamily& family,
                               const Matrix& hash_data, const Matrix& data,
                               const Matrix& hash_queries,
                               const Matrix& queries, double s_threshold,
                               double cs_threshold, bool is_signed,
                               LshTableParams params, Rng* rng);

/// Validated flavor of LshBucketJoin for untrusted input: rejects empty
/// or non-finite matrices, row/column mismatches between the hash-space
/// and original matrices, k/l of zero, a null rng, and non-finite or
/// inverted thresholds (cs > s) with a Status instead of aborting.
/// Failpoint: "lsh/bucket-join".
StatusOr<BucketJoinResult> LshBucketJoinChecked(
    const LshFamily& family, const Matrix& hash_data, const Matrix& data,
    const Matrix& hash_queries, const Matrix& queries, double s_threshold,
    double cs_threshold, bool is_signed, LshTableParams params, Rng* rng);

}  // namespace ips

#endif  // IPS_LSH_BUCKET_JOIN_H_
