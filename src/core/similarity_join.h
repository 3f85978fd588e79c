// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Join drivers: run a MipsIndex over a query set to produce the
// (cs, s) join of Definition 1, the exact brute-force join baseline,
// and the verifier that checks a join result against ground truth.

#ifndef IPS_CORE_SIMILARITY_JOIN_H_
#define IPS_CORE_SIMILARITY_JOIN_H_

#include <cstddef>

#include "core/mips_index.h"
#include "core/types.h"
#include "linalg/matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ips {

/// Definition 1 well-formedness of a join specification: s must be a
/// positive finite threshold and c an approximation factor in (0, 1].
/// Returns kInvalidArgument naming the offending field otherwise.
Status ValidateJoinSpec(const JoinSpec& spec);

/// Exact (s, s) join by full quadratic scan; the per-query entry is the
/// true maximizer when its score >= spec.s, nullopt otherwise.
/// `pool` may be null (single-threaded). IPS_CHECKs that
/// ExactJoinChecked accepts the input (use it to get a Status instead).
JoinResult ExactJoin(const Matrix& data, const Matrix& queries,
                     const JoinSpec& spec, ThreadPool* pool = nullptr);

/// Approximate join driven by any MipsIndex: one k = 1 Query per query
/// row, matched iff its top-1 scores >= spec.cs(); inner_products sums
/// the per-query QueryStats::dot_products. IPS_CHECKs that the index
/// accepts the request (use IndexJoinChecked to get a Status instead).
JoinResult IndexJoin(const MipsIndex& index, const Matrix& queries,
                     const JoinSpec& spec);

/// Validated flavor of ExactJoin for untrusted input: rejects an invalid
/// spec, empty/non-finite matrices, and a data/query dimension mismatch
/// with a Status instead of aborting; a worker failure (exception or
/// injected fault) cancels the remaining chunks and surfaces here as a
/// non-OK Status. Failpoint: "core/exact-join".
StatusOr<JoinResult> ExactJoinChecked(const Matrix& data,
                                      const Matrix& queries,
                                      const JoinSpec& spec,
                                      ThreadPool* pool = nullptr);

/// Validated flavor of IndexJoin: rejects an invalid spec and queries
/// that are empty, non-finite, or of the wrong dimension for `index`,
/// and returns the index's Status when it cannot answer the request
/// (e.g. an unsigned spec on the signed-only norm-range index).
StatusOr<JoinResult> IndexJoinChecked(const MipsIndex& index,
                                      const Matrix& queries,
                                      const JoinSpec& spec);

/// Definition 1 compliance of `result` against the exact join `truth`:
/// counts queries where truth has a match with score >= s but the result
/// reports nothing or reports a pair scoring < c*s. Returns the number
/// of violated queries (0 = the (cs, s) contract held everywhere) and,
/// through `recall`, the fraction of promised queries answered.
std::size_t VerifyJoinContract(const JoinResult& result,
                               const JoinResult& truth, const JoinSpec& spec,
                               double* recall);

}  // namespace ips

#endif  // IPS_CORE_SIMILARITY_JOIN_H_
