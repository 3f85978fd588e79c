// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Top-k MIPS: the paper's footnote 1 notes that join results commonly
// limit each tuple's multiplicity to some k; this header provides k-best
// retrieval. Exact engines (brute force and a k-best variant of the
// ball-tree branch-and-bound) return the true top-k; the LSH engine
// returns the k best among its candidates. Every list is in RanksBefore
// order (linalg/search_match.h): score descending, then the smaller
// data index.
//
// QueryQuantizedRerank / QueryFromCandidatesQuantized are the two-stage
// scorer (DESIGN.md §13): an int8 estimate pass ranks the candidate
// set, an oversampled survivor set >= k is kept, and survivors are
// re-ranked with exact double-precision dots. Returned scores are
// always exact; recall is governed by the oversampling factor and
// calibrated by the planner.

#ifndef IPS_CORE_TOP_K_H_
#define IPS_CORE_TOP_K_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/mips_index.h"
#include "core/query.h"
#include "core/types.h"
#include "linalg/matrix.h"
#include "linalg/quantized.h"
#include "obs/trace.h"

namespace ips {

/// Exact top-k by full scan in RanksBefore order: the oracle every exact
/// path matches bitwise, tie order included. Scores are signed or
/// absolute per `is_signed`. Returns min(k, rows) entries.
std::vector<SearchMatch> TopKBruteForce(const Matrix& data,
                                        std::span<const double> q,
                                        std::size_t k, bool is_signed);

/// Approximate top-k from an LshMipsIndex's candidate set: the k best
/// verified candidates (may return fewer than k).
std::vector<SearchMatch> TopKFromCandidates(
    const Matrix& data, std::span<const double> q,
    const std::vector<std::size_t>& candidates, std::size_t k,
    bool is_signed);

/// The overlap count behind recall@k: how many entries of `truth` have
/// their index somewhere in `got` (order and scores ignored). Divide by
/// truth.size() for recall. Quadratic in k, which stays small wherever
/// recall is measured.
std::size_t TopKHits(std::span<const SearchMatch> truth,
                     std::span<const SearchMatch> got);

/// Instrumented flavor of TopKBruteForce behind the unified query API:
/// fills `stats` (candidates, dot products, "core.brute.*" registry
/// counters) and records a "brute" span when `trace` is non-null. The
/// plain TopKBruteForce above stays uninstrumented on purpose — it is
/// the baseline the obs-overhead benchmark compares against.
std::vector<SearchMatch> QueryBruteForce(const Matrix& data,
                                         std::span<const double> q,
                                         const QueryOptions& options,
                                         QueryStats* stats = nullptr,
                                         Trace* trace = nullptr);

/// Instrumented flavor of TopKFromCandidates: the LSH verify -> top-k
/// tail of a candidate pipeline. Records "verify" and "top-k" spans
/// under the trace's open span and adds the verified-candidate counts
/// to `stats`.
std::vector<SearchMatch> QueryFromCandidates(
    const Matrix& data, std::span<const double> q,
    const std::vector<std::size_t>& candidates, const QueryOptions& options,
    QueryStats* stats = nullptr, Trace* trace = nullptr);

// ---------------------------------------------------------------------
// Two-stage scoring (estimate pass -> survivors -> exact re-rank).
// ---------------------------------------------------------------------

/// Survivor policy of the quantized path: keep max(k * multiplier,
/// floor) candidates for exact re-ranking. int8 estimates are tight
/// (per-entry error <= scale/2), so modest oversampling suffices.
inline constexpr double kQuantSurvivorMultiplier = 4.0;
inline constexpr std::size_t kQuantSurvivorFloor = 32;

/// Billing rate of one int8 estimate in exact-dot equivalents, the rate
/// QueryStats::dot_products charges for the estimate pass. Kept static
/// (rather than timed per run) so stats are deterministic; the planner
/// prices the real cost from its calibrated timing ratio.
inline constexpr double kQuantEstimateDotEquivalent = 0.25;

/// Survivor-set size: max(ceil(k * kQuantSurvivorMultiplier),
/// kQuantSurvivorFloor), capped by the candidate budget when set (but
/// never below k) and by `n`.
std::size_t SurvivorCount(std::size_t k, std::size_t n,
                          std::size_t candidate_budget);

/// Indices of the `m` largest estimates in RanksBefore order; absolute
/// values when `absolute`. Returns all indices when m >= estimates.size().
std::vector<std::size_t> TopEstimateIndices(std::span<const double> estimates,
                                            std::size_t m, bool absolute);

/// Two-stage brute force, quantized flavor: one dispatched int8 pass
/// estimates every row, the survivor set is re-ranked exactly. Records
/// "quant.estimate" / "quant.rerank" spans, fills the two-stage stats
/// fields (candidates_pruned, rerank_exact_dots), and bumps the
/// "core.quant.*" registry counters. `qdata` must be the quantization
/// of `data`.
std::vector<SearchMatch> QueryQuantizedRerank(
    const Matrix& data, const QuantizedMatrix& qdata,
    std::span<const double> q, const QueryOptions& options,
    QueryStats* stats = nullptr, Trace* trace = nullptr);

/// Candidate-set flavor of the quantized two-stage path (LSH
/// verification): estimates the gathered candidates, prunes to the
/// survivor set, re-ranks exactly. Falls back to plain exact
/// verification when the candidate set is already no larger than the
/// survivor set.
std::vector<SearchMatch> QueryFromCandidatesQuantized(
    const Matrix& data, const QuantizedMatrix& qdata,
    std::span<const double> q, const std::vector<std::size_t>& candidates,
    const QueryOptions& options, QueryStats* stats = nullptr,
    Trace* trace = nullptr);

}  // namespace ips

#endif  // IPS_CORE_TOP_K_H_
