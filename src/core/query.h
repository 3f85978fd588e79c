// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The unified query API every answer path speaks (see DESIGN.md §8):
//
//   QueryOptions -- one request shape (k, recall target, candidate
//       budget, forced algorithm, trace on/off) accepted by every
//       index's Query entry point and carried inside the serving
//       layer's Request envelope (serve/request.h; transport-level
//       fields like the deadline live in RequestContext, not here);
//   QueryStats   -- one accounting shape populated by every path, with
//       per-algorithm extensions namespaced as metric labels in
//       `metrics` instead of bespoke struct fields;
//   QueryResult  -- matches + stats + the planner's decision.
//
// These are the only request/response types; the serve layer's former
// aliases (TopKRequest, ServeStats, PlanRequest, ServeAlgo) are gone.

#ifndef IPS_CORE_QUERY_H_
#define IPS_CORE_QUERY_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace ips {

/// The four answer paths a query can be dispatched to.
enum class QueryAlgo {
  kBruteForce = 0,
  kBallTree = 1,
  kLsh = 2,
  kSketch = 3,
};

inline constexpr std::size_t kNumQueryAlgos = 4;

/// Short stable name of `algo` ("brute", "tree", "lsh", "sketch"); also
/// the algorithm's span name and registry metric prefix segment.
std::string_view QueryAlgoName(QueryAlgo algo);

/// Scoring precision of the answer path (DESIGN.md §13). The one
/// approximate mode runs the two-stage scorer: an int8 estimate pass
/// ranks every candidate, an oversampled survivor set >= k is kept, and
/// survivors are re-ranked with exact double-precision dots — returned
/// scores are always exact; only the *selection* is approximate.
enum class QueryPrecision {
  /// Let the planner (or the path's natural default) decide: exact for
  /// brute/tree/lsh, the §4.3 argmax descent for unsigned k = 1 on the
  /// sketch index (other sketch shapes fall back to the exact scan).
  kAuto = 0,
  /// Exact double-precision scoring throughout.
  kExact = 1,
  /// int8 quantized estimate pass + exact re-rank (brute, lsh).
  kQuantizedRerank = 2,
};

inline constexpr std::size_t kNumQueryPrecisions = 3;

/// Short stable name of `precision` ("auto", "exact", "quant"); metric
/// label segment and bench JSON key.
std::string_view QueryPrecisionName(QueryPrecision precision);

/// One top-k query, uniform across the engine, the scheduler, and every
/// index. Fields an answer path cannot honor are rejected (forced tree
/// with a quantized precision). Purely algorithmic: transport-level fields
/// (tenant, priority, deadline) live in serve::RequestContext so batch
/// coalescing can key on this struct alone.
struct QueryOptions {
  std::size_t k = 1;
  /// Fraction of the exact top-k the answer must recover, in (0, 1].
  double recall_target = 0.9;
  /// Soft cap on exact dot products (0 = unbounded).
  std::size_t candidate_budget = 0;
  bool is_signed = true;
  /// Bypass the planner and force an answer path (A/B comparisons,
  /// benchmarks). The forced path must be able to answer the request
  /// (e.g. the tree is exact-only) or the query returns kInvalidArgument.
  std::optional<QueryAlgo> force_algorithm;
  /// Scoring precision. kAuto lets the planner pick any variant whose
  /// calibrated recall clears the target; an explicit value forces the
  /// mode, and a path that cannot honor it (tree + kQuantizedRerank,
  /// sketch + kExact) rejects with kInvalidArgument at query time.
  QueryPrecision precision = QueryPrecision::kAuto;
  /// Record a per-stage span tree for this query (published through
  /// QueryStats::trace and the global TraceRing).
  bool trace = false;
};

/// Validates the request fields: k >= 1, recall target in (0, 1],
/// precision a known mode.
Status ValidateQueryOptions(const QueryOptions& options);

/// Why a plan resolved to its variant.
enum class PlanReason {
  /// The cheapest variant whose expected recall clears the request's
  /// target (approximate variants need the 0.05 margin on top).
  kCheapestEligible = 0,
  /// The request pinned a precision and no variant of that mode clears
  /// the target: the cheapest of the mode, with the bar advisory.
  kRecallShortfall = 1,
  /// The request forced the algorithm; the plan is priced, not chosen.
  kForced = 2,
};

/// The planner's verdict for one query (core-level so QueryResult can
/// carry it; produced by serve::Planner).
struct PlanDecision {
  QueryAlgo algorithm = QueryAlgo::kBruteForce;
  /// Scoring precision the plan resolved to. kAuto appears only when
  /// the decision is the sketch index's native §4.3 argmax descent
  /// (neither exact nor a two-stage re-rank); every other decision
  /// commits to a concrete mode.
  QueryPrecision precision = QueryPrecision::kExact;
  double expected_dot_products = 0.0;
  double expected_recall = 1.0;
  PlanReason reason = PlanReason::kCheapestEligible;
  /// The expected cost exceeds the request's candidate budget (no
  /// eligible variant fit it); combines with any reason.
  bool over_budget = false;
};

/// What one query cost and how it was answered — the single accounting
/// struct of every path. Algorithm-specific detail goes into `metrics`
/// under registry metric names, not into new fields.
struct QueryStats {
  QueryAlgo algorithm = QueryAlgo::kBruteForce;
  /// Candidate data points whose exact score was computed.
  std::size_t candidates = 0;
  /// Exact inner products evaluated (dot-product-equivalent work for the
  /// sketch descent, which spends its time on sketch-row products, and
  /// for the two-stage path, whose int8 estimate pass is billed at a
  /// fixed fraction of an exact dot).
  std::size_t dot_products = 0;
  /// Two-stage accounting: candidates ranked by the estimate pass but
  /// pruned before exact scoring, and exact dots spent on the survivor
  /// re-rank. Zero on exact paths.
  std::size_t candidates_pruned = 0;
  std::size_t rerank_exact_dots = 0;
  /// Engine execution time (planning + search), excluding queue time.
  double exec_seconds = 0.0;
  /// Time spent queued in the batch scheduler; 0 for direct calls.
  double queue_seconds = 0.0;
  /// False when the request finished after its deadline (scheduler only).
  bool deadline_met = true;
  /// Queries whose work this object accounts for: 1 for a single query,
  /// the member count after Merge()-ing a batch's per-query stats.
  std::size_t batch_size = 1;
  /// Labeled per-algorithm extensions, e.g. "lsh.tables.buckets_probed".
  MetricSet metrics;
  /// Per-stage span tree, when QueryOptions::trace was set.
  std::shared_ptr<const Trace> trace;

  double TotalSeconds() const { return exec_seconds + queue_seconds; }

  /// Folds `other` into this: counters and times sum, batch_size sums,
  /// deadline_met ANDs, labeled metrics add key-wise. The algorithm and
  /// trace of `this` are kept (an aggregate describes one batch, whose
  /// members share a path and a batch-level trace). This is the one
  /// aggregation primitive — there is no separate batch-stats type.
  void Merge(const QueryStats& other);
};

/// One served answer: ranked matches plus what they cost and why that
/// path was chosen.
struct QueryResult {
  std::vector<SearchMatch> matches;
  QueryStats stats;
  PlanDecision plan;
  /// True when the answer covers only part of the dataset: a
  /// scatter-gather query lost one or more shards (the
  /// "serve.shard.failed" label of stats.metrics)
  /// but still returned the merged top-k of the surviving shards
  /// (graceful degradation, DESIGN.md §11). Always false on
  /// single-engine paths.
  bool partial = false;
};

}  // namespace ips

#endif  // IPS_CORE_QUERY_H_
