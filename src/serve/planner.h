// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The cost-model planner behind the serving engine: given dataset
// statistics and a per-request (k, recall target, candidate budget), it
// picks the cheapest (algorithm, precision) variant expected to reach
// the target. The choice is genuinely workload-dependent — the
// Neyshabur–Srebro and Shrivastava ALSH analyses show the winner flips
// with norm distribution and recall target — so the model is calibrated
// from cheap micro-probes at engine warmup instead of hardcoded:
//
//   brute+exact   : recall 1, cost n
//   brute+quant   : measured rerank recall, cost n * quant ratio + survivors
//   tree+exact    : recall 1 (planned for signed requests), cost n *
//                   pruning fraction
//   lsh+exact     : measured probe recall, cost n * candidate fraction
//   lsh+quant     : compounded recall, quantized verification of candidates
//   sketch (§4.3) : measured argmax recall (unsigned k=1), cost ~ sketch rows
//                   (other shapes run the index's exact scan, priced at
//                   n and never planned)
//
// Eligible variants are those whose calibrated recall clears the
// request's target plus a 0.05 safety margin (exact paths need none);
// among the eligible, the planner returns the one with the fewest
// expected dot-equivalents (preferring ones inside the request's
// candidate budget when it is set). An explicit request precision
// restricts the enumeration to variants of that mode.
//
// The warmup numbers are only a prior (DESIGN.md §14). Live traffic is
// bucketed into workload segments keyed by (k bucket, signedness); the
// engine shadow-audits every audit_every-th can-miss answer per segment
// against the exact answer and feeds the observed (recall, cost) into a
// per-(segment, algo, precision) live estimate table (each audit moves
// it 0.1 of the way). The first audit seeds each estimate from the
// warmup prior; from the fourth audit on, the live numbers replace the
// prior in Plan, so a variant whose observed recall falls under target
// + margin is evicted for that segment and costs re-rank on measured
// work. Counters land in the registry as
// "serve.feedback.{audits, evictions, hedged}".

#ifndef IPS_SERVE_PLANNER_H_
#define IPS_SERVE_PLANNER_H_

#include <array>
#include <cstddef>

#include "core/query.h"
#include "linalg/matrix.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ips {

/// Dataset statistics the cost model conditions on.
struct DatasetProfile {
  std::size_t n = 0;
  std::size_t dim = 0;
  double min_norm = 0.0;
  double max_norm = 0.0;
  double mean_norm = 0.0;

  /// max/min norm ratio; large values indicate the skewed-norm regime
  /// where asymmetric LSH transforms degrade.
  double NormSpread() const;

  /// Scans `data` once for n, dim, and the norm distribution.
  static DatasetProfile FromData(const Matrix& data);
};

/// Micro-probe measurements taken at engine warmup (on a subsample, so
/// warmup stays cheap; fractions extrapolate to the full dataset).
struct PlannerCalibration {
  /// Fraction of points the ball tree scored per probe query (<= 1).
  double tree_fraction = 1.0;
  /// Mean LSH candidates per probe query as a fraction of n (<= 1).
  double lsh_candidate_fraction = 1.0;
  /// Per-query hashing overhead of the LSH path in dot-equivalents.
  double lsh_probe_overhead = 0.0;
  /// Measured recall@1 of the LSH path on the probe queries.
  double lsh_recall = 0.0;
  /// Measured recall@5 of the LSH path on the probe queries (overlap
  /// with the exact top-5, averaged). This is the eligibility number
  /// for k > 1 requests: a bucket set that usually contains the single
  /// argmax can still miss most of a top-5 on skewed-norm data, so
  /// pricing k > 1 off recall@1 kept LSH eligible for workloads it
  /// demonstrably failed (BENCH_serve targets_met 0.07).
  double lsh_topk_recall = 0.0;
  /// Measured unsigned recall@1 of the sketch path on the probe queries.
  double sketch_recall = 0.0;
  /// Per-query sketch work in dot-equivalents.
  double sketch_cost = 0.0;
  /// Measured recall@5 of the quantized-rerank scan on the probe
  /// queries (intersection with the exact top-5, averaged).
  double quant_recall = 0.0;
  /// Billing rate of one int8 row estimate in exact-dot equivalents
  /// (kQuantEstimateDotEquivalent; kept in the calibration so snapshots
  /// pin the prices a warm start serves with).
  double quant_cost_ratio = 0.25;
  /// Probe queries the calibration averaged over (0 = uncalibrated:
  /// approximate paths are considered recall-0 and never selected).
  std::size_t probe_queries = 0;
};

/// Lifetime counters of the loop (snapshot; mirrored in the registry).
struct FeedbackCounters {
  /// Exact shadow audits run.
  std::size_t audits = 0;
  /// Eligibility flips observed->ineligible: an audit pushed a
  /// variant's live recall below the target + margin bar its segment
  /// had been clearing.
  std::size_t evictions = 0;
  /// Audited answers that missed their recall target and were replaced
  /// by the exact answer before returning.
  std::size_t hedged = 0;
};

/// The per-dataset planner. Owns no indexes and runs no queries: the
/// Engine drives audits and reports observations. Thread-safe: the live
/// table sits behind one mutex, and Plan copies its request's segment
/// once and prices without the lock.
class Planner {
 public:
  /// `audit_every` (>= 1): one exact shadow audit per this many
  /// planned can-miss queries per segment (EngineOptions::audit_every).
  Planner(DatasetProfile profile, PlannerCalibration calibration,
          std::size_t audit_every);

  /// Picks an (algorithm, precision) variant for `request`, pricing
  /// from the segment's live estimates where they have 4 audits and
  /// from the warmup calibration elsewhere.
  /// Failpoint: "serve/plan". When `request.precision` is explicit the
  /// enumeration is restricted to that mode and the recall bar becomes
  /// advisory — the cheapest matching variant is returned with the
  /// shortfall noted in the decision's reason.
  [[nodiscard]] StatusOr<PlanDecision> Plan(const QueryOptions& request) const
      IPS_EXCLUDES(mutex_);

  /// True when this request should run an exact shadow audit (bumps
  /// the segment's query counter; first query of a segment audits, then
  /// every audit_every-th).
  bool BeginAudit(const QueryOptions& request) const IPS_EXCLUDES(mutex_);

  /// Feeds one audit observation into the (segment of `request`,
  /// `algo`, `precision`) estimate: recall in [0, 1], cost in
  /// dot-equivalents. Detects eligibility flips against the request's
  /// target + the 0.05 margin.
  void RecordAudit(const QueryOptions& request, QueryAlgo algo,
                   QueryPrecision precision, double observed_recall,
                   double observed_cost) const IPS_EXCLUDES(mutex_);

  /// The engine substituted the exact answer for an audited miss.
  void NoteHedge() const IPS_EXCLUDES(mutex_);

  FeedbackCounters counters() const IPS_EXCLUDES(mutex_);

  /// Live recall estimate of (segment of `request`, algo, precision),
  /// or the warmup expectation while it has fewer than 4 audits.
  double LiveRecall(const QueryOptions& request, QueryAlgo algo,
                    QueryPrecision precision) const IPS_EXCLUDES(mutex_);

  /// Expected dot-equivalents if (`algo`, `precision`) answered
  /// `request`; used for A/B accounting by benches. kAuto prices the
  /// algorithm's native mode (exact for brute/tree/lsh, the argmax
  /// descent or the exact fallback scan for sketch).
  double ExpectedDotProducts(QueryAlgo algo, QueryPrecision precision,
                             const QueryOptions& request) const;

  const DatasetProfile& profile() const { return profile_; }
  const PlannerCalibration& calibration() const { return calibration_; }

  /// Segment index of `request` (k bucket x signedness); exposed for
  /// tests that pin the bucketing.
  static std::size_t SegmentOf(const QueryOptions& request);
  static constexpr std::size_t kNumSegments = 6;

 private:
  /// Calibrated recall the model expects of (`algo`, `precision`) for
  /// `request`; 0 when the variant cannot answer the request at all
  /// (e.g. signed queries on the sketch argmax path).
  double ExpectedRecall(QueryAlgo algo, QueryPrecision precision,
                        const QueryOptions& request) const;

  struct VariantState {
    double recall_ewma = 0.0;
    double cost_ewma = 0.0;
    std::size_t observations = 0;
    /// Last eligibility verdict (live recall vs target + margin); the
    /// eviction counter fires on true -> false flips.
    bool eligible = true;
  };

  struct SegmentState {
    std::size_t planned = 0;
    std::array<std::array<VariantState, kNumQueryPrecisions>, kNumQueryAlgos>
        variants{};
  };

  DatasetProfile profile_;
  PlannerCalibration calibration_;
  std::size_t audit_every_;

  mutable Mutex mutex_;
  mutable std::array<SegmentState, kNumSegments> segments_
      IPS_GUARDED_BY(mutex_);
  mutable FeedbackCounters counters_ IPS_GUARDED_BY(mutex_);
};

}  // namespace ips

#endif  // IPS_SERVE_PLANNER_H_
