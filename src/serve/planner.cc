#include "serve/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/top_k.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace ips {
namespace {

/// The answer-path variants the planner prices. kAuto on the sketch row
/// is the §4.3 argmax descent (the index's native mode, taken when the
/// request reaches it with precision kAuto).
struct PlanVariant {
  QueryAlgo algo;
  QueryPrecision precision;
};

constexpr PlanVariant kVariants[] = {
    {QueryAlgo::kBruteForce, QueryPrecision::kExact},
    {QueryAlgo::kBruteForce, QueryPrecision::kQuantizedRerank},
    {QueryAlgo::kBallTree, QueryPrecision::kExact},
    {QueryAlgo::kLsh, QueryPrecision::kExact},
    {QueryAlgo::kLsh, QueryPrecision::kQuantizedRerank},
    {QueryAlgo::kSketch, QueryPrecision::kAuto},
};

// Safety margin an approximate path's recall must clear above the
// request's target (exact paths need none).
constexpr double kRecallMargin = 0.05;
// Weight the previous live estimate keeps at each audit; 1 - kDecay is
// the step toward the new observation.
constexpr double kDecay = 0.9;
// Audits a (segment, variant) estimate needs before it overrides the
// warmup calibration.
constexpr std::size_t kMinObservations = 4;

bool MatchesRequestedPrecision(QueryPrecision variant,
                               QueryPrecision requested) {
  if (requested == QueryPrecision::kAuto) return true;
  return variant == requested;
}

std::string VariantName(QueryAlgo algo, QueryPrecision precision) {
  std::string name(QueryAlgoName(algo));
  if (precision != QueryPrecision::kExact &&
      precision != QueryPrecision::kAuto) {
    name += "+";
    name += QueryPrecisionName(precision);
  }
  return name;
}

// Registry mirror of FeedbackCounters.
struct FeedbackMetrics {
  Counter* audits;
  Counter* evictions;
  Counter* hedged;

  static const FeedbackMetrics& Get() {
    static const FeedbackMetrics metrics = {
        MetricsRegistry::Global().GetCounter("serve.feedback.audits"),
        MetricsRegistry::Global().GetCounter("serve.feedback.evictions"),
        MetricsRegistry::Global().GetCounter("serve.feedback.hedged")};
    return metrics;
  }
};

}  // namespace

double DatasetProfile::NormSpread() const {
  if (min_norm <= 0.0) return std::numeric_limits<double>::infinity();
  return max_norm / min_norm;
}

DatasetProfile DatasetProfile::FromData(const Matrix& data) {
  DatasetProfile profile;
  profile.n = data.rows();
  profile.dim = data.cols();
  if (data.rows() == 0) return profile;
  profile.min_norm = std::numeric_limits<double>::infinity();
  double total = 0.0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const double norm = kernels::Norm(data.Row(i));
    profile.min_norm = std::min(profile.min_norm, norm);
    profile.max_norm = std::max(profile.max_norm, norm);
    total += norm;
  }
  profile.mean_norm = total / static_cast<double>(data.rows());
  return profile;
}

Planner::Planner(DatasetProfile profile, PlannerCalibration calibration,
                 std::size_t audit_every)
    : profile_(profile), calibration_(calibration), audit_every_(audit_every) {
  // Construction-time preconditions, not a query path.
  IPS_CHECK_GT(profile_.n, 0u);    // ipslint:allow(check-in-query)
  IPS_CHECK_GE(audit_every_, 1u);  // ipslint:allow(check-in-query)
}

std::size_t Planner::SegmentOf(const QueryOptions& request) {
  // k buckets: {1}, {2..8}, {9..}. Finer buckets would fragment the
  // audit stream; the planner's recall cliffs sit at k == 1 (argmax
  // paths) and "deep" k (bucket-set coverage), which this captures.
  std::size_t k_bucket = 0;
  if (request.k > 1) k_bucket = request.k <= 8 ? 1 : 2;
  return k_bucket * 2 + (request.is_signed ? 0 : 1);
}

double Planner::ExpectedRecall(QueryAlgo algo, QueryPrecision precision,
                               const QueryOptions& request) const {
  const bool calibrated = calibration_.probe_queries > 0;
  switch (algo) {
    case QueryAlgo::kBruteForce:
      if (precision == QueryPrecision::kQuantizedRerank) {
        return calibrated ? calibration_.quant_recall : 0.0;
      }
      return 1.0;
    case QueryAlgo::kBallTree:
      // Exact either way, but only signed descents are planned: the
      // unsigned bound is looser and the tree's cost is calibrated on
      // signed probes.
      return request.is_signed ? 1.0 : 0.0;
    case QueryAlgo::kLsh: {
      if (!calibrated) return 0.0;
      // k = 1 is judged on the warmup recall@1; anything deeper on the
      // warmup recall@5 — a bucket set that usually holds the argmax
      // can still miss most of a top-5 on skewed-norm data, and pricing
      // all k off recall@1 is exactly the stale-eligibility bug
      // BENCH_serve exposed (targets_met 0.07 at k=5).
      const double base = request.k > 1 ? calibration_.lsh_topk_recall
                                        : calibration_.lsh_recall;
      if (precision == QueryPrecision::kQuantizedRerank) {
        // Two independent approximations compound: the candidate set
        // must contain the answer AND the estimate pass must keep it.
        return base * calibration_.quant_recall;
      }
      return base;
    }
    case QueryAlgo::kSketch:
      // The Section 4.3 argmax descent recovers a single unsigned best;
      // the index's exact fallback for other shapes is never planned.
      if (request.is_signed || request.k != 1) return 0.0;
      return calibrated ? calibration_.sketch_recall : 0.0;
  }
  return 0.0;
}

double Planner::ExpectedDotProducts(QueryAlgo algo, QueryPrecision precision,
                                    const QueryOptions& request) const {
  const double n = static_cast<double>(profile_.n);
  switch (algo) {
    case QueryAlgo::kBruteForce: {
      if (precision == QueryPrecision::kQuantizedRerank) {
        const double survivors = static_cast<double>(
            SurvivorCount(request.k, profile_.n, request.candidate_budget));
        return n * calibration_.quant_cost_ratio + survivors;
      }
      return n;
    }
    case QueryAlgo::kBallTree:
      // Pruning measured on the warmup subsample; clamp to the full scan.
      return std::min(n, std::max(static_cast<double>(request.k),
                                  n * calibration_.tree_fraction));
    case QueryAlgo::kLsh: {
      const double candidates =
          std::min(n, n * calibration_.lsh_candidate_fraction);
      if (precision == QueryPrecision::kQuantizedRerank) {
        const double survivors = static_cast<double>(
            SurvivorCount(request.k, profile_.n, request.candidate_budget));
        return candidates * calibration_.quant_cost_ratio +
               std::min(candidates, survivors) +
               calibration_.lsh_probe_overhead;
      }
      return candidates + calibration_.lsh_probe_overhead;
    }
    case QueryAlgo::kSketch:
      // Shapes the argmax descent cannot answer run the exact scan.
      if (request.is_signed || request.k != 1) return n;
      return calibration_.sketch_cost;
  }
  return n;
}

StatusOr<PlanDecision> Planner::Plan(const QueryOptions& request) const {
  IPS_FAILPOINT("serve/plan");
  IPS_RETURN_IF_ERROR(ValidateQueryOptions(request));

  // One lock, one copy: the variant loop below prices from the copy and
  // never touches the mutex.
  SegmentState live;
  {
    MutexLock lock(mutex_);
    live = segments_[SegmentOf(request)];
  }

  const double budget = request.candidate_budget == 0
                            ? std::numeric_limits<double>::infinity()
                            : static_cast<double>(request.candidate_budget);

  // Two-tier selection: cheapest eligible variant inside the budget,
  // falling back to the cheapest eligible overall. Exact paths need no
  // margin; approximate paths must clear target + margin.
  PlanDecision best;
  bool found = false;
  bool best_in_budget = false;
  // When the request pins a precision, the recall bar turns advisory:
  // the cheapest answerable variant of that mode wins and the shortfall
  // is reported in the reason.
  PlanDecision fallback;
  bool fallback_found = false;
  for (const PlanVariant& variant : kVariants) {
    if (!MatchesRequestedPrecision(variant.precision, request.precision)) {
      continue;
    }
    double recall = ExpectedRecall(variant.algo, variant.precision, request);
    double cost =
        ExpectedDotProducts(variant.algo, variant.precision, request);
    const VariantState& state =
        live.variants[static_cast<std::size_t>(variant.algo)]
                     [static_cast<std::size_t>(variant.precision)];
    // Live re-fit numbers replace the warmup calibration once they have
    // kMinObservations audits, but only for variants the warmup deemed
    // answerable at all (recall 0 means "cannot answer this request
    // shape", not "bad recall").
    if (recall > 0.0 && state.observations >= kMinObservations) {
      recall = state.recall_ewma;
      cost = state.cost_ewma;
    }
    if (request.precision != QueryPrecision::kAuto && recall > 0.0 &&
        (!fallback_found || cost < fallback.expected_dot_products)) {
      fallback.algorithm = variant.algo;
      fallback.precision = variant.precision;
      fallback.expected_dot_products = cost;
      fallback.expected_recall = recall;
      fallback_found = true;
    }
    const double required =
        recall >= 1.0 ? request.recall_target
                      : request.recall_target + kRecallMargin;
    if (recall < required) continue;
    const bool in_budget = cost <= budget;
    const bool better =
        !found ||
        (in_budget && !best_in_budget) ||
        (in_budget == best_in_budget && cost < best.expected_dot_products);
    if (better) {
      best.algorithm = variant.algo;
      best.precision = variant.precision;
      best.expected_dot_products = cost;
      best.expected_recall = recall;
      found = true;
      best_in_budget = in_budget;
    }
  }
  bool recall_shortfall = false;
  if (!found && fallback_found) {
    best = fallback;
    found = true;
    best_in_budget = best.expected_dot_products <= budget;
    recall_shortfall = true;
  }
  if (!found) {
    if (request.precision != QueryPrecision::kAuto) {
      return Status::FailedPrecondition(
          std::string("no calibrated ") +
          std::string(QueryPrecisionName(request.precision)) +
          " path can answer this request (uncalibrated engine or "
          "unsupported query shape)");
    }
    // Unreachable: brute+exact has recall 1 and is always eligible. A
    // hot query path still reports the broken invariant as a Status
    // instead of aborting (ipslint: check-in-query).
    return Status::Internal("planner found no eligible variant");
  }

  best.reason = VariantName(best.algorithm, best.precision) + ": ~" +
                std::to_string(static_cast<std::size_t>(
                    best.expected_dot_products)) +
                " dots at recall>=" + std::to_string(best.expected_recall);
  if (recall_shortfall) {
    best.reason += " (recall target " +
                   std::to_string(request.recall_target) +
                   " not met by the requested precision)";
  }
  if (!best_in_budget) {
    best.reason += " (candidate budget " +
                   std::to_string(request.candidate_budget) + " exceeded)";
  }
  return best;
}

bool Planner::BeginAudit(const QueryOptions& request) const {
  MutexLock lock(mutex_);
  SegmentState& segment = segments_[SegmentOf(request)];
  const bool audit = segment.planned % audit_every_ == 0;
  ++segment.planned;
  return audit;
}

void Planner::RecordAudit(const QueryOptions& request, QueryAlgo algo,
                          QueryPrecision precision, double observed_recall,
                          double observed_cost) const {
  const FeedbackMetrics& metrics = FeedbackMetrics::Get();
  observed_recall = std::clamp(observed_recall, 0.0, 1.0);
  observed_cost = std::max(observed_cost, 0.0);
  bool evicted = false;
  {
    MutexLock lock(mutex_);
    VariantState& state =
        segments_[SegmentOf(request)]
            .variants[static_cast<std::size_t>(algo)]
                     [static_cast<std::size_t>(precision)];
    if (state.observations == 0) {
      // Seed the estimate from the warmup prior so early audits move a
      // calibrated number instead of averaging against zero.
      state.recall_ewma = ExpectedRecall(algo, precision, request);
      state.cost_ewma = ExpectedDotProducts(algo, precision, request);
    }
    const double step = 1.0 - kDecay;
    state.recall_ewma = kDecay * state.recall_ewma + step * observed_recall;
    state.cost_ewma = kDecay * state.cost_ewma + step * observed_cost;
    ++state.observations;
    // Eviction = the live estimate crossing below the eligibility bar
    // this segment's traffic is asking for (target + margin, the same
    // bar Plan applies to approximate paths). Eligibility commits only
    // once the estimate is live (>= kMinObservations) — the same
    // threshold at which Plan starts trusting it — so the first live
    // audit of a failing path counts as the flip instead of silently
    // pre-marking the variant ineligible during the warmup samples.
    const double bar = request.recall_target + kRecallMargin;
    const bool live = state.observations >= kMinObservations;
    const bool eligible = state.recall_ewma >= bar;
    if (live && state.eligible && !eligible) evicted = true;
    if (live) state.eligible = eligible;
    ++counters_.audits;
    if (evicted) ++counters_.evictions;
  }
  metrics.audits->Increment();
  if (evicted) metrics.evictions->Increment();
}

void Planner::NoteHedge() const {
  {
    MutexLock lock(mutex_);
    ++counters_.hedged;
  }
  FeedbackMetrics::Get().hedged->Increment();
}

FeedbackCounters Planner::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

double Planner::LiveRecall(const QueryOptions& request, QueryAlgo algo,
                           QueryPrecision precision) const {
  {
    MutexLock lock(mutex_);
    const VariantState& state =
        segments_[SegmentOf(request)]
            .variants[static_cast<std::size_t>(algo)]
                     [static_cast<std::size_t>(precision)];
    if (state.observations >= kMinObservations) {
      return state.recall_ewma;
    }
  }
  return ExpectedRecall(algo, precision, request);
}

}  // namespace ips
