#include "serve/planner.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>

#include "core/top_k.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace ips {
namespace {

// Recall sources and cost models the rows share. A calibration with no
// probe queries leaves every measured recall at 0: such rows are never
// planned.
double Measured(const PlannerCalibration& calibration, double recall) {
  return calibration.probe_queries > 0 ? recall : 0.0;
}

// k = 1 is judged on the warmup recall@1; anything deeper on the warmup
// recall@5 -- a bucket set that usually holds the argmax can still miss
// most of a top-5 on skewed-norm data, and pricing all k off recall@1
// is exactly the stale-eligibility bug BENCH_serve exposed (targets_met
// 0.07 at k=5).
double LshRecall(const PlannerCalibration& calibration,
                 const QueryOptions& request) {
  return Measured(calibration, request.k > 1 ? calibration.lsh_topk_recall
                                             : calibration.lsh_recall);
}

double LshCandidates(const DatasetProfile& profile,
                     const PlannerCalibration& calibration) {
  const double n = static_cast<double>(profile.n);
  return std::min(n, n * calibration.lsh_candidate_fraction);
}

double Survivors(const DatasetProfile& profile, const QueryOptions& request) {
  return static_cast<double>(
      SurvivorCount(request.k, profile.n, request.candidate_budget));
}

// The rows, in the order Plan breaks cost ties by. Every fact about a
// variant is here; nothing else in the serve layer names one. The
// models take (profile, calibration, request), as PlanVariant::Model.
constexpr PlanVariant kVariants[] = {
    {QueryAlgo::kBruteForce, QueryPrecision::kExact, /*can_miss=*/false,
     /*planned_for=*/nullptr, /*refuses=*/nullptr, /*refusal=*/nullptr,
     /*recall=*/[](const auto&, const auto&, const auto&) { return 1.0; },
     /*cost=*/[](const auto& profile, const auto&, const auto&) {
       return static_cast<double>(profile.n);
     }},
    {QueryAlgo::kBruteForce, QueryPrecision::kQuantizedRerank,
     /*can_miss=*/true, nullptr, nullptr, nullptr,
     [](const auto&, const auto& calibration, const auto&) {
       return Measured(calibration, calibration.quant_recall);
     },
     [](const auto& profile, const auto& calibration, const auto& request) {
       return static_cast<double>(profile.n) * calibration.quant_cost_ratio +
              Survivors(profile, request);
     }},
    // Exact, but the serve layer routes only signed requests here,
    // forced or planned: the unsigned bound is looser and the tree's
    // cost is calibrated on signed probes (the index itself also
    // answers unsigned ones).
    {QueryAlgo::kBallTree, QueryPrecision::kExact, /*can_miss=*/false,
     nullptr,
     /*refuses=*/[](const QueryOptions& request) { return !request.is_signed; },
     "the serving engine routes only signed queries to the ball tree",
     [](const auto&, const auto&, const auto&) { return 1.0; },
     // Pruning measured on the warmup subsample; clamp to the full scan.
     [](const auto& profile, const auto& calibration, const auto& request) {
       const double n = static_cast<double>(profile.n);
       return std::min(n, std::max(static_cast<double>(request.k),
                                   n * calibration.tree_fraction));
     }},
    {QueryAlgo::kLsh, QueryPrecision::kExact, /*can_miss=*/true, nullptr,
     nullptr, nullptr,
     [](const auto&, const auto& calibration, const auto& request) {
       return LshRecall(calibration, request);
     },
     [](const auto& profile, const auto& calibration, const auto&) {
       return LshCandidates(profile, calibration) +
              calibration.lsh_probe_overhead;
     }},
    // Two independent approximations compound: the candidate set must
    // contain the answer AND the estimate pass must keep it.
    {QueryAlgo::kLsh, QueryPrecision::kQuantizedRerank, /*can_miss=*/true,
     nullptr, nullptr, nullptr,
     [](const auto&, const auto& calibration, const auto& request) {
       return LshRecall(calibration, request) * calibration.quant_recall;
     },
     [](const auto& profile, const auto& calibration, const auto& request) {
       const double candidates = LshCandidates(profile, calibration);
       return candidates * calibration.quant_cost_ratio +
              std::min(candidates, Survivors(profile, request)) +
              calibration.lsh_probe_overhead;
     }},
    // kAuto on the sketch index: the Section 4.3 argmax descent, which
    // recovers a single unsigned best. Other shapes run the index's
    // exact fallback scan, priced at n and never planned.
    {QueryAlgo::kSketch, QueryPrecision::kAuto, /*can_miss=*/true,
     /*planned_for=*/
     [](const QueryOptions& request) {
       return !request.is_signed && request.k == 1;
     },
     nullptr, nullptr,
     [](const auto&, const auto& calibration, const auto&) {
       return Measured(calibration, calibration.sketch_recall);
     },
     [](const auto& profile, const auto& calibration, const auto& request) {
       return request.is_signed || request.k != 1
                  ? static_cast<double>(profile.n)
                  : calibration.sketch_cost;
     }},
};
static_assert(std::size(kVariants) == Planner::kNumVariants);

// The row of (`algo`, `precision`); a precision the algorithm has no row
// for (kAuto, or one its index rejects) takes the algorithm's native
// row, its first. kNumVariants when `algo` has no row at all.
std::size_t RowOf(QueryAlgo algo, QueryPrecision precision) {
  std::size_t native = Planner::kNumVariants;
  for (std::size_t v = 0; v < Planner::kNumVariants; ++v) {
    if (kVariants[v].algo != algo) continue;
    if (kVariants[v].precision == precision) return v;
    native = std::min(native, v);
  }
  return native;
}

// Safety margin an approximate path's recall must clear above the
// request's target (exact paths need none).
constexpr double kRecallMargin = 0.05;
// Weight the previous live estimate keeps at each audit; 1 - kDecay is
// the step toward the new observation.
constexpr double kDecay = 0.9;
// Audits a (segment, variant) estimate needs before it overrides the
// warmup calibration.
constexpr std::size_t kMinObservations = 4;

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

std::span<const PlanVariant> Planner::Variants() { return kVariants; }

StatusOr<PlanDecision> Planner::Plan(const QueryOptions& request) const {
  if (request.force_algorithm.has_value()) {
    IPS_RETURN_IF_ERROR(ValidateQueryOptions(request));
    const std::size_t v = RowOf(*request.force_algorithm, request.precision);
    if (v == kNumVariants) {
      return Status::InvalidArgument("unknown serve algorithm");
    }
    const PlanVariant& row = kVariants[v];
    if (row.refuses != nullptr && row.refuses(request)) {
      return Status::InvalidArgument(row.refusal);
    }
    // A forced path keeps the request's precision verbatim (kAuto runs
    // the path's native mode); the index rejects combinations it cannot
    // honor.
    return PlanDecision{*request.force_algorithm, request.precision,
                        row.cost(profile_, calibration_, request),
                        /*expected_recall=*/0.0, PlanReason::kForced};
  }
  IPS_FAILPOINT("serve/plan");
  IPS_RETURN_IF_ERROR(ValidateQueryOptions(request));

  // One lock, one copy: the row loop below prices from the copy and
  // never touches the mutex.
  std::array<LiveEstimate, kNumVariants> live;
  {
    MutexLock lock(mutex_);
    live = segments_[SegmentOf(request)].live;
  }

  const double budget = request.candidate_budget == 0
                            ? std::numeric_limits<double>::infinity()
                            : static_cast<double>(request.candidate_budget);

  // Two-tier selection: cheapest eligible row inside the budget,
  // falling back to the cheapest eligible overall. Exact paths need no
  // margin; approximate paths must clear target + margin.
  PlanDecision best;
  bool found = false;
  bool best_in_budget = false;
  // When the request pins a precision, the recall bar turns advisory:
  // the cheapest answerable row of that mode wins, marked
  // kRecallShortfall.
  PlanDecision fallback;
  bool fallback_found = false;
  for (std::size_t v = 0; v < kNumVariants; ++v) {
    const PlanVariant& row = kVariants[v];
    if (request.precision != QueryPrecision::kAuto &&
        row.precision != request.precision) {
      continue;
    }
    if ((row.refuses != nullptr && row.refuses(request)) ||
        (row.planned_for != nullptr && !row.planned_for(request))) {
      continue;
    }
    double recall = row.recall(profile_, calibration_, request);
    double cost = row.cost(profile_, calibration_, request);
    // Live re-fit numbers replace the warmup calibration once they have
    // kMinObservations audits, but only for rows the warmup deemed
    // answerable at all (recall 0 means an uncalibrated path, not a
    // bad one).
    if (recall > 0.0 && live[v].observations >= kMinObservations) {
      recall = live[v].recall_ewma;
      cost = live[v].cost_ewma;
    }
    if (request.precision != QueryPrecision::kAuto && recall > 0.0 &&
        (!fallback_found || cost < fallback.expected_dot_products)) {
      fallback = {row.algo, row.precision, cost, recall};
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
      best = {row.algo, row.precision, cost, recall};
      found = true;
      best_in_budget = in_budget;
    }
  }
  if (!found && fallback_found) {
    best = fallback;
    found = true;
    best_in_budget = best.expected_dot_products <= budget;
    best.reason = PlanReason::kRecallShortfall;
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
  best.over_budget = !best_in_budget;
  return best;
}

bool Planner::BeginAudit(const QueryOptions& request,
                         const PlanDecision& plan) const {
  // Forced paths are A/B probes, so only planner-routed answers are
  // audited, under any precision: an explicit precision still lets the
  // planner pick a row that can miss, and the audit trains that row and
  // hedges its miss without changing the caller's mode. Only rows that
  // can miss are audited -- not rows whose expected recall is under
  // 1.0: a path whose warmup recall calibrated to exactly 1.0 must
  // still be audited, or the loop is blind to it degrading under shift.
  const std::size_t v = RowOf(plan.algorithm, plan.precision);
  if (request.force_algorithm.has_value() || v == kNumVariants ||
      !kVariants[v].can_miss) {
    return false;
  }
  MutexLock lock(mutex_);
  SegmentState& segment = segments_[SegmentOf(request)];
  const bool audit = segment.planned % audit_every_ == 0;
  ++segment.planned;
  return audit;
}

void Planner::RecordAudit(const QueryOptions& request, QueryAlgo algo,
                          QueryPrecision precision, double observed_recall,
                          double observed_cost) const {
  const std::size_t v = RowOf(algo, precision);
  if (v == kNumVariants) return;
  const FeedbackMetrics& metrics = FeedbackMetrics::Get();
  observed_recall = std::clamp(observed_recall, 0.0, 1.0);
  observed_cost = std::max(observed_cost, 0.0);
  bool evicted = false;
  {
    MutexLock lock(mutex_);
    LiveEstimate& state = segments_[SegmentOf(request)].live[v];
    if (state.observations == 0) {
      // Seed the estimate from the warmup prior so early audits move a
      // calibrated number instead of averaging against zero.
      state.recall_ewma = kVariants[v].recall(profile_, calibration_, request);
      state.cost_ewma = kVariants[v].cost(profile_, calibration_, request);
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

}  // namespace ips
