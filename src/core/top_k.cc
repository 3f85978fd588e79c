#include "core/top_k.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace ips {
namespace {

// The k best rows by score: row rows[j] scores scores[j] (row j itself
// when `rows` is empty), as absolute values unless `is_signed`, in
// RanksBefore order. k = 1 (the (cs, s)-search behind IndexJoin) is one
// pass; ExactJoin does not come here, it runs BlockTopK at k = 1.
// Deeper k still sorts every candidate: a TopKHeap makes this
// sequential path several times faster, which moves bench_serve's
// enforced batched-vs-sequential gate (batched.speedup), so it waits
// for its own decision about that gate.
std::vector<SearchMatch> KBest(std::span<const double> scores,
                               std::span<const std::size_t> rows,
                               std::size_t k, bool is_signed) {
  const auto match = [&](std::size_t j) {
    return SearchMatch{rows.empty() ? j : rows[j],
                       is_signed ? scores[j] : std::abs(scores[j])};
  };
  if (k == 1) {
    if (scores.empty()) return {};
    SearchMatch best = match(0);
    for (std::size_t j = 1; j < scores.size(); ++j) {
      const SearchMatch candidate = match(j);
      if (RanksBefore(candidate, best)) best = candidate;
    }
    return {best};
  }
  std::vector<SearchMatch> scored;
  scored.reserve(scores.size());
  for (std::size_t j = 0; j < scores.size(); ++j) scored.push_back(match(j));
  std::sort(scored.begin(), scored.end(), RanksBefore);
  if (scored.size() > k) scored.resize(k);
  return scored;
}

}  // namespace

std::vector<SearchMatch> TopKBruteForce(const Matrix& data,
                                        std::span<const double> q,
                                        std::size_t k, bool is_signed) {
  IPS_CHECK_GE(k, 1u);
  std::vector<double> raw(data.rows());
  kernels::MatVec(data, q, raw);
  return KBest(raw, {}, k, is_signed);
}

std::vector<SearchMatch> TopKFromCandidates(
    const Matrix& data, std::span<const double> q,
    const std::vector<std::size_t>& candidates, std::size_t k,
    bool is_signed) {
  IPS_CHECK_GE(k, 1u);
  std::vector<double> raw(candidates.size());
  kernels::GatherScores(data, candidates, q, raw);
  return KBest(raw, candidates, k, is_signed);
}

std::size_t TopKHits(std::span<const SearchMatch> truth,
                     std::span<const SearchMatch> got) {
  std::size_t hits = 0;
  for (const SearchMatch& t : truth) {
    hits += std::any_of(got.begin(), got.end(), [&](const SearchMatch& g) {
      return g.index == t.index;
    });
  }
  return hits;
}

std::vector<SearchMatch> QueryBruteForce(const Matrix& data,
                                         std::span<const double> q,
                                         const QueryOptions& options,
                                         QueryStats* stats, Trace* trace) {
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("core.brute.queries");
  static Counter* const points_scored =
      MetricsRegistry::Global().GetCounter("core.brute.points_scored");
  std::vector<SearchMatch> matches;
  {
    TraceSpan span(trace, "brute");
    matches = TopKBruteForce(data, q, options.k, options.is_signed);
    span.AddCount("points_scored", data.rows());
  }
  // One pair of per-thread relaxed increments per query — nothing in
  // the scan loop itself, so the instrumented path tracks the plain one.
  queries->Increment();
  points_scored->Add(data.rows());
  if (stats != nullptr) {
    stats->algorithm = QueryAlgo::kBruteForce;
    stats->candidates += data.rows();
    stats->dot_products += data.rows();
  }
  return matches;
}

std::vector<SearchMatch> QueryFromCandidates(
    const Matrix& data, std::span<const double> q,
    const std::vector<std::size_t>& candidates, const QueryOptions& options,
    QueryStats* stats, Trace* trace) {
  static Counter* const verified =
      MetricsRegistry::Global().GetCounter("core.candidates_verified");
  std::vector<double> raw(candidates.size());
  {
    TraceSpan span(trace, "verify");
    kernels::GatherScores(data, candidates, q, raw);
    span.AddCount("candidates", candidates.size());
  }
  std::vector<SearchMatch> matches;
  {
    TraceSpan span(trace, "top-k");
    matches = KBest(raw, candidates, options.k, options.is_signed);
    span.AddCount("k", options.k);
  }
  verified->Add(candidates.size());
  if (stats != nullptr) {
    stats->candidates += candidates.size();
    stats->dot_products += candidates.size();
  }
  return matches;
}

// ---------------------------------------------------------------------
// Two-stage scoring.
// ---------------------------------------------------------------------

std::size_t SurvivorCount(std::size_t k, std::size_t n,
                          std::size_t candidate_budget) {
  std::size_t m = std::max(
      static_cast<std::size_t>(
          std::ceil(static_cast<double>(k) * kQuantSurvivorMultiplier)),
      kQuantSurvivorFloor);
  if (candidate_budget > 0) m = std::min(m, std::max(candidate_budget, k));
  return std::min(std::max(m, k), n);
}

std::vector<std::size_t> TopEstimateIndices(std::span<const double> estimates,
                                            std::size_t m, bool absolute) {
  IPS_CHECK_GE(m, 1u);
  std::vector<std::size_t> out;
  if (m >= estimates.size()) {
    out.resize(estimates.size());
    for (std::size_t i = 0; i < estimates.size(); ++i) out[i] = i;
    return out;
  }
  kernels::TopKHeap heap(m);
  double heap_floor = heap.Floor();
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    const double value = absolute ? std::abs(estimates[i]) : estimates[i];
    if (value < heap_floor) continue;
    if (heap.Accepts(value, i)) {
      heap.Push(i, value);
      heap_floor = heap.Floor();
    }
  }
  for (const auto& entry : heap.TakeSorted()) out.push_back(entry.index);
  return out;
}

namespace {

// Shared tail of the two quantized entry points: exact re-rank of the
// survivor set plus the pruning/billing bookkeeping. `estimated` is the
// size of the candidate pool the estimate pass ranked.
std::vector<SearchMatch> RerankSurvivors(
    const Matrix& data, std::span<const double> q,
    const std::vector<std::size_t>& survivors, std::size_t estimated,
    const QueryOptions& options, QueryStats* stats, Trace* trace) {
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("core.quant.queries");
  static Counter* const pruned_counter =
      MetricsRegistry::Global().GetCounter("core.quant.candidates_pruned");
  static Counter* const rerank_counter =
      MetricsRegistry::Global().GetCounter("core.quant.rerank_dots");
  std::vector<SearchMatch> matches;
  {
    TraceSpan span(trace, "quant.rerank");
    matches = TopKFromCandidates(data, q, survivors, options.k,
                                 options.is_signed);
    span.AddCount("rerank_dots", survivors.size());
  }
  const std::size_t pruned = estimated - survivors.size();
  const std::size_t estimate_cost = static_cast<std::size_t>(std::ceil(
      static_cast<double>(estimated) * kQuantEstimateDotEquivalent));
  queries->Increment();
  pruned_counter->Add(pruned);
  rerank_counter->Add(survivors.size());
  if (stats != nullptr) {
    stats->candidates += survivors.size();
    stats->candidates_pruned += pruned;
    stats->rerank_exact_dots += survivors.size();
    stats->dot_products += survivors.size() + estimate_cost;
    stats->metrics.Add("core.quant.candidates_pruned", pruned);
    stats->metrics.Add("core.quant.rerank_dots", survivors.size());
  }
  return matches;
}

}  // namespace

std::vector<SearchMatch> QueryQuantizedRerank(
    const Matrix& data, const QuantizedMatrix& qdata,
    std::span<const double> q, const QueryOptions& options,
    QueryStats* stats, Trace* trace) {
  IPS_CHECK_EQ(qdata.rows(), data.rows());
  const std::size_t n = data.rows();
  const std::size_t m = SurvivorCount(options.k, n, options.candidate_budget);
  std::vector<std::size_t> survivors;
  {
    TraceSpan span(trace, "quant.estimate");
    const QuantizedVector qq = QuantizeVector(q);
    std::vector<double> estimates(n);
    qdata.EstimateAll(qq, estimates);
    survivors = TopEstimateIndices(estimates, m, !options.is_signed);
    span.AddCount("points_estimated", n);
    span.AddCount("survivors", survivors.size());
  }
  return RerankSurvivors(data, q, survivors, n, options, stats, trace);
}

std::vector<SearchMatch> QueryFromCandidatesQuantized(
    const Matrix& data, const QuantizedMatrix& qdata,
    std::span<const double> q, const std::vector<std::size_t>& candidates,
    const QueryOptions& options, QueryStats* stats, Trace* trace) {
  const std::size_t m =
      SurvivorCount(options.k, candidates.size(), options.candidate_budget);
  if (m >= candidates.size()) {
    // Nothing to prune: exact verification is no more expensive.
    return QueryFromCandidates(data, q, candidates, options, stats, trace);
  }
  std::vector<std::size_t> survivors;
  {
    TraceSpan span(trace, "quant.estimate");
    const QuantizedVector qq = QuantizeVector(q);
    std::vector<double> estimates(candidates.size());
    qdata.EstimateGathered(qq, candidates, estimates);
    const std::vector<std::size_t> kept =
        TopEstimateIndices(estimates, m, !options.is_signed);
    survivors.reserve(kept.size());
    for (std::size_t j : kept) survivors.push_back(candidates[j]);
    span.AddCount("points_estimated", candidates.size());
    span.AddCount("survivors", survivors.size());
  }
  return RerankSurvivors(data, q, survivors, candidates.size(), options,
                         stats, trace);
}

}  // namespace ips
