#include "core/norm_range_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace ips {

NormRangeIndex::NormRangeIndex(const Matrix& data,
                               const NormRangeParams& params, Rng* rng)
    : MipsIndex(data), params_(params) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GT(data.rows(), 0u);
  IPS_CHECK_GE(params.bucket_size, 1u);
  // Sort indices by norm, descending.
  std::vector<std::uint32_t> order(data.rows());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> norms(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) norms[i] = kernels::Norm(data.Row(i));
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return norms[a] > norms[b];
  });

  for (std::size_t begin = 0; begin < order.size();
       begin += params.bucket_size) {
    const std::size_t end =
        std::min(begin + params.bucket_size, order.size());
    Bucket bucket;
    bucket.members.assign(order.begin() + begin, order.begin() + end);
    bucket.max_norm = norms[bucket.members.front()];
    for (std::uint32_t member : bucket.members) {
      bucket.directions.AppendRow(kernels::Normalized(data.Row(member)));
    }
    bucket.family = std::make_unique<SimHashFamily>(data.cols());
    bucket.tables = std::make_unique<LshTables>(
        *bucket.family, bucket.directions, params.lsh_params, rng);
    buckets_.push_back(std::move(bucket));
  }
}

Status NormRangeIndex::CheckAnswerable(const QueryOptions& options) const {
  if (!options.is_signed) {
    return Status::InvalidArgument(
        "norm-range top-k answers signed queries only");
  }
  if (options.precision != QueryPrecision::kAuto &&
      options.precision != QueryPrecision::kExact) {
    return Status::InvalidArgument(
        "norm-range top-k is exact only (its bucket prune bounds exact "
        "scores); use brute/lsh for quantized re-rank");
  }
  return Status::Ok();
}

std::vector<SearchMatch> NormRangeIndex::Search(std::span<const double> q,
                                                const QueryOptions& options,
                                                QueryStats* stats,
                                                Trace* trace) const {
  return SearchAbove(q, options, -std::numeric_limits<double>::infinity(),
                     stats, trace);
}

StatusOr<std::vector<SearchMatch>> NormRangeIndex::QueryAbove(
    std::span<const double> q, const QueryOptions& options, double floor,
    QueryStats* stats, Trace* trace) const {
  return RunQuery(q, options, stats, trace,
                  [&](QueryStats* local, Trace* t) {
                    return SearchAbove(q, options, floor, local, t);
                  });
}

std::vector<SearchMatch> NormRangeIndex::SearchAbove(
    std::span<const double> q, const QueryOptions& options, double floor,
    QueryStats* stats, Trace* trace) const {
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("core.normrange.queries");
  static Counter* const buckets_visited =
      MetricsRegistry::Global().GetCounter("core.normrange.buckets_visited");
  static Counter* const buckets_pruned =
      MetricsRegistry::Global().GetCounter("core.normrange.buckets_pruned");
  static Counter* const points_scored =
      MetricsRegistry::Global().GetCounter("core.normrange.points_scored");

  std::vector<SearchMatch> best;
  std::size_t visited = 0;
  std::size_t pruned = 0;
  std::size_t scored = 0;
  {
    TraceSpan span(trace, "norm-range");
    const double query_norm = kernels::Norm(q);
    if (query_norm > 0.0) {
      const std::vector<double> direction = kernels::Normalized(q);
      kernels::TopKHeap heap(options.k);
      // The score a new match must beat: the k-th best so far, or the
      // floor while that is higher (or fewer than k matches are held).
      const auto bar = [&]() { return std::max(heap.Floor(), floor); };
      std::vector<std::size_t> rows;
      std::vector<double> scores;
      for (const Bucket& bucket : buckets_) {
        const double bucket_bound = bucket.max_norm * query_norm;
        // Prune: nothing in this (or any later, smaller-norm) bucket can
        // beat the bar.
        if (bucket_bound <= bar()) {
          pruned = buckets_.size() - visited;
          break;
        }
        ++visited;
        const double local_cosine = bar() / bucket_bound;
        rows.clear();
        if (local_cosine >= params_.lsh_cosine_threshold) {
          // Selective regime: probe the bucket's cosine tables.
          for (std::size_t position : bucket.tables->Query(direction)) {
            rows.push_back(bucket.members[position]);
          }
        } else {
          // Low local threshold: scanning is cheaper than high-recall LSH.
          rows.assign(bucket.members.begin(), bucket.members.end());
        }
        scores.resize(rows.size());
        kernels::GatherScores(*data_, rows, q, scores);
        for (std::size_t j = 0; j < rows.size(); ++j) {
          heap.Push(rows[j], scores[j]);
        }
        scored += rows.size();
      }
      // Matches below the floor may not be the true top-k (the prune
      // ignored them), so they are not reported.
      best = heap.TakeSorted();
      while (!best.empty() && best.back().value < floor) best.pop_back();
    }
    span.AddCount("buckets_visited", visited);
    span.AddCount("buckets_pruned", pruned);
    span.AddCount("points_scored", scored);
  }
  queries->Increment();
  buckets_visited->Add(visited);
  buckets_pruned->Add(pruned);
  points_scored->Add(scored);

  stats->candidates = scored;
  stats->dot_products = scored;
  stats->metrics.Set("normrange.buckets_visited", visited);
  stats->metrics.Set("normrange.buckets_pruned", pruned);
  stats->metrics.Set("normrange.points_scored", scored);
  return best;
}

}  // namespace ips
