#include "core/similarity_join.h"

#include <cmath>
#include <utility>

#include "core/norm_range_index.h"
#include "core/top_k.h"
#include "linalg/validate.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace ips {
namespace {

// One bulk Add per join run — nothing inside the scan loops.
void RecordExactJoinRun(const JoinResult& result, std::size_t queries) {
  static Counter* const runs =
      MetricsRegistry::Global().GetCounter("core.join.exact.runs");
  static Counter* const query_count =
      MetricsRegistry::Global().GetCounter("core.join.exact.queries");
  static Counter* const products =
      MetricsRegistry::Global().GetCounter("core.join.exact.inner_products");
  static Histogram* const seconds =
      MetricsRegistry::Global().GetHistogram("core.join.exact.seconds");
  runs->Increment();
  query_count->Add(queries);
  products->Add(result.inner_products);
  seconds->Observe(result.seconds);
}

void RecordIndexJoinRun(const JoinResult& result, std::size_t queries) {
  static Counter* const runs =
      MetricsRegistry::Global().GetCounter("core.join.index.runs");
  static Counter* const query_count =
      MetricsRegistry::Global().GetCounter("core.join.index.queries");
  static Counter* const products =
      MetricsRegistry::Global().GetCounter("core.join.index.inner_products");
  static Histogram* const seconds =
      MetricsRegistry::Global().GetHistogram("core.join.index.seconds");
  runs->Increment();
  query_count->Add(queries);
  products->Add(result.inner_products);
  seconds->Observe(result.seconds);
}

// The one index-join loop: Definition 1's (cs, s)-search is a k = 1
// Query per row, matched iff the top-1 scores >= spec.cs(); work is the
// sum of the per-query dot products. The norm-range index prunes its
// buckets on the threshold itself (QueryAbove), so it is asked for
// matches >= cs directly. A Query failure (options the index cannot
// honor) fails the whole join.
StatusOr<JoinResult> RunIndexJoin(const MipsIndex& index,
                                  const Matrix& queries,
                                  const JoinSpec& spec) {
  const auto* norm_range = dynamic_cast<const NormRangeIndex*>(&index);
  QueryOptions options;
  options.k = 1;
  options.is_signed = spec.is_signed;
  JoinResult result;
  result.per_query.resize(queries.rows());
  WallTimer timer;
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    QueryStats stats;
    auto matches =
        norm_range != nullptr
            ? norm_range->QueryAbove(queries.Row(qi), options, spec.cs(),
                                     &stats)
            : index.Query(queries.Row(qi), options, &stats);
    IPS_RETURN_IF_ERROR(matches.status());
    result.inner_products += stats.dot_products;
    if (!matches->empty() && matches->front().value >= spec.cs()) {
      const SearchMatch& best = matches->front();
      result.per_query[qi] = JoinMatch{qi, best.index, best.value};
    }
  }
  result.seconds = timer.Seconds();
  RecordIndexJoinRun(result, queries.rows());
  return result;
}

}  // namespace

Status ValidateJoinSpec(const JoinSpec& spec) {
  if (!std::isfinite(spec.s) || spec.s <= 0.0) {
    return Status::InvalidArgument(
        "join threshold s must be finite and positive, got " +
        std::to_string(spec.s));
  }
  if (!std::isfinite(spec.c) || spec.c <= 0.0 || spec.c > 1.0) {
    return Status::InvalidArgument(
        "approximation factor c must lie in (0, 1], got " +
        std::to_string(spec.c));
  }
  return Status::Ok();
}

JoinResult ExactJoin(const Matrix& data, const Matrix& queries,
                     const JoinSpec& spec, ThreadPool* pool) {
  auto result = ExactJoinChecked(data, queries, spec, pool);
  IPS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

JoinResult IndexJoin(const MipsIndex& index, const Matrix& queries,
                     const JoinSpec& spec) {
  auto result = RunIndexJoin(index, queries, spec);
  IPS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

StatusOr<JoinResult> ExactJoinChecked(const Matrix& data,
                                      const Matrix& queries,
                                      const JoinSpec& spec,
                                      ThreadPool* pool) {
  IPS_FAILPOINT("core/exact-join");
  IPS_RETURN_IF_ERROR(ValidateJoinSpec(spec));
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "data"));
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(queries, "queries"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(queries, "queries"));
  IPS_RETURN_IF_ERROR(ValidateDims(queries, data.cols(), "queries"));

  JoinResult result;
  result.per_query.resize(queries.rows());
  WallTimer timer;
  const Status status = ParallelForStatus(
      pool, queries.rows(),
      [&](std::size_t begin, std::size_t end) -> Status {
        IPS_FAILPOINT("core/exact-join-chunk");
        // Each query's brute-force top-1 is recorded when it reaches s.
        for (std::size_t qi = begin; qi < end; ++qi) {
          const std::vector<SearchMatch> top =
              TopKBruteForce(data, queries.Row(qi), 1, spec.is_signed);
          if (!top.empty() && top.front().value >= spec.s) {
            result.per_query[qi] =
                JoinMatch{qi, top.front().index, top.front().value};
          }
        }
        return Status::Ok();
      });
  IPS_RETURN_IF_ERROR(status);
  result.seconds = timer.Seconds();
  result.inner_products = queries.rows() * data.rows();
  RecordExactJoinRun(result, queries.rows());
  return result;
}

StatusOr<JoinResult> IndexJoinChecked(const MipsIndex& index,
                                      const Matrix& queries,
                                      const JoinSpec& spec) {
  IPS_RETURN_IF_ERROR(ValidateJoinSpec(spec));
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(queries, "queries"));
  IPS_RETURN_IF_ERROR(ValidateFinite(queries, "queries"));
  IPS_RETURN_IF_ERROR(ValidateDims(queries, index.dim(), "queries"));
  return RunIndexJoin(index, queries, spec);
}

std::size_t VerifyJoinContract(const JoinResult& result,
                               const JoinResult& truth, const JoinSpec& spec,
                               double* recall) {
  IPS_CHECK_EQ(result.per_query.size(), truth.per_query.size());
  std::size_t promised = 0;
  std::size_t answered = 0;
  std::size_t violations = 0;
  for (std::size_t qi = 0; qi < truth.per_query.size(); ++qi) {
    const auto& true_match = truth.per_query[qi];
    if (!true_match.has_value() || true_match->value < spec.s) continue;
    ++promised;
    const auto& reported = result.per_query[qi];
    if (reported.has_value() && reported->value >= spec.cs()) {
      ++answered;
    } else {
      ++violations;
    }
  }
  if (recall != nullptr) {
    *recall = promised == 0 ? 1.0
                            : static_cast<double>(answered) /
                                  static_cast<double>(promised);
  }
  return violations;
}

}  // namespace ips
