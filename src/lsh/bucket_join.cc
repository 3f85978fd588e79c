#include "lsh/bucket_join.h"

#include <cmath>
#include <unordered_set>

#include "linalg/validate.h"
#include "linalg/kernels.h"
#include "linalg/quantized.h"
#include "lsh/bucket_table.h"
#include "lsh/transforms.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace ips {

const Matrix& MapToHashSpace(const LshFamily& family, const Matrix& rows,
                             bool query_side, Matrix* mapped) {
  const VectorTransform* transform = family.transform();
  if (transform == nullptr) return rows;
  // Free the previous copy first: one hash-space copy per side at a time.
  *mapped = Matrix();
  *mapped = query_side ? transform->TransformQueries(rows)
                       : transform->TransformDataset(rows);
  return *mapped;
}

BucketJoinResult LshBucketJoin(const LshFamily& family,
                               const Matrix& hash_data, const Matrix& data,
                               const Matrix& hash_queries,
                               const Matrix& queries, double s_threshold,
                               double cs_threshold, bool is_signed,
                               LshTableParams params, Rng* rng) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_EQ(hash_data.cols(), family.dim());
  IPS_CHECK_EQ(hash_queries.cols(), family.dim());
  IPS_CHECK_EQ(hash_data.rows(), data.rows());
  IPS_CHECK_EQ(hash_queries.rows(), queries.rows());
  IPS_CHECK_LE(cs_threshold, s_threshold);
  (void)s_threshold;  // the contract's promise level; joins filter at cs

  BucketJoinResult result;
  result.per_query.resize(queries.rows());
  std::size_t candidate_pairs = 0;
  std::size_t verified_pairs = 0;
  std::size_t duplicate_pairs = 0;
  std::size_t prefiltered_pairs = 0;
  // Lossless quantized prefilter: a pair is skipped only when its int8
  // estimate plus the rigorous rounding-error bound stays below the cs
  // threshold, so no pair that could pass verification is ever dropped.
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  std::vector<QuantizedVector> qqueries;
  qqueries.reserve(queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    qqueries.push_back(QuantizeVector(queries.Row(qi)));
  }
  // A composed family hashes its base's functions over rows mapped once
  // here, not once per hash bit inside every sampled function.
  Matrix mapped_data;
  Matrix mapped_queries;
  const Matrix& hashed_data =
      MapToHashSpace(family, hash_data, /*query_side=*/false, &mapped_data);
  const Matrix& hashed_queries = MapToHashSpace(
      family, hash_queries, /*query_side=*/true, &mapped_queries);
  // Pairs already verified, keyed by query-major 64-bit id.
  std::unordered_set<std::uint64_t> verified;
  std::vector<std::uint64_t> keys(hashed_data.rows());
  for (std::size_t table = 0; table < params.l; ++table) {
    const ConcatenatedLshFunction function(family.base(), params.k, rng);
    for (std::size_t i = 0; i < hashed_data.rows(); ++i) {
      keys[i] = function.HashData(hashed_data.Row(i));
    }
    const BucketTable buckets = BucketTable::Build(keys);
    for (std::size_t qi = 0; qi < hashed_queries.rows(); ++qi) {
      for (std::uint32_t di :
           buckets.Find(function.HashQuery(hashed_queries.Row(qi)))) {
        ++candidate_pairs;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(qi) << 32) | di;
        if (!verified.insert(key).second) {
          ++duplicate_pairs;
          continue;
        }
        const QuantizedVector& qq = qqueries[qi];
        const double est =
            static_cast<double>(kernels::DotI8(
                {qdata.RowCodes(di), data.cols()}, qq.codes)) *
            qdata.RowScale(di) * qq.scale;
        const double bound = qdata.ErrorBound(di, qq);
        const double ceiling = is_signed ? est + bound : std::abs(est) + bound;
        if (ceiling < cs_threshold) {
          ++prefiltered_pairs;
          continue;
        }
        ++verified_pairs;
        const double raw = kernels::Dot(data.Row(di), queries.Row(qi));
        const double score = is_signed ? raw : std::abs(raw);
        if (score < cs_threshold) continue;
        auto& best = result.per_query[qi];
        // RanksBefore breaks ties toward the smaller data index, so
        // results do not depend on table enumeration order.
        if (!best.has_value() ||
            RanksBefore({di, score}, {best->first, best->second})) {
          best = std::make_pair(static_cast<std::size_t>(di), score);
        }
      }
    }
  }
  result.metrics.Set("lsh.join.candidate_pairs", candidate_pairs);
  result.metrics.Set("lsh.join.verified_pairs", verified_pairs);
  result.metrics.Set("lsh.join.duplicate_pairs", duplicate_pairs);
  result.metrics.Set("lsh.join.pairs_prefiltered", prefiltered_pairs);
  static Counter* const joins =
      MetricsRegistry::Global().GetCounter("lsh.join.runs");
  static Counter* const candidate_counter =
      MetricsRegistry::Global().GetCounter("lsh.join.candidate_pairs");
  static Counter* const verified_counter =
      MetricsRegistry::Global().GetCounter("lsh.join.verified_pairs");
  static Counter* const duplicate_counter =
      MetricsRegistry::Global().GetCounter("lsh.join.duplicate_pairs");
  static Counter* const prefiltered_counter =
      MetricsRegistry::Global().GetCounter("lsh.join.pairs_prefiltered");
  joins->Increment();
  candidate_counter->Add(candidate_pairs);
  verified_counter->Add(verified_pairs);
  duplicate_counter->Add(duplicate_pairs);
  prefiltered_counter->Add(prefiltered_pairs);
  return result;
}

StatusOr<BucketJoinResult> LshBucketJoinChecked(
    const LshFamily& family, const Matrix& hash_data, const Matrix& data,
    const Matrix& hash_queries, const Matrix& queries, double s_threshold,
    double cs_threshold, bool is_signed, LshTableParams params, Rng* rng) {
  IPS_FAILPOINT("lsh/bucket-join");
  if (rng == nullptr) {
    return Status::InvalidArgument("LshBucketJoin requires a non-null rng");
  }
  if (params.k < 1 || params.l < 1) {
    return Status::InvalidArgument(
        "LshBucketJoin needs k >= 1 and l >= 1, got k=" +
        std::to_string(params.k) + ", l=" + std::to_string(params.l));
  }
  if (!std::isfinite(s_threshold) || !std::isfinite(cs_threshold)) {
    return Status::InvalidArgument("join thresholds must be finite");
  }
  if (cs_threshold > s_threshold) {
    return Status::InvalidArgument(
        "cs threshold " + std::to_string(cs_threshold) +
        " exceeds s threshold " + std::to_string(s_threshold));
  }
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "data"));
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(queries, "queries"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(queries, "queries"));
  IPS_RETURN_IF_ERROR(ValidateFinite(hash_data, "hash-space data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(hash_queries, "hash-space queries"));
  IPS_RETURN_IF_ERROR(ValidateDims(hash_data, family.dim(),
                                   "hash-space data"));
  IPS_RETURN_IF_ERROR(ValidateDims(hash_queries, family.dim(),
                                   "hash-space queries"));
  if (hash_data.rows() != data.rows()) {
    return Status::InvalidArgument(
        "hash-space data has " + std::to_string(hash_data.rows()) +
        " rows but the original has " + std::to_string(data.rows()));
  }
  if (hash_queries.rows() != queries.rows()) {
    return Status::InvalidArgument(
        "hash-space queries have " + std::to_string(hash_queries.rows()) +
        " rows but the original has " + std::to_string(queries.rows()));
  }
  if (data.cols() != queries.cols()) {
    return Status::InvalidArgument(
        "data dimension " + std::to_string(data.cols()) +
        " != query dimension " + std::to_string(queries.cols()));
  }
  return LshBucketJoin(family, hash_data, data, hash_queries, queries,
                       s_threshold, cs_threshold, is_signed, params, rng);
}

}  // namespace ips
