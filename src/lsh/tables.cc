#include "lsh/tables.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "linalg/validate.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace ips {

LshTableParams LshTableParams::FromGap(std::size_t n, double p1, double p2) {
  IPS_CHECK_GT(n, 1u);
  IPS_CHECK_GT(p1, 0.0);
  IPS_CHECK_LT(p2, 1.0);
  IPS_CHECK_GT(p2, 0.0);
  IPS_CHECK_GE(p1, p2);
  LshTableParams params;
  const double ln_n = std::log(static_cast<double>(n));
  params.k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(ln_n / std::log(1.0 / p2))));
  const double rho = std::log(p1) / std::log(p2);
  // Success probability per table is ~p1^k = n^-rho; use 3 n^rho tables
  // for a constant success probability per query around 1 - e^-3.
  params.l = static_cast<std::size_t>(
      std::max(1.0, std::ceil(3.0 * std::pow(static_cast<double>(n), rho))));
  return params;
}

LshTables::LshTables(const LshFamily& family, const Matrix& data,
                     LshTableParams params, Rng* rng)
    : params_(params) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GE(params.k, 1u);
  IPS_CHECK_GE(params.l, 1u);
  IPS_CHECK_EQ(family.dim(), data.cols());
  tables_.resize(params_.l);
  std::vector<std::uint64_t> keys(data.rows());
  for (auto& table : tables_) {
    table.function =
        std::make_unique<ConcatenatedLshFunction>(family, params_.k, rng);
    for (std::size_t i = 0; i < data.rows(); ++i) {
      keys[i] = table.function->HashData(data.Row(i));
    }
    table.buckets = BucketTable::Build(keys);
  }
}

namespace {

// Shared head of Create and CreateFromBuckets.
Status ValidateBuild(const LshTableParams& params, const Rng* rng) {
  IPS_FAILPOINT("lsh/tables-build");
  if (rng == nullptr) {
    return Status::InvalidArgument("LshTables requires a non-null rng");
  }
  if (params.k < 1 || params.l < 1) {
    return Status::InvalidArgument(
        "LshTables needs k >= 1 and l >= 1, got k=" +
        std::to_string(params.k) + ", l=" + std::to_string(params.l));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<LshTables>> LshTables::Create(
    const LshFamily& family, const Matrix& data, LshTableParams params,
    Rng* rng) {
  IPS_RETURN_IF_ERROR(ValidateBuild(params, rng));
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "lsh data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "lsh data"));
  IPS_RETURN_IF_ERROR(ValidateDims(data, family.dim(), "lsh data"));
  return std::make_unique<LshTables>(family, data, params, rng);
}

StatusOr<std::unique_ptr<LshTables>> LshTables::CreateFromBuckets(
    const LshFamily& family, std::size_t num_rows, LshTableParams params,
    Rng* rng, std::vector<BucketTable> buckets) {
  IPS_RETURN_IF_ERROR(ValidateBuild(params, rng));
  if (num_rows == 0) {
    return Status::InvalidArgument("lsh artifact restore with zero rows");
  }
  if (buckets.size() != params.l) {
    return Status::DataLoss("lsh artifact holds " +
                            std::to_string(buckets.size()) +
                            " tables but params say l=" +
                            std::to_string(params.l));
  }
  // Every row of a BucketTable lies below its own row count, so a
  // matching count bounds every entry.
  for (const BucketTable& table : buckets) {
    if (table.rows().size() != num_rows) {
      return Status::DataLoss("lsh artifact table holds " +
                              std::to_string(table.rows().size()) +
                              " rows but the dataset has " +
                              std::to_string(num_rows));
    }
  }
  std::unique_ptr<LshTables> tables(new LshTables());
  tables->params_ = params;
  tables->tables_.resize(params.l);
  for (std::size_t t = 0; t < params.l; ++t) {
    // Replaying the function draws (instead of persisting hyperplanes)
    // keeps the artifact family-agnostic; determinism of Rng plus the
    // saved pre-build state makes the replay bit-identical.
    tables->tables_[t].function =
        std::make_unique<ConcatenatedLshFunction>(family, params.k, rng);
    tables->tables_[t].buckets = std::move(buckets[t]);
  }
  return tables;
}

std::vector<std::size_t> LshTables::Query(std::span<const double> q,
                                          Trace* trace,
                                          MetricSet* metrics) const {
  // Registry handles resolved once per process; the per-query cost is a
  // handful of relaxed per-thread increments, not map lookups.
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("lsh.tables.queries");
  static Counter* const buckets_probed =
      MetricsRegistry::Global().GetCounter("lsh.tables.buckets_probed");
  static Counter* const raw_counter =
      MetricsRegistry::Global().GetCounter("lsh.tables.candidates_raw");
  static Counter* const unique_counter =
      MetricsRegistry::Global().GetCounter("lsh.tables.candidates_unique");

  std::vector<std::uint64_t> keys(tables_.size());
  {
    TraceSpan span(trace, "hash");
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      keys[t] = tables_[t].function->HashQuery(q);
    }
    span.AddCount("tables", tables_.size());
  }
  std::vector<std::size_t> candidates;
  std::size_t buckets_hit = 0;
  {
    TraceSpan span(trace, "bucket");
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const std::span<const std::uint32_t> bucket =
          tables_[t].buckets.Find(keys[t]);
      if (bucket.empty()) continue;
      ++buckets_hit;
      candidates.insert(candidates.end(), bucket.begin(), bucket.end());
    }
    span.AddCount("buckets_hit", buckets_hit);
    span.AddCount("raw_candidates", candidates.size());
  }
  const std::size_t raw = candidates.size();
  {
    TraceSpan span(trace, "dedup");
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    span.AddCount("unique_candidates", candidates.size());
    span.AddCount("duplicates", raw - candidates.size());
  }

  queries->Increment();
  buckets_probed->Add(tables_.size());
  raw_counter->Add(raw);
  unique_counter->Add(candidates.size());
  if (metrics != nullptr) {
    metrics->Set("lsh.tables.buckets_probed", tables_.size());
    metrics->Set("lsh.tables.buckets_hit", buckets_hit);
    metrics->Set("lsh.tables.candidates_raw", raw);
    metrics->Set("lsh.tables.candidates_unique", candidates.size());
    metrics->Set("lsh.tables.duplicates", raw - candidates.size());
  }
  return candidates;
}

}  // namespace ips
