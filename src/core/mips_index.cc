#include "core/mips_index.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/top_k.h"
#include "linalg/validate.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace ips {
namespace {

// Shared validation of every index factory: the dataset itself.
Status ValidateIndexData(const Matrix& data) {
  IPS_FAILPOINT("core/index-build");
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "index data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "index data"));
  return Status::Ok();
}

// Shared checks of LshMipsIndex::Create and CreateFromBuckets.
Status ValidateLshIndexInputs(const Matrix& data,
                              const VectorTransform* transform,
                              const LshFamily& base_family,
                              const LshTableParams& params, const Rng* rng) {
  IPS_RETURN_IF_ERROR(ValidateIndexData(data));
  if (rng == nullptr) {
    return Status::InvalidArgument("lsh index requires a non-null rng");
  }
  if (params.k < 1 || params.l < 1) {
    return Status::InvalidArgument(
        "lsh index needs k >= 1 and l >= 1, got k=" +
        std::to_string(params.k) + ", l=" + std::to_string(params.l));
  }
  if (transform == nullptr) {
    return ValidateDims(data, base_family.dim(), "lsh data");
  }
  IPS_RETURN_IF_ERROR(ValidateDims(data, transform->input_dim(), "lsh data"));
  if (transform->output_dim() != base_family.dim()) {
    return Status::InvalidArgument(
        "transform output dimension " +
        std::to_string(transform->output_dim()) +
        " != base family dimension " + std::to_string(base_family.dim()));
  }
  return Status::Ok();
}

// Registry accounting of every batch: one call, its member count, and
// how many members ran the per-query path instead of a tiled one.
void CountBatch(std::size_t members, bool per_query) {
  static Counter* const calls =
      MetricsRegistry::Global().GetCounter("core.batch.calls");
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("core.batch.queries");
  static Counter* const fallback_queries =
      MetricsRegistry::Global().GetCounter("core.batch.fallback_queries");
  calls->Increment();
  queries->Add(members);
  if (per_query) fallback_queries->Add(members);
}

}  // namespace

Status MipsIndex::CheckRequest(std::size_t query_dim,
                               const QueryOptions& options,
                               std::string_view what) const {
  IPS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  if (query_dim != dim()) {
    return Status::InvalidArgument(
        std::string(what) + " dimension " + std::to_string(query_dim) +
        " != index dimension " + std::to_string(dim()));
  }
  return CheckAnswerable(options);
}

Status MipsIndex::CheckAnswerable(const QueryOptions&) const {
  return Status::Ok();
}

std::optional<std::vector<QueryResult>> MipsIndex::SearchBatch(
    const Matrix&, const QueryOptions&, Trace*) const {
  return std::nullopt;
}

StatusOr<std::vector<SearchMatch>> MipsIndex::Query(
    std::span<const double> q, const QueryOptions& options, QueryStats* stats,
    Trace* trace) const {
  return RunQuery(q, options, stats, trace,
                  [&](QueryStats* local, Trace* t) {
                    return Search(q, options, local, t);
                  });
}

StatusOr<std::vector<QueryResult>> MipsIndex::BatchQuery(
    const Matrix& queries, const QueryOptions& options) const {
  const std::size_t m = queries.rows();
  // An empty batch has no width to check.
  IPS_RETURN_IF_ERROR(
      CheckRequest(m > 0 ? queries.cols() : dim(), options, "batch query"));
  if (m == 0) return std::vector<QueryResult>();
  std::shared_ptr<Trace> trace;
  if (options.trace) trace = std::make_shared<Trace>(Name() + ".batch");
  std::optional<std::vector<QueryResult>> tiled =
      SearchBatch(queries, options, trace.get());
  std::vector<QueryResult> results;
  if (tiled.has_value()) {
    results = std::move(tiled).value();
  } else {
    results.resize(m);
    TraceSpan span(trace.get(), "batch.fallback");
    for (std::size_t i = 0; i < m; ++i) {
      results[i].matches =
          Search(queries.Row(i), options, &results[i].stats, trace.get());
    }
    span.AddCount("batch_queries", m);
  }
  if (trace != nullptr) {
    for (QueryResult& result : results) result.stats.trace = trace;
  }
  CountBatch(m, /*per_query=*/!tiled.has_value());
  return results;
}

std::size_t JoinResult::NumMatched() const {
  std::size_t matched = 0;
  for (const auto& match : per_query) {
    if (match.has_value()) ++matched;
  }
  return matched;
}

BruteForceIndex::BruteForceIndex(const Matrix& data)
    : MipsIndex(data), quant_(QuantizedMatrix::Quantize(data)) {
  IPS_CHECK_GT(data.rows(), 0u);
}

StatusOr<std::unique_ptr<BruteForceIndex>> BruteForceIndex::Create(
    const Matrix& data) {
  IPS_RETURN_IF_ERROR(ValidateIndexData(data));
  return std::make_unique<BruteForceIndex>(data);
}

std::vector<SearchMatch> BruteForceIndex::Search(std::span<const double> q,
                                                 const QueryOptions& options,
                                                 QueryStats* stats,
                                                 Trace* trace) const {
  if (options.precision == QueryPrecision::kQuantizedRerank) {
    return QueryQuantizedRerank(*data_, quant_, q, options, stats, trace);
  }
  return QueryBruteForce(*data_, q, options, stats, trace);
}

std::optional<std::vector<QueryResult>> BruteForceIndex::SearchBatch(
    const Matrix& queries, const QueryOptions& options, Trace* trace) const {
  // The two-stage path runs per query; the int8 code matrix built at
  // construction is its state shared across the batch.
  if (options.precision == QueryPrecision::kQuantizedRerank) {
    return std::nullopt;
  }
  const std::size_t m = queries.rows();
  std::vector<kernels::TopKHeap> heaps;
  heaps.reserve(m);
  for (std::size_t i = 0; i < m; ++i) heaps.emplace_back(options.k);
  {
    // One tiled pass over the data scores the whole batch: each tile of
    // data rows is loaded once and reused across a block of queries.
    TraceSpan span(trace, "brute.batch");
    kernels::BlockTopK(*data_, queries, /*absolute=*/!options.is_signed,
                       heaps);
    span.AddCount("batch_queries", m);
    span.AddCount("points_scored", data_->rows() * m);
  }
  std::vector<QueryResult> results(m);
  for (std::size_t i = 0; i < m; ++i) {
    QueryResult& result = results[i];
    result.matches = heaps[i].TakeSorted();
    result.stats.algorithm = QueryAlgo::kBruteForce;
    result.stats.candidates = data_->rows();
    result.stats.dot_products = data_->rows();
  }
  // Keep the per-path registry view consistent with m Query calls.
  static Counter* const brute_queries =
      MetricsRegistry::Global().GetCounter("core.brute.queries");
  static Counter* const points_scored =
      MetricsRegistry::Global().GetCounter("core.brute.points_scored");
  brute_queries->Add(m);
  points_scored->Add(data_->rows() * m);
  return results;
}

TreeMipsIndex::TreeMipsIndex(const Matrix& data, std::size_t leaf_size,
                             Rng* rng)
    : MipsIndex(data), tree_(data, leaf_size, rng) {}

StatusOr<std::unique_ptr<TreeMipsIndex>> TreeMipsIndex::Create(
    const Matrix& data, std::size_t leaf_size, Rng* rng) {
  IPS_RETURN_IF_ERROR(ValidateIndexData(data));
  if (rng == nullptr) {
    return Status::InvalidArgument("ball-tree index requires a non-null rng");
  }
  if (leaf_size < 1) {
    return Status::InvalidArgument("ball-tree leaf_size must be >= 1");
  }
  return std::make_unique<TreeMipsIndex>(data, leaf_size, rng);
}

StatusOr<std::unique_ptr<TreeMipsIndex>> TreeMipsIndex::Restore(
    const Matrix& data, MipsBallTree tree) {
  IPS_RETURN_IF_ERROR(ValidateIndexData(data));
  if (tree.num_points() != data.rows()) {
    return Status::DataLoss("restored tree spans " +
                            std::to_string(tree.num_points()) +
                            " points but the dataset has " +
                            std::to_string(data.rows()) + " rows");
  }
  return std::unique_ptr<TreeMipsIndex>(
      new TreeMipsIndex(data, std::move(tree)));
}

Status TreeMipsIndex::CheckAnswerable(const QueryOptions& options) const {
  if (options.precision != QueryPrecision::kAuto &&
      options.precision != QueryPrecision::kExact) {
    return Status::InvalidArgument(
        "ball-tree top-k is exact only (its branch-and-bound prunes on "
        "exact scores); use brute/lsh for quantized re-rank");
  }
  return Status::Ok();
}

std::vector<SearchMatch> TreeMipsIndex::Search(std::span<const double> q,
                                               const QueryOptions& options,
                                               QueryStats* stats,
                                               Trace* trace) const {
  stats->algorithm = QueryAlgo::kBallTree;
  std::vector<SearchMatch> matches;
  TreeQueryInfo info;
  {
    TraceSpan span(trace, "tree");
    matches = tree_.QueryTopK(q, options.k, options.is_signed, trace, &info);
  }
  stats->candidates = info.points_scored;
  stats->dot_products = info.points_scored;
  stats->metrics.Set("tree.nodes_visited", info.nodes_visited);
  stats->metrics.Set("tree.nodes_pruned", info.nodes_pruned);
  stats->metrics.Set("tree.points_scored", info.points_scored);
  return matches;
}

LshMipsIndex::LshMipsIndex(const Matrix& data,
                           const VectorTransform* transform,
                           const LshFamily& base_family,
                           LshTableParams params, Rng* rng)
    : LshMipsIndex(data, transform, base_family, nullptr) {
  IPS_CHECK_GT(data.rows(), 0u);
  if (transform_ == nullptr) {
    IPS_CHECK_EQ(base_family.dim(), data.cols());
    tables_ = std::make_unique<LshTables>(base_family, data, params, rng);
    return;
  }
  IPS_CHECK_EQ(transform_->input_dim(), data.cols());
  IPS_CHECK_EQ(transform_->output_dim(), base_family.dim());
  // The transformed rows exist only to be hashed into the tables.
  tables_ = std::make_unique<LshTables>(
      base_family, transform_->TransformDataset(data), params, rng);
}

LshMipsIndex::LshMipsIndex(const Matrix& data,
                           const VectorTransform* transform,
                           const LshFamily& base_family,
                           std::unique_ptr<LshTables> tables)
    : MipsIndex(data),
      transform_(transform),
      tables_(std::move(tables)),
      // Quantization is deterministic (no rng), so a restored index
      // rebuilds the original codes exactly.
      quant_(QuantizedMatrix::Quantize(data)),
      name_("lsh[" +
            (transform != nullptr ? transform->Name() + "+" : std::string()) +
            base_family.Name() + "]") {}

StatusOr<std::unique_ptr<LshMipsIndex>> LshMipsIndex::Create(
    const Matrix& data, const VectorTransform* transform,
    const LshFamily& base_family, LshTableParams params, Rng* rng) {
  IPS_RETURN_IF_ERROR(
      ValidateLshIndexInputs(data, transform, base_family, params, rng));
  return std::make_unique<LshMipsIndex>(data, transform, base_family,
                                        params, rng);
}

StatusOr<std::unique_ptr<LshMipsIndex>> LshMipsIndex::CreateFromBuckets(
    const Matrix& data, const VectorTransform* transform,
    const LshFamily& base_family, LshTableParams params, Rng* rng,
    std::vector<BucketTable> buckets) {
  IPS_RETURN_IF_ERROR(
      ValidateLshIndexInputs(data, transform, base_family, params, rng));
  // The transformed dataset is a build-time input only (it exists to
  // hash the data rows into buckets); the restored buckets already
  // carry those hashes, so the O(n dim) re-transform is skipped and
  // only queries are transformed from here on.
  auto tables = LshTables::CreateFromBuckets(base_family, data.rows(),
                                             params, rng, std::move(buckets));
  IPS_RETURN_IF_ERROR(tables.status());
  return std::unique_ptr<LshMipsIndex>(new LshMipsIndex(
      data, transform, base_family, std::move(tables).value()));
}

std::vector<SearchMatch> LshMipsIndex::Search(std::span<const double> q,
                                              const QueryOptions& options,
                                              QueryStats* stats,
                                              Trace* trace) const {
  stats->algorithm = QueryAlgo::kLsh;
  TraceSpan span(trace, "lsh");
  const std::vector<std::size_t> candidates = Candidates(q, trace, stats);
  return options.precision == QueryPrecision::kQuantizedRerank
             ? QueryFromCandidatesQuantized(*data_, quant_, q, candidates,
                                            options, stats, trace)
             : QueryFromCandidates(*data_, q, candidates, options, stats,
                                   trace);
}

std::vector<std::size_t> LshMipsIndex::Candidates(std::span<const double> q,
                                                  Trace* trace,
                                                  QueryStats* stats) const {
  MetricSet* metrics = stats != nullptr ? &stats->metrics : nullptr;
  if (transform_ != nullptr) {
    return tables_->Query(transform_->TransformQuery(q), trace, metrics);
  }
  return tables_->Query(q, trace, metrics);
}

SketchIndex::SketchIndex(const Matrix& data, const SketchMipsParams& params,
                         Rng* rng)
    : MipsIndex(data), sketch_(data, params, rng) {}

StatusOr<std::unique_ptr<SketchIndex>> SketchIndex::Create(
    const Matrix& data, const SketchMipsParams& params, Rng* rng) {
  IPS_RETURN_IF_ERROR(ValidateIndexData(data));
  IPS_RETURN_IF_ERROR(SketchMipsIndex::Validate(data, params, rng));
  return std::make_unique<SketchIndex>(data, params, rng);
}

Status SketchIndex::CheckAnswerable(const QueryOptions& options) const {
  if (options.precision != QueryPrecision::kAuto) {
    return Status::InvalidArgument(
        "sketch index answers kAuto precision only (argmax descent or "
        "exact fallback scan); use brute/tree/lsh for exact or quantized "
        "precision");
  }
  return Status::Ok();
}

std::vector<SearchMatch> SketchIndex::Search(std::span<const double> q,
                                             const QueryOptions& options,
                                             QueryStats* stats,
                                             Trace* trace) const {
  std::vector<SearchMatch> matches;
  // The §4.3 argmax tree answers exactly one query shape: unsigned
  // best-match. Every other shape runs the shared exact scan.
  if (!options.is_signed && options.k == 1) {
    SketchProbeInfo info;
    {
      TraceSpan span(trace, "sketch");
      const std::size_t index = sketch_.RecoverArgmax(q, trace, &info);
      matches.push_back(
          {index, std::abs(kernels::Score(data_->Row(index), q))});
    }
    stats->candidates = info.leaf_points;
    // Dot-equivalent work: each sketch row product is one length-d dot.
    stats->dot_products = info.rows_multiplied + info.leaf_points;
    stats->metrics.Set("sketch.levels", info.levels);
    stats->metrics.Set("sketch.rows_multiplied", info.rows_multiplied);
    stats->metrics.Set("sketch.leaf_points", info.leaf_points);
  } else {
    TraceSpan span(trace, "sketch");
    matches = QueryBruteForce(*data_, q, options, stats, trace);
  }
  stats->algorithm = QueryAlgo::kSketch;
  return matches;
}

}  // namespace ips
