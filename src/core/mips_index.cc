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

// Shared head of every index's unified Query entry point: validated
// options and query, plus an index-owned Trace when the caller asked
// for tracing without supplying one.
Status ValidateQueryInputs(std::span<const double> q, std::size_t dim,
                           const QueryOptions& options) {
  IPS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  if (q.size() != dim) {
    return Status::InvalidArgument(
        "query dimension " + std::to_string(q.size()) +
        " != index dimension " + std::to_string(dim));
  }
  return Status::Ok();
}

// Trace the index allocates itself when options.trace is set but the
// caller holds none; published into stats->trace on completion.
std::unique_ptr<Trace> MaybeOwnTrace(const QueryOptions& options,
                                     Trace* external, std::string label) {
  if (external != nullptr || !options.trace) return nullptr;
  return std::make_unique<Trace>(std::move(label));
}

void PublishQuery(std::unique_ptr<Trace> owned, QueryStats local,
                  QueryStats* stats) {
  if (owned != nullptr) {
    local.trace = std::shared_ptr<const Trace>(std::move(owned));
  }
  if (stats != nullptr) *stats = std::move(local);
}

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

// Shared head of every BatchQuery: validated options plus a batch-wide
// dimension check.
Status ValidateBatchInputs(const Matrix& queries, std::size_t dim,
                           const QueryOptions& options) {
  IPS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  if (queries.rows() > 0 && queries.cols() != dim) {
    return Status::InvalidArgument(
        "batch query dimension " + std::to_string(queries.cols()) +
        " != index dimension " + std::to_string(dim));
  }
  return Status::Ok();
}

// One Trace shared by every member of a traced batch (published into
// each result's stats.trace); null when tracing is off.
std::shared_ptr<Trace> MakeBatchTrace(const QueryOptions& options,
                                      std::string label) {
  if (!options.trace) return nullptr;
  return std::make_shared<Trace>(std::move(label) + ".batch");
}

// Registry accounting every batch path shares: one call, its member
// count, and how many members went through the per-query fallback
// instead of a specialized batch implementation.
void CountBatch(std::size_t members, bool fallback) {
  static Counter* const calls =
      MetricsRegistry::Global().GetCounter("core.batch.calls");
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("core.batch.queries");
  static Counter* const fallback_queries =
      MetricsRegistry::Global().GetCounter("core.batch.fallback_queries");
  calls->Increment();
  queries->Add(members);
  if (fallback) fallback_queries->Add(members);
}

// The per-query batch driver: one Query call per row under a shared
// batch trace. The default MipsIndex::BatchQuery and the paths whose
// batch win lives inside their per-query kernels (tree descents, sketch
// estimate passes) all run through this.
StatusOr<std::vector<QueryResult>> RunPerQueryBatch(
    const MipsIndex& index, const Matrix& queries,
    const QueryOptions& options, std::string_view span_name,
    bool fallback) {
  std::shared_ptr<Trace> batch_trace = MakeBatchTrace(options, index.Name());
  std::vector<QueryResult> results;
  results.reserve(queries.rows());
  {
    TraceSpan span(batch_trace.get(), span_name);
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      QueryResult result;
      auto matches =
          index.Query(queries.Row(i), options, &result.stats,
                      batch_trace.get());
      if (!matches.ok()) return matches.status();
      result.matches = std::move(matches).value();
      if (batch_trace != nullptr) result.stats.trace = batch_trace;
      results.push_back(std::move(result));
    }
    span.AddCount("batch_queries", queries.rows());
  }
  CountBatch(queries.rows(), fallback);
  return results;
}

}  // namespace

StatusOr<std::vector<QueryResult>> MipsIndex::BatchQuery(
    const Matrix& queries, const QueryOptions& options) const {
  IPS_RETURN_IF_ERROR(ValidateBatchInputs(queries, dim(), options));
  if (queries.rows() == 0) return std::vector<QueryResult>();
  return RunPerQueryBatch(*this, queries, options, "batch.fallback",
                          /*fallback=*/true);
}

std::size_t JoinResult::NumMatched() const {
  std::size_t matched = 0;
  for (const auto& match : per_query) {
    if (match.has_value()) ++matched;
  }
  return matched;
}

BruteForceIndex::BruteForceIndex(const Matrix& data)
    : data_(&data), quant_(QuantizedMatrix::Quantize(data)) {
  IPS_CHECK_GT(data.rows(), 0u);
}

StatusOr<std::unique_ptr<BruteForceIndex>> BruteForceIndex::Create(
    const Matrix& data) {
  IPS_RETURN_IF_ERROR(ValidateIndexData(data));
  return std::make_unique<BruteForceIndex>(data);
}

StatusOr<std::vector<SearchMatch>> BruteForceIndex::Query(
    std::span<const double> q, const QueryOptions& options, QueryStats* stats,
    Trace* trace) const {
  IPS_RETURN_IF_ERROR(ValidateQueryInputs(q, dim(), options));
  std::unique_ptr<Trace> owned = MaybeOwnTrace(options, trace, Name());
  Trace* t = trace != nullptr ? trace : owned.get();
  QueryStats local;
  std::vector<SearchMatch> matches;
  if (options.precision == QueryPrecision::kQuantizedRerank) {
    local.algorithm = QueryAlgo::kBruteForce;
    matches = QueryQuantizedRerank(*data_, quant_, q, options, &local, t);
  } else {
    matches = QueryBruteForce(*data_, q, options, &local, t);
  }
  PublishQuery(std::move(owned), std::move(local), stats);
  return matches;
}

StatusOr<std::vector<QueryResult>> BruteForceIndex::BatchQuery(
    const Matrix& queries, const QueryOptions& options) const {
  IPS_RETURN_IF_ERROR(ValidateBatchInputs(queries, dim(), options));
  const std::size_t m = queries.rows();
  if (m == 0) return std::vector<QueryResult>();
  if (options.precision == QueryPrecision::kQuantizedRerank) {
    // Two-stage per query; the shared int8 code matrix (built once at
    // construction) is the amortized state across the batch.
    return RunPerQueryBatch(*this, queries, options, "brute.quant.batch",
                            /*fallback=*/false);
  }
  std::shared_ptr<Trace> batch_trace = MakeBatchTrace(options, Name());
  std::vector<kernels::TopKHeap> heaps;
  heaps.reserve(m);
  for (std::size_t i = 0; i < m; ++i) heaps.emplace_back(options.k);
  {
    // One tiled pass over the data scores the whole batch: each tile of
    // data rows is loaded once and reused across a block of queries.
    TraceSpan span(batch_trace.get(), "brute.batch");
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
    if (batch_trace != nullptr) result.stats.trace = batch_trace;
  }
  // Keep the per-path registry view consistent with m Query calls.
  static Counter* const brute_queries =
      MetricsRegistry::Global().GetCounter("core.brute.queries");
  static Counter* const points_scored =
      MetricsRegistry::Global().GetCounter("core.brute.points_scored");
  brute_queries->Add(m);
  points_scored->Add(data_->rows() * m);
  CountBatch(m, /*fallback=*/false);
  return results;
}

TreeMipsIndex::TreeMipsIndex(const Matrix& data, std::size_t leaf_size,
                             Rng* rng)
    : data_(&data), tree_(data, leaf_size, rng) {}

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

StatusOr<std::vector<SearchMatch>> TreeMipsIndex::Query(
    std::span<const double> q, const QueryOptions& options, QueryStats* stats,
    Trace* trace) const {
  IPS_RETURN_IF_ERROR(ValidateQueryInputs(q, dim(), options));
  if (options.precision != QueryPrecision::kAuto &&
      options.precision != QueryPrecision::kExact) {
    return Status::InvalidArgument(
        "ball-tree top-k is exact only (its branch-and-bound prunes on "
        "exact scores); use brute/lsh for quantized re-rank");
  }
  std::unique_ptr<Trace> owned = MaybeOwnTrace(options, trace, Name());
  Trace* t = trace != nullptr ? trace : owned.get();
  QueryStats local;
  local.algorithm = QueryAlgo::kBallTree;
  std::vector<SearchMatch> matches;
  TreeQueryInfo info;
  {
    TraceSpan span(t, "tree");
    matches = tree_.QueryTopK(q, options.k, options.is_signed, t, &info);
  }
  local.candidates = info.points_scored;
  local.dot_products = info.points_scored;
  local.metrics.Set("tree.nodes_visited", info.nodes_visited);
  local.metrics.Set("tree.nodes_pruned", info.nodes_pruned);
  local.metrics.Set("tree.points_scored", info.points_scored);
  PublishQuery(std::move(owned), std::move(local), stats);
  return matches;
}

StatusOr<std::vector<QueryResult>> TreeMipsIndex::BatchQuery(
    const Matrix& queries, const QueryOptions& options) const {
  IPS_RETURN_IF_ERROR(ValidateBatchInputs(queries, dim(), options));
  if (options.precision != QueryPrecision::kAuto &&
      options.precision != QueryPrecision::kExact) {
    return Status::InvalidArgument(
        "ball-tree top-k is exact only (its branch-and-bound prunes on "
        "exact scores); use brute/lsh for quantized re-rank");
  }
  if (queries.rows() == 0) return std::vector<QueryResult>();
  // Descents stay per-query (each query prunes its own subtree); the
  // batch win is the gather-kernel leaf scan inside every descent.
  return RunPerQueryBatch(*this, queries, options, "tree.batch",
                          /*fallback=*/false);
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
    : data_(&data),
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

StatusOr<std::vector<SearchMatch>> LshMipsIndex::Query(
    std::span<const double> q, const QueryOptions& options, QueryStats* stats,
    Trace* trace) const {
  IPS_RETURN_IF_ERROR(ValidateQueryInputs(q, dim(), options));
  std::unique_ptr<Trace> owned = MaybeOwnTrace(options, trace, Name());
  Trace* t = trace != nullptr ? trace : owned.get();
  QueryStats local;
  local.algorithm = QueryAlgo::kLsh;
  std::vector<SearchMatch> matches;
  {
    TraceSpan span(t, "lsh");
    const std::vector<std::size_t> candidates = Candidates(q, t, &local);
    matches = options.precision == QueryPrecision::kQuantizedRerank
                  ? QueryFromCandidatesQuantized(*data_, quant_, q, candidates,
                                                 options, &local, t)
                  : QueryFromCandidates(*data_, q, candidates, options, &local,
                                        t);
  }
  PublishQuery(std::move(owned), std::move(local), stats);
  return matches;
}

StatusOr<std::vector<QueryResult>> LshMipsIndex::BatchQuery(
    const Matrix& queries, const QueryOptions& options) const {
  IPS_RETURN_IF_ERROR(ValidateBatchInputs(queries, dim(), options));
  const std::size_t m = queries.rows();
  if (m == 0) return std::vector<QueryResult>();
  if (options.precision == QueryPrecision::kQuantizedRerank) {
    // Quantized verification prunes per-query survivor sets, which the
    // row-grouped exact verify below cannot express; run per query.
    return RunPerQueryBatch(*this, queries, options, "lsh.quant.batch",
                            /*fallback=*/false);
  }
  std::shared_ptr<Trace> batch_trace = MakeBatchTrace(options, Name());
  std::vector<QueryResult> results(m);
  std::vector<kernels::TopKHeap> heaps;
  heaps.reserve(m);
  for (std::size_t i = 0; i < m; ++i) heaps.emplace_back(options.k);
  static Counter* const verified =
      MetricsRegistry::Global().GetCounter("core.candidates_verified");
  {
    TraceSpan span(batch_trace.get(), "lsh.batch");
    // Probe stage: transform + table lookup per query. Candidate sets
    // stay per-query; the shared work is downstream.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (row, query)
    {
      TraceSpan probe(batch_trace.get(), "probe");
      for (std::size_t i = 0; i < m; ++i) {
        QueryStats& stats = results[i].stats;
        const std::vector<std::size_t> candidates =
            Candidates(queries.Row(i), nullptr, &stats);
        for (std::size_t row : candidates) pairs.emplace_back(row, i);
        stats.algorithm = QueryAlgo::kLsh;
        stats.candidates = candidates.size();
        stats.dot_products = candidates.size();
      }
      probe.AddCount("batch_queries", m);
    }
    // Verify stage, grouped by data row across the batch: sorting the
    // (row, query) pairs means each data row the batch bucketed is
    // loaded once and scored against every query that wants it.
    {
      TraceSpan verify(batch_trace.get(), "verify");
      std::sort(pairs.begin(), pairs.end());
      for (const auto& [row, qi] : pairs) {
        const double raw = kernels::Dot(data_->Row(row), queries.Row(qi));
        const double value = options.is_signed ? raw : std::abs(raw);
        if (heaps[qi].Accepts(value, row)) heaps[qi].Push(row, value);
      }
      verify.AddCount("candidates", pairs.size());
    }
    verified->Add(pairs.size());
  }
  for (std::size_t i = 0; i < m; ++i) {
    QueryResult& result = results[i];
    result.matches = heaps[i].TakeSorted();
    if (batch_trace != nullptr) result.stats.trace = batch_trace;
  }
  CountBatch(m, /*fallback=*/false);
  return results;
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

namespace {

// The §4.3 argmax tree answers exactly one query shape: unsigned
// best-match. Every other shape the sketch index serves runs the shared
// exact scan.
bool UsesArgmaxDescent(const QueryOptions& options) {
  return !options.is_signed && options.k == 1;
}

Status RejectNonSketchPrecision(const QueryOptions& options) {
  if (options.precision != QueryPrecision::kAuto) {
    return Status::InvalidArgument(
        "sketch index answers kAuto precision only (argmax descent or "
        "exact fallback scan); use brute/tree/lsh for exact or quantized "
        "precision");
  }
  return Status::Ok();
}

}  // namespace

SketchIndex::SketchIndex(const Matrix& data, const SketchMipsParams& params,
                         Rng* rng)
    : data_(&data), sketch_(data, params, rng) {}

StatusOr<std::unique_ptr<SketchIndex>> SketchIndex::Create(
    const Matrix& data, const SketchMipsParams& params, Rng* rng) {
  IPS_RETURN_IF_ERROR(ValidateIndexData(data));
  IPS_RETURN_IF_ERROR(SketchMipsIndex::Validate(data, params, rng));
  return std::make_unique<SketchIndex>(data, params, rng);
}

StatusOr<std::vector<SearchMatch>> SketchIndex::Query(
    std::span<const double> q, const QueryOptions& options, QueryStats* stats,
    Trace* trace) const {
  IPS_RETURN_IF_ERROR(ValidateQueryInputs(q, dim(), options));
  IPS_RETURN_IF_ERROR(RejectNonSketchPrecision(options));
  std::unique_ptr<Trace> owned = MaybeOwnTrace(options, trace, Name());
  Trace* t = trace != nullptr ? trace : owned.get();
  QueryStats local;
  std::vector<SearchMatch> matches;
  if (UsesArgmaxDescent(options)) {
    SketchProbeInfo info;
    {
      TraceSpan span(t, "sketch");
      const std::size_t index = sketch_.RecoverArgmax(q, t, &info);
      matches.push_back(
          {index, std::abs(kernels::Dot(data_->Row(index), q))});
    }
    local.candidates = info.leaf_points;
    // Dot-equivalent work: each sketch row product is one length-d dot.
    local.dot_products = info.rows_multiplied + info.leaf_points;
    local.metrics.Set("sketch.levels", info.levels);
    local.metrics.Set("sketch.rows_multiplied", info.rows_multiplied);
    local.metrics.Set("sketch.leaf_points", info.leaf_points);
  } else {
    TraceSpan span(t, "sketch");
    matches = QueryBruteForce(*data_, q, options, &local, t);
  }
  local.algorithm = QueryAlgo::kSketch;
  PublishQuery(std::move(owned), std::move(local), stats);
  return matches;
}

StatusOr<std::vector<QueryResult>> SketchIndex::BatchQuery(
    const Matrix& queries, const QueryOptions& options) const {
  IPS_RETURN_IF_ERROR(ValidateBatchInputs(queries, dim(), options));
  IPS_RETURN_IF_ERROR(RejectNonSketchPrecision(options));
  if (queries.rows() == 0) return std::vector<QueryResult>();
  // Argmax recoveries stay per-query; so does the fallback scan, which
  // keeps each answer identical to TopKBruteForce.
  return RunPerQueryBatch(*this, queries, options, "sketch.batch",
                          /*fallback=*/false);
}

}  // namespace ips
