#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/top_k.h"
#include "linalg/validate.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace ips {
namespace {

// Leaf size of the ball tree, on the warmup subsample and the full data.
constexpr std::size_t kTreeLeafSize = 16;

// Sketch descent touches two node sketches per level, a geometric sum
// dominated by the root, plus the exact rescan of one leaf.
double SketchCostModel(std::size_t n, const SketchMipsParams& params) {
  const double rows =
      static_cast<double>(params.copies) * params.bucket_multiplier *
      std::pow(static_cast<double>(n),
               1.0 - 2.0 / std::max(params.kappa, 2.0));
  return 2.0 * std::max(1.0, rows) + static_cast<double>(params.leaf_size);
}

// Samples `count` distinct row indices of `data` (all rows when count
// >= rows).
std::vector<std::size_t> SampleRows(const Matrix& data, std::size_t count,
                                    Rng* rng) {
  std::vector<std::size_t> indices(data.rows());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  if (count >= indices.size()) return indices;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng->NextBounded(indices.size() - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
  return indices;
}

// True when the plan's executed path can return a wrong top-k even
// though the calibration said it would not: every non-exact precision,
// plus the candidate-generating algorithms (LSH, sketch) whose recall
// depends on the query distribution. The audit cadence keys off this
// rather than `expected_recall < 1.0` so a path whose warmup recall
// calibrated to exactly 1.0 (common for quantized re-rank on
// well-scaled data) still gets shadow-audited — otherwise a
// distribution shift that breaks it would never be observed.
bool PlanCanMiss(const PlanDecision& plan) {
  return plan.precision != QueryPrecision::kExact ||
         plan.algorithm == QueryAlgo::kLsh ||
         plan.algorithm == QueryAlgo::kSketch;
}

// Counts a served answer under serve.engine.selected.<algo>.
void CountSelected(QueryAlgo algo) {
  static Counter* const selected[kNumQueryAlgos] = {
      MetricsRegistry::Global().GetCounter("serve.engine.selected.brute"),
      MetricsRegistry::Global().GetCounter("serve.engine.selected.tree"),
      MetricsRegistry::Global().GetCounter("serve.engine.selected.lsh"),
      MetricsRegistry::Global().GetCounter("serve.engine.selected.sketch")};
  selected[static_cast<std::size_t>(algo)]->Increment();
}

// Publishes a request's finished engine-level trace to the TraceRing,
// counted under serve.engine.traced.
std::shared_ptr<const Trace> PublishTrace(std::unique_ptr<Trace> trace) {
  static Counter* const traced =
      MetricsRegistry::Global().GetCounter("serve.engine.traced");
  traced->Increment();
  std::shared_ptr<const Trace> shared(std::move(trace));
  TraceRing::Global().Record(shared);
  return shared;
}

// StatusOr has no converting constructor: unwraps a typed build into
// the index table's slot type.
template <typename T>
StatusOr<std::unique_ptr<MipsIndex>> AsIndex(
    StatusOr<std::unique_ptr<T>> built) {
  IPS_RETURN_IF_ERROR(built.status());
  return std::unique_ptr<MipsIndex>(std::move(built).value());
}

Matrix GatherRows(const Matrix& data, const std::vector<std::size_t>& rows) {
  Matrix out(rows.size(), data.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto src = data.Row(rows[i]);
    std::copy(src.begin(), src.end(), out.Row(i).begin());
  }
  return out;
}

}  // namespace

Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.lsh_params.k < 1 || options.lsh_params.l < 1) {
    return Status::InvalidArgument("engine lsh k and l must be >= 1");
  }
  if (options.audit_every < 1) {
    return Status::InvalidArgument("engine audit_every must be >= 1");
  }
  return Status::Ok();
}

Engine::Engine(Matrix data, EngineOptions options, DatasetProfile profile)
    : data_(std::move(data)),
      options_(options),
      profile_(profile),
      build_rng_(options.seed) {
  if (profile_.max_norm > 0.0) {
    lsh_transform_ =
        std::make_unique<SimpleMipsTransform>(profile_.dim, profile_.max_norm);
    lsh_family_ =
        std::make_unique<SimHashFamily>(lsh_transform_->output_dim());
  }
}

StatusOr<std::unique_ptr<Engine>> Engine::Create(Matrix data,
                                                 EngineOptions options) {
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "engine data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "engine data"));
  IPS_RETURN_IF_ERROR(ValidateEngineOptions(options));
  const DatasetProfile profile = DatasetProfile::FromData(data);
  std::unique_ptr<Engine> engine(
      new Engine(std::move(data), options, profile));
  auto calibration = engine->Calibrate();
  IPS_RETURN_IF_ERROR(calibration.status());
  engine->planner_ =
      std::make_unique<Planner>(profile, *calibration, options.audit_every);
  return engine;
}

StatusOr<PlannerCalibration> Engine::Calibrate() {
  // Calibration runs during Create, before the engine is shared, but
  // it draws from build_rng_, so it takes the build lock like any
  // other index-building path.
  MutexLock lock(build_mutex_);
  PlannerCalibration calib;
  calib.sketch_cost = SketchCostModel(profile_.n, options_.sketch_params);
  calib.lsh_probe_overhead = static_cast<double>(options_.lsh_params.k) *
                             static_cast<double>(options_.lsh_params.l);
  calib.quant_cost_ratio = kQuantEstimateDotEquivalent;

  const std::size_t probes =
      std::min(options_.probe_queries, profile_.n);
  if (probes == 0) return calib;

  // Probe indexes are built on a subsample so warmup stays cheap; the
  // measured fractions extrapolate to the full dataset.
  const std::size_t sample_size =
      std::max<std::size_t>(1, std::min(options_.probe_sample, profile_.n));
  const Matrix sample =
      GatherRows(data_, SampleRows(data_, sample_size, &build_rng_));
  const DatasetProfile sample_profile = DatasetProfile::FromData(sample);
  const std::vector<std::size_t> query_rows =
      SampleRows(data_, probes, &build_rng_);

  // Probe requests go through the same unified Query paths that serve
  // traffic, so the cost model is calibrated from the exact QueryStats
  // bookkeeping it will later be judged against.
  const QueryOptions signed_probe;  // k=1, signed defaults
  QueryOptions unsigned_probe;
  unsigned_probe.is_signed = false;

  // Tree probe: pruning fraction of the subsample tree.
  auto probe_tree =
      TreeMipsIndex::Create(sample, kTreeLeafSize, &build_rng_);
  IPS_RETURN_IF_ERROR(probe_tree.status());
  double tree_evaluated = 0.0;
  for (std::size_t row : query_rows) {
    QueryStats stats;
    auto matches = (*probe_tree)->Query(data_.Row(row), signed_probe, &stats);
    IPS_RETURN_IF_ERROR(matches.status());
    tree_evaluated += static_cast<double>(stats.dot_products);
  }
  calib.tree_fraction = tree_evaluated / static_cast<double>(probes) /
                        static_cast<double>(sample.rows());

  // LSH probe: candidate fraction and recall@1 against the exact answer.
  // Skipped (recall stays 0) when the data is all-zero, where the
  // Simple-LSH lift is undefined.
  if (sample_profile.max_norm > 0.0) {
    const SimpleMipsTransform probe_transform(profile_.dim,
                                              sample_profile.max_norm);
    const SimHashFamily probe_family(probe_transform.output_dim());
    auto probe_lsh =
        LshMipsIndex::Create(sample, &probe_transform, probe_family,
                             options_.lsh_params, &build_rng_);
    IPS_RETURN_IF_ERROR(probe_lsh.status());
    double candidate_total = 0.0;
    std::size_t lsh_hits = 0;
    std::size_t lsh_topk_hits = 0;
    std::size_t sketch_hits = 0;
    auto probe_sketch =
        SketchIndex::Create(sample, options_.sketch_params, &build_rng_);
    IPS_RETURN_IF_ERROR(probe_sketch.status());
    // Two-stage probe: recall@5 of the quantized scan against the exact
    // top-5, measured through the same top_k.cc entry point serving
    // traffic takes.
    const QuantizedMatrix probe_quant = QuantizedMatrix::Quantize(sample);
    QueryOptions rerank_probe;
    rerank_probe.k = std::min<std::size_t>(5, sample.rows());
    std::size_t quant_hits = 0;
    std::size_t rerank_total = 0;
    for (std::size_t row : query_rows) {
      const auto q = data_.Row(row);
      const auto exact_unsigned =
          TopKBruteForce(sample, q, 1, /*is_signed=*/false);
      const auto exact_topk =
          TopKBruteForce(sample, q, rerank_probe.k, /*is_signed=*/true);
      // One k=5 LSH probe measures both depths: its first element is
      // the k=1 answer (recall@1), and its overlap with the exact top-5
      // is the recall@5 that governs k > 1 eligibility. The candidate
      // set LSH retrieves is independent of k, so one call suffices.
      // exact_topk[0] is the exact k=1 answer: both depths rank by the
      // same total order (score desc, index asc).
      QueryStats lsh_stats;
      auto lsh_top = (*probe_lsh)->Query(q, rerank_probe, &lsh_stats);
      IPS_RETURN_IF_ERROR(lsh_top.status());
      candidate_total += static_cast<double>(lsh_stats.candidates);
      if (!(*lsh_top).empty() && !exact_topk.empty() &&
          (*lsh_top)[0].index == exact_topk[0].index) {
        ++lsh_hits;
      }
      lsh_topk_hits += TopKHits(exact_topk, *lsh_top);
      QueryStats sketch_stats;
      auto sketch_top =
          (*probe_sketch)->Query(q, unsigned_probe, &sketch_stats);
      IPS_RETURN_IF_ERROR(sketch_top.status());
      sketch_hits += TopKHits(exact_unsigned, *sketch_top);
      const auto quant_topk =
          QueryQuantizedRerank(sample, probe_quant, q, rerank_probe);
      rerank_total += exact_topk.size();
      quant_hits += TopKHits(exact_topk, quant_topk);
    }
    calib.lsh_candidate_fraction = candidate_total /
                                   static_cast<double>(probes) /
                                   static_cast<double>(sample.rows());
    calib.lsh_recall =
        static_cast<double>(lsh_hits) / static_cast<double>(probes);
    calib.sketch_recall =
        static_cast<double>(sketch_hits) / static_cast<double>(probes);
    if (rerank_total > 0) {
      calib.lsh_topk_recall = static_cast<double>(lsh_topk_hits) /
                              static_cast<double>(rerank_total);
      calib.quant_recall = static_cast<double>(quant_hits) /
                           static_cast<double>(rerank_total);
    }
  }

  calib.probe_queries = probes;
  return calib;
}

Status Engine::EnsureIndex(QueryAlgo algo) const {
  return Pin(algo).status();
}

StatusOr<const MipsIndex*> Engine::Pin(QueryAlgo algo) const {
  const auto a = static_cast<std::size_t>(algo);
  if (a >= kNumQueryAlgos) {
    return Status::InvalidArgument("unknown serve algorithm");
  }
  MutexLock lock(build_mutex_);
  IndexSlot& slot = slots_[a];
  if (slot.index == nullptr) {
    slot.prebuild = build_rng_.SaveState();
    auto built = BuildIndex(algo);
    IPS_RETURN_IF_ERROR(built.status());
    slot.index = std::move(built).value();
  }
  return slot.index.get();
}

StatusOr<std::unique_ptr<MipsIndex>> Engine::BuildIndex(
    QueryAlgo algo) const {
  switch (algo) {
    case QueryAlgo::kBruteForce:
      return AsIndex(BruteForceIndex::Create(data_));
    case QueryAlgo::kBallTree:
      return AsIndex(
          TreeMipsIndex::Create(data_, kTreeLeafSize, &build_rng_));
    case QueryAlgo::kLsh:
      if (lsh_family_ == nullptr) {
        return Status::FailedPrecondition(
            "lsh path unavailable: all data vectors are zero");
      }
      return AsIndex(LshMipsIndex::Create(data_, lsh_transform_.get(),
                                          *lsh_family_, options_.lsh_params,
                                          &build_rng_));
    case QueryAlgo::kSketch:
      break;
  }
  return AsIndex(
      SketchIndex::Create(data_, options_.sketch_params, &build_rng_));
}

StatusOr<QueryResult> Engine::Query(const Request& request) const {
  static Counter* const requests =
      MetricsRegistry::Global().GetCounter("serve.engine.requests");
  static Histogram* const exec_seconds =
      MetricsRegistry::Global().GetHistogram("serve.engine.exec_seconds");

  const std::span<const double> query = request.query;
  const QueryOptions& options = request.options;
  IPS_RETURN_IF_ERROR(ValidateRequestContext(request.context));
  IPS_RETURN_IF_ERROR(
      ValidateVectorDims(query, profile_.dim, "serve query"));
  IPS_RETURN_IF_ERROR(ValidateVectorFinite(query, "serve query"));
  requests->Increment();

  std::unique_ptr<Trace> trace;
  if (options.trace) trace = std::make_unique<Trace>("serve");

  WallTimer timer;
  // The span scope: serve/query -> serve/plan, then the algorithm's own
  // spans. The lambda closes the root span before the trace is
  // published below.
  StatusOr<QueryResult> outcome = [&]() -> StatusOr<QueryResult> {
    TraceSpan root(trace.get(), "serve/query");
    auto planned = PlanAndPin(options, trace.get());
    IPS_RETURN_IF_ERROR(planned.status());
    QueryResult response;
    auto matches = planned->index->Query(query, planned->options,
                                         &response.stats, trace.get());
    IPS_RETURN_IF_ERROR(matches.status());
    response.matches = std::move(matches).value();
    response.plan = std::move(planned->plan);
    return response;
  }();
  IPS_RETURN_IF_ERROR(outcome.status());
  QueryResult result = std::move(outcome).value();
  // The audit's wall time lands in exec_seconds below.
  MaybeAudit(query, options, &result);
  result.stats.exec_seconds = timer.Seconds();
  result.stats.deadline_met =
      result.stats.exec_seconds <= request.context.deadline_seconds;
  CountSelected(result.stats.algorithm);
  exec_seconds->Observe(result.stats.exec_seconds);
  if (trace != nullptr) result.stats.trace = PublishTrace(std::move(trace));
  return result;
}

StatusOr<Engine::PlannedRequest> Engine::PlanAndPin(
    const QueryOptions& options, Trace* trace) const {
  PlannedRequest planned{{}, nullptr, options};
  PlanDecision& plan = planned.plan;
  {
    TraceSpan plan_span(trace, "serve/plan");
    if (!options.force_algorithm.has_value()) {
      auto decided = planner_->Plan(options);
      IPS_RETURN_IF_ERROR(decided.status());
      plan = std::move(decided).value();
    } else {
      IPS_RETURN_IF_ERROR(ValidateQueryOptions(options));
      const QueryAlgo forced = *options.force_algorithm;
      // The serve layer routes only signed requests to the tree, forced
      // or planned alike: its cost model is calibrated on signed
      // descents (the index itself also answers unsigned ones).
      if (forced == QueryAlgo::kBallTree && !options.is_signed) {
        return Status::InvalidArgument(
            "the serving engine routes only signed queries to the ball tree");
      }
      plan.algorithm = forced;
      // A forced path keeps the request's precision verbatim (kAuto runs
      // the path's native mode); the index rejects combinations it
      // cannot honor.
      plan.precision = options.precision;
      plan.expected_dot_products =
          planner_->ExpectedDotProducts(forced, options.precision, options);
      plan.expected_recall = 0.0;
      plan.reason =
          std::string("forced ") + std::string(QueryAlgoName(forced));
    }
  }
  auto index = Pin(plan.algorithm);
  IPS_RETURN_IF_ERROR(index.status());
  planned.index = *index;
  // The plan committed to a precision (the request's own when explicit
  // or forced); the index runs exactly what was planned.
  planned.options.precision = plan.precision;
  return planned;
}

void Engine::MaybeAudit(std::span<const double> query,
                        const QueryOptions& options,
                        QueryResult* result) const {
  // Shadow audit (feedback loop): planner-chosen paths that can miss —
  // forced paths are A/B probes and explicit precisions pin the
  // caller's mode, and a truly exact plan has nothing to learn. Note
  // the gate is PlanCanMiss, not expected_recall < 1.0: a path whose
  // warmup recall calibrated to exactly 1.0 must still be audited or
  // the feedback loop is blind to it degrading under shift. The
  // audit's brute scan is billed to this request (it ran here).
  if (options.force_algorithm.has_value() ||
      options.precision != QueryPrecision::kAuto ||
      !PlanCanMiss(result->plan) || !planner_->BeginAudit(options)) {
    return;
  }
  const auto exact =
      TopKBruteForce(data_, query, options.k, options.is_signed);
  const double observed_recall =
      exact.empty() ? 1.0
                    : static_cast<double>(TopKHits(exact, result->matches)) /
                          static_cast<double>(exact.size());
  // The served path's own cost is what the re-fit curves price; the
  // audit scan is accounted separately below.
  planner_->RecordAudit(options, result->plan.algorithm,
                        result->plan.precision, observed_recall,
                        static_cast<double>(result->stats.dot_products));
  result->stats.dot_products += data_.rows();
  result->stats.metrics.Add("serve.feedback.audit_dots",
                            static_cast<double>(data_.rows()));
  if (observed_recall < options.recall_target) {
    // Predicted-miss hedging, audit flavor: the exact answer is already
    // in hand, so the caller gets it instead of the miss. The miss
    // still trained the curves above, which is what evicts the path.
    planner_->NoteHedge();
    result->matches = exact;
    result->plan.reason +=
        "; feedback-hedged to exact (observed recall " +
        std::to_string(observed_recall) + " below target " +
        std::to_string(options.recall_target) + ")";
  }
}

StatusOr<std::vector<QueryResult>> Engine::BatchQuery(
    const Matrix& queries, const QueryOptions& options,
    const RequestContext& context) const {
  static Counter* const batch_requests =
      MetricsRegistry::Global().GetCounter("serve.engine.batch.requests");
  static Counter* const batch_queries =
      MetricsRegistry::Global().GetCounter("serve.engine.batch.queries");
  static Histogram* const batch_exec = MetricsRegistry::Global().GetHistogram(
      "serve.engine.batch.exec_seconds");

  IPS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  IPS_RETURN_IF_ERROR(ValidateRequestContext(context));
  const std::size_t m = queries.rows();
  if (m == 0) return std::vector<QueryResult>();
  IPS_RETURN_IF_ERROR(
      ValidateDims(queries, profile_.dim, "serve batch queries"));
  IPS_RETURN_IF_ERROR(ValidateFinite(queries, "serve batch queries"));
  batch_requests->Increment();
  batch_queries->Add(m);

  std::unique_ptr<Trace> trace;
  if (options.trace) trace = std::make_unique<Trace>("serve.batch");

  WallTimer timer;
  StatusOr<std::vector<QueryResult>> outcome =
      [&]() -> StatusOr<std::vector<QueryResult>> {
    TraceSpan root(trace.get(), "serve/batch_query");
    root.AddCount("batch_queries", m);
    auto planned = PlanAndPin(options, trace.get());
    IPS_RETURN_IF_ERROR(planned.status());
    auto results = planned->index->BatchQuery(queries, planned->options);
    IPS_RETURN_IF_ERROR(results.status());
    std::vector<QueryResult> out = std::move(results).value();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].plan = planned->plan;
      MaybeAudit(queries.Row(i), options, &out[i]);
    }
    return out;
  }();
  IPS_RETURN_IF_ERROR(outcome.status());
  std::vector<QueryResult> results = std::move(outcome).value();
  const double total_seconds = timer.Seconds();
  const double amortized = total_seconds / static_cast<double>(m);
  for (QueryResult& result : results) {
    result.stats.exec_seconds = amortized;
    // Per-member deadline inheritance (RequestContext::deadline_seconds
    // of the shared context): judged against the amortized share here;
    // the scheduler replaces this with queue-aware wall clock for
    // scheduled traffic.
    result.stats.deadline_met = amortized <= context.deadline_seconds;
    CountSelected(result.stats.algorithm);
  }
  batch_exec->Observe(total_seconds);
  // The engine-level trace (plan + batch dispatch) goes to the ring;
  // each result keeps the index-level batch trace in its stats.
  if (trace != nullptr) PublishTrace(std::move(trace));
  return results;
}

}  // namespace ips
