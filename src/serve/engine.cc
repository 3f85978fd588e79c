#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/top_k.h"
#include "linalg/validate.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "serve/envelope.h"
#include "util/check.h"

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

// Counts a served answer under serve.engine.selected.<algo>.
void CountSelected(QueryAlgo algo) {
  static Counter* const selected[kNumQueryAlgos] = {
      MetricsRegistry::Global().GetCounter("serve.engine.selected.brute"),
      MetricsRegistry::Global().GetCounter("serve.engine.selected.tree"),
      MetricsRegistry::Global().GetCounter("serve.engine.selected.lsh"),
      MetricsRegistry::Global().GetCounter("serve.engine.selected.sketch")};
  selected[static_cast<std::size_t>(algo)]->Increment();
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
  static const ServeSurface surface(
      "serve", "serve/query", "serve query", "serve.engine.requests", "",
      "serve.engine.exec_seconds", "serve.engine.traced");
  return ServeQuery(
      surface, profile_.dim, request,
      [&](Trace* trace) -> StatusOr<QueryResult> {
        auto planned = PlanAndPin(request.options, trace);
        IPS_RETURN_IF_ERROR(planned.status());
        QueryResult response;
        auto matches = planned->index->Query(
            request.query, planned->options, &response.stats, trace);
        IPS_RETURN_IF_ERROR(matches.status());
        response.matches = std::move(matches).value();
        response.plan = std::move(planned->plan);
        CountSelected(response.stats.algorithm);
        return response;
      },
      // The audit runs after serve/query has closed, so its wall time is
      // the part of exec_seconds the root span does not hold.
      [&](StatusOr<QueryResult>& outcome) {
        if (outcome.ok()) MaybeAudit(request.query, request.options, &*outcome);
      });
}

StatusOr<Engine::PlannedRequest> Engine::PlanAndPin(
    const QueryOptions& options, Trace* trace) const {
  const StatusOr<PlanDecision> plan = [&] {
    TraceSpan plan_span(trace, "serve/plan");
    return planner_->Plan(options);
  }();
  IPS_RETURN_IF_ERROR(plan.status());
  auto index = Pin(plan->algorithm);
  IPS_RETURN_IF_ERROR(index.status());
  PlannedRequest planned{*plan, *index, options};
  // The plan committed to a precision (the request's own when explicit
  // or forced); the index runs exactly what was planned.
  planned.options.precision = plan->precision;
  return planned;
}

void Engine::MaybeAudit(std::span<const double> query,
                        const QueryOptions& options,
                        QueryResult* result) const {
  // Shadow audit (feedback loop): the planner decides which answers
  // are audited (Planner::BeginAudit). The audit's brute scan is billed
  // to this request (it ran here).
  if (!planner_->BeginAudit(options, result->plan)) return;
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
    result->stats.metrics.Set("serve.feedback.hedged", 1);
  }
}

StatusOr<std::vector<QueryResult>> Engine::BatchQuery(
    const Matrix& queries, const QueryOptions& options,
    const RequestContext& context) const {
  static const ServeSurface surface(
      "serve.batch", "serve/batch_query", "serve batch queries",
      "serve.engine.batch.requests", "serve.engine.batch.queries",
      "serve.engine.batch.exec_seconds", "serve.engine.traced");
  return ServeBatch(
      surface, profile_.dim, queries, options, context,
      [&](Trace* trace) -> StatusOr<std::vector<QueryResult>> {
        auto planned = PlanAndPin(options, trace);
        IPS_RETURN_IF_ERROR(planned.status());
        // Each member keeps the index-level batch trace.
        auto results = planned->index->BatchQuery(queries, planned->options);
        IPS_RETURN_IF_ERROR(results.status());
        std::vector<QueryResult> out = std::move(results).value();
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i].plan = planned->plan;
          MaybeAudit(queries.Row(i), options, &out[i]);
          CountSelected(out[i].stats.algorithm);
        }
        return out;
      },
      [](StatusOr<std::vector<QueryResult>>&) {});
}

}  // namespace ips
