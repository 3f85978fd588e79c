#include "sketch/sketch_mips.h"

#include <cmath>
#include <memory>

#include "linalg/validate.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace ips {

SketchMipsIndex::SketchMipsIndex(const Matrix& data,
                                 const SketchMipsParams& params, Rng* rng)
    : data_(&data), params_(params) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GT(data.rows(), 0u);
  IPS_CHECK_GE(params.kappa, 2.0);
  IPS_CHECK_GE(params.leaf_size, 1u);
  root_ = BuildNode(0, data.rows(), rng);
}

StatusOr<std::unique_ptr<SketchMipsIndex>> SketchMipsIndex::Create(
    const Matrix& data, const SketchMipsParams& params, Rng* rng) {
  IPS_RETURN_IF_ERROR(Validate(data, params, rng));
  return std::make_unique<SketchMipsIndex>(data, params, rng);
}

Status SketchMipsIndex::Validate(const Matrix& data,
                                 const SketchMipsParams& params, Rng* rng) {
  IPS_FAILPOINT("sketch/build");
  if (rng == nullptr) {
    return Status::InvalidArgument("SketchMipsIndex requires a non-null rng");
  }
  if (!std::isfinite(params.kappa) || params.kappa < 2.0) {
    return Status::InvalidArgument(
        "sketch kappa must be a finite value >= 2, got " +
        std::to_string(params.kappa));
  }
  if (params.copies < 1) {
    return Status::InvalidArgument("sketch needs copies >= 1");
  }
  if (params.leaf_size < 1) {
    return Status::InvalidArgument("sketch needs leaf_size >= 1");
  }
  if (!std::isfinite(params.bucket_multiplier) ||
      params.bucket_multiplier <= 0.0) {
    return Status::InvalidArgument(
        "sketch bucket multiplier must be finite and positive, got " +
        std::to_string(params.bucket_multiplier));
  }
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "sketch data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "sketch data"));
  return Status::Ok();
}

int SketchMipsIndex::BuildNode(std::size_t begin, std::size_t end, Rng* rng) {
  const int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[index].begin = begin;
  nodes_[index].end = end;
  const std::size_t size = end - begin;
  if (size > params_.leaf_size) {
    MaxStabilityParams sketch_params;
    sketch_params.kappa = params_.kappa;
    sketch_params.copies = params_.copies;
    sketch_params.bucket_multiplier = params_.bucket_multiplier;
    auto sketch = std::make_unique<MaxStabilitySketch>(size, sketch_params,
                                                       rng);
    Matrix sketched = sketch->SketchDataMatrix(*data_, begin, end);
    total_sketch_rows_ += sketched.rows();
    nodes_[index].sketch = std::move(sketch);
    nodes_[index].sketched_rows = std::move(sketched);
    const std::size_t mid = begin + size / 2;
    // Note: recursive calls may reallocate nodes_; do not hold references.
    const int left = BuildNode(begin, mid, rng);
    const int right = BuildNode(mid, end, rng);
    nodes_[index].left = left;
    nodes_[index].right = right;
  }
  return index;
}

std::size_t SketchMipsIndex::RootSketchRows() const {
  return nodes_[root_].sketched_rows.rows();
}

double SketchMipsIndex::EstimateNode(const Node& node,
                                     std::span<const double> q) const {
  if (node.sketch == nullptr) {
    // Leaf: the range is small, answer exactly.
    double best = 0.0;
    for (std::size_t i = node.begin; i < node.end; ++i) {
      best = std::max(best, std::abs(kernels::Dot(data_->Row(i), q)));
    }
    return best;
  }
  // Estimate pass: every sketch row against q in one dispatched
  // mat-vec sweep instead of a per-row dot loop.
  std::vector<double> sketched_products(node.sketched_rows.rows());
  kernels::MatVec(node.sketched_rows, q, sketched_products);
  return node.sketch->EstimateFromSketch(sketched_products);
}

double SketchMipsIndex::EstimateMaxAbsInnerProduct(
    std::span<const double> q) const {
  const Node& root = nodes_[root_];
  if (root.sketch == nullptr) {
    // Tiny dataset: the root is a leaf; answer exactly.
    double best = 0.0;
    for (std::size_t i = root.begin; i < root.end; ++i) {
      best = std::max(best, std::abs(kernels::Dot(data_->Row(i), q)));
    }
    return best;
  }
  return EstimateNode(root, q);
}

std::size_t SketchMipsIndex::RecoverArgmax(std::span<const double> q,
                                           Trace* trace,
                                           SketchProbeInfo* info) const {
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("sketch.queries");
  static Counter* const rows_multiplied =
      MetricsRegistry::Global().GetCounter("sketch.rows_multiplied");
  static Counter* const leaf_points =
      MetricsRegistry::Global().GetCounter("sketch.leaf_points");

  SketchProbeInfo local;
  auto node_rows = [this](int index) {
    const Node& node = nodes_[index];
    // A sketchless child is estimated by exact scan of its range.
    return node.sketch != nullptr ? node.sketched_rows.rows()
                                  : node.end - node.begin;
  };
  WallTimer probe_timer;
  int current = root_;
  while (nodes_[current].sketch != nullptr) {
    const Node& node = nodes_[current];
    ++local.levels;
    local.rows_multiplied += node_rows(node.left) + node_rows(node.right);
    const double left_estimate = EstimateNode(nodes_[node.left], q);
    const double right_estimate = EstimateNode(nodes_[node.right], q);
    current = left_estimate >= right_estimate ? node.left : node.right;
  }
  const double probe_seconds = probe_timer.Seconds();

  // Leaf: exact scan of the small range.
  WallTimer rerank_timer;
  const Node& leaf = nodes_[current];
  SearchMatch best{leaf.begin, -1.0};
  for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
    const SearchMatch candidate{i, std::abs(kernels::Dot(data_->Row(i), q))};
    if (RanksBefore(candidate, best)) best = candidate;
  }
  local.leaf_points = leaf.end - leaf.begin;

  if (trace != nullptr) {
    const std::size_t probe = trace->RecordSpan("probe", probe_seconds);
    trace->AddCount(probe, "levels", local.levels);
    trace->AddCount(probe, "rows_multiplied", local.rows_multiplied);
    const std::size_t rerank =
        trace->RecordSpan("rerank", rerank_timer.Seconds());
    trace->AddCount(rerank, "leaf_points", local.leaf_points);
  }
  queries->Increment();
  rows_multiplied->Add(local.rows_multiplied);
  leaf_points->Add(local.leaf_points);
  if (info != nullptr) *info = local;
  return best.index;
}

std::size_t SketchMipsIndex::UnsignedSearch(std::span<const double> q,
                                            double s, double c) const {
  IPS_CHECK_GT(s, 0.0);
  IPS_CHECK_GT(c, 0.0);
  IPS_CHECK_LT(c, 1.0);
  const std::size_t candidate = RecoverArgmax(q);
  const double value = std::abs(kernels::Dot(data_->Row(candidate), q));
  return value >= c * s ? candidate : num_points();
}

std::size_t CmipsQueryScalingSteps(double s, double c, double gamma) {
  IPS_CHECK_GT(s, 0.0);
  IPS_CHECK_GT(gamma, 0.0);
  IPS_CHECK_GT(c, 0.0);
  IPS_CHECK_LT(c, 1.0);
  if (gamma >= s) return 0;
  return static_cast<std::size_t>(
      std::ceil(std::log(s / gamma) / std::log(1.0 / c)));
}

}  // namespace ips
