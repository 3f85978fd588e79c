#include "tree/mips_tree.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace ips {

MipsBallTree::MipsBallTree(const Matrix& data, std::size_t leaf_size,
                           Rng* rng)
    : data_(&data), point_order_(data.rows()) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GT(data.rows(), 0u);
  IPS_CHECK_GE(leaf_size, 1u);
  for (std::size_t i = 0; i < data.rows(); ++i) point_order_[i] = i;
  root_ = BuildNode(0, data.rows(), leaf_size, rng);
}

StatusOr<MipsBallTree> MipsBallTree::Restore(
    const Matrix& data, std::vector<Node> nodes,
    std::vector<std::size_t> point_order, int root) {
  const std::size_t n = data.rows();
  if (n == 0) {
    return Status::InvalidArgument("tree restore needs a non-empty dataset");
  }
  if (point_order.size() != n) {
    return Status::DataLoss("tree artifact orders " +
                            std::to_string(point_order.size()) +
                            " points but the dataset has " +
                            std::to_string(n));
  }
  std::vector<bool> seen(n, false);
  for (std::size_t p : point_order) {
    if (p >= n || seen[p]) {
      return Status::DataLoss(
          "tree artifact point order is not a permutation of the dataset");
    }
    seen[p] = true;
  }
  if (nodes.empty() || root < 0 ||
      static_cast<std::size_t>(root) >= nodes.size()) {
    return Status::DataLoss("tree artifact root " + std::to_string(root) +
                            " is outside its " +
                            std::to_string(nodes.size()) + " nodes");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& node = nodes[i];
    if (node.center.size() != data.cols()) {
      return Status::DataLoss("tree artifact node " + std::to_string(i) +
                              " has a " + std::to_string(node.center.size()) +
                              "-dimensional center in a " +
                              std::to_string(data.cols()) +
                              "-dimensional dataset");
    }
    if (node.begin > node.end || node.end > n ||
        !(node.radius >= 0.0) || !std::isfinite(node.radius)) {
      return Status::DataLoss("tree artifact node " + std::to_string(i) +
                              " has an invalid range or radius");
    }
    // Children were always allocated after their parent (BuildNode
    // pushes the parent first), so forward-only links also certify the
    // restored graph is acyclic.
    if (!node.IsLeaf()) {
      const bool left_ok =
          node.left > static_cast<int>(i) &&
          static_cast<std::size_t>(node.left) < nodes.size();
      const bool right_ok =
          node.right > static_cast<int>(i) &&
          static_cast<std::size_t>(node.right) < nodes.size();
      if (!left_ok || !right_ok) {
        return Status::DataLoss("tree artifact node " + std::to_string(i) +
                                " has invalid child links");
      }
    }
  }
  MipsBallTree tree;
  tree.data_ = &data;
  tree.nodes_ = std::move(nodes);
  tree.point_order_ = std::move(point_order);
  tree.root_ = root;
  return tree;
}

int MipsBallTree::BuildNode(std::size_t begin, std::size_t end,
                            std::size_t leaf_size, Rng* rng) {
  const int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    Node& node = nodes_[index];
    node.begin = begin;
    node.end = end;
    // Center = mean of the points; radius = max distance to the center.
    node.center.assign(data_->cols(), 0.0);
    for (std::size_t t = begin; t < end; ++t) {
      const std::span<const double> row = data_->Row(point_order_[t]);
      for (std::size_t c = 0; c < row.size(); ++c) node.center[c] += row[c];
    }
    const double inv = 1.0 / static_cast<double>(end - begin);
    for (double& c : node.center) c *= inv;
    for (std::size_t t = begin; t < end; ++t) {
      node.radius = std::max(
          node.radius, std::sqrt(kernels::SquaredDistance(
                           data_->Row(point_order_[t]), node.center)));
    }
  }
  const std::size_t count = end - begin;
  if (count <= leaf_size) return index;

  // Two-pivot split: a random point, the farthest point A from it, and
  // the farthest point B from A; partition by nearer pivot.
  const std::size_t seed_pos =
      begin + static_cast<std::size_t>(rng->NextBounded(count));
  auto farthest_from = [&](std::size_t from_index) {
    std::size_t best = begin;
    double best_dist = -1.0;
    for (std::size_t t = begin; t < end; ++t) {
      const double dist = kernels::SquaredDistance(data_->Row(point_order_[t]),
                                          data_->Row(from_index));
      if (dist > best_dist) {
        best_dist = dist;
        best = t;
      }
    }
    return best;
  };
  const std::size_t a_pos = farthest_from(point_order_[seed_pos]);
  const std::size_t b_pos = farthest_from(point_order_[a_pos]);
  const std::size_t a_index = point_order_[a_pos];
  const std::size_t b_index = point_order_[b_pos];

  auto closer_to_a = [&](std::size_t point) {
    return kernels::SquaredDistance(data_->Row(point), data_->Row(a_index)) <=
           kernels::SquaredDistance(data_->Row(point), data_->Row(b_index));
  };
  auto middle = std::partition(point_order_.begin() + begin,
                               point_order_.begin() + end, closer_to_a);
  std::size_t mid = static_cast<std::size_t>(
      std::distance(point_order_.begin(), middle));
  // Degenerate split (duplicates): fall back to a halving split.
  if (mid == begin || mid == end) mid = begin + count / 2;

  const int left = BuildNode(begin, mid, leaf_size, rng);
  const int right = BuildNode(mid, end, leaf_size, rng);
  nodes_[index].left = left;
  nodes_[index].right = right;
  return index;
}

double MipsBallTree::SignedBound(const Node& node, std::span<const double> q,
                                 double q_norm) const {
  return kernels::Dot(node.center, q) + q_norm * node.radius;
}

double MipsBallTree::UnsignedBound(const Node& node,
                                   std::span<const double> q,
                                   double q_norm) const {
  return std::abs(kernels::Dot(node.center, q)) + q_norm * node.radius;
}

std::vector<SearchMatch> MipsBallTree::QueryTopK(
    std::span<const double> q, std::size_t k, bool is_signed, Trace* trace,
    TreeQueryInfo* info) const {
  IPS_CHECK_EQ(q.size(), data_->cols());
  IPS_CHECK_GE(k, 1u);
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("tree.queries");
  static Counter* const nodes_visited =
      MetricsRegistry::Global().GetCounter("tree.nodes_visited");
  static Counter* const nodes_pruned =
      MetricsRegistry::Global().GetCounter("tree.nodes_pruned");
  static Counter* const points_scored =
      MetricsRegistry::Global().GetCounter("tree.points_scored");

  // Only a traced descent reads the clock (the descent/leaf_scan split).
  std::optional<WallTimer> total_timer;
  if (trace != nullptr) total_timer.emplace();
  double leaf_seconds = 0.0;
  TreeQueryInfo local;
  const double q_norm = kernels::Norm(q);
  std::size_t leaf_points_scored = 0;
  // Scratch reused across every leaf this descent visits.
  std::vector<double> leaf_scores;
  kernels::TopKHeap heap(k);
  // Upper bound on the node's best score under the requested sign.
  auto bound = [&](const Node& node) {
    return is_signed ? SignedBound(node, q, q_norm)
                     : UnsignedBound(node, q, q_norm);
  };
  // Iterative DFS with best-first child ordering.
  std::vector<int> stack = {root_};
  while (!stack.empty()) {
    const int node_index = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_index];
    ++local.nodes_visited;
    if (bound(node) < heap.Floor()) {
      ++local.nodes_pruned;
      continue;
    }
    if (node.IsLeaf()) {
      std::optional<WallTimer> leaf_timer;
      if (trace != nullptr) leaf_timer.emplace();
      // Score the whole leaf block through the dispatched gather
      // kernel, then feed the heap from the scratch scores.
      const std::size_t count = node.end - node.begin;
      leaf_scores.resize(count);
      kernels::GatherScores(
          *data_,
          std::span<const std::size_t>(point_order_).subspan(node.begin,
                                                             count),
          q, leaf_scores);
      for (std::size_t t = 0; t < count; ++t) {
        const std::size_t point = point_order_[node.begin + t];
        const double value =
            is_signed ? leaf_scores[t] : std::abs(leaf_scores[t]);
        ++leaf_points_scored;
        heap.Push(point, value);
      }
      if (leaf_timer.has_value()) leaf_seconds += leaf_timer->Seconds();
      continue;
    }
    // Push the less promising child first so the better one pops first.
    const double left_bound = bound(nodes_[node.left]);
    const double right_bound = bound(nodes_[node.right]);
    if (left_bound >= right_bound) {
      stack.push_back(node.right);
      stack.push_back(node.left);
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  std::vector<SearchMatch> result = heap.TakeSorted();

  local.points_scored = leaf_points_scored;
  if (trace != nullptr) {
    const double total = total_timer->Seconds();
    const std::size_t descent = trace->RecordSpan(
        "descent", std::max(0.0, total - leaf_seconds));
    trace->AddCount(descent, "nodes_visited", local.nodes_visited);
    trace->AddCount(descent, "nodes_pruned", local.nodes_pruned);
    const std::size_t leaf_scan = trace->RecordSpan("leaf_scan", leaf_seconds);
    trace->AddCount(leaf_scan, "points_scored", local.points_scored);
  }
  queries->Increment();
  nodes_visited->Add(local.nodes_visited);
  nodes_pruned->Add(local.nodes_pruned);
  points_scored->Add(local.points_scored);
  if (info != nullptr) *info = local;
  return result;
}

}  // namespace ips
