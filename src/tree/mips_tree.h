// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Exact maximum-inner-product search by branch-and-bound on a ball tree
// (Ram-Gray [43], Koenigstein et al. [30]): every node stores the center
// and radius of the ball enclosing its points, and for a query q the
// best inner product inside the ball is at most
//   q^T center + ||q|| * radius
// (and at least q^T center - ||q|| * radius for the signed minimum, which
// gives |q^T p| <= |q^T center| + ||q|| * radius for unsigned search).
// Subtrees whose bound cannot beat the current best are pruned. This is
// the exact tree baseline the paper's related-work section contrasts
// with LSH approaches -- correct in any dimension, fast only when the
// curse of dimensionality spares it.

#ifndef IPS_TREE_MIPS_TREE_H_
#define IPS_TREE_MIPS_TREE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/search_match.h"
#include "obs/trace.h"
#include "rng/random.h"
#include "util/status.h"

namespace ips {

/// Per-query accounting of one branch-and-bound descent, for callers
/// that fold the numbers into a core::QueryStats.
struct TreeQueryInfo {
  /// Nodes whose bound was evaluated.
  std::size_t nodes_visited = 0;
  /// Visited nodes whose subtree the bound pruned away.
  std::size_t nodes_pruned = 0;
  /// Leaf points whose exact inner product was computed.
  std::size_t points_scored = 0;
};

/// Ball tree over the rows of a data matrix with MIP branch-and-bound.
class MipsBallTree {
 public:
  /// One tree node: the ball (center, radius) enclosing the points of
  /// point_order[begin, end), and children indexes into nodes().
  /// Public so the storage layer can persist the built tree verbatim
  /// (snapshots restore through Restore, which re-validates everything).
  struct Node {
    std::vector<double> center;
    double radius = 0.0;
    std::size_t begin = 0;  // range into point_order_
    std::size_t end = 0;
    int left = -1;
    int right = -1;
    bool IsLeaf() const { return left < 0; }
  };

  /// Builds the tree; `data` must outlive it. Leaves hold at most
  /// `leaf_size` points.
  MipsBallTree(const Matrix& data, std::size_t leaf_size, Rng* rng);

  /// Reassembles a tree from persisted build artifacts without
  /// rebuilding. Every structural invariant is re-validated (ranges,
  /// child links, center dimensions, point_order a permutation), so a
  /// corrupted-but-CRC-valid artifact yields a Status, not undefined
  /// search behavior. `data` must outlive the tree.
  [[nodiscard]] static StatusOr<MipsBallTree> Restore(
      const Matrix& data, std::vector<Node> nodes,
      std::vector<std::size_t> point_order, int root);

  std::size_t num_points() const { return data_->rows(); }

  /// Exact top-k in RanksBefore order, equal to TopKBruteForce's bit for
  /// bit; branch-and-bound against the k-th best of a kernels::TopKHeap.
  /// Signed queries score q^T p and prune on the signed bound; unsigned
  /// queries score |q^T p| and prune on the unsigned bound. Returns
  /// min(k, n) entries.
  /// When `trace` is non-null, records "descent" and "leaf_scan" child
  /// spans (leaf-scan time is accumulated across all leaves visited,
  /// descent is the remainder) under the trace's open span; when `info`
  /// is non-null, fills the per-query accounting. Every call bumps the
  /// "tree.*" registry counters.
  std::vector<SearchMatch> QueryTopK(
      std::span<const double> q, std::size_t k, bool is_signed,
      Trace* trace = nullptr, TreeQueryInfo* info = nullptr) const;

  std::size_t num_nodes() const { return nodes_.size(); }

  /// Build artifacts, exposed for snapshotting (immutable once built).
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<std::size_t>& point_order() const { return point_order_; }
  int root() const { return root_; }

 private:
  MipsBallTree() = default;  // Restore fills the members.

  int BuildNode(std::size_t begin, std::size_t end, std::size_t leaf_size,
                Rng* rng);

  /// Upper bound on q^T p over the node's ball.
  double SignedBound(const Node& node, std::span<const double> q,
                     double q_norm) const;

  /// Upper bound on |q^T p| over the node's ball.
  double UnsignedBound(const Node& node, std::span<const double> q,
                       double q_norm) const;

  const Matrix* data_;
  std::vector<Node> nodes_;
  std::vector<std::size_t> point_order_;
  int root_ = -1;
};

}  // namespace ips

#endif  // IPS_TREE_MIPS_TREE_H_
