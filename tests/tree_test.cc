// Tests for src/tree: the exact ball-tree MIPS baseline must agree with
// brute force on every query while pruning work.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/kernels.h"
#include "rng/random.h"
#include "tree/mips_tree.h"
#include "util/check.h"

namespace ips {
namespace {

Matrix RandomMatrix(std::size_t n, std::size_t d, Rng* rng) {
  Matrix m(n, d);
  for (double& v : m.data()) v = rng->NextGaussian();
  return m;
}

std::pair<std::size_t, double> BruteMax(const Matrix& data,
                                        std::span<const double> q,
                                        bool absolute) {
  std::size_t best_index = 0;
  double best = -1e300;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    double v = kernels::Dot(data.Row(i), q);
    if (absolute) v = std::abs(v);
    if (v > best) {
      best = v;
      best_index = i;
    }
  }
  return {best_index, best};
}

// The tree's exact top-1 as (index, score).
std::pair<std::size_t, double> TreeTop1(const MipsBallTree& tree,
                                        std::span<const double> q,
                                        bool is_signed) {
  const auto top = tree.QueryTopK(q, 1, is_signed);
  IPS_CHECK_EQ(top.size(), 1u);
  return {top[0].index, top[0].value};
}

struct TreeCase {
  std::size_t n;
  std::size_t d;
  std::size_t leaf;
};

class BallTreeSweep : public ::testing::TestWithParam<TreeCase> {};

TEST_P(BallTreeSweep, SignedQueryMatchesBruteForce) {
  const auto [n, d, leaf] = GetParam();
  Rng rng(7);
  const Matrix data = RandomMatrix(n, d, &rng);
  const MipsBallTree tree(data, leaf, &rng);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> q(d);
    for (double& v : q) v = rng.NextGaussian();
    const auto [index, value] = TreeTop1(tree, q, /*is_signed=*/true);
    const auto [truth_index, truth_value] = BruteMax(data, q, false);
    EXPECT_NEAR(value, truth_value, 1e-9);
    EXPECT_EQ(index, truth_index);
  }
}

TEST_P(BallTreeSweep, UnsignedQueryMatchesBruteForce) {
  const auto [n, d, leaf] = GetParam();
  Rng rng(11);
  const Matrix data = RandomMatrix(n, d, &rng);
  const MipsBallTree tree(data, leaf, &rng);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> q(d);
    for (double& v : q) v = rng.NextGaussian();
    const double value = TreeTop1(tree, q, /*is_signed=*/false).second;
    const double truth_value = BruteMax(data, q, true).second;
    EXPECT_NEAR(value, truth_value, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BallTreeSweep,
                         ::testing::Values(TreeCase{1, 4, 4},
                                           TreeCase{10, 3, 2},
                                           TreeCase{100, 8, 8},
                                           TreeCase{500, 4, 16},
                                           TreeCase{300, 32, 8},
                                           TreeCase{512, 2, 1}));

TEST(BallTreeTest, PrunesInLowDimension) {
  // In 2-d with clustered data the bound should prune most leaves.
  Rng rng(13);
  const std::size_t kN = 2000;
  Matrix data(kN, 2);
  for (double& v : data.data()) v = rng.NextGaussian();
  const MipsBallTree tree(data, 8, &rng);
  std::size_t total_evaluated = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q = {rng.NextGaussian(), rng.NextGaussian()};
    TreeQueryInfo info;
    tree.QueryTopK(q, 1, /*is_signed=*/true, nullptr, &info);
    total_evaluated += info.points_scored;
  }
  // Far fewer than 20 * 2000 full evaluations.
  EXPECT_LT(total_evaluated, 20 * kN / 2);
}

TEST(BallTreeTest, HandlesDuplicatePoints) {
  Rng rng(17);
  Matrix data(64, 4);
  // All rows identical: the degenerate-split fallback must terminate.
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 4; ++j) data.At(i, j) = 1.0;
  }
  const MipsBallTree tree(data, 4, &rng);
  std::vector<double> q = {1.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(TreeTop1(tree, q, /*is_signed=*/true).second, 1.0, 1e-12);
}

TEST(BallTreeTest, NegativeInnerProductsHandled) {
  // Unsigned search must find a strongly *negative* inner product.
  Rng rng(19);
  Matrix data(50, 6);
  for (double& v : data.data()) v = 0.01 * rng.NextGaussian();
  for (std::size_t j = 0; j < 6; ++j) data.At(31, j) = -1.0;
  const MipsBallTree tree(data, 4, &rng);
  std::vector<double> q(6, 1.0);
  const auto unsigned_result = TreeTop1(tree, q, /*is_signed=*/false);
  EXPECT_EQ(unsigned_result.first, 31u);
  EXPECT_NEAR(unsigned_result.second, 6.0, 1e-9);
  // The signed maximum is some noise vector, not row 31.
  EXPECT_NE(TreeTop1(tree, q, /*is_signed=*/true).first, 31u);
}

}  // namespace
}  // namespace ips
