// Tests for top-k MIPS retrieval (core/top_k.h and the ball tree's
// k-best branch-and-bound).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "tree/mips_tree.h"

namespace ips {
namespace {

struct TopKCase {
  std::size_t n;
  std::size_t dim;
  std::size_t k;
};

class TopKSweep : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKSweep, BallTreeMatchesBruteForce) {
  const auto [n, dim, k] = GetParam();
  Rng rng(5);
  const Matrix data = MakeUnitBallGaussian(n, dim, 0.2, &rng);
  const MipsBallTree tree(data, 8, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(dim);
    for (double& v : q) v = rng.NextGaussian();
    for (const bool is_signed : {true, false}) {
      const auto brute = TopKBruteForce(data, q, k, is_signed);
      const auto via_tree = tree.QueryTopK(q, k, is_signed);
      ASSERT_EQ(brute.size(), via_tree.size());
      for (std::size_t t = 0; t < brute.size(); ++t) {
        EXPECT_NEAR(brute[t].value, via_tree[t].second, 1e-9)
            << "rank " << t << " signed " << is_signed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopKSweep,
                         ::testing::Values(TopKCase{50, 8, 1},
                                           TopKCase{200, 8, 5},
                                           TopKCase{200, 16, 10},
                                           TopKCase{500, 4, 3},
                                           TopKCase{64, 8, 64},
                                           TopKCase{30, 8, 100}));

TEST(TopKTest, BruteForceOrderingAndSize) {
  Rng rng(7);
  const Matrix data = MakeUnitBallGaussian(40, 6, 0.3, &rng);
  std::vector<double> q(6);
  for (double& v : q) v = rng.NextGaussian();
  const auto top = TopKBruteForce(data, q, 10, true);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t t = 1; t < top.size(); ++t) {
    EXPECT_GE(top[t - 1].value, top[t].value);
  }
  // Distinct indices.
  std::set<std::size_t> indices;
  for (const auto& match : top) indices.insert(match.index);
  EXPECT_EQ(indices.size(), top.size());
}

TEST(TopKTest, KLargerThanNReturnsAll) {
  Rng rng(11);
  const Matrix data = MakeUnitBallGaussian(7, 4, 0.3, &rng);
  std::vector<double> q(4, 1.0);
  EXPECT_EQ(TopKBruteForce(data, q, 100, true).size(), 7u);
}

TEST(TopKTest, UnsignedRanksByMagnitude) {
  Matrix data(3, 2);
  data.At(0, 0) = 0.5;    // +0.5
  data.At(1, 0) = -0.9;   // -0.9, |.| = 0.9
  data.At(2, 0) = 0.7;    // +0.7
  std::vector<double> q = {1.0, 0.0};
  const auto top = TopKBruteForce(data, q, 2, /*is_signed=*/false);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 1u);  // |-0.9| wins
  EXPECT_EQ(top[1].index, 2u);
}

TEST(TopKTest, LshCandidatesRecoverPlantedTopOne) {
  Rng rng(13);
  const std::size_t kDim = 20;
  const PlantedInstance planted =
      MakePlantedInstance(500, 20, kDim, 0.9, 1.0, &rng);
  const DualBallTransform transform(kDim, 1.0);
  const SimHashFamily base(transform.output_dim());
  LshTableParams params;
  params.k = 8;
  params.l = 48;
  const LshMipsIndex index(planted.data, &transform, base, params, &rng);
  std::size_t hits = 0;
  for (std::size_t qi = 0; qi < planted.queries.rows(); ++qi) {
    const auto candidates = index.Candidates(planted.queries.Row(qi));
    const auto top = TopKFromCandidates(planted.data,
                                        planted.queries.Row(qi), candidates,
                                        5, /*is_signed=*/true);
    for (const auto& match : top) {
      if (match.index == planted.plants[qi]) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits, 18u);
}

TEST(TopKTest, TiesBreakTowardSmallerIndexDeterministically) {
  // Five identical rows plus one weaker row: every permutation of heap
  // evictions must still report indices 0..4 in ascending order.
  Matrix data(6, 3);
  for (std::size_t i = 0; i < 5; ++i) {
    data.At(i, 0) = 1.0;
  }
  data.At(5, 0) = 0.5;
  const std::vector<double> q = {1.0, 0.0, 0.0};
  const auto top = TopKBruteForce(data, q, 4, /*is_signed=*/true);
  ASSERT_EQ(top.size(), 4u);
  for (std::size_t t = 0; t < top.size(); ++t) {
    EXPECT_EQ(top[t].index, t);
    EXPECT_DOUBLE_EQ(top[t].value, 1.0);
  }
}

TEST(TopKTest, TreeTieOrderMatchesBruteForce) {
  // Duplicate rows force score ties; the tree's top-k must return the
  // same indices in the same order as the deterministic brute force,
  // regardless of tree structure.
  Rng rng(18);
  Matrix data = MakeUnitBallGaussian(100, 6, 0.2, &rng);
  for (std::size_t i = 0; i < 40; ++i) {
    const std::size_t src = i;
    const std::size_t dst = 50 + i;
    for (std::size_t j = 0; j < data.cols(); ++j) {
      data.At(dst, j) = data.At(src, j);
    }
  }
  const MipsBallTree tree(data, 8, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(6);
    for (double& v : q) v = rng.NextGaussian();
    const auto exact = TopKBruteForce(data, q, 7, /*is_signed=*/true);
    const auto via_tree = tree.QueryTopK(q, 7, /*is_signed=*/true);
    ASSERT_EQ(via_tree.size(), exact.size());
    for (std::size_t t = 0; t < exact.size(); ++t) {
      EXPECT_EQ(via_tree[t].first, exact[t].index) << "rank " << t;
      EXPECT_NEAR(via_tree[t].second, exact[t].value, 1e-12);
    }
  }
}

TEST(TopKTest, TreeTopOneMatchesBruteForceBitwise) {
  // Leaf scans and the brute-force mat-vec both score through the
  // dispatched dot kernel, so the exact top-1 agrees to the bit.
  Rng rng(17);
  const Matrix data = MakeUnitBallGaussian(300, 10, 0.2, &rng);
  const MipsBallTree tree(data, 16, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(10);
    for (double& v : q) v = rng.NextGaussian();
    for (const bool is_signed : {true, false}) {
      const auto top1 = tree.QueryTopK(q, 1, is_signed);
      const auto brute = TopKBruteForce(data, q, 1, is_signed);
      ASSERT_EQ(top1.size(), 1u);
      EXPECT_EQ(top1[0].first, brute[0].index);
      EXPECT_EQ(top1[0].second, brute[0].value);
    }
  }
}

}  // namespace
}  // namespace ips
