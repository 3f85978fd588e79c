// Tests for top-k MIPS retrieval (core/top_k.h and the ball tree's
// k-best branch-and-bound).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "core/algebraic_join.h"
#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/norm_range_index.h"
#include "core/similarity_join.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "lsh/bucket_join.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "storage/blocked_join.h"
#include "storage/snapshot.h"
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
        EXPECT_NEAR(brute[t].value, via_tree[t].value, 1e-9)
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
  // regardless of tree structure, and the same score bits: leaf scans
  // and the brute-force mat-vec score every row with the same dot.
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
      EXPECT_EQ(via_tree[t].index, exact[t].index) << "rank " << t;
      EXPECT_EQ(via_tree[t].value, exact[t].value) << "rank " << t;
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
      EXPECT_EQ(top1[0].index, brute[0].index);
      EXPECT_EQ(top1[0].value, brute[0].value);
    }
  }
}

// The tie-order corpus: integer coordinates in [-3, 3], so every score
// is a small integer that both kernel tables compute exactly and every
// equal score is a real tie. Rows [0, kTieBase) are drawn, rows
// [kTieBase, 2 kTieBase) repeat them and rows [2 kTieBase, 3 kTieBase)
// negate them, so each drawn row ties with its copy (and, unsigned,
// with its negation) on every query.
constexpr std::size_t kTieBase = 16;
constexpr std::size_t kTieDim = 4;
constexpr std::size_t kTieQueries = 12;

Matrix TieCorpus(Rng* rng) {
  Matrix data(3 * kTieBase, kTieDim);
  for (std::size_t r = 0; r < kTieBase; ++r) {
    for (std::size_t j = 0; j < kTieDim; ++j) {
      const double v = static_cast<double>(rng->NextInt(-3, 3));
      data.At(r, j) = v;
      data.At(kTieBase + r, j) = v;
      data.At(2 * kTieBase + r, j) = -v;
    }
  }
  return data;
}

Matrix TieQueries(Rng* rng) {
  Matrix queries(kTieQueries, kTieDim);
  for (std::size_t r = 0; r < kTieQueries; ++r) {
    for (std::size_t j = 0; j < kTieDim; ++j) {
      queries.At(r, j) = static_cast<double>(rng->NextInt(-3, 3));
    }
    // The norm-range index answers nothing for a zero query.
    if (kernels::Norm(queries.Row(r)) == 0.0) queries.At(r, 0) = 1.0;
  }
  return queries;
}

void ExpectSameRanking(const std::vector<SearchMatch>& got,
                       const std::vector<SearchMatch>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t t = 0; t < want.size(); ++t) {
    EXPECT_EQ(got[t].index, want[t].index) << where << " rank " << t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t].value),
              std::bit_cast<std::uint64_t>(want[t].value))
        << where << " rank " << t;
  }
}

TEST(TopKTest, TieOrderMatchesBruteForceOnEveryExactPath) {
  Rng rng(20);
  const Matrix data = TieCorpus(&rng);
  const Matrix queries = TieQueries(&rng);
  auto brute = BruteForceIndex::Create(data);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  auto tree = TreeMipsIndex::Create(data, 4, &rng);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  // A cosine threshold above 1 makes every visited bucket a full scan.
  NormRangeParams norm_params;
  norm_params.bucket_size = 8;
  norm_params.lsh_cosine_threshold = 2.0;
  const NormRangeIndex norm_range(data, norm_params, &rng);

  for (const std::size_t k : {std::size_t{1}, std::size_t{5}}) {
    for (const bool is_signed : {true, false}) {
      QueryOptions options;
      options.k = k;
      options.is_signed = is_signed;
      const std::string shape = " k=" + std::to_string(k) +
                                (is_signed ? " signed" : " unsigned");
      auto brute_batch = (*brute)->BatchQuery(queries, options);
      ASSERT_TRUE(brute_batch.ok()) << brute_batch.status().ToString();
      auto tree_batch = (*tree)->BatchQuery(queries, options);
      ASSERT_TRUE(tree_batch.ok()) << tree_batch.status().ToString();
      for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
        const auto q = queries.Row(qi);
        const std::string where = shape + " query " + std::to_string(qi);
        const auto want = TopKBruteForce(data, q, k, is_signed);
        ExpectSameRanking((*brute)->Query(q, options).value(), want,
                          "brute Query" + where);
        ExpectSameRanking((*brute_batch)[qi].matches, want,
                          "brute BatchQuery" + where);
        ExpectSameRanking((*tree)->Query(q, options).value(), want,
                          "tree Query" + where);
        ExpectSameRanking((*tree_batch)[qi].matches, want,
                          "tree BatchQuery" + where);
        if (is_signed) {
          ExpectSameRanking(norm_range.Query(q, options).value(), want,
                            "norm-range Query" + where);
        }
      }
    }
  }
}

TEST(TopKTest, JoinTieOrderMatchesBruteForce) {
  Rng rng(21);
  const Matrix data = TieCorpus(&rng);
  const Matrix queries = TieQueries(&rng);
  auto brute = BruteForceIndex::Create(data);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  for (const bool is_signed : {true, false}) {
    // c = 1 makes the index join's cs threshold the exact join's s.
    const JoinSpec spec{.s = 1.0, .c = 1.0, .is_signed = is_signed};
    const JoinResult exact = ExactJoin(data, queries, spec);
    const JoinResult via_index = IndexJoin(**brute, queries, spec);
    const JoinResult matmul = MatmulJoin(data, queries, spec);
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const SearchMatch want =
          TopKBruteForce(data, queries.Row(qi), 1, is_signed).front();
      for (const auto* result : {&exact, &via_index, &matmul}) {
        const std::string where =
            (result == &exact ? "ExactJoin"
                              : result == &via_index ? "IndexJoin"
                                                     : "MatmulJoin") +
            std::string(is_signed ? " signed" : " unsigned") + " query " +
            std::to_string(qi);
        const auto& got = result->per_query[qi];
        ASSERT_EQ(got.has_value(), want.value >= spec.s) << where;
        if (!got.has_value()) continue;
        EXPECT_EQ(got->data, want.index) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got->value),
                  std::bit_cast<std::uint64_t>(want.value))
            << where;
      }
    }
  }
}

TEST(TopKTest, BucketJoinsReportLowestTiedIndex) {
  Rng rng(22);
  const Matrix data = TieCorpus(&rng);
  const Matrix queries = TieQueries(&rng);
  // One SimHash bit per table over 64 tables: a row with a positive
  // score lies within pi/2 of the query, so it collides in each table
  // with probability above 1/2 and the signed join verifies every row
  // that can reach cs. Its answer must then be the exact top-1,
  // lowest tied index included.
  const SimHashFamily family(kTieDim);
  const LshTableParams params{.k = 1, .l = 64};
  const double cs = 1.0;
  const std::uint64_t seed = 23;
  Rng join_rng(seed);
  const BucketJoinResult monolithic =
      LshBucketJoin(family, data, data, queries, queries, cs, cs,
                    /*is_signed=*/true, params, &join_rng);

  const std::string data_path =
      std::string(::testing::TempDir()) + "/tie_data.ips";
  const std::string queries_path =
      std::string(::testing::TempDir()) + "/tie_queries.ips";
  ASSERT_TRUE(storage::SaveMatrixSnapshot(data, data_path).ok());
  ASSERT_TRUE(storage::SaveMatrixSnapshot(queries, queries_path).ok());
  storage::BlockedJoinOptions options;
  options.params = params;
  options.s_threshold = cs;
  options.cs_threshold = cs;
  options.is_signed = true;
  options.seed = seed;
  // Half a drawn block per block: a row, its copy and its negation
  // always sit in three different data blocks.
  options.block_rows = kTieBase / 2;
  auto blocked = storage::BlockedBucketJoin(family, data_path, queries_path,
                                            options);
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
  const BucketJoinResult& blocked_result = *blocked;

  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const SearchMatch want =
        TopKBruteForce(data, queries.Row(qi), 1, /*is_signed=*/true).front();
    for (const auto* result : {&monolithic, &blocked_result}) {
      const std::string where =
          std::string(result == &monolithic ? "LshBucketJoin"
                                            : "BlockedBucketJoin") +
          " query " + std::to_string(qi);
      const auto& got = result->per_query[qi];
      ASSERT_EQ(got.has_value(), want.value >= cs) << where;
      if (!got.has_value()) continue;
      EXPECT_EQ(got->first, want.index) << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got->second),
                std::bit_cast<std::uint64_t>(want.value))
          << where;
    }
  }
}

}  // namespace
}  // namespace ips
