// Tests for the matrix-multiplication substrate (blocked + Strassen)
// and the algebraic join, plus the LEMP-style norm-range index.

#include <gtest/gtest.h>

#include <cmath>

#include "core/algebraic_join.h"
#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/norm_range_index.h"
#include "core/similarity_join.h"
#include "linalg/matmul.h"
#include "linalg/kernels.h"
#include "rng/random.h"

namespace ips {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng->NextGaussian();
  return m;
}

// Reference O(n^3) multiply with no blocking tricks.
Matrix NaiveMultiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t t = 0; t < a.cols(); ++t) {
        sum += a.At(i, t) * b.At(t, j);
      }
      c.At(i, j) = sum;
    }
  }
  return c;
}

void ExpectMatrixNear(const Matrix& a, const Matrix& b, double tolerance) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a.At(i, j), b.At(i, j), tolerance)
          << "at (" << i << "," << j << ")";
    }
  }
}

struct MulShape {
  std::size_t m, k, p;
};

class MultiplySweep : public ::testing::TestWithParam<MulShape> {};

TEST_P(MultiplySweep, BlockedMatchesNaive) {
  const auto [m, k, p] = GetParam();
  Rng rng(3);
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, p, &rng);
  ExpectMatrixNear(Multiply(a, b), NaiveMultiply(a, b), 1e-9);
}

TEST_P(MultiplySweep, StrassenMatchesNaive) {
  const auto [m, k, p] = GetParam();
  Rng rng(5);
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, p, &rng);
  // Small cutoff exercises several recursion levels.
  ExpectMatrixNear(MultiplyStrassen(a, b, 4), NaiveMultiply(a, b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MultiplySweep,
                         ::testing::Values(MulShape{1, 1, 1},
                                           MulShape{3, 5, 7},
                                           MulShape{16, 16, 16},
                                           MulShape{33, 47, 20},
                                           MulShape{64, 8, 64},
                                           MulShape{40, 70, 9}));

TEST(MatmulTest, IdentityIsNeutral) {
  Rng rng(7);
  const Matrix a = RandomMatrix(9, 9, &rng);
  Matrix identity(9, 9);
  for (std::size_t i = 0; i < 9; ++i) identity.At(i, i) = 1.0;
  ExpectMatrixNear(Multiply(a, identity), a, 1e-12);
  ExpectMatrixNear(MultiplyStrassen(identity, a, 2), a, 1e-12);
}

TEST(MatmulTest, TransposeRoundTrip) {
  Rng rng(11);
  const Matrix a = RandomMatrix(5, 8, &rng);
  const Matrix att = Transpose(Transpose(a));
  ExpectMatrixNear(att, a, 0.0);
  EXPECT_EQ(Transpose(a).rows(), 8u);
  EXPECT_EQ(Transpose(a).cols(), 5u);
}

TEST(MatmulTest, PairwiseInnerProductsMatchDots) {
  Rng rng(13);
  const Matrix data = RandomMatrix(20, 6, &rng);
  const Matrix queries = RandomMatrix(7, 6, &rng);
  for (const bool strassen : {false, true}) {
    const Matrix g = PairwiseInnerProducts(queries, data, strassen);
    ASSERT_EQ(g.rows(), 7u);
    ASSERT_EQ(g.cols(), 20u);
    for (std::size_t i = 0; i < 7; ++i) {
      for (std::size_t j = 0; j < 20; ++j) {
        EXPECT_NEAR(g.At(i, j), kernels::Dot(queries.Row(i), data.Row(j)), 1e-9);
      }
    }
  }
}

TEST(MatmulJoinTest, AgreesWithExactJoin) {
  Rng rng(17);
  const Matrix data = MakeUnitBallGaussian(80, 10, 0.3, &rng);
  const Matrix queries = MakeUnitBallGaussian(25, 10, 0.9, &rng);
  for (const bool is_signed : {true, false}) {
    JoinSpec spec;
    spec.s = 0.3;
    spec.c = 0.5;
    spec.is_signed = is_signed;
    const JoinResult exact = ExactJoin(data, queries, spec, nullptr);
    for (const bool strassen : {false, true}) {
      const JoinResult algebraic = MatmulJoin(data, queries, spec, strassen);
      ASSERT_EQ(algebraic.per_query.size(), exact.per_query.size());
      for (std::size_t qi = 0; qi < exact.per_query.size(); ++qi) {
        ASSERT_EQ(algebraic.per_query[qi].has_value(),
                  exact.per_query[qi].has_value());
        if (exact.per_query[qi].has_value()) {
          EXPECT_NEAR(algebraic.per_query[qi]->value,
                      exact.per_query[qi]->value, 1e-9);
        }
      }
    }
  }
}

// --- Norm-range (LEMP) index ---

TEST(NormRangeIndexTest, ExactOnSkewedData) {
  Rng rng(19);
  const std::size_t kDim = 16;
  const Matrix items = MakeLatentFactorVectors(600, kDim, 0.5, &rng);
  NormRangeParams params;
  params.bucket_size = 64;
  params.lsh_cosine_threshold = 2.0;  // never use LSH: always scan
  const NormRangeIndex index(items, params, &rng);
  const BruteForceIndex brute(items);
  JoinSpec spec;
  spec.s = 0.0;
  spec.c = 1.0 - 1e-9;
  spec.is_signed = true;
  const QueryOptions top1;  // k = 1, signed
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q(kDim);
    for (double& v : q) v = rng.NextGaussian();
    const auto got = index.QueryAbove(q, top1, spec.cs());
    const auto want = brute.Query(q, top1);
    ASSERT_TRUE(got.ok() && want.ok());
    const bool want_match = (*want)[0].value >= spec.cs();
    ASSERT_EQ(!got->empty(), want_match);
    if (want_match) {
      EXPECT_NEAR((*got)[0].value, (*want)[0].value, 1e-9);
    }
    // Without a floor the norm-range top-1 is the exact top-1 itself.
    const auto unfloored = index.Query(q, top1);
    ASSERT_TRUE(unfloored.ok());
    ASSERT_EQ(unfloored->size(), 1u);
    EXPECT_NEAR((*unfloored)[0].value, (*want)[0].value, 1e-9);
  }
}

TEST(NormRangeIndexTest, PrunesLowNormBuckets) {
  Rng rng(23);
  const std::size_t kDim = 12;
  // Strong skew: the top bucket dominates, later buckets prunable.
  const Matrix items = MakeLatentFactorVectors(1000, kDim, 1.0, &rng);
  NormRangeParams params;
  params.bucket_size = 50;
  const NormRangeIndex index(items, params, &rng);
  EXPECT_EQ(index.num_buckets(), 20u);
  JoinSpec spec;
  spec.s = 0.2;
  spec.c = 0.9;
  spec.is_signed = true;
  std::size_t buckets_pruned = 0;
  std::size_t dot_products = 0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(kDim);
    for (double& v : q) v = rng.NextGaussian();
    kernels::NormalizeInPlace(q);
    QueryStats stats;
    ASSERT_TRUE(index.QueryAbove(q, QueryOptions{}, spec.cs(), &stats).ok());
    buckets_pruned += stats.metrics.Get("normrange.buckets_pruned");
    dot_products += stats.dot_products;
  }
  // At skew 1.0, item norms fall below 0.2 after rank ~5, so nearly all
  // buckets get pruned on every query.
  EXPECT_GT(buckets_pruned, 0u);
  EXPECT_LT(dot_products, 10u * 1000u / 2);
}

TEST(NormRangeIndexTest, ContractOnPlantedData) {
  Rng rng(29);
  const std::size_t kDim = 20;
  const PlantedInstance planted =
      MakePlantedInstance(500, 20, kDim, 0.9, 1.0, &rng);
  NormRangeParams params;
  params.bucket_size = 64;
  params.lsh_cosine_threshold = 0.75;
  params.lsh_params.k = 6;
  params.lsh_params.l = 24;
  const NormRangeIndex index(planted.data, params, &rng);
  JoinSpec spec;
  spec.s = 0.8;
  spec.c = 0.7;
  spec.is_signed = true;
  const JoinResult truth =
      ExactJoin(planted.data, planted.queries, spec, nullptr);
  const JoinResult result = IndexJoin(index, planted.queries, spec);
  double recall = 0.0;
  VerifyJoinContract(result, truth, spec, &recall);
  EXPECT_GE(recall, 0.85);
}

TEST(NormRangeIndexTest, RejectsUnsignedQueries) {
  Rng rng(31);
  const Matrix items = MakeUnitBallGaussian(50, 8, 0.5, &rng);
  const NormRangeIndex index(items, NormRangeParams{}, &rng);
  QueryOptions options;
  options.is_signed = false;
  std::vector<double> q(8, 0.5);
  const auto result = index.Query(q, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(NormRangeIndexTest, UnsignedJoinReturnsAStatus) {
  // The validated join driver must surface the index's refusal as a
  // Status instead of aborting.
  Rng rng(37);
  const Matrix items = MakeUnitBallGaussian(50, 8, 0.5, &rng);
  const Matrix queries = MakeUnitBallGaussian(4, 8, 0.5, &rng);
  const NormRangeIndex index(items, NormRangeParams{}, &rng);
  JoinSpec spec;
  spec.s = 0.5;
  spec.is_signed = false;
  const auto result = IndexJoinChecked(index, queries, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ips
