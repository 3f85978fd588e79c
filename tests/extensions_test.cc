// Tests for the extension components: the Valiant sign-rounding
// reduction, the c-MIPS-via-search scaling reduction, the LSH bucket
// join operator, and the Section 4.2 symmetric index with its exact
// membership step.

#include <gtest/gtest.h>

#include <cmath>

#include "core/dataset.h"
#include "core/similarity_join.h"
#include "core/symmetric_index.h"
#include "embed/sign_reduction.h"
#include "linalg/kernels.h"
#include "lsh/bucket_join.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "sketch/cmips_via_search.h"
#include "tree/mips_tree.h"

namespace ips {
namespace {

std::vector<double> RandomUnit(std::size_t dim, Rng* rng) {
  std::vector<double> v(dim);
  for (double& x : v) x = rng->NextGaussian();
  kernels::NormalizeInPlace(v);
  return v;
}

// --- Sign rounding reduction ---

TEST(SignReductionTest, OutputIsSignVector) {
  Rng rng(3);
  const SignRoundingReduction reduction(8, 64, &rng);
  const auto image = reduction.Apply(RandomUnit(8, &rng));
  ASSERT_EQ(image.size(), 64u);
  for (double v : image) EXPECT_TRUE(v == 1.0 || v == -1.0);
}

TEST(SignReductionTest, SymmetricMap) {
  Rng rng(5);
  const SignRoundingReduction reduction(6, 32, &rng);
  const auto x = RandomUnit(6, &rng);
  const auto a = reduction.Apply(x);
  const auto b = reduction.Apply(x);
  for (std::size_t t = 0; t < a.size(); ++t) EXPECT_EQ(a[t], b[t]);
}

class SignReductionCosineSweep : public ::testing::TestWithParam<double> {};

TEST_P(SignReductionCosineSweep, NormalizedProductConcentrates) {
  const double cosine = GetParam();
  Rng rng(7);
  const std::size_t kDim = 16;
  const std::size_t kOutput = 4096;
  const auto x = RandomUnit(kDim, &rng);
  // y at the requested cosine.
  auto noise = RandomUnit(kDim, &rng);
  const double along = kernels::Dot(noise, x);
  for (std::size_t i = 0; i < kDim; ++i) noise[i] -= along * x[i];
  kernels::NormalizeInPlace(noise);
  std::vector<double> y(kDim);
  const double sine = std::sqrt(std::max(0.0, 1.0 - cosine * cosine));
  for (std::size_t i = 0; i < kDim; ++i) y[i] = cosine * x[i] + sine * noise[i];

  const SignRoundingReduction reduction(kDim, kOutput, &rng);
  const double product =
      kernels::Dot(reduction.Apply(x), reduction.Apply(y)) / kOutput;
  const double expected =
      SignRoundingReduction::ExpectedNormalizedProduct(cosine);
  // Hoeffding: deviation O(1/sqrt(D)); allow 5 sigma.
  EXPECT_NEAR(product, expected, 5.0 / std::sqrt(double(kOutput)) + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Cosines, SignReductionCosineSweep,
                         ::testing::Values(-0.8, -0.3, 0.0, 0.4, 0.9, 1.0));

TEST(SignReductionTest, ExpectedProductEndpoints) {
  EXPECT_DOUBLE_EQ(SignRoundingReduction::ExpectedNormalizedProduct(1.0),
                   1.0);
  EXPECT_DOUBLE_EQ(SignRoundingReduction::ExpectedNormalizedProduct(-1.0),
                   -1.0);
  EXPECT_DOUBLE_EQ(SignRoundingReduction::ExpectedNormalizedProduct(0.0),
                   0.0);
}

TEST(SignReductionTest, PackedFormAgreesWithDense) {
  Rng rng(11);
  Matrix points(5, 10);
  for (double& v : points.data()) v = rng.NextGaussian();
  const SignRoundingReduction reduction(10, 100, &rng);
  const SignMatrix packed = reduction.ApplyToRows(points);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto dense = reduction.Apply(points.Row(i));
    for (std::size_t j = i; j < 5; ++j) {
      const auto dense_j = reduction.Apply(points.Row(j));
      EXPECT_EQ(static_cast<double>(packed.DotRows(i, packed, j)),
                kernels::Dot(dense, dense_j));
    }
  }
}

TEST(SignReductionTest, PreservesOrderingOfWellSeparatedProducts) {
  // Monotonicity: among unit vectors, larger inner product => larger
  // expected sign agreement; with D large the empirical agreement must
  // preserve a 0.3-separated ordering.
  Rng rng(13);
  const std::size_t kDim = 12;
  const auto q = RandomUnit(kDim, &rng);
  auto make_at = [&](double cosine) {
    auto noise = RandomUnit(kDim, &rng);
    const double along = kernels::Dot(noise, q);
    for (std::size_t i = 0; i < kDim; ++i) noise[i] -= along * q[i];
    kernels::NormalizeInPlace(noise);
    std::vector<double> v(kDim);
    const double sine = std::sqrt(1.0 - cosine * cosine);
    for (std::size_t i = 0; i < kDim; ++i) v[i] = cosine * q[i] + sine * noise[i];
    return v;
  };
  const SignRoundingReduction reduction(kDim, 8192, &rng);
  const auto fq = reduction.Apply(q);
  double previous = -2.0 * 8192;
  for (double cosine : {-0.6, -0.3, 0.0, 0.3, 0.6, 0.9}) {
    const double agreement = kernels::Dot(reduction.Apply(make_at(cosine)), fq);
    EXPECT_GT(agreement, previous) << "cosine " << cosine;
    previous = agreement;
  }
}

// --- c-MIPS via (cs, s) search ---

TEST(CmipsViaSearchTest, FindsApproximateMaximum) {
  Rng rng(17);
  const std::size_t kDim = 12;
  const Matrix data = MakeUnitBallGaussian(300, kDim, 0.2, &rng);
  const std::vector<double> query = RandomUnit(kDim, &rng);
  // Ground truth.
  double best = 0.0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    best = std::max(best, std::abs(kernels::Dot(data.Row(i), query)));
  }
  // Oracle: exact unsigned (cs, s) threshold search at s = 1.
  const double kS = 1.0;
  const double kC = 0.8;
  const UnsignedSearchOracle oracle =
      [&](std::span<const double> probe) -> std::optional<std::size_t> {
    std::size_t arg = 0;
    double top = 0.0;
    for (std::size_t i = 0; i < data.rows(); ++i) {
      const double v = std::abs(kernels::Dot(data.Row(i), probe));
      if (v > top) {
        top = v;
        arg = i;
      }
    }
    if (top >= kS) return arg;
    return std::nullopt;
  };
  const CmipsResult result =
      SolveCmipsViaSearch(oracle, query, kS, kC, /*gamma=*/1e-3);
  ASSERT_TRUE(result.index.has_value());
  const double recovered = std::abs(kernels::Dot(data.Row(*result.index), query));
  // Within factor c of the maximum (exact oracle => only the threshold
  // granularity c is lost).
  EXPECT_GE(recovered, kC * best - 1e-9);
  EXPECT_GE(result.probes, 1u);
  EXPECT_LE(result.probes, CmipsQueryScalingSteps(kS, kC, 1e-3) + 1);
}

TEST(CmipsViaSearchTest, ImmediateHitUsesOneProbe) {
  const UnsignedSearchOracle oracle =
      [](std::span<const double>) -> std::optional<std::size_t> {
    return 7;
  };
  const std::vector<double> query = {1.0, 0.0};
  const CmipsResult result = SolveCmipsViaSearch(oracle, query, 1.0, 0.5,
                                                 /*gamma=*/0.25);
  EXPECT_EQ(result.probes, 1u);
  EXPECT_EQ(*result.index, 7u);
}

TEST(CmipsViaSearchTest, GivesUpAfterBudget) {
  std::size_t calls = 0;
  const UnsignedSearchOracle oracle =
      [&calls](std::span<const double>) -> std::optional<std::size_t> {
    ++calls;
    return std::nullopt;
  };
  const std::vector<double> query = {0.5};
  const CmipsResult result = SolveCmipsViaSearch(oracle, query, 8.0, 0.5,
                                                 /*gamma=*/1.0);
  EXPECT_FALSE(result.index.has_value());
  EXPECT_EQ(calls, 4u);  // i = 0..3 (ceil(log2 8) = 3 scalings)
}

// --- Bucket join ---

TEST(BucketJoinTest, FindsPlantedPairsOnly) {
  Rng rng(19);
  const std::size_t kDim = 20;
  const PlantedInstance planted =
      MakePlantedInstance(400, 25, kDim, 0.9, 1.0, &rng);
  const DualBallTransform transform(kDim, 1.0);
  const SimHashFamily base(transform.output_dim());
  const Matrix hash_data = transform.TransformDataset(planted.data);
  const Matrix hash_queries = transform.TransformQueries(planted.queries);
  LshTableParams params;
  params.k = 8;
  params.l = 32;
  const BucketJoinResult result = LshBucketJoin(
      base, hash_data, planted.data, hash_queries, planted.queries,
      /*s=*/0.8, /*cs=*/0.6, /*is_signed=*/true, params, &rng);
  ASSERT_EQ(result.per_query.size(), 25u);
  std::size_t matched = 0;
  for (std::size_t qi = 0; qi < 25; ++qi) {
    if (result.per_query[qi].has_value()) {
      ++matched;
      EXPECT_GE(result.per_query[qi]->second, 0.6);
    }
  }
  EXPECT_GE(matched, 22u);  // high recall on near-duplicates
  // Verified pairs are deduplicated: never more than candidates.
  EXPECT_LE(result.metrics.Get("lsh.join.verified_pairs"),
            result.metrics.Get("lsh.join.candidate_pairs"));
  // And far fewer than the full cross product.
  EXPECT_LT(result.metrics.Get("lsh.join.verified_pairs"), 400u * 25u / 4);
}

TEST(BucketJoinTest, RespectsThreshold) {
  Rng rng(23);
  // Orthogonal-ish noise only: nothing should pass a high threshold.
  const Matrix data = MakeUnitBallGaussian(100, 32, 0.2, &rng);
  const Matrix queries = MakeUnitBallGaussian(10, 32, 0.9, &rng);
  const DualBallTransform transform(32, 1.0);
  const SimHashFamily base(transform.output_dim());
  const Matrix hash_data = transform.TransformDataset(data);
  const Matrix hash_queries = transform.TransformQueries(queries);
  LshTableParams params;
  params.k = 2;
  params.l = 8;
  const BucketJoinResult result =
      LshBucketJoin(base, hash_data, data, hash_queries, queries,
                    /*s=*/0.95, /*cs=*/0.9, /*is_signed=*/true, params,
                    &rng);
  for (const auto& match : result.per_query) {
    EXPECT_FALSE(match.has_value());
  }
}

// --- Section 4.2 symmetric index ---

TEST(SymmetricIndexTest, AnswersSelfQueriesExactly) {
  Rng rng(29);
  const Matrix data = MakeUnitBallGaussian(100, 10, 0.5, &rng);
  LshTableParams params;
  params.k = 6;
  params.l = 16;
  const SymmetricMipsIndex index(data, 0.15, params, &rng);
  QueryOptions options;
  options.k = data.rows();  // room for every candidate plus the self-match
  for (std::size_t i = 0; i < 10; ++i) {
    // Query a data vector verbatim: the membership step must fire and
    // splice in the vector itself with score ||q||^2, so the top-1
    // scores at least that.
    std::size_t exact = 0;
    ASSERT_TRUE(index.LookupExact(data.Row(i), &exact));
    EXPECT_EQ(exact, i);
    QueryStats stats;
    const auto matches = index.Query(data.Row(i), options, &stats);
    ASSERT_TRUE(matches.ok()) << matches.status().ToString();
    EXPECT_EQ(stats.metrics.Get("symmetric.membership_hit"), 1u);
    const double self_score = kernels::SquaredNorm(data.Row(i));
    ASSERT_FALSE(matches->empty());
    EXPECT_GE((*matches)[0].value, self_score - 1e-12);
    bool self_found = false;
    for (const SearchMatch& m : *matches) {
      if (m.index != i) continue;
      self_found = true;
      EXPECT_NEAR(m.value, self_score, 1e-12);
    }
    EXPECT_TRUE(self_found);
  }
}

TEST(SymmetricIndexTest, NonMemberQueriesUseLsh) {
  Rng rng(31);
  const std::size_t kDim = 16;
  const PlantedInstance planted =
      MakePlantedInstance(300, 15, kDim, 0.9, 1.0, &rng);
  LshTableParams params;
  params.k = 10;
  params.l = 40;
  const SymmetricMipsIndex index(planted.data, 0.1, params, &rng);
  JoinSpec spec;
  spec.s = 0.75;
  spec.c = 0.7;
  spec.is_signed = true;
  std::size_t exact = 0;
  std::size_t found = 0;
  for (std::size_t qi = 0; qi < planted.queries.rows(); ++qi) {
    EXPECT_FALSE(index.LookupExact(planted.queries.Row(qi), &exact));
    QueryStats stats;
    const auto top = index.Query(planted.queries.Row(qi), QueryOptions{},
                                 &stats);
    ASSERT_TRUE(top.ok());
    EXPECT_FALSE(stats.metrics.Has("symmetric.membership_hit"));
    if (!top->empty() && (*top)[0].value >= spec.cs()) ++found;
  }
  EXPECT_GE(found, 12u);
}

TEST(SymmetricIndexTest, SelfQueryBelowThresholdFallsThrough) {
  Rng rng(37);
  Matrix data(3, 4);
  // A tiny vector whose self-product is far below cs.
  data.At(0, 0) = 0.01;
  data.At(1, 1) = 0.9;
  data.At(2, 2) = 0.8;
  LshTableParams params;
  params.k = 2;
  params.l = 8;
  const SymmetricMipsIndex index(data, 0.2, params, &rng);
  JoinSpec spec;
  spec.s = 0.5;
  spec.c = 0.8;
  spec.is_signed = true;
  // Query = row 0: q^T q = 1e-4 < cs and every other row is orthogonal
  // to it, so the join must report nothing for it.
  Matrix queries(0, 4);
  queries.AppendRow(data.Row(0));
  const JoinResult result = IndexJoin(index, queries, spec);
  ASSERT_EQ(result.per_query.size(), 1u);
  EXPECT_FALSE(result.per_query[0].has_value());
}

}  // namespace
}  // namespace ips
