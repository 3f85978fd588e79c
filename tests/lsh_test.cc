// Tests for src/lsh: collision probabilities of the base families
// against their closed forms, inner-product preservation of the (A)LSH
// transforms, amplification, the (K, L) table engine and its CSR bucket
// layout, and the rho formulas behind Figure 2.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <numbers>
#include <vector>

#include "core/dataset.h"
#include "linalg/kernels.h"
#include "lsh/bucket_join.h"
#include "lsh/bucket_table.h"
#include "lsh/cross_polytope.h"
#include "lsh/bit_sample.h"
#include "lsh/e2lsh.h"
#include "lsh/lsh_family.h"
#include "lsh/minhash.h"
#include "lsh/rho.h"
#include "lsh/simhash.h"
#include "lsh/tables.h"
#include "lsh/transforms.h"
#include "rng/random.h"

namespace ips {
namespace {

std::vector<double> RandomUnit(std::size_t dim, Rng* rng) {
  std::vector<double> v(dim);
  for (double& x : v) x = rng->NextGaussian();
  kernels::NormalizeInPlace(v);
  return v;
}

// Builds a unit vector at a prescribed angle to `x`.
std::vector<double> UnitAtCosine(std::span<const double> x, double cosine,
                                 Rng* rng) {
  std::vector<double> noise = RandomUnit(x.size(), rng);
  const double along = kernels::Dot(noise, x);
  for (std::size_t i = 0; i < x.size(); ++i) noise[i] -= along * x[i];
  kernels::NormalizeInPlace(noise);
  std::vector<double> y(x.size());
  const double sine = std::sqrt(std::max(0.0, 1.0 - cosine * cosine));
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = cosine * x[i] + sine * noise[i];
  }
  return y;
}

class SimHashCosineSweep : public ::testing::TestWithParam<double> {};

TEST_P(SimHashCosineSweep, CollisionProbabilityMatchesTheory) {
  const double cosine = GetParam();
  Rng rng(11);
  const std::size_t kDim = 24;
  const SimHashFamily family(kDim);
  const auto x = RandomUnit(kDim, &rng);
  const auto y = UnitAtCosine(x, cosine, &rng);
  ASSERT_NEAR(kernels::Dot(x, y), cosine, 1e-9);
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, y, 20000, &rng);
  const double expected = SimHashFamily::CollisionProbability(cosine);
  EXPECT_NEAR(estimate.p_hat, expected, estimate.HalfWidth(4.0) + 0.005);
}

INSTANTIATE_TEST_SUITE_P(Cosines, SimHashCosineSweep,
                         ::testing::Values(-0.9, -0.5, 0.0, 0.3, 0.7, 0.95));

TEST(SimHashTest, IdenticalVectorsAlwaysCollide) {
  Rng rng(13);
  const SimHashFamily family(8);
  const auto x = RandomUnit(8, &rng);
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, x, 200, &rng);
  EXPECT_EQ(estimate.p_hat, 1.0);
}

TEST(SimHashTest, ClosedFormEndpoints) {
  EXPECT_DOUBLE_EQ(SimHashFamily::CollisionProbability(1.0), 1.0);
  EXPECT_DOUBLE_EQ(SimHashFamily::CollisionProbability(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(SimHashFamily::CollisionProbability(0.0), 0.5);
}

TEST(CrossPolytopeTest, CollisionDecreasesWithAngle) {
  Rng rng(17);
  const std::size_t kDim = 16;
  const CrossPolytopeFamily family(kDim);
  const auto x = RandomUnit(kDim, &rng);
  const auto close = UnitAtCosine(x, 0.95, &rng);
  const auto mid = UnitAtCosine(x, 0.5, &rng);
  const auto far = UnitAtCosine(x, 0.0, &rng);
  const double p_close =
      EstimateCollisionProbability(family, x, close, 4000, &rng).p_hat;
  const double p_mid =
      EstimateCollisionProbability(family, x, mid, 4000, &rng).p_hat;
  const double p_far =
      EstimateCollisionProbability(family, x, far, 4000, &rng).p_hat;
  EXPECT_GT(p_close, p_mid);
  EXPECT_GT(p_mid, p_far);
  EXPECT_GT(p_close, 0.5);
}

TEST(CrossPolytopeTest, MoreSelectiveThanSimHashFarApart) {
  // The cross-polytope hash has 2d buckets, so far-apart points collide
  // with probability ~1/(2d), far below SimHash's 1/2.
  Rng rng(19);
  const std::size_t kDim = 16;
  const CrossPolytopeFamily family(kDim);
  const auto x = RandomUnit(kDim, &rng);
  const auto far = UnitAtCosine(x, 0.0, &rng);
  const double p_far =
      EstimateCollisionProbability(family, x, far, 4000, &rng).p_hat;
  EXPECT_LT(p_far, 0.25);
}

class E2LshDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(E2LshDistanceSweep, CollisionProbabilityMatchesClosedForm) {
  const double distance = GetParam();
  Rng rng(23);
  const std::size_t kDim = 12;
  const double kWidth = 4.0;
  const E2LshFamily family(kDim, kWidth);
  const auto x = RandomUnit(kDim, &rng);
  auto y = x;
  // Move y exactly `distance` away along a random direction.
  const auto direction = RandomUnit(kDim, &rng);
  for (std::size_t i = 0; i < kDim; ++i) y[i] += distance * direction[i];
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, y, 20000, &rng);
  const double expected = E2LshFamily::CollisionProbability(distance, kWidth);
  EXPECT_NEAR(estimate.p_hat, expected, estimate.HalfWidth(4.0) + 0.006);
}

INSTANTIATE_TEST_SUITE_P(Distances, E2LshDistanceSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0));

TEST(E2LshTest, ClosedFormBasics) {
  EXPECT_DOUBLE_EQ(E2LshFamily::CollisionProbability(0.0, 4.0), 1.0);
  // Monotone decreasing in distance.
  double previous = 1.0;
  for (double r = 0.5; r < 20.0; r *= 2.0) {
    const double p = E2LshFamily::CollisionProbability(r, 4.0);
    EXPECT_LT(p, previous);
    previous = p;
  }
}

TEST(MinHashTest, CollisionProbabilityIsJaccard) {
  Rng rng(29);
  const std::size_t kDim = 40;
  const MinHashFamily family(kDim);
  // |x| = 20, |y| = 20, overlap 10 -> Jaccard = 10/30.
  std::vector<double> x(kDim, 0.0);
  std::vector<double> y(kDim, 0.0);
  for (std::size_t i = 0; i < 20; ++i) x[i] = 1.0;
  for (std::size_t i = 10; i < 30; ++i) y[i] = 1.0;
  EXPECT_NEAR(MinHashFamily::Jaccard(x, y), 1.0 / 3.0, 1e-12);
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, y, 20000, &rng);
  EXPECT_NEAR(estimate.p_hat, 1.0 / 3.0, estimate.HalfWidth(4.0) + 0.005);
}

TEST(MinHashTest, DisjointSetsNeverCollide) {
  Rng rng(31);
  const MinHashFamily family(10);
  std::vector<double> x = {1, 1, 1, 0, 0, 0, 0, 0, 0, 0};
  std::vector<double> y = {0, 0, 0, 1, 1, 1, 0, 0, 0, 0};
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, y, 500, &rng);
  EXPECT_EQ(estimate.p_hat, 0.0);
}

TEST(ConcatenationTest, AmplifiesCollisionProbability) {
  Rng rng(37);
  const std::size_t kDim = 16;
  const SimHashFamily family(kDim);
  const auto x = RandomUnit(kDim, &rng);
  const auto y = UnitAtCosine(x, 0.8, &rng);
  const double base_p = SimHashFamily::CollisionProbability(0.8);
  constexpr std::size_t kK = 4;
  std::size_t collisions = 0;
  constexpr std::size_t kTrials = 20000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    const ConcatenatedLshFunction h(family, kK, &rng);
    if (h.HashData(x) == h.HashQuery(y)) ++collisions;
  }
  const double expected = std::pow(base_p, kK);
  EXPECT_NEAR(collisions / static_cast<double>(kTrials), expected,
              4.0 * std::sqrt(expected / kTrials) + 0.01);
}

// --- Transforms ---

TEST(DualBallTransformTest, MapsToUnitSphereAndScalesInnerProduct) {
  Rng rng(41);
  const std::size_t kDim = 10;
  const double kU = 5.0;
  const DualBallTransform transform(kDim, kU);
  for (int trial = 0; trial < 30; ++trial) {
    auto p = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(p, rng.NextDouble());  // ||p|| <= 1
    auto q = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(q, kU * rng.NextDouble());  // ||q|| <= U
    const auto tp = transform.TransformData(p);
    const auto tq = transform.TransformQuery(q);
    ASSERT_EQ(tp.size(), kDim + 2);
    EXPECT_NEAR(kernels::Norm(tp), 1.0, 1e-9);
    EXPECT_NEAR(kernels::Norm(tq), 1.0, 1e-9);
    EXPECT_NEAR(kernels::Dot(tp, tq), kernels::Dot(p, q) / kU, 1e-9);
  }
}

TEST(SimpleMipsTransformTest, DataOnSphereQueryNormalized) {
  Rng rng(43);
  const std::size_t kDim = 8;
  const double kM = 3.0;
  const SimpleMipsTransform transform(kDim, kM);
  auto p = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(p, 2.0);  // ||p|| = 2 <= M
  auto q = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(q, 7.0);
  const auto tp = transform.TransformData(p);
  const auto tq = transform.TransformQuery(q);
  EXPECT_NEAR(kernels::Norm(tp), 1.0, 1e-9);
  EXPECT_NEAR(kernels::Norm(tq), 1.0, 1e-9);
  // <tp, tq> = <p, q> / (M ||q||).
  EXPECT_NEAR(kernels::Dot(tp, tq), kernels::Dot(p, q) / (kM * 7.0), 1e-9);
}

TEST(XboxTransformTest, EqualizesDataNorms) {
  Rng rng(47);
  const std::size_t kDim = 8;
  const double kM = 4.0;
  const XboxTransform transform(kDim, kM);
  for (int trial = 0; trial < 10; ++trial) {
    auto p = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(p, kM * rng.NextDouble());
    const auto tp = transform.TransformData(p);
    EXPECT_NEAR(kernels::Norm(tp), kM, 1e-9);
    auto q = RandomUnit(kDim, &rng);
    const auto tq = transform.TransformQuery(q);
    EXPECT_NEAR(kernels::Dot(tp, tq), kernels::Dot(p, q), 1e-9);  // inner product unchanged
  }
}

TEST(L2AlshTransformTest, DistanceEncodesInnerProduct) {
  Rng rng(53);
  const std::size_t kDim = 8;
  const std::size_t kM = 3;
  const double kUScale = 0.83;
  const double kMaxNorm = 2.0;
  const L2AlshTransform transform(kDim, kM, kUScale, kMaxNorm);
  auto p = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(p, 1.7);
  auto q = RandomUnit(kDim, &rng);
  const auto tp = transform.TransformData(p);
  const auto tq = transform.TransformQuery(q);
  ASSERT_EQ(tp.size(), kDim + kM);
  ASSERT_EQ(tq.size(), kDim + kM);
  // ||tp - tq||^2 = 1 + m/4 - 2 (U/M) <p, q> + ||x'||^(2^(m+1)).
  const double scaled_norm = kUScale * 1.7 / kMaxNorm;
  const double tail = std::pow(scaled_norm, std::pow(2.0, kM + 1));
  const double expected = 1.0 + kM / 4.0 -
                          2.0 * (kUScale / kMaxNorm) * kernels::Dot(p, q) + tail;
  EXPECT_NEAR(kernels::SquaredDistance(tp, tq), expected, 1e-9);
}

TEST(MinHashAlshTransformTest, PadsDataToConstantWeight) {
  const std::size_t kDim = 12;
  const std::size_t kMaxWeight = 6;
  const MinHashAlshTransform transform(kDim, kMaxWeight);
  std::vector<double> x(kDim, 0.0);
  x[0] = x[3] = x[5] = 1.0;  // weight 3
  std::vector<double> q(kDim, 0.0);
  q[3] = q[4] = 1.0;
  const auto tx = transform.TransformData(x);
  const auto tq = transform.TransformQuery(q);
  ASSERT_EQ(tx.size(), kDim + kMaxWeight);
  double weight = 0.0;
  for (double v : tx) weight += v;
  EXPECT_EQ(weight, static_cast<double>(kMaxWeight));
  // Intersection is preserved (query is zero on the padding).
  EXPECT_DOUBLE_EQ(kernels::Dot(tx, tq), 1.0);
  EXPECT_NEAR(MinHashFamily::Jaccard(tx, tq),
              1.0 / (kMaxWeight + 2.0 - 1.0), 1e-12);
}

TEST(MinHashAlshTransformTest, RejectsOverweightData) {
  const MinHashAlshTransform transform(4, 2);
  const std::vector<double> x = {1.0, 1.0, 1.0, 0.0};
  EXPECT_DEATH(transform.TransformData(x), "IPS_CHECK_LE");
}

TEST(SymmetricIncoherentTransformTest, PreservesDistinctInnerProducts) {
  Rng rng(59);
  const std::size_t kDim = 6;
  const double kEpsilon = 0.15;
  const SymmetricIncoherentTransform transform(kDim, kEpsilon, 16);
  EXPECT_TRUE(transform.IsSymmetric());
  for (int trial = 0; trial < 25; ++trial) {
    auto x = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(x, rng.NextDouble());
    auto y = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(y, rng.NextDouble());
    const auto tx = transform.TransformData(x);
    const auto ty = transform.TransformData(y);
    EXPECT_NEAR(kernels::Norm(tx), 1.0, 1e-9);
    EXPECT_NEAR(kernels::Norm(ty), 1.0, 1e-9);
    // |<tx, ty> - <x, y>| <= epsilon for x != y.
    EXPECT_NEAR(kernels::Dot(tx, ty), kernels::Dot(x, y), kEpsilon + 1e-9);
  }
}

TEST(SymmetricIncoherentTransformTest, IdenticalVectorsMapIdentically) {
  Rng rng(61);
  const SymmetricIncoherentTransform transform(5, 0.2, 16);
  auto x = RandomUnit(5, &rng);
  kernels::ScaleInPlace(x, 0.4);
  const auto t1 = transform.TransformData(x);
  const auto t2 = transform.TransformQuery(x);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i], t2[i]);
  // The collision-at-1 case the relaxed definition disregards.
  EXPECT_NEAR(kernels::Dot(t1, t2), 1.0, 1e-9);
}

TEST(TransformedFamilyTest, ComposesTransformAndBase) {
  Rng rng(67);
  const std::size_t kDim = 6;
  const DualBallTransform transform(kDim, 2.0);
  const SimHashFamily base(transform.output_dim());
  const TransformedLshFamily family(&transform, &base);
  EXPECT_EQ(family.dim(), kDim);
  EXPECT_FALSE(family.IsSymmetric());
  auto p = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(p, 0.9);
  // Collision probability of (p, q) should match SimHash on the lifted
  // vectors.
  auto q = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(q, 1.5);
  const auto tp = transform.TransformData(p);
  const auto tq = transform.TransformQuery(q);
  const double expected =
      SimHashFamily::CollisionProbability(kernels::Dot(tp, tq));
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, p, q, 20000, &rng);
  EXPECT_NEAR(estimate.p_hat, expected, estimate.HalfWidth(4.0) + 0.005);
}

// --- Tables ---

TEST(LshTablesTest, FindsNearNeighborsMissesFarOnes) {
  Rng rng(71);
  const std::size_t kDim = 16;
  const std::size_t kN = 200;
  Matrix data(kN, kDim);
  for (std::size_t i = 0; i < kN; ++i) {
    const auto v = RandomUnit(kDim, &rng);
    for (std::size_t j = 0; j < kDim; ++j) data.At(i, j) = v[j];
  }
  // Plant a near-duplicate of data row 0.
  const auto near = UnitAtCosine(data.Row(0), 0.98, &rng);

  const SimHashFamily family(kDim);
  LshTableParams params;
  params.k = 6;
  params.l = 16;
  const LshTables tables(family, data, params, &rng);
  const std::vector<std::size_t> candidates = tables.Query(near);
  // Row 0 should be among the candidates with overwhelming probability:
  // per-table collision prob is p^6 with p ~ 0.94.
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0u),
            candidates.end());
  // Candidates should be a small fraction of the data set.
  EXPECT_LT(candidates.size(), kN / 2);
}

TEST(LshTablesTest, CandidatesAreSortedAndUnique) {
  Rng rng(73);
  Matrix data(50, 8);
  for (double& v : data.data()) v = rng.NextGaussian();
  const SimHashFamily family(8);
  LshTableParams params;
  params.k = 2;
  params.l = 8;
  const LshTables tables(family, data, params, &rng);
  const auto candidates = tables.Query(data.Row(7));
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LT(candidates[i - 1], candidates[i]);
  }
  // The query equals a data point, so it must find itself (symmetric
  // family, identical hash inputs).
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 7u),
            candidates.end());
}

TEST(BucketTableTest, BuildGroupsDuplicateKeysIntoAscendingRows) {
  // Keys arrive unsorted, with repeats far apart and a key of 0.
  const std::vector<std::uint64_t> keys = {9, 3, 9, 0, 3, 9, ~0ULL, 3};
  const BucketTable table = BucketTable::Build(keys);
  EXPECT_EQ(std::vector<std::uint64_t>(table.keys().begin(),
                                       table.keys().end()),
            (std::vector<std::uint64_t>{0, 3, 9, ~0ULL}));
  EXPECT_EQ(std::vector<std::uint32_t>(table.offsets().begin(),
                                       table.offsets().end()),
            (std::vector<std::uint32_t>{0, 1, 4, 7, 8}));
  auto rows = [&](std::uint64_t key) {
    const auto found = table.Find(key);
    return std::vector<std::uint32_t>(found.begin(), found.end());
  };
  EXPECT_EQ(rows(0), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(rows(3), (std::vector<std::uint32_t>{1, 4, 7}));
  EXPECT_EQ(rows(9), (std::vector<std::uint32_t>{0, 2, 5}));
  EXPECT_EQ(rows(~0ULL), (std::vector<std::uint32_t>{6}));
  // Misses below, between and above the stored keys are empty.
  for (std::uint64_t miss : {1ULL, 4ULL, 10ULL, ~0ULL - 1}) {
    EXPECT_TRUE(table.Find(miss).empty()) << miss;
  }
  EXPECT_TRUE(BucketTable().Find(0).empty());
  EXPECT_TRUE(BucketTable::Build({}).Find(0).empty());
}

TEST(BucketTableTest, BuildMatchesAHashMapOnManyKeys) {
  // Few distinct keys over many rows, as K = 8 SimHash produces them.
  Rng rng(91);
  std::vector<std::uint64_t> keys(5000);
  for (auto& key : keys) key = rng.NextBounded(97) * 0x100000001ULL;
  const BucketTable table = BucketTable::Build(keys);
  std::map<std::uint64_t, std::vector<std::uint32_t>> expected;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    expected[keys[i]].push_back(static_cast<std::uint32_t>(i));
  }
  ASSERT_EQ(table.keys().size(), expected.size());
  for (const auto& [key, rows] : expected) {
    const auto found = table.Find(key);
    EXPECT_EQ(std::vector<std::uint32_t>(found.begin(), found.end()), rows);
  }
}

TEST(BucketTableTest, FromArraysRejectsEveryBrokenInvariant) {
  // Two buckets over four rows: key 5 -> {0, 2}, key 8 -> {1, 3}.
  struct Case {
    const char* what;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> rows;
    std::size_t num_rows;
  };
  const Case good = {"valid", {5, 8}, {0, 2, 4}, {0, 2, 1, 3}, 4};
  auto accepted = BucketTable::FromArrays(good.keys, good.offsets, good.rows,
                                          good.num_rows);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->Find(8)[1], 3u);
  const Case broken[] = {
      {"keys swapped", {8, 5}, {0, 2, 4}, {0, 2, 1, 3}, 4},
      {"keys repeated", {5, 5}, {0, 2, 4}, {0, 2, 1, 3}, 4},
      {"first offset not 0", {5, 8}, {1, 2, 4}, {0, 2, 1, 3}, 4},
      {"empty bucket", {5, 8}, {0, 4, 4}, {0, 1, 2, 3}, 4},
      {"offsets decrease", {5, 8}, {0, 3, 2}, {0, 2, 1, 3}, 4},
      {"offsets end short of n", {5, 8}, {0, 2, 3}, {0, 2, 1, 3}, 4},
      {"rows longer than n", {5, 8}, {0, 2, 4}, {0, 2, 1, 3}, 3},
      {"one offset too few", {5, 8}, {0, 4}, {0, 2, 1, 3}, 4},
      {"row >= n", {5, 8}, {0, 2, 4}, {0, 2, 1, 4}, 4},
      {"rows descend in a bucket", {5, 8}, {0, 2, 4}, {2, 0, 1, 3}, 4},
  };
  for (const Case& c : broken) {
    const auto table =
        BucketTable::FromArrays(c.keys, c.offsets, c.rows, c.num_rows);
    ASSERT_FALSE(table.ok()) << c.what;
    EXPECT_EQ(table.status().code(), StatusCode::kDataLoss) << c.what;
  }
}

TEST(LshTableParamsTest, FromGapIsReasonable) {
  const LshTableParams params = LshTableParams::FromGap(10000, 0.9, 0.5);
  // k = ceil(ln 1e4 / ln 2) = 14; rho = ln .9 / ln .5 ~ 0.152.
  EXPECT_EQ(params.k, 14u);
  EXPECT_GE(params.l, static_cast<std::size_t>(
                          std::pow(10000.0, 0.152)));
  EXPECT_LT(params.l, 40u);
}

// --- Rho formulas (Figure 2) ---

TEST(RhoTest, DataDepClosedForm) {
  // rho = (1 - s) / (1 + (1 - 2c) s).
  EXPECT_NEAR(RhoDataDep(0.5, 0.5), 0.5 / 1.0, 1e-12);
  EXPECT_NEAR(RhoDataDep(0.8, 0.9), 0.2 / (1.0 - 0.8 * 0.8), 1e-12);
  EXPECT_DOUBLE_EQ(RhoDataDep(1.0, 0.5), 0.0);  // exact search is free
}

TEST(RhoTest, DataDepBeatsSimpleLshEverywhere) {
  // The paper: "our bound is always stronger than the one from [39]".
  for (double s = 0.05; s < 1.0; s += 0.05) {
    for (double c = 0.1; c < 1.0; c += 0.1) {
      EXPECT_LE(RhoDataDep(s, c), RhoSimpleLsh(s, c) + 1e-9)
          << "s=" << s << " c=" << c;
    }
  }
}

TEST(RhoTest, AllRhosInUnitInterval) {
  for (double s = 0.05; s < 1.0; s += 0.1) {
    for (double c = 0.1; c < 1.0; c += 0.1) {
      for (double rho : {RhoDataDep(s, c), RhoSimpleLsh(s, c),
                         RhoMhAlsh(s, c)}) {
        EXPECT_GT(rho, 0.0);
        EXPECT_LT(rho, 1.0 + 1e-12);
      }
    }
  }
}

TEST(RhoTest, SmallerCMakesSearchEasier) {
  // A weaker approximation requirement (smaller c) lowers every rho.
  for (double s : {0.2, 0.5, 0.8}) {
    EXPECT_LT(RhoDataDep(s, 0.3), RhoDataDep(s, 0.7));
    EXPECT_LT(RhoSimpleLsh(s, 0.3), RhoSimpleLsh(s, 0.7));
    EXPECT_LT(RhoMhAlsh(s, 0.3), RhoMhAlsh(s, 0.7));
  }
}

TEST(RhoTest, SphereAnnExponent) {
  EXPECT_DOUBLE_EQ(RhoSphereAnn(std::numbers::sqrt2), 1.0 / 3.0);
  EXPECT_NEAR(RhoSphereAnn(2.0), 1.0 / 7.0, 1e-12);
}

TEST(RhoTest, FromProbabilities) {
  EXPECT_DOUBLE_EQ(RhoFromProbabilities(0.25, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(RhoFromProbabilities(0.5, 0.25), 0.5);
}

TEST(RhoTest, L2AlshNumericIsValidAndDominatedBySimple) {
  // Neyshabur-Srebro introduced SIMPLE-LSH as dominating L2-ALSH; the
  // numerically optimized L2-ALSH exponent must be a valid rho in (0,1]
  // and never beat SIMP by more than numerical noise on this grid.
  for (double s : {0.3, 0.5, 0.7, 0.9}) {
    for (double c : {0.5, 0.7, 0.9}) {
      const double rho_l2 = RhoL2AlshNumeric(s, c);
      EXPECT_GT(rho_l2, 0.0) << "s=" << s << " c=" << c;
      EXPECT_LE(rho_l2, 1.0) << "s=" << s << " c=" << c;
      EXPECT_GE(rho_l2, RhoSimpleLsh(s, c) - 0.02)
          << "s=" << s << " c=" << c;
    }
  }
}

TEST(BitSampleTest, CollisionProbabilityIsNormalizedInnerProduct) {
  Rng rng(83);
  const std::size_t kDim = 50;
  const BitSampleFamily family(kDim);
  // |p AND q| = 15 out of 50 coordinates.
  std::vector<double> p(kDim, 0.0);
  std::vector<double> q(kDim, 0.0);
  for (std::size_t i = 0; i < 25; ++i) p[i] = 1.0;
  for (std::size_t i = 10; i < 40; ++i) q[i] = 1.0;
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, p, q, 20000, &rng);
  EXPECT_NEAR(estimate.p_hat, 15.0 / 50.0,
              estimate.HalfWidth(4.0) + 0.005);
  EXPECT_DOUBLE_EQ(BitSampleFamily::CollisionProbability(15, 50), 0.3);
}

TEST(BitSampleTest, DisjointVectorsNeverCollide) {
  Rng rng(89);
  const BitSampleFamily family(10);
  std::vector<double> p = {1, 1, 0, 0, 0, 0, 0, 0, 0, 0};
  std::vector<double> q = {0, 0, 1, 1, 0, 0, 0, 0, 0, 0};
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, p, q, 1000, &rng);
  EXPECT_EQ(estimate.p_hat, 0.0);
}

TEST(BitSampleTest, RhoMatchesTableOneExponent) {
  // rho = log(s/d)/log(cs/d): the {0,1} permissible range of Table 1.
  EXPECT_NEAR(BitSampleFamily::Rho(10.0, 5.0, 100),
              std::log(0.1) / std::log(0.05), 1e-12);
  // As cs -> s the exponent goes to 1 (quadratic); for cs << s it drops.
  EXPECT_GT(BitSampleFamily::Rho(10.0, 9.0, 100),
            BitSampleFamily::Rho(10.0, 1.0, 100));
}

TEST(BucketJoinTest, DeduplicatesPairsAcrossTablesBeforeVerification) {
  // Short hashes (k=2) across many tables (l=8) make the same (data,
  // query) pair collide repeatedly; the join must verify it only once.
  Rng rng(97);
  const Matrix data = MakeUnitBallGaussian(64, 6, 0.9, &rng);
  const Matrix queries = MakeUnitBallGaussian(16, 6, 0.9, &rng);
  const SimHashFamily family(6);
  LshTableParams params;
  params.k = 2;
  params.l = 8;
  const BucketJoinResult result =
      LshBucketJoin(family, data, data, queries, queries, /*s=*/0.9,
                    /*cs=*/0.0, /*is_signed=*/true, params, &rng);

  // With 8 near-identical tables, cross-table repeats are guaranteed.
  EXPECT_GT(result.metrics.Get("lsh.join.duplicate_pairs"), 0u);
  // The accounting identity of the dedup + quantized-prefilter passes:
  // every candidate pair is either a repeat, skipped by the lossless
  // int8 bound, or verified exactly.
  EXPECT_EQ(result.metrics.Get("lsh.join.candidate_pairs"),
            result.metrics.Get("lsh.join.verified_pairs") +
                result.metrics.Get("lsh.join.duplicate_pairs") +
                result.metrics.Get("lsh.join.pairs_prefiltered"));
  // Each pair verified at most once: verified count is bounded by the
  // number of distinct (query, data) pairs.
  EXPECT_LE(result.metrics.Get("lsh.join.verified_pairs"),
            data.rows() * queries.rows());
}

TEST(RhoTest, L2AlshNumericDecreasesWithS) {
  double previous = 1.0;
  for (double s : {0.2, 0.4, 0.6, 0.8}) {
    const double rho = RhoL2AlshNumeric(s, 0.5);
    EXPECT_LE(rho, previous + 1e-9);
    previous = rho;
  }
}

}  // namespace
}  // namespace ips
