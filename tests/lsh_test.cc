// Tests for src/lsh: collision probabilities of the base families
// against their closed forms, inner-product preservation of the (A)LSH
// transforms, amplification, the (K, L) table engine and its CSR bucket
// layout, and the rho formulas behind Figure 2.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "linalg/kernels.h"
#include "linalg/quantized.h"
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
  // Find and a BucketDirectory over the table give the same rows.
  const BucketDirectory directory(table);
  for (const bool direct : {false, true}) {
    auto rows = [&](std::uint64_t key) {
      const auto found = direct ? directory.Find(key) : table.Find(key);
      return std::vector<std::uint32_t>(found.begin(), found.end());
    };
    EXPECT_EQ(rows(0), (std::vector<std::uint32_t>{3}));
    EXPECT_EQ(rows(3), (std::vector<std::uint32_t>{1, 4, 7}));
    EXPECT_EQ(rows(9), (std::vector<std::uint32_t>{0, 2, 5}));
    EXPECT_EQ(rows(~0ULL), (std::vector<std::uint32_t>{6}));
    // Misses below, between and above the stored keys are empty.
    for (std::uint64_t miss : {1ULL, 4ULL, 10ULL, ~0ULL - 1}) {
      EXPECT_TRUE(rows(miss).empty()) << miss;
    }
  }
  EXPECT_TRUE(BucketTable().Find(0).empty());
  EXPECT_TRUE(BucketTable::Build({}).Find(0).empty());
  EXPECT_TRUE(BucketDirectory(BucketTable()).Find(0).empty());
}

TEST(BucketTableTest, BuildMatchesAHashMapOnManyKeys) {
  // Few distinct keys over many rows, as K = 8 SimHash produces them,
  // then many distinct 64-bit keys, so some keys share a home slot in
  // Build's scratch and in the BucketDirectory and must probe past it.
  const std::pair<std::uint64_t, std::uint64_t> draws[] = {
      {97, 0x100000001ULL}, {4000, 0x9E3779B97F4A7C15ULL}};  // count, stride
  for (const auto& [distinct, stride] : draws) {
    Rng rng(91);
    std::vector<std::uint64_t> keys(5000);
    for (auto& key : keys) key = rng.NextBounded(distinct) * stride;
    const BucketTable table = BucketTable::Build(keys);
    const BucketDirectory directory(table);
    std::map<std::uint64_t, std::vector<std::uint32_t>> expected;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      expected[keys[i]].push_back(static_cast<std::uint32_t>(i));
    }
    ASSERT_EQ(table.keys().size(), expected.size());
    for (const auto& [key, rows] : expected) {
      for (const auto found : {table.Find(key), directory.Find(key)}) {
        EXPECT_EQ(std::vector<std::uint32_t>(found.begin(), found.end()),
                  rows);
      }
      // The next key up is stored in neither.
      if (expected.contains(key + 1)) continue;
      EXPECT_TRUE(table.Find(key + 1).empty());
      EXPECT_TRUE(directory.Find(key + 1).empty());
    }
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

// The bucket join by definition. Table by table, through the same
// one-table keyer draws as the join but hashing each row alone, every
// (query, data) pair with equal keys collides. A collision is a
// candidate; a pair that collided in an earlier table is a duplicate;
// a first collision is prefiltered when the lossless int8 bound proves
// it below cs and verified otherwise. Each query keeps its best
// verified pair at or above cs in RanksBefore order.
struct ReferenceJoin {
  std::vector<std::optional<std::pair<std::size_t, double>>> per_query;
  std::uint64_t candidate = 0;
  std::uint64_t verified = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t prefiltered = 0;
};

ReferenceJoin ReferenceBucketJoin(const LshFamily& family,
                                  const Matrix& data, const Matrix& queries,
                                  double cs, bool is_signed,
                                  LshTableParams params, Rng* rng) {
  ReferenceJoin ref;
  ref.per_query.resize(queries.rows());
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  std::vector<std::vector<bool>> collided(
      queries.rows(), std::vector<bool>(data.rows(), false));
  for (std::size_t t = 0; t < params.l; ++t) {
    const std::unique_ptr<LshKeyer> keyer =
        family.SampleKeyer(params.k, 1, rng);
    const auto key = [&](const Matrix& rows, std::size_t r, HashSide side) {
      std::uint64_t out = 0;
      keyer->Keys(rows.Row(r), side, 0, 1, {&out, 1});
      return out;
    };
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const std::uint64_t query_key = key(queries, qi, HashSide::kQuery);
      const QuantizedVector qq = QuantizeVector(queries.Row(qi));
      for (std::size_t di = 0; di < data.rows(); ++di) {
        if (key(data, di, HashSide::kData) != query_key) continue;
        ++ref.candidate;
        if (collided[qi][di]) {
          ++ref.duplicate;
          continue;
        }
        collided[qi][di] = true;
        const double est = static_cast<double>(kernels::DotI8(
                               {qdata.RowCodes(di), data.cols()}, qq.codes)) *
                           qdata.RowScale(di) * qq.scale;
        if ((is_signed ? est : std::abs(est)) + qdata.ErrorBound(di, qq) <
            cs) {
          ++ref.prefiltered;
          continue;
        }
        ++ref.verified;
        const double raw = kernels::Score(data.Row(di), queries.Row(qi));
        const double score = is_signed ? raw : std::abs(raw);
        auto& best = ref.per_query[qi];
        if (score >= cs &&
            (!best.has_value() ||
             RanksBefore({di, score}, {best->first, best->second}))) {
          best = std::make_pair(di, score);
        }
      }
    }
  }
  return ref;
}

// Rows in the topk_test tie corpus's pattern, at any multiple of three:
// integer coordinates in [-3, 3], the first third drawn, the second a
// copy of it and the last its negation. Copies share every key, so a
// join over such rows has multi-row buckets on both sides, and every
// copy ties (and, unsigned, every negation).
Matrix TieRows(std::size_t rows, std::size_t dim, Rng* rng) {
  const std::size_t base = rows / 3;
  Matrix out(rows, dim);
  for (std::size_t r = 0; r < base; ++r) {
    for (std::size_t j = 0; j < dim; ++j) {
      const double v = static_cast<double>(rng->NextInt(-3, 3));
      out.At(r, j) = v;
      out.At(base + r, j) = v;
      out.At(2 * base + r, j) = -v;
    }
  }
  return out;
}

TEST(BucketJoinTest, EqualsAReferenceJoinOverEveryPair) {
  // The join buckets whichever side has fewer rows (the queries on a
  // tie). Neither choice may move a best, a score bit or a pair count:
  // queries fewer than, as many as and more than the data rows, over
  // the tie corpus and over Gaussians, signed and unsigned.
  struct Case {
    const char* corpus;
    std::size_t data_rows, query_rows, dim, k, l;
    double cs;
  };
  const Case cases[] = {
      {"tie", 48, 12, 4, 3, 6, 4.0},     {"tie", 48, 48, 4, 3, 6, 4.0},
      {"tie", 48, 96, 4, 3, 6, 4.0},     {"gauss", 64, 16, 6, 2, 8, 0.3},
      {"gauss", 64, 64, 6, 2, 8, 0.3},   {"gauss", 64, 160, 6, 2, 8, 0.3}};
  Rng rng(3101);
  std::uint64_t duplicates = 0, prefiltered = 0, matched = 0;
  for (const Case& c : cases) {
    const bool tie = std::string(c.corpus) == "tie";
    const Matrix data = tie ? TieRows(c.data_rows, c.dim, &rng)
                            : MakeUnitBallGaussian(c.data_rows, c.dim, 0.9,
                                                   &rng);
    const Matrix queries =
        tie ? TieRows(c.query_rows, c.dim, &rng)
            : MakeUnitBallGaussian(c.query_rows, c.dim, 0.9, &rng);
    const SimHashFamily family(c.dim);
    LshTableParams params;
    params.k = c.k;
    params.l = c.l;
    for (const bool is_signed : {true, false}) {
      const std::string where = std::string(c.corpus) + " " +
                                std::to_string(c.query_rows) + " queries x " +
                                std::to_string(c.data_rows) + " rows, " +
                                (is_signed ? "signed" : "unsigned");
      Rng join_rng(c.query_rows + c.data_rows);
      const BucketJoinResult got =
          LshBucketJoin(family, data, data, queries, queries,
                        /*s=*/c.cs + 1.0, c.cs, is_signed, params, &join_rng);
      Rng ref_rng(c.query_rows + c.data_rows);
      const ReferenceJoin want = ReferenceBucketJoin(
          family, data, queries, c.cs, is_signed, params, &ref_rng);
      ASSERT_EQ(got.per_query.size(), queries.rows()) << where;
      for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
        const auto& g = got.per_query[qi];
        const auto& w = want.per_query[qi];
        ASSERT_EQ(g.has_value(), w.has_value()) << where << " query " << qi;
        if (!w.has_value()) continue;
        ++matched;
        EXPECT_EQ(g->first, w->first) << where << " query " << qi;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g->second),
                  std::bit_cast<std::uint64_t>(w->second))
            << where << " query " << qi;
      }
      EXPECT_EQ(got.metrics.Get("lsh.join.candidate_pairs"), want.candidate)
          << where;
      EXPECT_EQ(got.metrics.Get("lsh.join.verified_pairs"), want.verified)
          << where;
      EXPECT_EQ(got.metrics.Get("lsh.join.duplicate_pairs"), want.duplicate)
          << where;
      EXPECT_EQ(got.metrics.Get("lsh.join.pairs_prefiltered"),
                want.prefiltered)
          << where;
      duplicates += want.duplicate;
      prefiltered += want.prefiltered;
    }
  }
  // Every stage of the pipeline ran somewhere in the sweep.
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(prefiltered, 0u);
  EXPECT_GT(matched, 0u);
}

// --- The projection kernel under the SimHash keyer -------------------

// Rows that stress ProjectBlock's chain: Gaussians; the integer
// tie-order corpus (coordinates in [-3, 3], each drawn row followed by
// its copy and its negation); zero rows of both signs; rows mixing
// subnormal with huge finite entries (small enough that no chain
// overflows, so every output is finite); and a row of subnormals.
Matrix ProjectionRows(std::size_t dim, Rng* rng) {
  Matrix rows(0, dim);
  std::vector<double> row(dim);
  for (int i = 0; i < 7; ++i) {
    for (double& v : row) v = rng->NextGaussian();
    rows.AppendRow(row);
  }
  for (int i = 0; i < 5; ++i) {
    for (double& v : row) v = static_cast<double>(rng->NextInt(-3, 3));
    rows.AppendRow(row);
    rows.AppendRow(row);
    for (double& v : row) v = -v;
    rows.AppendRow(row);
  }
  std::fill(row.begin(), row.end(), 0.0);
  rows.AppendRow(row);
  std::fill(row.begin(), row.end(), -0.0);
  rows.AppendRow(row);
  for (std::size_t j = 0; j < dim; ++j) row[j] = j % 2 == 0 ? 0.0 : -0.0;
  rows.AppendRow(row);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (int i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      switch ((j + i) % 4) {
        case 0: row[j] = tiny * static_cast<double>(rng->NextInt(1, 9)); break;
        case 1: row[j] = -1e300 * rng->NextDouble(); break;
        case 2: row[j] = 1e300 * rng->NextDouble(); break;
        default: row[j] = -tiny; break;
      }
    }
    rows.AppendRow(row);
  }
  // Subnormal entries alone: every product and partial sum underflows.
  for (std::size_t j = 0; j < dim; ++j) {
    row[j] = tiny * static_cast<double>(rng->NextInt(-9, 9));
  }
  rows.AppendRow(row);
  return rows;
}

// The contract: acc = fma(row[j], plane_h[j], acc) from +0.0, ascending j.
double ReferenceChain(std::span<const double> row, const double* planes,
                      std::size_t stride, std::size_t h) {
  double acc = 0.0;
  for (std::size_t j = 0; j < row.size(); ++j) {
    acc = std::fma(row[j], planes[j * stride + h], acc);
  }
  return acc;
}

TEST(ProjectBlockTest, ScalarAndAvx2AreBitwiseEqualToTheFmaChain) {
  Rng rng(2511);
  for (std::size_t dim : {1u, 3u, 34u, 66u}) {
    const Matrix rows = ProjectionRows(dim, &rng);
    // Plane counts around the AVX2 tile (12 planes, 4 rows), with a
    // packing stride wider than the block.
    for (std::size_t planes_n : {1u, 2u, 3u, 4u, 5u, 7u, 11u, 12u, 13u,
                                 16u, 23u, 25u, 64u, 128u}) {
      const std::size_t stride = planes_n + 3;
      std::vector<double> planes(dim * stride);
      for (double& v : planes) v = rng.NextGaussian();
      for (std::size_t num_rows :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
            std::size_t{5}, std::size_t{9}, rows.rows()}) {
        SCOPED_TRACE("dim " + std::to_string(dim) + " planes " +
                     std::to_string(planes_n) + " rows " +
                     std::to_string(num_rows));
        std::vector<double> scalar(num_rows * planes_n);
        kernels::ScalarOps().project_block(rows.raw(), num_rows, dim,
                                           planes.data(), planes_n, stride,
                                           scalar.data());
        for (std::size_t r = 0; r < num_rows; ++r) {
          for (std::size_t h = 0; h < planes_n; ++h) {
            const double want =
                ReferenceChain(rows.Row(r), planes.data(), stride, h);
            ASSERT_TRUE(std::isfinite(want));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar[r * planes_n + h]),
                      std::bit_cast<std::uint64_t>(want))
                << "row " << r << " plane " << h;
          }
        }
        if (!kernels::Avx2Available()) continue;
        std::vector<double> avx2(num_rows * planes_n);
        kernels::Avx2Ops().project_block(rows.raw(), num_rows, dim,
                                         planes.data(), planes_n, stride,
                                         avx2.data());
        for (std::size_t i = 0; i < scalar.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(avx2[i]),
                    std::bit_cast<std::uint64_t>(scalar[i]))
              << "row " << i / planes_n << " plane " << i % planes_n;
        }
      }
    }
  }
}

// Table-major keys of every row in tables [t0, t1).
std::vector<std::uint64_t> KeyerKeys(const LshKeyer& keyer,
                                     const Matrix& rows, HashSide side,
                                     std::size_t t0, std::size_t t1) {
  std::vector<std::uint64_t> keys((t1 - t0) * rows.rows());
  keyer.Keys({rows.raw(), rows.rows() * rows.cols()}, side, t0, t1, keys);
  return keys;
}

TEST(SimHashKeyerTest, ARowsKeysDoNotDependOnItsBlockOrSide) {
  // K = 16 packs 8 tables into 128 planes, so the keyer projects 64
  // rows per kernel call: 70 rows end in a ragged 6-row block, and
  // L = 11 ends in a 3-table group.
  constexpr std::size_t kDim = 34, kK = 16, kL = 11, kRows = 70;
  Rng rng(2512);
  const Matrix rows = MakeUnitBallGaussian(kRows, kDim, 1.0, &rng);
  const SimHashFamily family(kDim);
  const std::unique_ptr<LshKeyer> keyer = family.SampleKeyer(kK, kL, &rng);
  const std::vector<std::uint64_t> block =
      KeyerKeys(*keyer, rows, HashSide::kData, 0, kL);
  EXPECT_EQ(KeyerKeys(*keyer, rows, HashSide::kQuery, 0, kL), block);
  for (std::size_t i = 0; i < kRows; ++i) {
    std::vector<std::uint64_t> alone(kL);
    keyer->Keys(rows.Row(i), HashSide::kQuery, 0, kL, alone);
    for (std::size_t t = 0; t < kL; ++t) {
      EXPECT_EQ(alone[t], block[t * kRows + i])
          << "row " << i << " table " << t;
    }
  }
  // A table range that starts and ends inside a group.
  const std::vector<std::uint64_t> middle =
      KeyerKeys(*keyer, rows, HashSide::kData, 3, 10);
  for (std::size_t t = 3; t < 10; ++t) {
    for (std::size_t i = 0; i < kRows; ++i) {
      EXPECT_EQ(middle[(t - 3) * kRows + i], block[t * kRows + i]);
    }
  }
}

TEST(SimHashKeyerTest, KeysEqualTheConcatenatedFunctions) {
  // Same draws, same mix: the keyer's keys are the keys of L
  // ConcatenatedLshFunctions sampled in turn, on Gaussian rows and on
  // the integer, zero and extreme rows.
  constexpr std::size_t kK = 16, kL = 9;
  for (std::size_t dim : {5u, 34u}) {
    Rng rows_rng(2513);
    Matrix rows = MakeUnitBallGaussian(40, dim, 1.0, &rows_rng);
    const Matrix extreme = ProjectionRows(dim, &rows_rng);
    for (std::size_t i = 0; i < extreme.rows(); ++i) {
      rows.AppendRow(extreme.Row(i));
    }
    const SimHashFamily family(dim);
    Rng keyer_rng(7);
    const std::unique_ptr<LshKeyer> keyer =
        family.SampleKeyer(kK, kL, &keyer_rng);
    const std::vector<std::uint64_t> keys =
        KeyerKeys(*keyer, rows, HashSide::kData, 0, kL);
    Rng function_rng(7);
    for (std::size_t t = 0; t < kL; ++t) {
      const ConcatenatedLshFunction function(family, kK, &function_rng);
      for (std::size_t i = 0; i < rows.rows(); ++i) {
        EXPECT_EQ(keys[t * rows.rows() + i], function.HashData(rows.Row(i)))
            << "dim " << dim << " row " << i << " table " << t;
      }
    }
  }
}

TEST(SimHashKeyerTest, ZeroRowsOfEitherSignShareEveryKey) {
  const SimHashFamily family(6);
  Rng rng(2514);
  const std::unique_ptr<LshKeyer> keyer = family.SampleKeyer(4, 3, &rng);
  const std::vector<double> plus(6, 0.0), minus(6, -0.0);
  std::vector<std::uint64_t> plus_keys(3), minus_keys(3);
  keyer->Keys(plus, HashSide::kData, 0, 3, plus_keys);
  keyer->Keys(minus, HashSide::kQuery, 0, 3, minus_keys);
  EXPECT_EQ(plus_keys, minus_keys);
}

void ExpectSameState(const Rng& a, const Rng& b) {
  const Rng::State sa = a.SaveState(), sb = b.SaveState();
  for (int w = 0; w < 4; ++w) EXPECT_EQ(sa.words[w], sb.words[w]);
  EXPECT_EQ(sa.has_spare_gaussian, sb.has_spare_gaussian);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.spare_gaussian),
            std::bit_cast<std::uint64_t>(sb.spare_gaussian));
}

TEST(SimHashKeyerTest, SampleKeyerConsumesLTimesKSampleDraws) {
  // Odd dimensions leave a Box-Muller spare behind, so the state check
  // covers it too. The default keyer (E2LSH) is held to the same rule.
  constexpr std::size_t kK = 5, kL = 11;
  const SimHashFamily simhash(7);
  const E2LshFamily e2lsh(7, 4.0);
  for (const LshFamily* family :
       {static_cast<const LshFamily*>(&simhash),
        static_cast<const LshFamily*>(&e2lsh)}) {
    Rng keyer_rng(2515);
    (void)family->SampleKeyer(kK, kL, &keyer_rng);
    Rng sample_rng(2515);
    for (std::size_t i = 0; i < kK * kL; ++i) {
      (void)family->Sample(&sample_rng);
    }
    SCOPED_TRACE(family->Name());
    ExpectSameState(keyer_rng, sample_rng);
  }
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
