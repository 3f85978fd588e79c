// Tests for src/core: dataset generators, the four MipsIndex
// implementations, join drivers, and the Definition 1 contract verifier.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/similarity_join.h"
#include "core/symmetric_index.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"

namespace ips {
namespace {

TEST(DatasetTest, UnitBallGaussianNorms) {
  Rng rng(3);
  const Matrix points = MakeUnitBallGaussian(200, 16, 0.5, &rng);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const double norm = kernels::Norm(points.Row(i));
    EXPECT_GE(norm, 0.5 - 1e-9);
    EXPECT_LE(norm, 1.0 + 1e-9);
  }
}

TEST(DatasetTest, LatentFactorNormsDecay) {
  Rng rng(5);
  const Matrix points = MakeLatentFactorVectors(100, 8, 0.5, &rng);
  EXPECT_NEAR(kernels::Norm(points.Row(0)), 1.0, 1e-9);
  EXPECT_GT(kernels::Norm(points.Row(10)), kernels::Norm(points.Row(90)));
  EXPECT_NEAR(kernels::Norm(points.Row(63)), std::pow(64.0, -0.5), 1e-9);
}

TEST(DatasetTest, BinarySetsHaveExactWeight) {
  Rng rng(7);
  const Matrix points = MakeBinarySets(50, 64, 12, &rng);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    double weight = 0.0;
    for (double v : points.Row(i)) {
      EXPECT_TRUE(v == 0.0 || v == 1.0);
      weight += v;
    }
    EXPECT_EQ(weight, 12.0);
  }
}

TEST(DatasetTest, PlantedInstanceHasStrongPairs) {
  Rng rng(11);
  const PlantedInstance instance =
      MakePlantedInstance(300, 20, 32, 0.8, 1.0, &rng);
  for (std::size_t i = 0; i < 20; ++i) {
    const double value = kernels::Dot(instance.data.Row(instance.plants[i]),
                             instance.queries.Row(i));
    EXPECT_GT(value, 0.6);  // close to target 0.8 minus noise
    EXPECT_LE(kernels::Norm(instance.queries.Row(i)), 1.0 + 1e-9);
  }
}

class IndexAgreementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(13);
    data_ = MakeUnitBallGaussian(400, 12, 0.3, &rng);
    queries_ = MakeUnitBallGaussian(30, 12, 0.8, &rng);
  }
  Matrix data_;
  Matrix queries_;
};

TEST_F(IndexAgreementTest, BruteForceFindsTrueMax) {
  const BruteForceIndex index(data_);
  const QueryOptions top1;  // k = 1, signed
  std::size_t dot_products = 0;
  for (std::size_t qi = 0; qi < queries_.rows(); ++qi) {
    QueryStats stats;
    const auto top = index.Query(queries_.Row(qi), top1, &stats);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), 1u);
    dot_products += stats.dot_products;
    double truth = -1e300;
    for (std::size_t i = 0; i < data_.rows(); ++i) {
      truth = std::max(truth, kernels::Dot(data_.Row(i), queries_.Row(qi)));
    }
    EXPECT_NEAR((*top)[0].value, truth, 1e-9);
  }
  EXPECT_EQ(dot_products, queries_.rows() * data_.rows());
}

TEST_F(IndexAgreementTest, TreeAgreesWithBruteForce) {
  Rng rng(17);
  const BruteForceIndex brute(data_);
  const TreeMipsIndex tree(data_, 8, &rng);
  for (const bool is_signed : {true, false}) {
    JoinSpec spec;
    spec.s = 0.0;
    spec.c = 0.9;
    spec.is_signed = is_signed;
    const JoinResult via_brute = IndexJoin(brute, queries_, spec);
    const JoinResult via_tree = IndexJoin(tree, queries_, spec);
    for (std::size_t qi = 0; qi < queries_.rows(); ++qi) {
      const auto& brute_match = via_brute.per_query[qi];
      const auto& tree_match = via_tree.per_query[qi];
      ASSERT_EQ(brute_match.has_value(), tree_match.has_value());
      if (brute_match.has_value()) {
        EXPECT_NEAR(brute_match->value, tree_match->value, 1e-9);
      }
    }
  }
}

TEST_F(IndexAgreementTest, LshIndexFindsPlantedMatches) {
  Rng rng(19);
  const PlantedInstance planted =
      MakePlantedInstance(500, 25, 24, 0.9, 1.0, &rng);
  const DualBallTransform transform(24, 1.0);
  const SimHashFamily base(transform.output_dim());
  LshTableParams params;
  params.k = 8;
  params.l = 32;
  const LshMipsIndex index(planted.data, &transform, base, params, &rng);
  JoinSpec spec;
  spec.s = 0.8;
  spec.c = 0.7;
  spec.is_signed = true;
  std::size_t found = 0;
  std::size_t candidates = 0;
  for (std::size_t qi = 0; qi < planted.queries.rows(); ++qi) {
    QueryStats stats;
    const auto top =
        index.Query(planted.queries.Row(qi), QueryOptions{}, &stats);
    ASSERT_TRUE(top.ok());
    candidates += stats.metrics.Get("lsh.tables.candidates_unique");
    EXPECT_EQ(stats.dot_products,
              stats.metrics.Get("lsh.tables.candidates_unique"));
    if (!top->empty() && (*top)[0].value >= spec.cs()) ++found;
  }
  // High recall expected on near-duplicate planted pairs.
  EXPECT_GE(found, 22u);
  const double mean_candidates =
      static_cast<double>(candidates) / planted.queries.rows();
  EXPECT_GT(mean_candidates, 0.0);
  EXPECT_LT(mean_candidates, 250.0);  // prunes most of the data
}

TEST_F(IndexAgreementTest, SketchIndexDescendsOnlyForUnsignedTopOne) {
  Rng rng(23);
  SketchMipsParams params;
  params.copies = 5;
  const SketchIndex index(data_, params, &rng);
  // Unsigned top-1 is the Section 4.3 argmax descent.
  QueryOptions options;
  options.is_signed = false;
  QueryStats stats;
  ASSERT_TRUE(index.Query(queries_.Row(0), options, &stats).ok());
  EXPECT_TRUE(stats.metrics.Has("sketch.levels"));
  // Signed top-1 runs the exact fallback scan instead of the descent.
  options.is_signed = true;
  ASSERT_TRUE(index.Query(queries_.Row(0), options, &stats).ok());
  EXPECT_FALSE(stats.metrics.Has("sketch.levels"));
  // Exact precision is never honored: the index scores by estimates.
  options.precision = QueryPrecision::kExact;
  const auto exact = index.Query(queries_.Row(0), options);
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExactJoinTest, ThresholdRespected) {
  Rng rng(29);
  const PlantedInstance planted =
      MakePlantedInstance(100, 10, 16, 0.9, 1.0, &rng);
  JoinSpec spec;
  spec.s = 0.7;
  spec.c = 0.8;
  spec.is_signed = true;
  const JoinResult result =
      ExactJoin(planted.data, planted.queries, spec, nullptr);
  EXPECT_EQ(result.per_query.size(), 10u);
  EXPECT_EQ(result.NumMatched(), 10u);  // all planted pairs exceed s
  for (const auto& match : result.per_query) {
    ASSERT_TRUE(match.has_value());
    EXPECT_GE(match->value, spec.s);
  }
  EXPECT_EQ(result.inner_products, 100u * 10u);
}

TEST(ExactJoinTest, ParallelMatchesSequential) {
  Rng rng(31);
  const Matrix data = MakeUnitBallGaussian(150, 8, 0.2, &rng);
  const Matrix queries = MakeUnitBallGaussian(40, 8, 0.7, &rng);
  JoinSpec spec;
  spec.s = 0.2;
  spec.c = 0.5;
  spec.is_signed = false;
  ThreadPool pool(4);
  const JoinResult sequential = ExactJoin(data, queries, spec, nullptr);
  const JoinResult parallel = ExactJoin(data, queries, spec, &pool);
  ASSERT_EQ(sequential.per_query.size(), parallel.per_query.size());
  for (std::size_t i = 0; i < sequential.per_query.size(); ++i) {
    ASSERT_EQ(sequential.per_query[i].has_value(),
              parallel.per_query[i].has_value());
    if (sequential.per_query[i].has_value()) {
      EXPECT_EQ(sequential.per_query[i]->data,
                parallel.per_query[i]->data);
    }
  }
}

TEST(IndexJoinTest, BruteForceIndexJoinEqualsExactJoin) {
  Rng rng(37);
  const Matrix data = MakeUnitBallGaussian(120, 8, 0.2, &rng);
  const Matrix queries = MakeUnitBallGaussian(15, 8, 0.9, &rng);
  JoinSpec spec;
  spec.s = 0.3;
  spec.c = 1.0 - 1e-12;  // cs == s: index join must match exact join
  spec.is_signed = true;
  const BruteForceIndex index(data);
  const JoinResult via_index = IndexJoin(index, queries, spec);
  const JoinResult exact = ExactJoin(data, queries, spec, nullptr);
  ASSERT_EQ(via_index.per_query.size(), exact.per_query.size());
  for (std::size_t i = 0; i < exact.per_query.size(); ++i) {
    EXPECT_EQ(via_index.per_query[i].has_value(),
              exact.per_query[i].has_value());
  }
}

// Entries truncated to multiples of 2^-10: with |entries| <= 1 and
// d = 16 every inner product is exact in double, so pinned value bits
// hold under the scalar and the FMA (AVX2) kernels alike. Truncation
// only shrinks norms, so unit-ball inputs stay in the unit ball.
Matrix DyadicTruncated(const Matrix& m) {
  Matrix out = m;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    for (double& v : out.Row(i)) v = std::ldexp(std::trunc(std::ldexp(v, 10)), -10);
  }
  return out;
}

// One query's pinned join answer: the matched data row (-1 for no
// match) and the bit pattern of its score.
struct JoinPin {
  std::int64_t data;
  std::uint64_t bits;
};

std::string DescribePins(const JoinResult& result) {
  std::ostringstream out;
  out << "inner_products " << result.inner_products << ", pins {";
  for (const auto& match : result.per_query) {
    if (match.has_value()) {
      out << "{" << match->data << ", 0x" << std::hex
          << std::bit_cast<std::uint64_t>(match->value) << std::dec << "}, ";
    } else {
      out << "{-1, 0}, ";
    }
  }
  return out.str() + "}";
}

void ExpectJoinPinned(const JoinResult& result, std::size_t inner_products,
                      const std::vector<JoinPin>& pins) {
  EXPECT_EQ(result.inner_products, inner_products) << DescribePins(result);
  ASSERT_EQ(result.per_query.size(), pins.size()) << DescribePins(result);
  for (std::size_t qi = 0; qi < pins.size(); ++qi) {
    const auto& match = result.per_query[qi];
    if (pins[qi].data < 0) {
      EXPECT_FALSE(match.has_value()) << "query " << qi;
      continue;
    }
    ASSERT_TRUE(match.has_value()) << "query " << qi << ": "
                                   << DescribePins(result);
    EXPECT_EQ(match->query, qi);
    EXPECT_EQ(static_cast<std::int64_t>(match->data), pins[qi].data)
        << "query " << qi << ": " << DescribePins(result);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(match->value), pins[qi].bits)
        << "query " << qi << ": " << DescribePins(result);
  }
}

// Pins IndexJoin's answers and work on a tie-free planted instance
// (12 planted queries plus 4 noise queries), so a change to the join
// driver or an index's search path cannot move an exact answer, its
// score bits, or the inner-product count unnoticed.
TEST(IndexJoinPinTest, AnswersScoresAndWorkArePinned) {
  Rng rng(41);
  const PlantedInstance planted =
      MakePlantedInstance(300, 12, 16, 0.8, 1.0, &rng);
  const Matrix data = DyadicTruncated(planted.data);
  Matrix queries = DyadicTruncated(planted.queries);
  const Matrix noise = DyadicTruncated(MakeUnitBallGaussian(4, 16, 0.5, &rng));
  for (std::size_t i = 0; i < noise.rows(); ++i) queries.AppendRow(noise.Row(i));
  // Tie-free at the top: every query's best score strictly beats its
  // runner-up, signed and unsigned, so tie order cannot matter here.
  for (const bool is_signed : {true, false}) {
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const auto top = TopKBruteForce(data, queries.Row(qi), 2, is_signed);
      ASSERT_GT(top[0].value, top[1].value) << "query " << qi;
    }
  }
  JoinSpec spec;
  spec.s = 0.8;
  spec.c = 0.9;

  const BruteForceIndex brute(data);
  const TreeMipsIndex tree(data, 8, &rng);
  const DualBallTransform transform(16, 1.0);
  const SimHashFamily base(transform.output_dim());
  const LshMipsIndex lsh(data, &transform, base, {.k = 8, .l = 32}, &rng);
  // No query is a data row, so the symmetric index's membership step
  // never fires and its join is its LSH tables' join.
  const SymmetricMipsIndex symmetric(data, 0.1, {.k = 8, .l = 32}, &rng);

  // Every path finds each planted row (the planted scores are positive,
  // so signed and unsigned agree) and no noise query clears cs = 0.72;
  // only the work differs.
  const std::vector<JoinPin> pins = {
      {127, 0x3fe9a4b000000000}, {203, 0x3fe91f6c00000000},
      {37, 0x3fe9586400000000},  {60, 0x3fea225200000000},
      {291, 0x3fe9e1d000000000}, {79, 0x3fe9979400000000},
      {248, 0x3fea004a00000000}, {28, 0x3fe96e5800000000},
      {93, 0x3fe9b70c00000000},  {275, 0x3fe96a5600000000},
      {91, 0x3fe9bc8e00000000},  {94, 0x3fe9eed200000000},
      {-1, 0},                   {-1, 0},
      {-1, 0},                   {-1, 0}};
  spec.is_signed = true;
  ExpectJoinPinned(IndexJoin(brute, queries, spec), 4800, pins);
  ExpectJoinPinned(IndexJoin(tree, queries, spec), 1058, pins);
  ExpectJoinPinned(IndexJoin(lsh, queries, spec), 447, pins);
  ExpectJoinPinned(IndexJoin(symmetric, queries, spec), 706, pins);
  spec.is_signed = false;
  ExpectJoinPinned(IndexJoin(brute, queries, spec), 4800, pins);
  ExpectJoinPinned(IndexJoin(tree, queries, spec), 1705, pins);
}

TEST(IndexJoinTest, ConcurrentJoinsOnOneIndexMatchSequential) {
  // IndexJoin only reads the index, so two joins may share it.
  Rng rng(43);
  const PlantedInstance planted =
      MakePlantedInstance(400, 40, 16, 0.9, 1.0, &rng);
  const DualBallTransform transform(16, 1.0);
  const SimHashFamily base(transform.output_dim());
  const LshMipsIndex index(planted.data, &transform, base, {.k = 8, .l = 24},
                           &rng);
  JoinSpec spec;
  spec.s = 0.8;
  spec.c = 0.8;
  const JoinResult sequential = IndexJoin(index, planted.queries, spec);
  JoinResult concurrent[2];
  {
    std::thread first(
        [&] { concurrent[0] = IndexJoin(index, planted.queries, spec); });
    std::thread second(
        [&] { concurrent[1] = IndexJoin(index, planted.queries, spec); });
    first.join();
    second.join();
  }
  for (const JoinResult& result : concurrent) {
    EXPECT_EQ(result.inner_products, sequential.inner_products);
    ASSERT_EQ(result.per_query.size(), sequential.per_query.size());
    for (std::size_t qi = 0; qi < result.per_query.size(); ++qi) {
      const auto& got = result.per_query[qi];
      const auto& want = sequential.per_query[qi];
      ASSERT_EQ(got.has_value(), want.has_value()) << "query " << qi;
      if (want.has_value()) {
        EXPECT_EQ(got->data, want->data);
        EXPECT_EQ(got->value, want->value);
      }
    }
  }
}

TEST(VerifyJoinContractTest, CountsViolations) {
  JoinSpec spec;
  spec.s = 1.0;
  spec.c = 0.5;
  JoinResult truth;
  truth.per_query = {JoinMatch{0, 5, 1.2},   // promised
                     JoinMatch{1, 6, 0.4},   // below s: not promised
                     JoinMatch{2, 7, 2.0},   // promised
                     std::nullopt};          // no match at all
  JoinResult reported;
  reported.per_query = {JoinMatch{0, 5, 0.9},  // >= cs: OK
                        std::nullopt,          // not promised: OK
                        JoinMatch{2, 9, 0.3},  // < cs: violation
                        std::nullopt};
  double recall = 0.0;
  const std::size_t violations =
      VerifyJoinContract(reported, truth, spec, &recall);
  EXPECT_EQ(violations, 1u);
  EXPECT_DOUBLE_EQ(recall, 0.5);
}

TEST(VerifyJoinContractTest, PerfectResultHasNoViolations) {
  JoinSpec spec;
  spec.s = 0.5;
  spec.c = 0.5;
  JoinResult truth;
  truth.per_query = {JoinMatch{0, 1, 0.8}};
  double recall = 0.0;
  EXPECT_EQ(VerifyJoinContract(truth, truth, spec, &recall), 0u);
  EXPECT_DOUBLE_EQ(recall, 1.0);
}

}  // namespace
}  // namespace ips
