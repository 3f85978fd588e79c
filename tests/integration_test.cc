// Cross-module integration tests: the full hardness pipeline with an
// LSH join oracle, the symmetric-LSH reduction end to end, Lemma 4
// measured on every hard-sequence case with a real ALSH, and the
// (cs, s) contract of each index on a realistic workload.

#include <gtest/gtest.h>

#include <cmath>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/similarity_join.h"
#include "embed/binary_embedding.h"
#include "hardness/ovp.h"
#include "hardness/reduction.h"
#include "linalg/kernels.h"
#include "lsh/minhash.h"
#include "lsh/simhash.h"
#include "lsh/tables.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "theory/hard_sequences.h"
#include "theory/lemma4.h"

namespace ips {
namespace {

TEST(IntegrationTest, OvpViaBinaryEmbeddingAndMinHashJoin) {
  // The full Theorem 1 pipeline with a *sublinear-style* oracle: embed
  // into {0,1}, then find the orthogonal pair with MinHash-ALSH tables
  // instead of the quadratic scan.
  Rng rng(3);
  OvpOptions options;
  options.size_a = 48;
  options.size_b = 48;
  options.dim = 16;
  options.density = 0.5;
  options.plant_orthogonal_pair = true;
  const OvpInstance instance = GenerateOvpInstance(options, &rng);
  const BinaryChunkEmbedding embedding(16, 4);

  const JoinOracle lsh_oracle = [&rng](const Matrix& p, const Matrix& q,
                                       double s, double cs,
                                       bool is_signed) mutable
      -> std::optional<std::pair<std::size_t, std::size_t>> {
    EXPECT_FALSE(is_signed);
    // Binary embedded vectors: weight is bounded by output_dim; pad for
    // asymmetric minwise hashing.
    std::size_t max_weight = 0;
    for (std::size_t i = 0; i < p.rows(); ++i) {
      std::size_t w = 0;
      for (double v : p.Row(i)) w += v == 1.0 ? 1 : 0;
      max_weight = std::max(max_weight, w);
    }
    const MinHashAlshTransform transform(p.cols(), max_weight);
    const MinHashFamily base(transform.output_dim());
    const Matrix hashed_data = transform.TransformDataset(p);
    LshTableParams params;
    params.k = 2;
    params.l = 24;
    const LshTables tables(base, hashed_data, params, &rng);
    for (std::size_t j = 0; j < q.rows(); ++j) {
      const auto probe = transform.TransformQuery(q.Row(j));
      for (std::size_t i : tables.Query(probe)) {
        const double value = std::abs(kernels::Dot(p.Row(i), q.Row(j)));
        if (value >= cs && value >= s) return std::make_pair(i, j);
      }
    }
    return std::nullopt;
  };

  const ReductionResult result =
      SolveOvpViaEmbedding(instance, embedding, lsh_oracle);
  ASSERT_TRUE(result.pair.has_value());
  EXPECT_TRUE(instance.a.OrthogonalRows(result.pair->first, instance.b,
                                        result.pair->second));
}

TEST(IntegrationTest, SymmetricLshSolvesSignedSearch) {
  // Section 4.2 end to end: symmetric incoherent lift + SimHash tables,
  // identical hashing code path for data and queries.
  Rng rng(7);
  const std::size_t kDim = 16;
  const PlantedInstance planted =
      MakePlantedInstance(300, 20, kDim, 0.9, 1.0, &rng);
  const SymmetricIncoherentTransform transform(kDim, 0.1, 16);
  const SimHashFamily base(transform.output_dim());
  LshTableParams params;
  params.k = 10;
  params.l = 40;
  const LshMipsIndex index(planted.data, &transform, base, params, &rng);
  JoinSpec spec;
  spec.s = 0.75;
  spec.c = 0.7;
  spec.is_signed = true;
  std::size_t found = 0;
  for (std::size_t qi = 0; qi < planted.queries.rows(); ++qi) {
    const auto top = index.Query(planted.queries.Row(qi), QueryOptions{});
    ASSERT_TRUE(top.ok());
    if (!top->empty() && (*top)[0].value >= spec.cs()) ++found;
  }
  EXPECT_GE(found, 17u);
}

class Lemma4OnRealAlsh : public ::testing::TestWithParam<int> {};

TEST_P(Lemma4OnRealAlsh, MeasuredGapRespectsBound) {
  // For each Theorem 3 construction, measure a real ALSH's collision gap
  // on the staircase and check the Lemma 4 ceiling.
  Rng rng(11 + GetParam());
  HardSequences sequences;
  switch (GetParam()) {
    case 0:
      sequences = MakeCase1Sequences(4, 40.0, 0.25, 0.6);
      break;
    case 1:
      sequences = MakeCase2Sequences(4, 64.0, 1.0, 0.5);
      break;
    default:
      sequences = MakeCase3Sequences(100.0, 1.0, 0.5,
                                     IncoherentKind::kOrthonormal);
      break;
  }
  const SequenceCheck check = VerifyHardSequences(sequences);
  ASSERT_TRUE(check.staircase_ok);
  ASSERT_TRUE(check.norms_ok);
  const std::size_t n = sequences.data.rows();
  ASSERT_GE(n, 4u);

  const DualBallTransform transform(sequences.data.cols(), sequences.U);
  const SimHashFamily base(transform.output_dim());
  const TransformedLshFamily family(&transform, &base);
  constexpr std::size_t kSamples = 2000;
  const CollisionMatrix matrix(family, sequences, kSamples, &rng);
  const double slack = 3.0 * std::sqrt(0.25 / kSamples);
  EXPECT_LE(matrix.EmpiricalGap(), Lemma4GapBound(n) + 2.0 * slack)
      << "n=" << n << " P1=" << matrix.EmpiricalP1()
      << " P2=" << matrix.EmpiricalP2();
}

INSTANTIATE_TEST_SUITE_P(Cases, Lemma4OnRealAlsh, ::testing::Values(0, 1, 2));

TEST(IntegrationTest, AllIndexesHonorJoinContractOnPlantedData) {
  Rng rng(13);
  const std::size_t kDim = 16;
  const PlantedInstance planted =
      MakePlantedInstance(256, 16, kDim, 0.85, 1.0, &rng);
  JoinSpec spec;
  spec.s = 0.7;
  spec.c = 0.6;
  spec.is_signed = false;  // every index supports unsigned
  const JoinResult truth =
      ExactJoin(planted.data, planted.queries, spec, nullptr);
  ASSERT_EQ(truth.NumMatched(), planted.queries.rows());

  const BruteForceIndex brute(planted.data);
  const TreeMipsIndex tree(planted.data, 8, &rng);
  SketchMipsParams sketch_params;
  sketch_params.copies = 11;
  sketch_params.bucket_multiplier = 6.0;
  const SketchIndex sketch(planted.data, sketch_params, &rng);
  const DualBallTransform transform(kDim, 1.0);
  const SimHashFamily base(transform.output_dim());
  LshTableParams lsh_params;
  lsh_params.k = 8;
  lsh_params.l = 48;
  const LshMipsIndex lsh(planted.data, &transform, base, lsh_params, &rng);

  struct Expectation {
    const MipsIndex* index;
    double min_recall;
  };
  const Expectation expectations[] = {
      {&brute, 1.0},   // exact
      {&tree, 1.0},    // exact
      {&sketch, 0.8},  // randomized; planted pairs dominate strongly
      {&lsh, 0.85},    // high collision probability at cosine ~0.85
  };
  for (const auto& [index, min_recall] : expectations) {
    const JoinResult result = IndexJoin(*index, planted.queries, spec);
    double recall = 0.0;
    VerifyJoinContract(result, truth, spec, &recall);
    EXPECT_GE(recall, min_recall) << index->Name();
  }
}

TEST(IntegrationTest, UnsignedJoinViaSignedJoins) {
  // The paper's observation: unsigned join = signed join of (P, Q) union
  // signed join of (P, -Q), keeping pairs with |p^T q| >= threshold.
  Rng rng(17);
  const Matrix data = MakeUnitBallGaussian(200, 8, 0.5, &rng);
  Matrix queries = MakeUnitBallGaussian(30, 8, 0.9, &rng);
  JoinSpec unsigned_spec;
  unsigned_spec.s = 0.25;
  unsigned_spec.c = 0.99;
  unsigned_spec.is_signed = false;
  const JoinResult direct = ExactJoin(data, queries, unsigned_spec, nullptr);

  JoinSpec signed_spec = unsigned_spec;
  signed_spec.is_signed = true;
  Matrix negated = queries;
  for (double& v : negated.data()) v = -v;
  const JoinResult positive = ExactJoin(data, queries, signed_spec, nullptr);
  const JoinResult negative = ExactJoin(data, negated, signed_spec, nullptr);

  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    const bool direct_hit = direct.per_query[qi].has_value();
    const bool composed_hit = positive.per_query[qi].has_value() ||
                              negative.per_query[qi].has_value();
    EXPECT_EQ(direct_hit, composed_hit) << "query " << qi;
    if (direct_hit) {
      double best_composed = 0.0;
      if (positive.per_query[qi].has_value()) {
        best_composed =
            std::max(best_composed, positive.per_query[qi]->value);
      }
      if (negative.per_query[qi].has_value()) {
        best_composed =
            std::max(best_composed, negative.per_query[qi]->value);
      }
      EXPECT_NEAR(direct.per_query[qi]->value, best_composed, 1e-9);
    }
  }
}

TEST(IntegrationTest, RecommenderScenarioLshBeatsBruteOnWork) {
  // Latent-factor vectors with popularity skew: the ALSH index should
  // evaluate far fewer exact inner products than brute force at
  // near-perfect recall for strong matches.
  Rng rng(19);
  const std::size_t kDim = 24;
  const std::size_t kItems = 800;
  const PlantedInstance planted =
      MakePlantedInstance(kItems, 30, kDim, 0.9, 1.0, &rng);
  JoinSpec spec;
  spec.s = 0.8;
  spec.c = 0.75;
  spec.is_signed = true;
  const JoinResult truth =
      ExactJoin(planted.data, planted.queries, spec, nullptr);

  const DualBallTransform transform(kDim, 1.0);
  const SimHashFamily base(transform.output_dim());
  LshTableParams params;
  params.k = 10;
  params.l = 48;
  const LshMipsIndex lsh(planted.data, &transform, base, params, &rng);
  const JoinResult result = IndexJoin(lsh, planted.queries, spec);
  double recall = 0.0;
  VerifyJoinContract(result, truth, spec, &recall);
  EXPECT_GE(recall, 0.85);
  // Work: brute force costs kItems per query; LSH should cost far less.
  EXPECT_LT(result.inner_products, truth.inner_products / 3);
}

}  // namespace
}  // namespace ips
