// Cross-engine contract sweep: every MIPS engine must uphold the
// Definition 1 (cs, s) contract across a grid of workload shapes --
// dimensions, norms, signs, and threshold placements. Exact engines
// must reach recall 1; randomized engines must clear workload-specific
// floors. This is the library's consumer-facing guarantee, so it is
// tested wholesale rather than engine by engine.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/norm_range_index.h"
#include "core/similarity_join.h"
#include "core/symmetric_index.h"
#include "core/top_k.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"

namespace ips {
namespace {

struct Workload {
  std::size_t n;
  std::size_t dim;
  double target;      // planted inner product
  double s;           // join threshold
  double c;           // approximation
  std::uint64_t seed;
};

class ContractSweep : public ::testing::TestWithParam<Workload> {
 protected:
  void SetUp() override {
    const Workload& w = GetParam();
    rng_ = std::make_unique<Rng>(w.seed);
    planted_ = MakePlantedInstance(w.n, 12, w.dim, w.target, 1.0,
                                   rng_.get());
    spec_.s = w.s;
    spec_.c = w.c;
    spec_.is_signed = true;
    truth_ = ExactJoin(planted_.data, planted_.queries, spec_, nullptr);
  }

  double RecallOf(const MipsIndex& index) {
    const JoinResult result = IndexJoin(index, planted_.queries, spec_);
    double recall = 0.0;
    VerifyJoinContract(result, truth_, spec_, &recall);
    return recall;
  }

  std::unique_ptr<Rng> rng_;
  PlantedInstance planted_;
  JoinSpec spec_;
  JoinResult truth_;
};

TEST_P(ContractSweep, ExactEnginesReachFullRecall) {
  const BruteForceIndex brute(planted_.data);
  EXPECT_DOUBLE_EQ(RecallOf(brute), 1.0);
  const TreeMipsIndex tree(planted_.data, 8, rng_.get());
  EXPECT_DOUBLE_EQ(RecallOf(tree), 1.0);
  NormRangeParams lemp_params;
  lemp_params.bucket_size = 64;
  lemp_params.lsh_cosine_threshold = 2.0;  // always-exact bucket scans
  const NormRangeIndex lemp(planted_.data, lemp_params, rng_.get());
  EXPECT_DOUBLE_EQ(RecallOf(lemp), 1.0);
}

TEST_P(ContractSweep, AsymmetricLshClearsFloor) {
  const Workload& w = GetParam();
  const DualBallTransform transform(w.dim, 1.0);
  const SimHashFamily base(transform.output_dim());
  LshTableParams params;
  params.k = 8;
  params.l = 48;
  const LshMipsIndex index(planted_.data, &transform, base, params,
                           rng_.get());
  EXPECT_GE(RecallOf(index), 0.8) << "n=" << w.n << " dim=" << w.dim;
}

TEST_P(ContractSweep, SymmetricLshClearsFloor) {
  const Workload& w = GetParam();
  LshTableParams params;
  params.k = 8;
  params.l = 48;
  const SymmetricMipsIndex index(planted_.data, 0.1, params, rng_.get());
  EXPECT_GE(RecallOf(index), 0.8) << "n=" << w.n << " dim=" << w.dim;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ContractSweep,
    ::testing::Values(Workload{100, 8, 0.9, 0.8, 0.7, 1},
                      Workload{400, 16, 0.9, 0.8, 0.75, 2},
                      Workload{400, 32, 0.85, 0.75, 0.8, 3},
                      Workload{800, 24, 0.9, 0.85, 0.7, 4},
                      Workload{200, 48, 0.95, 0.9, 0.9, 5}));

TEST(ContractEdgeTest, TreeJoinKeepsExactTieOrder) {
  // 0/1 sets give integer inner products, so most queries tie at the
  // top. The tree's k = 1 join must pick the same row as the exact join:
  // score descending, then the smaller data index.
  Rng rng(13);
  const Matrix data = MakeBinarySets(300, 32, 6, &rng);
  Matrix queries = MakeBinarySets(40, 32, 6, &rng);
  // A few negated queries make the unsigned join differ from the signed.
  for (std::size_t qi = 0; qi < queries.rows(); qi += 4) {
    for (double& v : queries.Row(qi)) v = -v;
  }
  const TreeMipsIndex tree(data, 8, &rng);
  std::size_t tied = 0;
  for (const bool is_signed : {true, false}) {
    JoinSpec spec;
    spec.s = 1.0;
    spec.c = 1.0;
    spec.is_signed = is_signed;
    const JoinResult exact = ExactJoin(data, queries, spec, nullptr);
    const JoinResult via_tree = IndexJoin(tree, queries, spec);
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const auto& want = exact.per_query[qi];
      const auto& got = via_tree.per_query[qi];
      ASSERT_EQ(got.has_value(), want.has_value()) << "query " << qi;
      if (!want.has_value()) continue;
      EXPECT_EQ(got->data, want->data) << "query " << qi;
      EXPECT_EQ(got->value, want->value) << "query " << qi;
      const auto top2 = TopKBruteForce(data, queries.Row(qi), 2, is_signed);
      if (top2[0].value == top2[1].value) ++tied;
    }
  }
  EXPECT_GT(tied, 10u);  // the corpus really is tie-heavy
}

TEST(ContractEdgeTest, NoPromisedQueriesMeansVacuousSuccess) {
  // Thresholds above every inner product: the contract holds trivially
  // and the verifier reports recall 1 with zero violations.
  Rng rng(7);
  const Matrix data = MakeUnitBallGaussian(50, 8, 0.3, &rng);
  const Matrix queries = MakeUnitBallGaussian(5, 8, 0.5, &rng);
  JoinSpec spec;
  spec.s = 10.0;
  spec.c = 0.5;
  spec.is_signed = true;
  const JoinResult truth = ExactJoin(data, queries, spec, nullptr);
  const BruteForceIndex brute(data);
  const JoinResult result = IndexJoin(brute, queries, spec);
  double recall = 0.0;
  EXPECT_EQ(VerifyJoinContract(result, truth, spec, &recall), 0u);
  EXPECT_DOUBLE_EQ(recall, 1.0);
}

TEST(ContractEdgeTest, UnsignedContractOnNegativePlants) {
  // Plant strongly *negative* pairs; the unsigned join must find them,
  // the signed join must not.
  Rng rng(11);
  const std::size_t kDim = 24;
  PlantedInstance planted = MakePlantedInstance(300, 10, kDim, 0.9, 1.0,
                                                &rng);
  // Negate the planted data rows: planted products become ~-0.9.
  for (std::size_t qi = 0; qi < 10; ++qi) {
    for (double& v : planted.data.Row(planted.plants[qi])) v = -v;
  }
  JoinSpec unsigned_spec;
  unsigned_spec.s = 0.8;
  unsigned_spec.c = 0.75;
  unsigned_spec.is_signed = false;
  const JoinResult unsigned_truth =
      ExactJoin(planted.data, planted.queries, unsigned_spec, nullptr);
  EXPECT_EQ(unsigned_truth.NumMatched(), 10u);

  JoinSpec signed_spec = unsigned_spec;
  signed_spec.is_signed = true;
  const JoinResult signed_truth =
      ExactJoin(planted.data, planted.queries, signed_spec, nullptr);
  EXPECT_EQ(signed_truth.NumMatched(), 0u);
}

}  // namespace
}  // namespace ips
