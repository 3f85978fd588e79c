// Tests for the quantized two-stage scoring stack (DESIGN.md §13):
// bitwise scalar/AVX2 parity of the int8 kernels (the integer contract
// of kernels.h — EXPECT_EQ, no tolerance), the QuantizedMatrix /
// QuantizeVector code contract, the rigorous ErrorBound (which is what
// makes the LSH bucket-join prefilter lossless), quantized-rerank
// top-k against exact ground truth, the precision support matrix of all
// four indexes (retired precision values included), the sketch index's
// exact fallback, and the two-stage accounting fields.
//
// The CI quant leg runs this same binary twice: once dispatched and
// once under IPS_FORCE_SCALAR=1 (quant_test_scalar in
// tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/query.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/quantized.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"

namespace ips {
namespace {

// Tail coverage for the AVX2 int8 kernel: the 32-wide main loop plus
// every remainder class.
constexpr std::size_t kCodeSizes[] = {1, 2, 3, 7, 8, 15, 16, 17, 31,
                                      32, 33, 63, 64, 65, 100, 128, 257};

std::vector<std::int8_t> RandomCodes(std::size_t n, Rng* rng) {
  std::vector<std::int8_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<std::int8_t>(
        static_cast<int>(rng->NextUint64() % 255) - 127);
  }
  return codes;
}

// int64 reference: exact for any code vectors, so it checks both
// implementations' int32 accumulation under the [-127, 127] contract.
std::int64_t ReferenceDotI8(const std::vector<std::int8_t>& x,
                            const std::vector<std::int8_t>& y) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<std::int64_t>(x[i]) * static_cast<std::int64_t>(y[i]);
  }
  return acc;
}

TEST(QuantKernelTest, ScalarMatchesReferenceExactly) {
  Rng rng(11);
  for (std::size_t n : kCodeSizes) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto x = RandomCodes(n, &rng);
      const auto y = RandomCodes(n, &rng);
      EXPECT_EQ(kernels::ScalarOps().dot_i8(x.data(), y.data(), n),
                ReferenceDotI8(x, y));
    }
  }
}

TEST(QuantKernelTest, Avx2MatchesScalarBitwise) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(12);
  for (std::size_t n : kCodeSizes) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto x = RandomCodes(n, &rng);
      const auto y = RandomCodes(n, &rng);
      // Integer kernels are bitwise identical across implementations —
      // no tolerance, unlike the double kernels.
      EXPECT_EQ(kernels::Avx2Ops().dot_i8(x.data(), y.data(), n),
                kernels::ScalarOps().dot_i8(x.data(), y.data(), n))
          << "n=" << n;
    }
  }
}

TEST(QuantKernelTest, ExtremeCodesDoNotSaturate) {
  // All-(-127) x all-(+127) over the largest supported length is the
  // worst case of the i16 pair-sum pipeline: 2^17 * 127^2 < 2^31.
  const std::size_t n = std::size_t{1} << 17;
  std::vector<std::int8_t> x(n, -127);
  std::vector<std::int8_t> y(n, 127);
  const std::int64_t expected = -static_cast<std::int64_t>(n) * 127 * 127;
  EXPECT_EQ(kernels::ScalarOps().dot_i8(x.data(), y.data(), n), expected);
  if (kernels::Avx2Available()) {
    EXPECT_EQ(kernels::Avx2Ops().dot_i8(x.data(), y.data(), n), expected);
  }
  // Mixed extremes: alternate signs so the maddubs pair sums straddle
  // the positive and negative i16 extremes.
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = (i % 2 == 0) ? 127 : -127;
    y[i] = 127;
  }
  const std::int64_t ref = ReferenceDotI8(x, y);
  EXPECT_EQ(kernels::ScalarOps().dot_i8(x.data(), y.data(), n), ref);
  if (kernels::Avx2Available()) {
    EXPECT_EQ(kernels::Avx2Ops().dot_i8(x.data(), y.data(), n), ref);
  }
}

TEST(QuantKernelTest, ScoreBlockI8MatchesRowwiseDot) {
  Rng rng(13);
  for (std::size_t cols : {3UL, 16UL, 33UL, 64UL}) {
    const std::size_t rows = 37;
    std::vector<std::int8_t> codes;
    for (std::size_t r = 0; r < rows; ++r) {
      const auto row = RandomCodes(cols, &rng);
      codes.insert(codes.end(), row.begin(), row.end());
    }
    const auto q = RandomCodes(cols, &rng);
    std::vector<std::int32_t> scalar_out(rows), avx2_out(rows);
    kernels::ScalarOps().score_block_i8(codes.data(), rows, cols, q.data(),
                                        scalar_out.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(scalar_out[r], kernels::ScalarOps().dot_i8(
                                   codes.data() + r * cols, q.data(), cols));
    }
    if (!kernels::Avx2Available()) continue;
    kernels::Avx2Ops().score_block_i8(codes.data(), rows, cols, q.data(),
                                      avx2_out.data());
    EXPECT_EQ(scalar_out, avx2_out) << "cols=" << cols;
  }
}

TEST(QuantKernelTest, DispatchHonorsForceScalar) {
  const char* forced = std::getenv("IPS_FORCE_SCALAR");
  const bool force = forced != nullptr && std::string_view(forced) != "0" &&
                     std::string_view(forced) != "";
  if (force || !kernels::Avx2Available()) {
    EXPECT_STREQ(kernels::ActiveOps().name, "scalar");
  } else {
    EXPECT_STREQ(kernels::ActiveOps().name, "avx2");
  }
}

// ---------------------------------------------------------------------
// QuantizedMatrix / QuantizeVector contract.
// ---------------------------------------------------------------------

TEST(QuantizedMatrixTest, CodesStayInContractRange) {
  Rng rng(21);
  // Latent-factor data has the norm spread that stresses per-block
  // scales: popular rows are orders of magnitude larger than the tail.
  const Matrix data = MakeLatentFactorVectors(257, 19, 1.0, &rng);
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  ASSERT_EQ(qdata.rows(), data.rows());
  ASSERT_EQ(qdata.cols(), data.cols());
  for (std::size_t r = 0; r < qdata.rows(); ++r) {
    double l1 = 0.0;
    for (std::size_t j = 0; j < qdata.cols(); ++j) {
      const int code = qdata.RowCodes(r)[j];
      EXPECT_GE(code, -127);
      EXPECT_LE(code, 127);
      l1 += std::abs(code);
    }
    EXPECT_EQ(qdata.RowCodeL1(r), l1);
    EXPECT_GE(qdata.RowScale(r), 0.0);
  }
}

TEST(QuantizedMatrixTest, ZeroVectorQuantizesToExactZero) {
  const std::vector<double> zeros(16, 0.0);
  const QuantizedVector q = QuantizeVector(zeros);
  EXPECT_EQ(q.scale, 0.0);
  EXPECT_EQ(q.code_l1, 0.0);
  for (const auto code : q.codes) EXPECT_EQ(code, 0);
}

TEST(QuantizedMatrixTest, QuantizeVectorHitsFullCodeRange) {
  // The max-|entry| coordinate must map to ±127 exactly (symmetric
  // quantization wastes no range).
  const std::vector<double> x = {0.5, -2.0, 1.0, 0.0};
  const QuantizedVector q = QuantizeVector(x);
  EXPECT_EQ(q.codes[1], -127);
  EXPECT_NEAR(q.scale, 2.0 / 127.0, 1e-15);
}

TEST(QuantizedMatrixTest, ErrorBoundIsRigorous) {
  Rng rng(22);
  // Both workload shapes: tight norms and the skewed latent-factor
  // spread. The bound certifying |exact - est| <= ErrorBound is exactly
  // the property the LSH bucket-join prefilter relies on for
  // losslessness, so this test is its correctness certificate.
  for (const Matrix& data :
       {MakeUnitBallGaussian(200, 23, 0.3, &rng),
        MakeLatentFactorVectors(200, 23, 1.2, &rng)}) {
    const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> query(data.cols());
      for (double& v : query) v = rng.NextGaussian() * 3.0;
      const QuantizedVector qq = QuantizeVector(query);
      std::vector<double> est(data.rows());
      qdata.EstimateAll(qq, est);
      for (std::size_t r = 0; r < data.rows(); ++r) {
        const double exact = kernels::Dot(data.Row(r), query);
        const double bound = qdata.ErrorBound(r, qq);
        EXPECT_LE(std::abs(exact - est[r]), bound + 1e-12)
            << "row " << r << " rep " << rep;
      }
    }
  }
}

TEST(QuantizedMatrixTest, EstimateGatheredMatchesEstimateAll) {
  Rng rng(23);
  const Matrix data = MakeUnitBallGaussian(97, 17, 0.3, &rng);
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  std::vector<double> query(data.cols());
  for (double& v : query) v = rng.NextGaussian();
  const QuantizedVector qq = QuantizeVector(query);
  std::vector<double> all(data.rows());
  qdata.EstimateAll(qq, all);
  const std::vector<std::size_t> picks = {0, 5, 31, 32, 33, 96};
  std::vector<double> gathered(picks.size());
  qdata.EstimateGathered(qq, picks, gathered);
  for (std::size_t j = 0; j < picks.size(); ++j) {
    EXPECT_EQ(gathered[j], all[picks[j]]);
  }
}

// ---------------------------------------------------------------------
// Two-stage scoring: rerank quality, recall sweep, accounting.
// ---------------------------------------------------------------------

TEST(TwoStageTest, QuantizedRerankMatchesExactOnSeparatedData) {
  Rng rng(31);
  // Latent-factor norms separate the top-k by far more than the int8
  // rounding error, so the survivor set always contains the true
  // winners and the exact re-rank returns them in exact order.
  const Matrix data = MakeLatentFactorVectors(600, 24, 1.0, &rng);
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  QueryOptions options;
  options.k = 5;
  options.precision = QueryPrecision::kQuantizedRerank;
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<double> query(data.cols());
    for (double& v : query) v = rng.NextGaussian();
    const auto exact = TopKBruteForce(data, query, options.k, true);
    const auto reranked = QueryQuantizedRerank(data, qdata, query, options);
    ASSERT_EQ(reranked.size(), exact.size());
    for (std::size_t j = 0; j < exact.size(); ++j) {
      EXPECT_EQ(reranked[j].index, exact[j].index) << "rep " << rep;
      // Survivor scores come from the exact re-rank, not the estimate.
      EXPECT_DOUBLE_EQ(reranked[j].value, exact[j].value);
    }
  }
}

TEST(TwoStageTest, TwoStageStatsAndMetricsArePopulated) {
  Rng rng(33);
  const Matrix data = MakeUnitBallGaussian(500, 20, 0.3, &rng);
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  std::vector<double> query(data.cols());
  for (double& v : query) v = rng.NextGaussian();

  QueryOptions options;
  options.k = 3;
  QueryStats quant_stats;
  (void)QueryQuantizedRerank(data, qdata, query, options, &quant_stats);
  // 500 rows, survivor set max(3*4, 32) = 32: 468 pruned, 32 reranked.
  EXPECT_GT(quant_stats.candidates_pruned, 0U);
  EXPECT_GE(quant_stats.rerank_exact_dots, options.k);
  EXPECT_EQ(quant_stats.candidates_pruned + quant_stats.rerank_exact_dots,
            data.rows());
  // Estimate pass billed at the static dot-equivalent rate.
  EXPECT_LT(quant_stats.dot_products, data.rows());
  EXPECT_EQ(quant_stats.metrics.Get("core.quant.candidates_pruned"),
            quant_stats.candidates_pruned);
  EXPECT_EQ(quant_stats.metrics.Get("core.quant.rerank_dots"),
            quant_stats.rerank_exact_dots);
}

TEST(TwoStageTest, SurvivorCountPolicy) {
  // max(ceil(k * 4), 32), capped by budget (never below k) and by n.
  EXPECT_EQ(SurvivorCount(3, 1000, 0), 32U);
  EXPECT_EQ(SurvivorCount(20, 1000, 0), 80U);
  EXPECT_EQ(SurvivorCount(20, 50, 0), 50U);    // capped by n
  EXPECT_EQ(SurvivorCount(20, 1000, 40), 40U); // capped by budget
  EXPECT_EQ(SurvivorCount(20, 1000, 5), 20U);  // never below k
}

// ---------------------------------------------------------------------
// Precision support matrix across the four indexes.
// ---------------------------------------------------------------------

class PrecisionMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(41);
    data_ = MakeUnitBallGaussian(300, 16, 0.3, &rng);
    query_.resize(data_.cols());
    for (double& v : query_) v = rng.NextGaussian();
  }

  QueryOptions With(QueryPrecision precision, std::size_t k = 3,
                    bool is_signed = true) const {
    QueryOptions options;
    options.k = k;
    options.is_signed = is_signed;
    options.precision = precision;
    return options;
  }

  Matrix data_;
  std::vector<double> query_;
};

TEST_F(PrecisionMatrixTest, BruteAnswersExactAndQuant) {
  const auto index = BruteForceIndex::Create(data_);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kAuto)).ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kExact)).ok());
  EXPECT_TRUE(
      (*index)->Query(query_, With(QueryPrecision::kQuantizedRerank)).ok());
}

TEST_F(PrecisionMatrixTest, BruteQuantRerankEqualsExactScores) {
  const auto index = BruteForceIndex::Create(data_);
  ASSERT_TRUE(index.ok());
  const auto quant =
      (*index)->Query(query_, With(QueryPrecision::kQuantizedRerank));
  ASSERT_TRUE(quant.ok());
  ASSERT_FALSE(quant->empty());
  for (const auto& match : *quant) {
    // Whatever the selection, every returned score is an exact dot —
    // the re-rank never reports the int8 estimate.
    EXPECT_DOUBLE_EQ(match.value,
                     kernels::Dot(data_.Row(match.index), query_));
  }
}

TEST_F(PrecisionMatrixTest, TreeIsExactOnly) {
  Rng rng(42);
  const auto index = TreeMipsIndex::Create(data_, 16, &rng);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kAuto)).ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kExact)).ok());
  const auto result =
      (*index)->Query(query_, With(QueryPrecision::kQuantizedRerank));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PrecisionMatrixTest, LshAnswersExactAndQuant) {
  Rng rng(43);
  const SimpleMipsTransform transform(data_.cols(), 1.0);
  const SimHashFamily family(transform.output_dim());
  LshTableParams params;
  params.k = 6;
  params.l = 24;
  const auto index =
      LshMipsIndex::Create(data_, &transform, family, params, &rng);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kAuto)).ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kExact)).ok());
  EXPECT_TRUE(
      (*index)->Query(query_, With(QueryPrecision::kQuantizedRerank)).ok());
}

TEST_F(PrecisionMatrixTest, SketchAnswersAutoNotExactOrQuant) {
  Rng rng(44);
  const auto index = SketchIndex::Create(data_, SketchMipsParams{}, &rng);
  ASSERT_TRUE(index.ok());
  // kAuto: signed k=3 runs the exact fallback scan; unsigned k=1
  // descends the argmax tree. Both must answer.
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kAuto)).ok());
  EXPECT_TRUE(
      (*index)
          ->Query(query_, With(QueryPrecision::kAuto, 1, /*is_signed=*/false))
          .ok());
  for (const QueryPrecision rejected :
       {QueryPrecision::kExact, QueryPrecision::kQuantizedRerank}) {
    const auto result = (*index)->Query(query_, With(rejected));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

// Bitwise equality of two answers: indices, score bits, and order.
void ExpectBitwiseEqual(const std::vector<SearchMatch>& got,
                        const std::vector<SearchMatch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(got[j].index, want[j].index) << "rank " << j;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j].value),
              std::bit_cast<std::uint64_t>(want[j].value))
        << "rank " << j;
  }
}

TEST_F(PrecisionMatrixTest, SketchFallbackEqualsBruteForceBitwise) {
  // Duplicated and negated rows put exact ties into every top-k, so the
  // tie order (index ascending) is checked along with the scores.
  Matrix data = data_;
  for (const std::size_t dup : {40, 120, 250}) {
    for (std::size_t j = 0; j < data.cols(); ++j) {
      data.At(dup, j) = data.At(7, j);
      data.At(dup + 1, j) = -data.At(7, j);
    }
  }
  Rng rng(46);
  Matrix queries(5, data.cols());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    for (std::size_t j = 0; j < queries.cols(); ++j) {
      queries.At(qi, j) = qi == 0 ? data.At(7, j) : rng.NextGaussian();
    }
  }
  const auto index = SketchIndex::Create(data, SketchMipsParams{}, &rng);
  ASSERT_TRUE(index.ok());
  struct Shape {
    std::size_t k;
    bool is_signed;
  };
  for (const Shape shape : {Shape{1, true}, Shape{5, true}, Shape{5, false}}) {
    SCOPED_TRACE(testing::Message() << "k=" << shape.k
                                    << " signed=" << shape.is_signed);
    const QueryOptions options =
        With(QueryPrecision::kAuto, shape.k, shape.is_signed);
    const auto batch = (*index)->BatchQuery(queries, options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), queries.rows());
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const auto want =
          TopKBruteForce(data, queries.Row(qi), shape.k, shape.is_signed);
      QueryStats stats;
      const auto single = (*index)->Query(queries.Row(qi), options, &stats);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      ExpectBitwiseEqual(*single, want);
      ExpectBitwiseEqual((*batch)[qi].matches, want);
      EXPECT_EQ(stats.algorithm, QueryAlgo::kSketch);
      EXPECT_EQ(stats.dot_products, data.rows());
      EXPECT_FALSE(stats.metrics.Has("sketch.levels"));
    }
  }
}

TEST_F(PrecisionMatrixTest, RetiredPrecisionValuesAreRejected) {
  Rng rng(47);
  Matrix queries(2, data_.cols());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    for (std::size_t j = 0; j < queries.cols(); ++j) {
      queries.At(qi, j) = rng.NextGaussian();
    }
  }
  const auto brute = BruteForceIndex::Create(data_);
  ASSERT_TRUE(brute.ok());
  const auto tree = TreeMipsIndex::Create(data_, 16, &rng);
  ASSERT_TRUE(tree.ok());
  const SimpleMipsTransform transform(data_.cols(), 1.0);
  const SimHashFamily family(transform.output_dim());
  LshTableParams params;
  params.k = 6;
  params.l = 24;
  const auto lsh =
      LshMipsIndex::Create(data_, &transform, family, params, &rng);
  ASSERT_TRUE(lsh.ok());
  const auto sketch = SketchIndex::Create(data_, SketchMipsParams{}, &rng);
  ASSERT_TRUE(sketch.ok());
  const MipsIndex* const indexes[] = {brute->get(), tree->get(), lsh->get(),
                                      sketch->get()};
  // 3 was the deleted sketch-filter precision; 7 was never a value.
  for (const int raw : {3, 7}) {
    SCOPED_TRACE(testing::Message() << "precision " << raw);
    const QueryPrecision retired = static_cast<QueryPrecision>(raw);
    for (const bool is_signed : {true, false}) {
      const QueryOptions options = With(retired, 1, is_signed);
      EXPECT_EQ(ValidateQueryOptions(options).code(),
                StatusCode::kInvalidArgument);
      for (const MipsIndex* index : indexes) {
        SCOPED_TRACE(index->Name());
        EXPECT_EQ(index->Query(query_, options).status().code(),
                  StatusCode::kInvalidArgument);
        EXPECT_EQ(index->BatchQuery(queries, options).status().code(),
                  StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST_F(PrecisionMatrixTest, BatchQueryEnforcesTheSameMatrix) {
  Rng rng(45);
  Matrix queries(4, data_.cols());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    for (std::size_t j = 0; j < queries.cols(); ++j) {
      queries.At(qi, j) = rng.NextGaussian();
    }
  }
  const auto brute = BruteForceIndex::Create(data_);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(
      (*brute)->BatchQuery(queries, With(QueryPrecision::kQuantizedRerank))
          .ok());
  const auto tree = TreeMipsIndex::Create(data_, 16, &rng);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(
      (*tree)->BatchQuery(queries, With(QueryPrecision::kQuantizedRerank))
          .ok());
  const auto sketch = SketchIndex::Create(data_, SketchMipsParams{}, &rng);
  ASSERT_TRUE(sketch.ok());
  EXPECT_FALSE(
      (*sketch)->BatchQuery(queries, With(QueryPrecision::kExact)).ok());
  EXPECT_TRUE(
      (*sketch)->BatchQuery(queries, With(QueryPrecision::kAuto)).ok());
}

}  // namespace
}  // namespace ips
