// Tests for linalg/kernels: scalar/AVX2 parity of every dispatched
// primitive (dot, matvec, score_block) on random, denormal-adjacent,
// and signed-zero inputs; the TopKHeap ordering contract; the tiled
// BlockTopK driver against a naive reference; and the batched popcount
// kernels against the BitMatrix/SignMatrix scalar paths.
//
// Numerics contract under test (kernels.h header comment): the scalar
// and AVX2 implementations agree to rounding, not bitwise — every
// cross-implementation comparison here uses a relative tolerance scaled
// by the magnitude of the accumulated products. The CI scalar leg runs
// this same binary under IPS_FORCE_SCALAR=1 (see tests/CMakeLists.txt),
// where the dispatch tests below assert the pin took effect.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "linalg/bit_matrix.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "rng/random.h"

namespace ips {
namespace {

// Sizes chosen to exercise every tail path of the AVX2 kernels: the
// 16-wide main loop, the 4-wide secondary loop, and the scalar tail.
constexpr std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 15, 16, 17,
                                  19, 31, 32, 33, 63, 64, 100, 128};

std::vector<double> RandomVector(std::size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->NextGaussian();
  return v;
}

// Values straddling the normal/denormal boundary plus exact signed
// zeros, stressing underflow handling and -0.0 + 0.0 behavior.
std::vector<double> DenormalAdjacentVector(std::size_t n, Rng* rng) {
  const double tiny = std::numeric_limits<double>::min();  // DBL_MIN
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0: v[i] = tiny * rng->NextDouble();             break;  // denormal
      case 1: v[i] = -tiny * (1.0 + rng->NextDouble());    break;  // near-min
      case 2: v[i] = 0.0;                               break;
      case 3: v[i] = -0.0;                              break;
      default: v[i] = rng->NextGaussian();                  break;  // normal
    }
  }
  return v;
}

// High-precision reference inner product (long double accumulator).
long double ReferenceDot(const std::vector<double>& x,
                         const std::vector<double>& y) {
  long double acc = 0.0L;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<long double>(x[i]) * static_cast<long double>(y[i]);
  }
  return acc;
}

// Magnitude scale of the accumulation, for relative tolerance: the sum
// of |x_i * y_i| bounds how much any reassociation can move the result.
double DotScale(const std::vector<double>& x, const std::vector<double>& y) {
  double scale = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) scale += std::abs(x[i] * y[i]);
  return scale;
}

// |a - b| within ~16 ULP of the accumulation magnitude (generous for
// reassociated FMA sums, tight enough to catch any real kernel bug).
void ExpectUlpClose(double a, double b, double scale) {
  const double tol =
      16.0 * std::numeric_limits<double>::epsilon() * scale +
      1e-300;  // absolute floor for all-denormal accumulations
  EXPECT_NEAR(a, b, tol) << "scale=" << scale;
}

TEST(Dispatch, ActiveTableMatchesEnvironment) {
  const char* env = std::getenv("IPS_FORCE_SCALAR");
  const bool forced =
      env != nullptr && env[0] != '\0' && std::string(env) != "0";
  EXPECT_EQ(kernels::ForceScalar(), forced);
  if (forced || !kernels::Avx2Available()) {
    EXPECT_STREQ(kernels::ActiveOps().name, "scalar");
    EXPECT_STREQ(kernels::ActiveIsaName(), "scalar");
  } else {
    EXPECT_STREQ(kernels::ActiveOps().name, "avx2");
    EXPECT_STREQ(kernels::ActiveIsaName(), "avx2");
  }
  EXPECT_STREQ(kernels::ScalarOps().name, "scalar");
}

TEST(Dispatch, WrappersUseActiveTable) {
  Rng rng(1);
  const auto x = RandomVector(33, &rng);
  const auto y = RandomVector(33, &rng);
  EXPECT_EQ(kernels::Dot(x, y),
            kernels::ActiveOps().dot(x.data(), y.data(), x.size()));
}

class DotParityTest : public ::testing::Test {
 protected:
  void CheckAllSizes(std::vector<double> (*make)(std::size_t, Rng*)) {
    Rng rng(7);
    for (const std::size_t n : kSizes) {
      const auto x = make(n, &rng);
      const auto y = make(n, &rng);
      const double scale = DotScale(x, y);
      const double reference = static_cast<double>(ReferenceDot(x, y));
      const double scalar =
          kernels::ScalarOps().dot(x.data(), y.data(), n);
      ExpectUlpClose(scalar, reference, scale);
      if (kernels::Avx2Available()) {
        const double avx2 =
            kernels::Avx2Ops().dot(x.data(), y.data(), n);
        ExpectUlpClose(avx2, reference, scale);
        ExpectUlpClose(avx2, scalar, scale);
      }
    }
  }
};

TEST_F(DotParityTest, RandomInputs) { CheckAllSizes(RandomVector); }

TEST_F(DotParityTest, DenormalAdjacentInputs) {
  CheckAllSizes(DenormalAdjacentVector);
}

TEST(DotParityTest2, SignedZeroInputs) {
  // All-zero vectors with mixed signs: every implementation must return
  // an exact zero, not a NaN or a stray sign artifact.
  for (const std::size_t n : kSizes) {
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = (i % 2 == 0) ? 0.0 : -0.0;
      y[i] = (i % 3 == 0) ? -0.0 : 0.0;
    }
    EXPECT_EQ(kernels::ScalarOps().dot(x.data(), y.data(), n), 0.0);
    if (kernels::Avx2Available()) {
      EXPECT_EQ(kernels::Avx2Ops().dot(x.data(), y.data(), n), 0.0);
    }
  }
}

TEST(MatVecParity, AgreesAcrossImplementationsAndWithDot) {
  Rng rng(11);
  for (const std::size_t cols : {3u, 16u, 33u}) {
    const std::size_t rows = 17;
    Matrix data(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (double& v : data.Row(i)) v = rng.NextGaussian();
    }
    const auto q = RandomVector(cols, &rng);
    std::vector<double> scalar_out(rows), avx2_out(rows);
    kernels::ScalarOps().matvec(data.Row(0).data(), rows, cols, q.data(),
                                scalar_out.data());
    for (std::size_t i = 0; i < rows; ++i) {
      // Contract: matvec row r is that implementation's dot of row r.
      EXPECT_EQ(scalar_out[i], kernels::ScalarOps().dot(
                                   data.Row(i).data(), q.data(), cols));
    }
    if (!kernels::Avx2Available()) continue;
    kernels::Avx2Ops().matvec(data.Row(0).data(), rows, cols, q.data(),
                              avx2_out.data());
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(avx2_out[i], kernels::Avx2Ops().dot(data.Row(i).data(),
                                                    q.data(), cols));
      std::vector<double> xi(data.Row(i).begin(), data.Row(i).end());
      ExpectUlpClose(avx2_out[i], scalar_out[i], DotScale(xi, q));
    }
  }
}

TEST(ScoreBlockParity, MatchesPerPairDotWithinTolerance) {
  Rng rng(13);
  // Rows and query counts around the 2x4 register tile: tails on both
  // axes, plus a q_stride wider than cols (queries inside a larger
  // matrix) and an out_stride wider than rows.
  for (const std::size_t rows : {1u, 2u, 3u, 8u}) {
    for (const std::size_t num_q : {1u, 3u, 4u, 5u, 9u}) {
      const std::size_t cols = 19;
      const std::size_t q_stride = cols + 5;
      const std::size_t out_stride = rows + 2;
      std::vector<double> data(rows * cols);
      std::vector<double> queries(num_q * q_stride);
      for (double& v : data) v = rng.NextGaussian();
      for (double& v : queries) v = rng.NextGaussian();

      std::vector<double> out(num_q * out_stride, -1.0);
      kernels::ScalarOps().score_block(data.data(), rows, cols,
                                       queries.data(), num_q, q_stride,
                                       out.data(), out_stride);
      for (std::size_t qi = 0; qi < num_q; ++qi) {
        for (std::size_t r = 0; r < rows; ++r) {
          // Scalar score_block is the scalar dot, bitwise (this exactness
          // is what makes BatchQuery == N x Query under IPS_FORCE_SCALAR).
          EXPECT_EQ(out[qi * out_stride + r],
                    kernels::ScalarOps().dot(data.data() + r * cols,
                                             queries.data() + qi * q_stride,
                                             cols));
        }
      }

      if (!kernels::Avx2Available()) continue;
      std::vector<double> avx2_out(num_q * out_stride, -1.0);
      kernels::Avx2Ops().score_block(data.data(), rows, cols,
                                     queries.data(), num_q, q_stride,
                                     avx2_out.data(), out_stride);
      for (std::size_t qi = 0; qi < num_q; ++qi) {
        for (std::size_t r = 0; r < rows; ++r) {
          std::vector<double> xr(data.begin() + r * cols,
                                 data.begin() + (r + 1) * cols);
          std::vector<double> yq(queries.begin() + qi * q_stride,
                                 queries.begin() + qi * q_stride + cols);
          ExpectUlpClose(avx2_out[qi * out_stride + r],
                         out[qi * out_stride + r], DotScale(xr, yq));
        }
      }
    }
  }
}

TEST(TopKHeap, KeepsBestKWithDeterministicTieBreak) {
  kernels::TopKHeap heap(3);
  heap.Push(5, 1.0);
  heap.Push(2, 2.0);
  heap.Push(9, 2.0);  // ties with index 2: larger index is worse
  heap.Push(1, 0.5);
  heap.Push(0, 3.0);
  const auto sorted = heap.TakeSorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].index, 0u);
  EXPECT_EQ(sorted[0].value, 3.0);
  EXPECT_EQ(sorted[1].index, 2u);  // tie broken toward the smaller index
  EXPECT_EQ(sorted[2].index, 9u);
  EXPECT_EQ(sorted[2].value, 2.0);
}

TEST(TopKHeap, AcceptsIsConsistentWithPush) {
  kernels::TopKHeap heap(2);
  EXPECT_TRUE(heap.Accepts(0.0, 100));  // under capacity: everything enters
  heap.Push(4, 1.0);
  heap.Push(7, 2.0);
  EXPECT_FALSE(heap.Accepts(0.5, 0));   // worse than the current 2nd best
  EXPECT_FALSE(heap.Accepts(1.0, 5));   // equal value, larger index
  EXPECT_TRUE(heap.Accepts(1.0, 3));    // equal value, smaller index
  EXPECT_TRUE(heap.Accepts(1.5, 99));
  heap.Push(3, 1.0);
  const auto sorted = heap.TakeSorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].index, 7u);
  EXPECT_EQ(sorted[1].index, 3u);
}

// Naive reference for BlockTopK: score every (row, query) pair with the
// active implementation's Dot and keep top-k with the same ordering.
std::vector<std::vector<SearchMatch>> NaiveTopK(
    const Matrix& data, std::size_t row_begin, std::size_t row_end,
    const Matrix& queries, bool absolute, std::size_t k,
    std::size_t index_offset) {
  std::vector<std::vector<SearchMatch>> out(queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    kernels::TopKHeap heap(k);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      double value = kernels::Dot(data.Row(r), queries.Row(qi));
      if (absolute) value = std::abs(value);
      heap.Push(r + index_offset, value);
    }
    out[qi] = heap.TakeSorted();
  }
  return out;
}

TEST(BlockTopK, MatchesNaiveReference) {
  Rng rng(17);
  // 150 rows x 11 queries: crosses the 64-row and 8-query tile
  // boundaries with ragged tails on both axes.
  const std::size_t n = 150, m = 11, d = 23, k = 5;
  Matrix data(n, d), queries(m, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : data.Row(i)) v = rng.NextGaussian();
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (double& v : queries.Row(i)) v = rng.NextGaussian();
  }
  for (const bool absolute : {false, true}) {
    std::vector<kernels::TopKHeap> heaps(m, kernels::TopKHeap(k));
    kernels::BlockTopK(data, queries, absolute, heaps);
    const auto expected = NaiveTopK(data, 0, n, queries, absolute, k, 0);
    for (std::size_t qi = 0; qi < m; ++qi) {
      const auto got = heaps[qi].TakeSorted();
      ASSERT_EQ(got.size(), expected[qi].size());
      for (std::size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].index, expected[qi][j].index)
            << "absolute=" << absolute << " qi=" << qi << " j=" << j;
        std::vector<double> xr(data.Row(got[j].index).begin(),
                               data.Row(got[j].index).end());
        std::vector<double> yq(queries.Row(qi).begin(),
                               queries.Row(qi).end());
        ExpectUlpClose(got[j].value, expected[qi][j].value,
                       DotScale(xr, yq));
      }
    }
  }
}

TEST(BlockTopK, HonorsRowRangeAndIndexOffset) {
  Rng rng(19);
  const std::size_t n = 90, m = 3, d = 8, k = 4;
  Matrix data(n, d), queries(m, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : data.Row(i)) v = rng.NextGaussian();
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (double& v : queries.Row(i)) v = rng.NextGaussian();
  }
  // Score rows [20, 70) shifted into a global id space: row r reports
  // as r + offset (the sharded usage, where `data` is one shard of a
  // larger logical matrix).
  const std::size_t begin = 20, end = 70, offset = 1000;
  std::vector<kernels::TopKHeap> heaps(m, kernels::TopKHeap(k));
  kernels::BlockTopK(data, begin, end, queries, /*absolute=*/false,
                     heaps, offset);
  const auto expected =
      NaiveTopK(data, begin, end, queries, false, k, offset);
  for (std::size_t qi = 0; qi < m; ++qi) {
    const auto got = heaps[qi].TakeSorted();
    ASSERT_EQ(got.size(), k);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(got[j].index, expected[qi][j].index);
      EXPECT_GE(got[j].index, offset + begin);
      EXPECT_LT(got[j].index, offset + end);
    }
  }
}

TEST(BlockTopK, ScalarPathIsBitwiseEqualToDot) {
  // Under the scalar table, the tile scorer is DotScalar itself, so the
  // tiled path must be bitwise identical to per-query scoring. This is
  // the exactness the IPS_FORCE_SCALAR equivalence leg relies on.
  if (std::string(kernels::ActiveOps().name) != "scalar") {
    GTEST_SKIP() << "active ISA is " << kernels::ActiveIsaName();
  }
  Rng rng(23);
  const std::size_t n = 100, m = 6, d = 13, k = 3;
  Matrix data(n, d), queries(m, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : data.Row(i)) v = rng.NextGaussian();
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (double& v : queries.Row(i)) v = rng.NextGaussian();
  }
  std::vector<kernels::TopKHeap> heaps(m, kernels::TopKHeap(k));
  kernels::BlockTopK(data, queries, /*absolute=*/false, heaps);
  for (std::size_t qi = 0; qi < m; ++qi) {
    const auto got = heaps[qi].TakeSorted();
    for (const auto& match : got) {
      EXPECT_EQ(match.value,
                kernels::Dot(data.Row(match.index), queries.Row(qi)));
    }
  }
}

TEST(PopcountKernels, AndPopcountManyMatchesBitMatrix) {
  Rng rng(29);
  const std::size_t rows = 37, cols = 150;  // 3 words/row, ragged tail
  BitMatrix data(rows, cols);
  BitMatrix query(1, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      data.Set(i, j, rng.NextDouble() < 0.5);
    }
  }
  for (std::size_t j = 0; j < cols; ++j) {
    query.Set(0, j, rng.NextDouble() < 0.5);
  }
  std::vector<std::uint32_t> out(rows, 0);
  kernels::AndPopcountMany(query.WordsFor(0).data(),
                           data.WordsFor(0).data(), data.words_per_row(),
                           rows, out.data());
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint32_t expected = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      expected += (data.Get(i, j) && query.Get(0, j)) ? 1 : 0;
    }
    EXPECT_EQ(out[i], expected) << "row " << i;
  }
}

TEST(PopcountKernels, SignDotManyMatchesBitwiseReference) {
  Rng rng(31);
  const std::size_t rows = 21, cols = 130;  // 3 words/row, ragged tail
  const std::size_t words_per_row = (cols + 63) / 64;
  // Packed {-1,+1} rows, SignMatrix convention: bit set = +1. Tail bits
  // beyond `cols` stay zero, as the kernel contract requires.
  std::vector<std::uint64_t> data(rows * words_per_row, 0);
  std::vector<std::uint64_t> query(words_per_row, 0);
  auto set_bit = [](std::vector<std::uint64_t>* words, std::size_t base,
                    std::size_t j) {
    (*words)[base + (j >> 6)] |= 1ULL << (j & 63);
  };
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.NextSign() > 0) set_bit(&data, i * words_per_row, j);
    }
  }
  for (std::size_t j = 0; j < cols; ++j) {
    if (rng.NextSign() > 0) set_bit(&query, 0, j);
  }
  std::vector<std::int64_t> out(rows, 0);
  kernels::SignDotMany(query.data(), data.data(), words_per_row, rows, cols,
                       out.data());
  auto sign_at = [&](const std::vector<std::uint64_t>& words,
                     std::size_t base, std::size_t j) {
    return ((words[base + (j >> 6)] >> (j & 63)) & 1ULL) ? 1 : -1;
  };
  for (std::size_t i = 0; i < rows; ++i) {
    std::int64_t expected = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      expected += sign_at(query, 0, j) * sign_at(data, i * words_per_row, j);
    }
    EXPECT_EQ(out[i], expected) << "row " << i;
  }
}

TEST(VectorOps, NormAndCosineBasics) {
  // The migrated vector-op surface still honors its old contracts.
  const std::vector<double> x = {3.0, 4.0};
  const std::vector<double> y = {4.0, -3.0};
  EXPECT_DOUBLE_EQ(kernels::Norm(x), 5.0);
  EXPECT_DOUBLE_EQ(kernels::SquaredDistance(x, y), 1.0 + 49.0);
  EXPECT_DOUBLE_EQ(kernels::CosineSimilarity(x, y), 0.0);
  EXPECT_DOUBLE_EQ(kernels::LInfNorm(y), 4.0);
  auto unit = kernels::Normalized(x);
  EXPECT_NEAR(kernels::Norm(unit), 1.0, 1e-12);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_EQ(kernels::CosineSimilarity(x, zero), 0.0);
  EXPECT_EQ(kernels::Normalized(zero), zero);
}

}  // namespace
}  // namespace ips
