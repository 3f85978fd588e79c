// Tests for linalg/kernels: the exact-score kernels (the row-lane
// score_rows behind MatVec, GatherScores and Score, and BlockTopK on the
// plane-lane project_block) against a test-local fma chain; the split
// dot against a long-double reference; the TopKHeap ordering contract;
// BlockTopK against a naive reference; and the batched popcount kernels
// against the BitMatrix/SignMatrix scalar paths.
//
// Numerics contract under test (kernels.h header comment): every exact
// score is one fma chain in ascending column order from +0.0, bitwise
// the same under both tables, so those checks use EXPECT_EQ. Only the
// split dot rounds apart by table; its checks use a relative tolerance
// scaled by the magnitude of the accumulated products. The CI scalar
// leg runs this same binary under IPS_FORCE_SCALAR=1 (see
// tests/CMakeLists.txt), where the dispatch tests below assert the pin
// took effect.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
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

// The exact-score contract: acc = fma(x[j], y[j], acc) from +0.0,
// ascending j.
double FmaChain(std::span<const double> x, std::span<const double> y) {
  double acc = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) acc = std::fma(x[j], y[j], acc);
  return acc;
}

void ExpectSameBits(double got, double want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << got << " vs " << want;
}

// Rows that stress the chain: Gaussians; the integer tie-order corpus
// (coordinates in [-3, 3], each row followed by its copy and its
// negation); zero rows of both signs; rows mixing subnormal with huge
// finite entries (no chain overflows); and a row of subnormals.
Matrix StressRows(std::size_t dim, Rng* rng) {
  Matrix rows(0, dim);
  std::vector<double> row(dim);
  for (int i = 0; i < 6; ++i) {
    for (double& v : row) v = rng->NextGaussian();
    rows.AppendRow(row);
  }
  for (int i = 0; i < 3; ++i) {
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
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (int i = 0; i < 2; ++i) {
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
  for (std::size_t j = 0; j < dim; ++j) {
    row[j] = tiny * static_cast<double>(rng->NextInt(-9, 9));
  }
  rows.AppendRow(row);
  return rows;
}

TEST(ScoreRowsTest, BothTablesAreBitwiseEqualToTheFmaChain) {
  Rng rng(13);
  std::vector<const kernels::KernelOps*> tables = {&kernels::ScalarOps()};
  if (kernels::Avx2Available()) tables.push_back(&kernels::Avx2Ops());
  for (const std::size_t cols : {1u, 3u, 5u, 13u, 19u}) {
    const Matrix data = StressRows(cols, &rng);
    // Queries: a Gaussian, an integer row, a signed zero and one mixing
    // subnormal with ones.
    std::vector<std::vector<double>> queries(4, std::vector<double>(cols));
    for (std::size_t j = 0; j < cols; ++j) {
      queries[0][j] = rng.NextGaussian();
      queries[1][j] = static_cast<double>(rng.NextInt(-3, 3));
      queries[2][j] = j % 2 == 0 ? -0.0 : 0.0;
      queries[3][j] = j % 2 == 0 ? 1.0 : std::numeric_limits<double>::min();
    }
    // Row counts on both sides of the AVX2 kernel's four-lane groups
    // and its 16-lane batch (four groups of four), plus one full batch
    // with no tail; the index lists repeat and reverse rows.
    for (const std::size_t count : {1u, 3u, 5u, 13u, 16u, 19u}) {
      std::vector<std::size_t> indices(count);
      for (std::size_t j = 0; j < count; ++j) {
        indices[j] = (data.rows() - 1 - 3 * j) % data.rows();
      }
      for (const auto* ops : tables) {
        for (const auto& q : queries) {
          SCOPED_TRACE(std::string(ops->name) + " cols " +
                       std::to_string(cols) + " count " +
                       std::to_string(count));
          std::vector<double> contiguous(count), gathered(count);
          ops->score_rows(data.raw(), cols, nullptr, count, q.data(),
                          contiguous.data());
          ops->score_rows(data.raw(), cols, indices.data(), count, q.data(),
                          gathered.data());
          for (std::size_t j = 0; j < count; ++j) {
            ExpectSameBits(contiguous[j], FmaChain(data.Row(j), q));
            ExpectSameBits(gathered[j], FmaChain(data.Row(indices[j]), q));
          }
        }
      }
    }
  }
}

TEST(ScoreRowsTest, WrappersAreTheChain) {
  Rng rng(15);
  const Matrix data = StressRows(23, &rng);
  const auto q = RandomVector(23, &rng);
  std::vector<double> all(data.rows());
  kernels::MatVec(data, q, all);
  const std::vector<std::size_t> indices = {4, 0, 4, 17};
  std::vector<double> gathered(indices.size());
  kernels::GatherScores(data, indices, q, gathered);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    ExpectSameBits(all[r], FmaChain(data.Row(r), q));
    ExpectSameBits(kernels::Score(data.Row(r), q), all[r]);
  }
  for (std::size_t j = 0; j < indices.size(); ++j) {
    ExpectSameBits(gathered[j], all[indices[j]]);
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

// Naive reference for BlockTopK: score every (row, query) pair with
// the exact Score and keep top-k with the same ordering.
std::vector<std::vector<SearchMatch>> NaiveTopK(
    const Matrix& data, std::size_t row_begin, std::size_t row_end,
    const Matrix& queries, bool absolute, std::size_t k,
    std::size_t index_offset) {
  std::vector<std::vector<SearchMatch>> out(queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    kernels::TopKHeap heap(k);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      double value = kernels::Score(data.Row(r), queries.Row(qi));
      if (absolute) value = std::abs(value);
      heap.Push(r + index_offset, value);
    }
    out[qi] = heap.TakeSorted();
  }
  return out;
}

TEST(BlockTopK, MatchesNaiveReference) {
  Rng rng(17);
  // 150 rows x 53 queries: crosses the 64-row and 48-query tile
  // boundaries with ragged tails on both axes.
  const std::size_t n = 150, m = 53, d = 23, k = 5;
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
        ExpectSameBits(got[j].value, expected[qi][j].value);
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

TEST(BlockTopK, ScoresAreTheFmaChainOnEitherTable) {
  // The tiled path scores with project_block over the packed queries,
  // the per-query path with score_rows: both are the one chain, so the
  // tiled answers are bitwise the per-query ones whichever table is
  // active (the BatchQuery == N x Query contract rests on this).
  Rng rng(23);
  const std::size_t m = 6, d = 13, k = 3;
  const Matrix data = StressRows(d, &rng);
  Matrix queries(m, d);
  for (std::size_t i = 0; i < m; ++i) {
    for (double& v : queries.Row(i)) v = rng.NextGaussian();
  }
  std::vector<kernels::TopKHeap> heaps(m, kernels::TopKHeap(k));
  kernels::BlockTopK(data, queries, /*absolute=*/false, heaps);
  for (std::size_t qi = 0; qi < m; ++qi) {
    for (const auto& match : heaps[qi].TakeSorted()) {
      ExpectSameBits(match.value,
                     FmaChain(data.Row(match.index), queries.Row(qi)));
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
