#include "linalg/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace ips {
namespace kernels {

// ---------------------------------------------------------------------
// Scalar implementations.
// ---------------------------------------------------------------------
namespace {

double DotScalar(const double* x, const double* y, std::size_t n) {
  // Four interleaved accumulators give the compiler room to vectorize
  // without reassociating a single serial chain; the AVX2 path keeps
  // the same lane grouping so the two stay within rounding of each
  // other.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += x[i] * y[i];
    acc1 += x[i + 1] * y[i + 1];
    acc2 += x[i + 2] * y[i + 2];
    acc3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) acc0 += x[i] * y[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void MatVecScalar(const double* data, std::size_t rows, std::size_t cols,
                  const double* q, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = DotScalar(data + r * cols, q, cols);
  }
}

void ScoreBlockScalar(const double* data, std::size_t rows,
                      std::size_t cols, const double* queries,
                      std::size_t num_q, std::size_t q_stride, double* out,
                      std::size_t out_stride) {
  for (std::size_t qi = 0; qi < num_q; ++qi) {
    const double* q = queries + qi * q_stride;
    double* row_out = out + qi * out_stride;
    for (std::size_t r = 0; r < rows; ++r) {
      row_out[r] = DotScalar(data + r * cols, q, cols);
    }
  }
}

std::int32_t DotI8Scalar(const std::int8_t* x, const std::int8_t* y,
                         std::size_t n) {
  // Same four-lane interleave as DotScalar; integer adds associate
  // freely, so the result is exact regardless of grouping and matches
  // the AVX2 pipeline bit for bit.
  std::int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<std::int32_t>(x[i]) * y[i];
    acc1 += static_cast<std::int32_t>(x[i + 1]) * y[i + 1];
    acc2 += static_cast<std::int32_t>(x[i + 2]) * y[i + 2];
    acc3 += static_cast<std::int32_t>(x[i + 3]) * y[i + 3];
  }
  for (; i < n; ++i) acc0 += static_cast<std::int32_t>(x[i]) * y[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void ScoreBlockI8Scalar(const std::int8_t* codes, std::size_t rows,
                        std::size_t cols, const std::int8_t* q,
                        std::int32_t* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = DotI8Scalar(codes + r * cols, q, cols);
  }
}

}  // namespace

const KernelOps& ScalarOps() {
  static const KernelOps ops = {"scalar",          &DotScalar,
                                &MatVecScalar,     &ScoreBlockScalar,
                                &DotI8Scalar,      &ScoreBlockI8Scalar};
  return ops;
}

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

bool Avx2Available() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool available =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return available;
#else
  return false;
#endif
}

bool ForceScalar() {
  static const bool forced = [] {
    const char* value = std::getenv("IPS_FORCE_SCALAR");
    return value != nullptr && value[0] != '\0' &&
           !(value[0] == '0' && value[1] == '\0');
  }();
  return forced;
}

const KernelOps& ActiveOps() {
  static const KernelOps& active =
      (!ForceScalar() && Avx2Available()) ? Avx2Ops() : ScalarOps();
  return active;
}

const char* ActiveIsaName() { return ActiveOps().name; }

// ---------------------------------------------------------------------
// Dispatched vector ops.
// ---------------------------------------------------------------------

double Norm(std::span<const double> x) { return std::sqrt(SquaredNorm(x)); }

double LpNorm(std::span<const double> x, double p) {
  IPS_CHECK_GE(p, 1.0);
  double sum = 0.0;
  for (double v : x) sum += std::pow(std::abs(v), p);
  return std::pow(sum, 1.0 / p);
}

double LInfNorm(std::span<const double> x) {
  double best = 0.0;
  for (double v : x) best = std::max(best, std::abs(v));
  return best;
}

double SquaredDistance(std::span<const double> x, std::span<const double> y) {
  IPS_DCHECK(x.size() == y.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double diff = x[i] - y[i];
    sum += diff * diff;
  }
  return sum;
}

void ScaleInPlace(std::span<double> x, double factor) {
  for (double& v : x) v *= factor;
}

void NormalizeInPlace(std::span<double> x) {
  const double norm = Norm(x);
  if (norm > 0.0) ScaleInPlace(x, 1.0 / norm);
}

std::vector<double> Normalized(std::span<const double> x) {
  std::vector<double> result(x.begin(), x.end());
  NormalizeInPlace(result);
  return result;
}

double CosineSimilarity(std::span<const double> x, std::span<const double> y) {
  const double nx = Norm(x);
  const double ny = Norm(y);
  if (nx == 0.0 || ny == 0.0) return 0.0;
  return Dot(x, y) / (nx * ny);
}

// ---------------------------------------------------------------------
// Batch kernels.
// ---------------------------------------------------------------------

void MatVec(const Matrix& data, std::span<const double> q,
            std::span<double> out) {
  IPS_DCHECK(q.size() == data.cols());
  IPS_DCHECK(out.size() == data.rows());
  ActiveOps().matvec(data.raw(), data.rows(), data.cols(), q.data(),
                     out.data());
}

void GatherScores(const Matrix& data, std::span<const std::size_t> indices,
                  std::span<const double> q, std::span<double> out) {
  IPS_DCHECK(out.size() == indices.size());
  const KernelOps& ops = ActiveOps();
  const double* base = data.raw();
  const std::size_t cols = data.cols();
  for (std::size_t j = 0; j < indices.size(); ++j) {
    IPS_DCHECK(indices[j] < data.rows());
    out[j] = ops.dot(base + indices[j] * cols, q.data(), cols);
  }
}

void TopKHeap::Push(std::size_t index, double value) {
  const SearchMatch entry{index, value};
  if (heap_.size() < k_) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
    return;
  }
  if (!RanksBefore(entry, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), RanksBefore);
  heap_.back() = entry;
  std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
}

std::vector<SearchMatch> TopKHeap::TakeSorted() {
  std::vector<SearchMatch> sorted = std::move(heap_);
  heap_.clear();
  std::sort(sorted.begin(), sorted.end(), RanksBefore);
  return sorted;
}

namespace {

// Tile shape of the blocked scorer. A 64x8 tile of doubles is a 4 KiB
// scratch: data rows stay in L1 across the query block, and eight
// queries (8 * d doubles) fit L1 alongside one row tile for any d the
// library meets in practice.
constexpr std::size_t kRowTile = 64;
constexpr std::size_t kQueryTile = 8;

// Second blocking level: a run of data rows sized to sit in L2 while
// every query tile sweeps over it. Without it, large batches stream the
// whole data matrix from memory once per 8 queries and the scorer goes
// memory-bound; with it, data traffic drops to one read of the data
// plus one read of the queries per row block.
constexpr std::size_t kRowBlockBytes = 512 * 1024;

std::size_t RowBlockRows(std::size_t cols) {
  const std::size_t rows = kRowBlockBytes / (cols * sizeof(double));
  // Round down to a whole number of row tiles, never below one tile.
  return std::max(kRowTile, rows - rows % kRowTile);
}

}  // namespace

void BlockTopK(const Matrix& data, std::size_t row_begin,
               std::size_t row_end, const Matrix& queries, bool absolute,
               std::span<TopKHeap> heaps, std::size_t index_offset) {
  IPS_DCHECK(queries.cols() == data.cols());
  IPS_DCHECK(heaps.size() == queries.rows());
  IPS_DCHECK(row_begin <= row_end && row_end <= data.rows());
  const KernelOps& ops = ActiveOps();
  const std::size_t cols = data.cols();
  const double* data_base = data.raw();
  const double* query_base = queries.raw();
  double scratch[kRowTile * kQueryTile];

  const std::size_t block_rows = RowBlockRows(cols);
  for (std::size_t rb = row_begin; rb < row_end; rb += block_rows) {
    const std::size_t rb_end = std::min(rb + block_rows, row_end);
    for (std::size_t q0 = 0; q0 < queries.rows(); q0 += kQueryTile) {
      const std::size_t nq = std::min(kQueryTile, queries.rows() - q0);
      for (std::size_t r0 = rb; r0 < rb_end; r0 += kRowTile) {
        const std::size_t nr = std::min(kRowTile, rb_end - r0);
        ops.score_block(data_base + r0 * cols, nr, cols,
                        query_base + q0 * cols, nq, cols, scratch, kRowTile);
        for (std::size_t qi = 0; qi < nq; ++qi) {
          TopKHeap& heap = heaps[q0 + qi];
          const double* tile = scratch + qi * kRowTile;
          // The registered floor makes the common reject a single
          // compare; values at the floor still go through Accepts so
          // the (value, index) tie-break stays exact.
          double floor = heap.Floor();
          for (std::size_t r = 0; r < nr; ++r) {
            const double value = absolute ? std::abs(tile[r]) : tile[r];
            if (value < floor) continue;
            const std::size_t index = r0 + r + index_offset;
            if (heap.Accepts(value, index)) {
              heap.Push(index, value);
              floor = heap.Floor();
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Batched popcount inner products.
// ---------------------------------------------------------------------

void AndPopcountMany(const std::uint64_t* q, const std::uint64_t* rows,
                     std::size_t words_per_row, std::size_t nrows,
                     std::uint32_t* out) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::uint64_t* row = rows + r * words_per_row;
    std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    std::size_t w = 0;
    for (; w + 4 <= words_per_row; w += 4) {
      c0 += static_cast<std::uint64_t>(__builtin_popcountll(q[w] & row[w]));
      c1 += static_cast<std::uint64_t>(
          __builtin_popcountll(q[w + 1] & row[w + 1]));
      c2 += static_cast<std::uint64_t>(
          __builtin_popcountll(q[w + 2] & row[w + 2]));
      c3 += static_cast<std::uint64_t>(
          __builtin_popcountll(q[w + 3] & row[w + 3]));
    }
    for (; w < words_per_row; ++w) {
      c0 += static_cast<std::uint64_t>(__builtin_popcountll(q[w] & row[w]));
    }
    out[r] = static_cast<std::uint32_t>(c0 + c1 + c2 + c3);
  }
}

void SignDotMany(const std::uint64_t* q, const std::uint64_t* rows,
                 std::size_t words_per_row, std::size_t nrows,
                 std::size_t cols, std::int64_t* out) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::uint64_t* row = rows + r * words_per_row;
    std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    std::size_t w = 0;
    for (; w + 4 <= words_per_row; w += 4) {
      c0 += static_cast<std::uint64_t>(__builtin_popcountll(q[w] ^ row[w]));
      c1 += static_cast<std::uint64_t>(
          __builtin_popcountll(q[w + 1] ^ row[w + 1]));
      c2 += static_cast<std::uint64_t>(
          __builtin_popcountll(q[w + 2] ^ row[w + 2]));
      c3 += static_cast<std::uint64_t>(
          __builtin_popcountll(q[w + 3] ^ row[w + 3]));
    }
    for (; w < words_per_row; ++w) {
      c0 += static_cast<std::uint64_t>(__builtin_popcountll(q[w] ^ row[w]));
    }
    const std::uint64_t hamming = c0 + c1 + c2 + c3;
    out[r] = static_cast<std::int64_t>(cols) -
             2 * static_cast<std::int64_t>(hamming);
  }
}

}  // namespace kernels
}  // namespace ips
