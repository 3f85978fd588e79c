// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// linalg::kernels — the one dispatched home of every dense inner-product
// primitive in the tree (DESIGN.md §10). The former free-function zoo of
// vector_ops.h lives here now, plus the batch kernels the BatchQuery
// paths are built on:
//
//   Dot / SquaredNorm / Norm / ...     scalar vector ops (dispatched);
//   Score                              one exact score;
//   MatVec                             one query vs. every data row;
//   GatherScores                       one query vs. a gathered row set
//                                      (tree leaves, LSH candidates);
//   BlockTopK                          tiled many-vs-many scoring on
//                                      ProjectBlock that writes straight
//                                      into per-query top-k heaps (no
//                                      n*m score matrix);
//   TopKHeap                           the one streaming top-k, in
//                                      RanksBefore order;
//   DotI8 / ScoreBlockI8               int8 fixed-point inner products
//                                      (the estimate pass of the
//                                      two-stage quantized scorer);
//   ProjectBlock                       a block of rows onto a packed,
//                                      transposed block of hyperplanes
//                                      (the SimHash keyer, multiprobe,
//                                      BlockTopK's packed query block);
//   AndPopcountMany / SignDotMany      batched popcount inner products
//                                      over packed {0,1} / {-1,+1} rows.
//
// Dispatch: an AVX2+FMA implementation and a portable scalar fallback
// are selected once at startup via cpuid (GCC/Clang builtins). Setting
// the environment variable IPS_FORCE_SCALAR=1 pins the scalar path (the
// CI fallback leg and the parity tests use this). Both implementations
// are exported through KernelOps so tests can compare them directly.
//
// Numerics: an exact score is one fused multiply-add chain,
// acc = fma(x[j], y[j], acc) over j = 0 .. d-1 in ascending order from
// acc = +0.0. The row-lane kernel (Score, MatVec, GatherScores) and the
// plane-lane kernel (ProjectBlock, under BlockTopK) both compute it,
// AVX2 lane by lane and the scalar table through std::fma, so every
// exact answer has the same bits on every path and under either table
// (tests/kernels_test: EXPECT_EQ against a std::fma chain). A SimHash
// sign bit is such a chain too.
//
// Dot (and SquaredNorm, Norm, CosineSimilarity on top of it) is a
// faster split sum: four partial sums, which AVX2 contracts with FMA,
// so the two tables agree to rounding only. It serves the dots that
// never become a returned score: ball-tree bounds, transform norms and
// the SIMPLE-LSH lift, hashing, profiles and the theory code. ipslint's
// score-dot rule keeps it out of the answer paths (src/core,
// src/sketch, src/storage, src/serve, the bucket join). The int8
// kernels are integer-exact: scalar and AVX2 produce identical int32
// results for codes in [-127, 127] (tests/quant_test).

#ifndef IPS_LINALG_KERNELS_H_
#define IPS_LINALG_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/search_match.h"
#include "util/check.h"

namespace ips {
namespace kernels {

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

/// True when the CPU supports AVX2 and FMA (always false off x86).
bool Avx2Available();

/// True when IPS_FORCE_SCALAR is set to a non-empty value other than
/// "0" in the environment (read once, at first use).
bool ForceScalar();

/// Raw kernel table: one implementation of every dispatched primitive.
/// Exposed so the parity suite and bench_kernels can pit the scalar and
/// AVX2 implementations against each other explicitly; everything else
/// goes through the convenience wrappers below, which use ActiveOps().
struct KernelOps {
  const char* name;  // "scalar" or "avx2"

  /// <x, y> over n entries as a split sum (see Numerics above): for
  /// dots that never become a returned score.
  double (*dot)(const double* x, const double* y, std::size_t n);

  /// Row-lane scorer: out[j] = <row i_j, q> for j in [0, count), where
  /// row i starts at data + i * cols and i_j = rows[j], or j when rows
  /// is null. Each output is the chain acc = fma(row[c], q[c], acc) over
  /// c = 0 .. cols-1 from acc = +0.0, so both tables return the same
  /// bits. The heart of MatVec, GatherScores and Score.
  void (*score_rows)(const double* data, std::size_t cols,
                     const std::size_t* rows, std::size_t count,
                     const double* q, double* out);

  /// Fixed-point <x, y> over n int8 codes, accumulated in int32.
  /// Contract: every code lies in [-127, 127] (the quantizer clamps to
  /// that range; -128 is excluded so the AVX2 abs/sign/maddubs pipeline
  /// can neither overflow the i8 negation nor saturate the i16 pair
  /// sums) and n <= 2^17, so the exact sum fits int32. Under that
  /// contract the scalar and AVX2 implementations are bitwise
  /// identical.
  std::int32_t (*dot_i8)(const std::int8_t* x, const std::int8_t* y,
                         std::size_t n);

  /// out[r] = dot_i8(codes + r * cols, q) for r in [0, rows): the
  /// quantized estimate pass of the two-stage scorer — one int8 query
  /// against a contiguous block of int8 code rows.
  void (*score_block_i8)(const std::int8_t* codes, std::size_t rows,
                         std::size_t cols, const std::int8_t* q,
                         std::int32_t* out);

  /// Projection tile: out[r * num_planes + h] = <row r, plane h> for
  /// r in [0, num_rows), h in [0, num_planes). Rows are contiguous at
  /// `rows` (leading dimension cols); the planes are packed transposed,
  /// entry j of plane h at planes[j * plane_stride + h]. Each output is
  /// the chain acc = fma(row[j], plane[j], acc) over j = 0 .. cols-1
  /// from acc = +0.0, so both tables return the same bits.
  void (*project_block)(const double* rows, std::size_t num_rows,
                        std::size_t cols, const double* planes,
                        std::size_t num_planes, std::size_t plane_stride,
                        double* out);
};

/// The portable fallback (available everywhere).
const KernelOps& ScalarOps();

/// The AVX2+FMA implementation; call only when Avx2Available().
const KernelOps& Avx2Ops();

/// The table selected at startup: Avx2Ops() when the CPU has AVX2+FMA
/// and IPS_FORCE_SCALAR is not set, else ScalarOps().
const KernelOps& ActiveOps();

/// Name of the active implementation ("avx2" / "scalar"), for logs,
/// bench JSON, and the startup banner of examples.
const char* ActiveIsaName();

// ---------------------------------------------------------------------
// Dispatched vector ops (the former linalg/vector_ops.h surface).
// ---------------------------------------------------------------------

/// Inner product <x, y> as a split sum; not bitwise the exact score
/// (use Score for that). Requires x.size() == y.size().
inline double Dot(std::span<const double> x, std::span<const double> y) {
  IPS_DCHECK(x.size() == y.size());
  return ActiveOps().dot(x.data(), y.data(), x.size());
}

/// Squared Euclidean norm ||x||^2.
inline double SquaredNorm(std::span<const double> x) { return Dot(x, x); }

/// Euclidean norm ||x||.
double Norm(std::span<const double> x);

/// ell_p norm for p >= 1; p may be +infinity via LInfNorm.
double LpNorm(std::span<const double> x, double p);

/// max_i |x_i|.
double LInfNorm(std::span<const double> x);

/// Squared Euclidean distance ||x - y||^2.
double SquaredDistance(std::span<const double> x, std::span<const double> y);

/// Scales x in place by `factor`.
void ScaleInPlace(std::span<double> x, double factor);

/// Normalizes x in place to unit Euclidean norm; no-op on the zero vector.
void NormalizeInPlace(std::span<double> x);

/// Returns x / ||x|| (copy); returns x unchanged if ||x|| == 0.
std::vector<double> Normalized(std::span<const double> x);

/// Cosine similarity <x,y>/(||x|| ||y||); 0 when either norm is 0.
double CosineSimilarity(std::span<const double> x, std::span<const double> y);

// ---------------------------------------------------------------------
// Batch kernels.
// ---------------------------------------------------------------------

/// The exact score <x, y>: the fma chain every exact answer uses, for
/// a lone pair. Requires x.size() == y.size().
double Score(std::span<const double> x, std::span<const double> y);

/// out[r] = <data.Row(r), q>, exact scores. Requires q.size() ==
/// data.cols() and out.size() == data.rows().
void MatVec(const Matrix& data, std::span<const double> q,
            std::span<double> out);

/// out[j] = <data.Row(indices[j]), q>, exact scores: the gathered-row
/// scorer behind tree leaf scans and candidate verification. Requires
/// out.size() == indices.size().
void GatherScores(const Matrix& data, std::span<const std::size_t> indices,
                  std::span<const double> q, std::span<double> out);

/// Fixed-capacity top-k accumulator in RanksBefore order (score
/// descending, then index ascending): the library's one streaming top-k.
/// Push is O(log k) only when the candidate beats the current k-th best;
/// the common reject is one compare.
class TopKHeap {
 public:
  explicit TopKHeap(std::size_t k) : k_(k) { IPS_DCHECK(k >= 1); }

  /// True when (value, index) would enter the current top-k.
  bool Accepts(double value, std::size_t index) const {
    if (heap_.size() < k_) return true;
    return RanksBefore({index, value}, heap_.front());
  }

  void Push(std::size_t index, double value);

  /// Values strictly below this cannot enter the heap (-infinity while
  /// under capacity). Lets tight scoring loops keep the reject
  /// threshold in a register instead of re-reading the heap per
  /// candidate; refresh after every Push.
  double Floor() const {
    if (heap_.size() < k_) return -std::numeric_limits<double>::infinity();
    return heap_.front().value;
  }

  /// The accumulated top-k in RanksBefore order. Leaves the heap empty.
  std::vector<SearchMatch> TakeSorted();

 private:
  std::size_t k_;
  // Heap under RanksBefore: front() ranks after every other entry, so
  // it is the current k-th best.
  std::vector<SearchMatch> heap_;
};

/// Tiled many-vs-many scorer: for every query row qi of `queries` and
/// every data row r in [row_begin, row_end), pushes
/// (r + index_offset, score) into heaps[qi], where the score is the
/// exact <data.Row(r), queries.Row(qi)>, made absolute when `absolute`.
/// The queries are packed transposed once per call (m * d values) and
/// scored tile by tile with ProjectBlock: a tile of data rows meets a
/// block of queries held in L2, scores land in a stack scratch and go
/// straight into the per-query heaps — the n*m score matrix is never
/// materialized. Requires heaps.size() == queries.rows() and matching
/// dimensions.
void BlockTopK(const Matrix& data, std::size_t row_begin,
               std::size_t row_end, const Matrix& queries, bool absolute,
               std::span<TopKHeap> heaps, std::size_t index_offset = 0);

/// Convenience: BlockTopK over every data row.
inline void BlockTopK(const Matrix& data, const Matrix& queries,
                      bool absolute, std::span<TopKHeap> heaps) {
  BlockTopK(data, 0, data.rows(), queries, absolute, heaps);
}

// ---------------------------------------------------------------------
// Dispatched int8 fixed-point kernels.
// ---------------------------------------------------------------------

/// Integer inner product of two int8 code vectors (see
/// KernelOps::dot_i8 for the [-127, 127] / n <= 2^17 contract).
inline std::int32_t DotI8(std::span<const std::int8_t> x,
                          std::span<const std::int8_t> y) {
  IPS_DCHECK(x.size() == y.size());
  return ActiveOps().dot_i8(x.data(), y.data(), x.size());
}

/// out[r] = <codes row r, q> in int32 for `rows` contiguous code rows
/// of `cols` int8 entries each.
inline void ScoreBlockI8(const std::int8_t* codes, std::size_t rows,
                         std::size_t cols, const std::int8_t* q,
                         std::int32_t* out) {
  ActiveOps().score_block_i8(codes, rows, cols, q, out);
}

// ---------------------------------------------------------------------
// Dispatched projection onto packed hyperplanes.
// ---------------------------------------------------------------------

/// out[r * num_planes + h] = <row r, plane h>, one fma chain per output
/// (see KernelOps::project_block for the layout).
inline void ProjectBlock(const double* rows, std::size_t num_rows,
                         std::size_t cols, const double* planes,
                         std::size_t num_planes, std::size_t plane_stride,
                         double* out) {
  IPS_DCHECK(num_planes <= plane_stride);
  ActiveOps().project_block(rows, num_rows, cols, planes, num_planes,
                            plane_stride, out);
}

// ---------------------------------------------------------------------
// Batched popcount inner products (packed {0,1} / {-1,+1} rows).
// ---------------------------------------------------------------------
// ISA note: these are word-parallel popcount loops (4-way unrolled
// __builtin_popcountll); AVX2 has no vector popcount, so the same
// implementation serves both dispatch tables and the batch win is the
// amortized query-row load and loop overhead.

/// out[r] = popcount(q AND row r) for `nrows` packed rows of
/// `words_per_row` 64-bit words each: the {0,1} inner product of one
/// query against many BitMatrix rows.
void AndPopcountMany(const std::uint64_t* q, const std::uint64_t* rows,
                     std::size_t words_per_row, std::size_t nrows,
                     std::uint32_t* out);

/// out[r] = cols - 2 * popcount(q XOR row r): the {-1,+1} inner product
/// of one query against many SignMatrix rows (bit set = +1). Tail bits
/// beyond `cols` must be zero in q and every row.
void SignDotMany(const std::uint64_t* q, const std::uint64_t* rows,
                 std::size_t words_per_row, std::size_t nrows,
                 std::size_t cols, std::int64_t* out);

}  // namespace kernels
}  // namespace ips

#endif  // IPS_LINALG_KERNELS_H_
