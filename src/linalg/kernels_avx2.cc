// AVX2+FMA kernel table (see kernels.h for the dispatch contract).
// Built with per-function target attributes so the translation unit
// compiles under the project's portable flags; every function here is
// only ever called after Avx2Available() said yes.

#include "linalg/kernels.h"

#include "util/check.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

namespace ips {
namespace kernels {
namespace {

#define IPS_AVX2 __attribute__((target("avx2,fma")))

// (lane0 + lane2) + (lane1 + lane3); FMA contraction already separates
// this path from the scalar one by rounding, so the exact reduction
// tree is free to be the cheapest one.
IPS_AVX2 inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

IPS_AVX2 double DotAvx2(const double* x, const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                           _mm256_loadu_pd(y + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8),
                           _mm256_loadu_pd(y + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 12),
                           _mm256_loadu_pd(y + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                           _mm256_loadu_pd(y + i), acc0);
  }
  double total = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += x[i] * y[i];
  return total;
}

IPS_AVX2 void MatVecAvx2(const double* data, std::size_t rows,
                         std::size_t cols, const double* q, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = DotAvx2(data + r * cols, q, cols);
  }
}

// The register-blocked heart of the tiled scorer: two data rows against
// four queries. Each 4-wide column step loads the two row vectors once
// and reuses them across all four queries (6 loads feeding 8 FMAs),
// which is what lifts the batch path past the per-query memory wall.
IPS_AVX2 void Score2x4(const double* row0, const double* row1,
                       const double* q0, const double* q1, const double* q2,
                       const double* q3, std::size_t cols, double* out0,
                       double* out1) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a02 = _mm256_setzero_pd(), a03 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a12 = _mm256_setzero_pd(), a13 = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const __m256d va = _mm256_loadu_pd(row0 + j);
    const __m256d vb = _mm256_loadu_pd(row1 + j);
    __m256d vq = _mm256_loadu_pd(q0 + j);
    a00 = _mm256_fmadd_pd(va, vq, a00);
    a10 = _mm256_fmadd_pd(vb, vq, a10);
    vq = _mm256_loadu_pd(q1 + j);
    a01 = _mm256_fmadd_pd(va, vq, a01);
    a11 = _mm256_fmadd_pd(vb, vq, a11);
    vq = _mm256_loadu_pd(q2 + j);
    a02 = _mm256_fmadd_pd(va, vq, a02);
    a12 = _mm256_fmadd_pd(vb, vq, a12);
    vq = _mm256_loadu_pd(q3 + j);
    a03 = _mm256_fmadd_pd(va, vq, a03);
    a13 = _mm256_fmadd_pd(vb, vq, a13);
  }
  double s00 = HorizontalSum(a00), s01 = HorizontalSum(a01);
  double s02 = HorizontalSum(a02), s03 = HorizontalSum(a03);
  double s10 = HorizontalSum(a10), s11 = HorizontalSum(a11);
  double s12 = HorizontalSum(a12), s13 = HorizontalSum(a13);
  for (; j < cols; ++j) {
    const double va = row0[j], vb = row1[j];
    s00 += va * q0[j];
    s01 += va * q1[j];
    s02 += va * q2[j];
    s03 += va * q3[j];
    s10 += vb * q0[j];
    s11 += vb * q1[j];
    s12 += vb * q2[j];
    s13 += vb * q3[j];
  }
  out0[0] = s00;
  out0[1] = s01;
  out0[2] = s02;
  out0[3] = s03;
  out1[0] = s10;
  out1[1] = s11;
  out1[2] = s12;
  out1[3] = s13;
}

IPS_AVX2 void ScoreBlockAvx2(const double* data, std::size_t rows,
                             std::size_t cols, const double* queries,
                             std::size_t num_q, std::size_t q_stride,
                             double* out, std::size_t out_stride) {
  std::size_t qi = 0;
  for (; qi + 4 <= num_q; qi += 4) {
    const double* q0 = queries + qi * q_stride;
    const double* q1 = q0 + q_stride;
    const double* q2 = q1 + q_stride;
    const double* q3 = q2 + q_stride;
    std::size_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      double s0[4], s1[4];
      Score2x4(data + r * cols, data + (r + 1) * cols, q0, q1, q2, q3,
               cols, s0, s1);
      for (std::size_t t = 0; t < 4; ++t) {
        out[(qi + t) * out_stride + r] = s0[t];
        out[(qi + t) * out_stride + r + 1] = s1[t];
      }
    }
    if (r < rows) {
      const double* row = data + r * cols;
      out[qi * out_stride + r] = DotAvx2(row, q0, cols);
      out[(qi + 1) * out_stride + r] = DotAvx2(row, q1, cols);
      out[(qi + 2) * out_stride + r] = DotAvx2(row, q2, cols);
      out[(qi + 3) * out_stride + r] = DotAvx2(row, q3, cols);
    }
  }
  for (; qi < num_q; ++qi) {
    const double* q = queries + qi * q_stride;
    double* row_out = out + qi * out_stride;
    for (std::size_t r = 0; r < rows; ++r) {
      row_out[r] = DotAvx2(data + r * cols, q, cols);
    }
  }
}

// int8 fixed-point dot via the maddubs pipeline. maddubs wants one
// unsigned and one signed operand, so rewrite
//   sum x_i * y_i  =  sum |x_i| * (sign(x_i) * y_i)
// with abs_epi8 / sign_epi8. With codes clamped to [-127, 127] (the
// KernelOps contract) the i8 negation in sign_epi8 cannot overflow and
// each i16 pair sum is at most 2 * 127 * 127 = 32258 < 32767, so the
// pipeline is exact — scalar and AVX2 agree bitwise.
IPS_AVX2 inline std::int32_t HorizontalSumI32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i sum = _mm_add_epi32(lo, hi);
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(sum);
}

IPS_AVX2 std::int32_t DotI8Avx2(const std::int8_t* x, const std::int8_t* y,
                                std::size_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i vx0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + i));
    const __m256i vx1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + i + 32));
    const __m256i vy1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + i + 32));
    const __m256i p0 = _mm256_maddubs_epi16(_mm256_abs_epi8(vx0),
                                            _mm256_sign_epi8(vy0, vx0));
    const __m256i p1 = _mm256_maddubs_epi16(_mm256_abs_epi8(vx1),
                                            _mm256_sign_epi8(vy1, vx1));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(p0, ones));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(p1, ones));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i vx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + i));
    const __m256i p = _mm256_maddubs_epi16(_mm256_abs_epi8(vx),
                                           _mm256_sign_epi8(vy, vx));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(p, ones));
  }
  std::int32_t total = HorizontalSumI32(_mm256_add_epi32(acc0, acc1));
  for (; i < n; ++i) {
    total += static_cast<std::int32_t>(x[i]) * y[i];
  }
  return total;
}

IPS_AVX2 void ScoreBlockI8Avx2(const std::int8_t* codes, std::size_t rows,
                               std::size_t cols, const std::int8_t* q,
                               std::int32_t* out) {
  // One byte per entry keeps this pass memory-light; per-row dots are
  // enough to saturate the load ports, no register blocking needed.
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = DotI8Avx2(codes + r * cols, q, cols);
  }
}

// Projections onto packed, transposed hyperplanes. Lane h of an
// accumulator holds plane h's chain for one row, and a column step is
// one fma per (row, four planes): vectorised across planes, never
// across columns, so each output is the same ascending fma chain the
// scalar table computes with std::fma — bitwise equal, no reduction.
//
// Register tile: R rows x V vectors of four planes. At R = 4, V = 3
// the twelve accumulators, three plane loads and one broadcast fill
// the sixteen ymm registers. The last vector of a tile may be partial:
// a masked load reads only the live planes (never past the block) and
// a masked store writes only those.
IPS_AVX2 inline __m256i LaneMask(std::size_t live) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(live)),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

template <int R, int V, bool kMaskLast>
IPS_AVX2 inline void ProjectTile(const double* rows, std::size_t cols,
                                 const double* planes,
                                 std::size_t plane_stride, __m256i mask,
                                 double* out, std::size_t out_stride) {
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  for (std::size_t j = 0; j < cols; ++j) {
    const double* plane = planes + j * plane_stride;
    __m256d p[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      p[v] = (kMaskLast && v == V - 1)
                 ? _mm256_maskload_pd(plane + 4 * v, mask)
                 : _mm256_loadu_pd(plane + 4 * v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d x = _mm256_broadcast_sd(rows + r * cols + j);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_pd(x, p[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      double* dst = out + r * out_stride + 4 * v;
      if (kMaskLast && v == V - 1) {
        _mm256_maskstore_pd(dst, mask, acc[r][v]);
      } else {
        _mm256_storeu_pd(dst, acc[r][v]);
      }
    }
  }
}

template <int R>
IPS_AVX2 void ProjectRowsAvx2(const double* rows, std::size_t cols,
                              const double* planes, std::size_t num_planes,
                              std::size_t plane_stride, double* out) {
  const __m256i all = _mm256_set1_epi64x(-1);
  std::size_t h = 0;
  for (; h + 12 <= num_planes; h += 12) {
    ProjectTile<R, 3, false>(rows, cols, planes + h, plane_stride, all,
                             out + h, num_planes);
  }
  const std::size_t rest = num_planes - h;
  if (rest == 0) return;
  const __m256i mask = LaneMask(rest % 4 == 0 ? 4 : rest % 4);
  switch ((rest + 3) / 4) {
    case 1:
      ProjectTile<R, 1, true>(rows, cols, planes + h, plane_stride, mask,
                              out + h, num_planes);
      break;
    case 2:
      ProjectTile<R, 2, true>(rows, cols, planes + h, plane_stride, mask,
                              out + h, num_planes);
      break;
    default:
      ProjectTile<R, 3, true>(rows, cols, planes + h, plane_stride, mask,
                              out + h, num_planes);
      break;
  }
}

IPS_AVX2 void ProjectBlockAvx2(const double* rows, std::size_t num_rows,
                               std::size_t cols, const double* planes,
                               std::size_t num_planes,
                               std::size_t plane_stride, double* out) {
  std::size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    ProjectRowsAvx2<4>(rows + r * cols, cols, planes, num_planes,
                       plane_stride, out + r * num_planes);
  }
  const double* tail = rows + r * cols;
  double* tail_out = out + r * num_planes;
  switch (num_rows - r) {
    case 3:
      ProjectRowsAvx2<3>(tail, cols, planes, num_planes, plane_stride,
                         tail_out);
      break;
    case 2:
      ProjectRowsAvx2<2>(tail, cols, planes, num_planes, plane_stride,
                         tail_out);
      break;
    case 1:
      ProjectRowsAvx2<1>(tail, cols, planes, num_planes, plane_stride,
                         tail_out);
      break;
    default:
      break;
  }
}

#undef IPS_AVX2

}  // namespace

const KernelOps& Avx2Ops() {
  IPS_CHECK(Avx2Available())
      << "Avx2Ops() requested on a CPU without AVX2+FMA";
  static const KernelOps ops = {"avx2",          &DotAvx2,
                                &MatVecAvx2,     &ScoreBlockAvx2,
                                &DotI8Avx2,      &ScoreBlockI8Avx2,
                                &ProjectBlockAvx2};
  return ops;
}

}  // namespace kernels
}  // namespace ips

#else  // non-x86: the AVX2 table must not be reachable.

namespace ips {
namespace kernels {

const KernelOps& Avx2Ops() {
  IPS_CHECK(false) << "Avx2Ops() is unavailable on this architecture";
  return ScalarOps();  // unreachable
}

}  // namespace kernels
}  // namespace ips

#endif
