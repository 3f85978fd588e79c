#include "lsh/simhash.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "linalg/kernels.h"
#include "util/check.h"

namespace ips {
namespace {

class SimHashFunction : public SymmetricLshFunction {
 public:
  SimHashFunction(std::size_t dim, Rng* rng) : direction_(dim) {
    for (double& entry : direction_) entry = rng->NextGaussian();
  }

  // One row onto one plane through the keyer's kernel, so this bit and
  // the keyer's share one rounding: the same fma chain, in the same
  // order, under either kernel table.
  std::uint64_t HashData(std::span<const double> p) const override {
    IPS_DCHECK(p.size() == direction_.size());
    double projection;
    kernels::ProjectBlock(p.data(), 1, p.size(), direction_.data(), 1, 1,
                          &projection);
    return projection >= 0.0 ? 1 : 0;
  }

 private:
  std::vector<double> direction_;
};

// Tables whose hyperplanes share one packed block. A query row takes
// all l tables at one ProjectBlock call per block; a block of data rows
// asked for one table reads that table's k columns of its block.
constexpr std::size_t kGroupTables = 8;

// The l tables' hyperplanes, packed transposed: table group g (tables
// [8g, 8g + 8)) is one dim x (tables * k) block, entry j of the
// group's plane h at block[j * width + h], plane (t - 8g) * k + f being
// function f of table t. A block of 16 rows against a group of 8 K = 16
// tables at d = 34 reads 4 KiB of rows and 34 KiB of planes.
class SimHashKeyer : public LshKeyer {
 public:
  SimHashKeyer(std::size_t dim, std::size_t k, std::size_t l, Rng* rng)
      : dim_(dim), k_(k), l_(l), planes_(dim * k * l) {
    // Sample() order: table by table, function by function, entry by
    // entry, so the Rng ends where l * k Sample() calls leave it.
    for (std::size_t t = 0; t < l; ++t) {
      double* block = planes_.data() + GroupOffset(t);
      const std::size_t width = GroupWidth(t);
      for (std::size_t f = 0; f < k; ++f) {
        const std::size_t h = (t % kGroupTables) * k + f;
        for (std::size_t j = 0; j < dim; ++j) {
          block[j * width + h] = rng->NextGaussian();
        }
      }
    }
  }

  // Symmetric: both sides hash through the same hyperplanes.
  void Keys(std::span<const double> rows, HashSide /*side*/,
            std::size_t table_begin, std::size_t table_end,
            std::span<std::uint64_t> out) const override {
    const std::size_t n = rows.size() / dim_;
    IPS_DCHECK(rows.size() == n * dim_);
    IPS_DCHECK(table_begin <= table_end && table_end <= l_);
    IPS_DCHECK(out.size() == (table_end - table_begin) * n);
    if (n == 0) return;
    std::vector<double> projections;
    for (std::size_t t0 = table_begin; t0 < table_end;) {
      const std::size_t group_end =
          std::min(l_, (t0 / kGroupTables + 1) * kGroupTables);
      const std::size_t t1 = std::min(table_end, group_end);
      const std::size_t num_planes = (t1 - t0) * k_;
      const double* planes = planes_.data() + GroupOffset(t0) +
                             (t0 % kGroupTables) * k_;
      const std::size_t block_rows =
          std::clamp<std::size_t>(kProjectionScratch / num_planes, 1, n);
      projections.resize(block_rows * num_planes);
      for (std::size_t r0 = 0; r0 < n; r0 += block_rows) {
        const std::size_t nr = std::min(block_rows, n - r0);
        kernels::ProjectBlock(rows.data() + r0 * dim_, nr, dim_, planes,
                              num_planes, GroupWidth(t0),
                              projections.data());
        // ConcatenatedLshFunction's mix of SimHash's 0/1 bits.
        for (std::size_t r = 0; r < nr; ++r) {
          const double* projection = projections.data() + r * num_planes;
          std::uint64_t* key = out.data() + (t0 - table_begin) * n + r0 + r;
          for (std::size_t t = 0; t < t1 - t0; ++t) {
            std::uint64_t state = kConcatKeySeed;
            for (std::size_t f = 0; f < k_; ++f) {
              state =
                  ConcatKeyMix(state, projection[t * k_ + f] >= 0.0 ? 1 : 0);
            }
            key[t * n] = state;
          }
        }
      }
      t0 = t1;
    }
  }

 private:
  // Projections per ProjectBlock call, bounding the scratch at 16 KiB.
  static constexpr std::size_t kProjectionScratch = 2048;

  std::size_t GroupOffset(std::size_t t) const {
    return (t / kGroupTables) * kGroupTables * k_ * dim_;
  }
  std::size_t GroupWidth(std::size_t t) const {
    const std::size_t first = t - t % kGroupTables;
    return std::min(kGroupTables, l_ - first) * k_;
  }

  std::size_t dim_;
  std::size_t k_;
  std::size_t l_;
  std::vector<double> planes_;
};

}  // namespace

SimHashFamily::SimHashFamily(std::size_t dim) : dim_(dim) {
  IPS_CHECK_GT(dim, 0u);
}

std::unique_ptr<LshFunction> SimHashFamily::Sample(Rng* rng) const {
  IPS_CHECK(rng != nullptr);
  return std::make_unique<SimHashFunction>(dim_, rng);
}

std::unique_ptr<LshKeyer> SimHashFamily::SampleKeyer(std::size_t k,
                                                     std::size_t l,
                                                     Rng* rng) const {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GE(k, 1u);
  return std::make_unique<SimHashKeyer>(dim_, k, l, rng);
}

double SimHashFamily::CollisionProbability(double cosine) {
  const double clamped = std::clamp(cosine, -1.0, 1.0);
  return 1.0 - std::acos(clamped) / std::numbers::pi;
}

}  // namespace ips
