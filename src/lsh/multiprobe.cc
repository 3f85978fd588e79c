#include "lsh/multiprobe.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace ips {

namespace {

// Rows projected per ProjectBlock call during the build.
constexpr std::size_t kBuildBlockRows = 256;

// Raw-bit key of one row's k projections: bit b set iff projection b
// is >= 0.
std::uint64_t SignKey(const double* projections, std::size_t k) {
  std::uint64_t key = 0;
  for (std::size_t bit = 0; bit < k; ++bit) {
    if (projections[bit] >= 0.0) key |= 1ULL << bit;
  }
  return key;
}

}  // namespace

MultiprobeSimHashTables::MultiprobeSimHashTables(const Matrix& data,
                                                 MultiprobeParams params,
                                                 Rng* rng)
    : params_(params) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GE(params.k, 1u);
  IPS_CHECK_LE(params.k, 63u);
  IPS_CHECK_GE(params.l, 1u);
  const std::size_t k = params.k;
  const std::size_t dim = data.cols();
  tables_.resize(params.l);
  std::vector<double> projections(kBuildBlockRows * k);
  std::vector<std::uint64_t> keys(data.rows());
  for (Table& table : tables_) {
    // Bit by bit, each direction entry by entry: the row-major draw
    // order of k Gaussian direction rows.
    table.planes = Matrix(dim, k);
    for (std::size_t bit = 0; bit < k; ++bit) {
      for (std::size_t j = 0; j < dim; ++j) {
        table.planes.At(j, bit) = rng->NextGaussian();
      }
    }
    for (std::size_t r0 = 0; r0 < data.rows(); r0 += kBuildBlockRows) {
      const std::size_t nr = std::min(kBuildBlockRows, data.rows() - r0);
      kernels::ProjectBlock(data.Row(r0).data(), nr, dim, table.planes.raw(),
                            k, k, projections.data());
      for (std::size_t r = 0; r < nr; ++r) {
        keys[r0 + r] = SignKey(projections.data() + r * k, k);
      }
    }
    table.buckets = BucketTable::Build(keys);
  }
}

std::vector<std::size_t> MultiprobeSimHashTables::Query(
    std::span<const double> q) const {
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("lsh.multiprobe.queries");
  static Counter* const buckets_probed =
      MetricsRegistry::Global().GetCounter("lsh.multiprobe.buckets_probed");
  static Counter* const candidates_out =
      MetricsRegistry::Global().GetCounter("lsh.multiprobe.candidates");
  std::size_t probed = 0;
  std::vector<std::size_t> candidates;
  std::vector<double> margins(params_.k);
  std::vector<std::size_t> order(params_.k);
  for (const Table& table : tables_) {
    IPS_DCHECK(q.size() == table.planes.rows());
    kernels::ProjectBlock(q.data(), 1, q.size(), table.planes.raw(),
                          params_.k, params_.k, margins.data());
    const std::uint64_t key = SignKey(margins.data(), params_.k);
    for (double& margin : margins) margin = std::abs(margin);
    // Probe sequence: the exact key, then single flips of the
    // least-confident bits, then the pair of the two least-confident --
    // a margin-greedy prefix of the Lv et al. probing order.
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return margins[a] < margins[b];
    });
    std::vector<std::uint64_t> probe_keys;
    probe_keys.push_back(key);
    for (std::size_t t = 0;
         t < order.size() && probe_keys.size() <= params_.probes; ++t) {
      probe_keys.push_back(key ^ (1ULL << order[t]));
    }
    for (std::size_t a = 0;
         a < order.size() && probe_keys.size() <= params_.probes; ++a) {
      for (std::size_t b = a + 1;
           b < order.size() && probe_keys.size() <= params_.probes; ++b) {
        probe_keys.push_back(key ^ (1ULL << order[a]) ^ (1ULL << order[b]));
      }
    }
    probed += probe_keys.size();
    for (const std::uint64_t probe : probe_keys) {
      const std::span<const std::uint32_t> bucket = table.buckets.Find(probe);
      candidates.insert(candidates.end(), bucket.begin(), bucket.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  queries->Increment();
  buckets_probed->Add(probed);
  candidates_out->Add(candidates.size());
  return candidates;
}

}  // namespace ips
