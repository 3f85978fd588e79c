#include "lsh/multiprobe.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace ips {

MultiprobeSimHashTables::MultiprobeSimHashTables(const Matrix& data,
                                                 MultiprobeParams params,
                                                 Rng* rng)
    : params_(params) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GE(params.k, 1u);
  IPS_CHECK_LE(params.k, 63u);
  IPS_CHECK_GE(params.l, 1u);
  tables_.resize(params.l);
  std::vector<double> margins;
  std::vector<std::uint64_t> keys(data.rows());
  for (Table& table : tables_) {
    table.directions = Matrix(params.k, data.cols());
    for (double& entry : table.directions.data()) {
      entry = rng->NextGaussian();
    }
    for (std::size_t i = 0; i < data.rows(); ++i) {
      keys[i] = KeyWithMargins(table, data.Row(i), &margins);
    }
    table.buckets = BucketTable::Build(keys);
  }
}

std::uint64_t MultiprobeSimHashTables::KeyWithMargins(
    const Table& table, std::span<const double> q,
    std::vector<double>* margins) const {
  IPS_CHECK(margins != nullptr);
  margins->resize(params_.k);
  std::uint64_t key = 0;
  for (std::size_t bit = 0; bit < params_.k; ++bit) {
    const double projection = kernels::Dot(table.directions.Row(bit), q);
    if (projection >= 0.0) key |= 1ULL << bit;
    (*margins)[bit] = std::abs(projection);
  }
  return key;
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
  std::vector<double> margins;
  std::vector<std::size_t> order(params_.k);
  for (const Table& table : tables_) {
    const std::uint64_t key = KeyWithMargins(table, q, &margins);
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
