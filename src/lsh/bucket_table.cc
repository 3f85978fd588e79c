#include "lsh/bucket_table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <utility>

#include "util/check.h"

namespace ips {

BucketTable BucketTable::Build(std::span<const std::uint64_t> keys) {
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  IPS_CHECK_LT(keys.size(), std::size_t{kEmpty});
  // Scratch key -> bucket id map: linear probing over a power-of-two
  // slot array at most half full, indexed by Fibonacci hashing. Bucket
  // ids follow first appearance; `counts` tallies rows per bucket.
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(2 * keys.size(), 2));
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<std::uint32_t> slots(capacity, kEmpty);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> distinct;  // key, id
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> bucket_of(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::size_t s =
        static_cast<std::size_t>((keys[i] * 0x9E3779B97F4A7C15ULL) >> shift);
    while (slots[s] != kEmpty && distinct[slots[s]].first != keys[i]) {
      s = (s + 1) & (capacity - 1);
    }
    if (slots[s] == kEmpty) {
      slots[s] = static_cast<std::uint32_t>(counts.size());
      distinct.emplace_back(keys[i], slots[s]);
      counts.push_back(0);
    }
    bucket_of[i] = slots[s];
    ++counts[slots[s]];
  }
  std::sort(distinct.begin(), distinct.end());  // keys are distinct
  BucketTable table;
  table.keys_.resize(distinct.size());
  table.offsets_.resize(distinct.size() + 1);
  for (std::size_t b = 0; b < distinct.size(); ++b) {
    const auto [key, id] = distinct[b];
    table.keys_[b] = key;
    table.offsets_[b + 1] = table.offsets_[b] + counts[id];
    counts[id] = table.offsets_[b];  // from here on: bucket id's fill cursor
  }
  table.rows_.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.rows_[counts[bucket_of[i]]++] = static_cast<std::uint32_t>(i);
  }
  return table;
}

StatusOr<BucketTable> BucketTable::FromArrays(
    std::vector<std::uint64_t> keys, std::vector<std::uint32_t> offsets,
    std::vector<std::uint32_t> rows, std::size_t num_rows) {
  if (offsets.size() != keys.size() + 1) {
    return Status::DataLoss("bucket table has " + std::to_string(keys.size()) +
                            " keys but " + std::to_string(offsets.size()) +
                            " offsets");
  }
  if (offsets.front() != 0 || offsets.back() != rows.size() ||
      rows.size() != num_rows) {
    return Status::DataLoss(
        "bucket offsets run from " + std::to_string(offsets.front()) +
        " to " + std::to_string(offsets.back()) + " over " +
        std::to_string(rows.size()) + " rows, but the table covers " +
        std::to_string(num_rows) + " rows");
  }
  for (std::size_t b = 0; b < keys.size(); ++b) {
    if ((b > 0 && keys[b] <= keys[b - 1]) || offsets[b + 1] <= offsets[b] ||
        offsets[b + 1] > rows.size()) {
      return Status::DataLoss("bucket " + std::to_string(b) +
                              " breaks the ascending key or offset order");
    }
    for (std::uint32_t j = offsets[b]; j < offsets[b + 1]; ++j) {
      if (rows[j] >= num_rows || (j > offsets[b] && rows[j] <= rows[j - 1])) {
        return Status::DataLoss("bucket " + std::to_string(b) + " row " +
                                std::to_string(rows[j]) +
                                " is out of range or out of order");
      }
    }
  }
  BucketTable table;
  table.keys_ = std::move(keys);
  table.offsets_ = std::move(offsets);
  table.rows_ = std::move(rows);
  return table;
}

std::span<const std::uint32_t> BucketTable::Find(std::uint64_t key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return {};
  const auto b = static_cast<std::size_t>(it - keys_.begin());
  return std::span<const std::uint32_t>(rows_).subspan(
      offsets_[b], offsets_[b + 1] - offsets_[b]);
}

}  // namespace ips
