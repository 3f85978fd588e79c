// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The one key -> rows layout behind every LSH bucket lookup: an
// immutable compressed-sparse-row (CSR) table. B buckets are stored as
// B strictly ascending distinct 64-bit keys, B + 1 offsets and one row
// array; bucket b holds rows[offsets[b], offsets[b + 1]), ascending.
// The (K, L) index tables, the bucket join, the multiprobe tables, the
// symmetric index's membership check and the LSHT snapshot section all
// hold this one type, so a bucket costs two array slots, not a heap
// vector, and a snapshot writes and reads the arrays as they are.

#ifndef IPS_LSH_BUCKET_TABLE_H_
#define IPS_LSH_BUCKET_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace ips {

class BucketTable {
 public:
  /// An empty table: no buckets, no rows.
  BucketTable() = default;

  /// Buckets rows 0..keys.size()-1, row i under `keys[i]`. One pass
  /// counts rows per distinct key through a flat open-addressing
  /// scratch table, the distinct keys are sorted, and a second pass
  /// fills each bucket in ascending row order.
  [[nodiscard]] static BucketTable Build(std::span<const std::uint64_t> keys);

  /// Adopts persisted arrays over `num_rows` rows after checking every
  /// invariant: keys strictly ascending, offsets[0] == 0, offsets
  /// strictly increasing (no empty bucket), one more offset than keys,
  /// offsets.back() == rows.size() == num_rows, and every row below
  /// num_rows and ascending within its bucket. Any violation is
  /// kDataLoss.
  [[nodiscard]] static StatusOr<BucketTable> FromArrays(
      std::vector<std::uint64_t> keys, std::vector<std::uint32_t> offsets,
      std::vector<std::uint32_t> rows, std::size_t num_rows);

  /// Rows whose key is `key` (ascending), by binary search over the
  /// keys; empty when no row carries it.
  [[nodiscard]] std::span<const std::uint32_t> Find(std::uint64_t key) const;

  /// Rows of bucket `b` (b < keys().size()), ascending.
  [[nodiscard]] std::span<const std::uint32_t> Bucket(std::size_t b) const;

  std::span<const std::uint64_t> keys() const { return keys_; }
  std::span<const std::uint32_t> offsets() const { return offsets_; }
  std::span<const std::uint32_t> rows() const { return rows_; }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> offsets_ = {0};
  std::vector<std::uint32_t> rows_;
};

/// A transient flat key -> bucket map over one BucketTable, for a loop
/// that probes many more keys than the table holds (the bucket join
/// walks the larger side's keys through the smaller side's table): a
/// hashed slot probe per key instead of Find's binary search. It uses
/// the open-addressing scheme of Build's scratch at most an eighth
/// full, holds a pointer to `table` (which must outlive it) and is
/// never persisted.
class BucketDirectory {
 public:
  explicit BucketDirectory(const BucketTable& table);

  /// Same answer as table.Find(key).
  [[nodiscard]] std::span<const std::uint32_t> Find(std::uint64_t key) const;

 private:
  const BucketTable* table_;
  std::vector<std::uint32_t> slots_;  // bucket index, or empty
};

}  // namespace ips

#endif  // IPS_LSH_BUCKET_TABLE_H_
