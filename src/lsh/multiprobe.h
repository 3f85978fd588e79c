// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Multiprobe SimHash tables: one table keyed by K SimHash bits, where a
// query additionally probes the buckets reachable by flipping its
// least-confident bits (smallest projection margins |<g_t, q>|). A probe
// sequence of length T recovers much of the recall that plain (K, L)
// tables buy with extra tables, at a fraction of the memory -- the
// classic multiprobe trade-off (Lv et al.), applied to the IPS setting
// through any of the library's data/query transforms. Each table keeps
// its K hyperplanes packed for kernels::ProjectBlock (the build projects
// row blocks, a query one row) and its rows in a BucketTable
// (lsh/bucket_table.h); a query holds no shared scratch, so a built
// index serves concurrent queries.

#ifndef IPS_LSH_MULTIPROBE_H_
#define IPS_LSH_MULTIPROBE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "lsh/bucket_table.h"
#include "rng/random.h"

namespace ips {

/// Parameters of a multiprobe SimHash index.
struct MultiprobeParams {
  /// Hash bits per table (key width); at most 63.
  std::size_t k = 12;
  /// Number of tables.
  std::size_t l = 4;
  /// Number of additional buckets probed per table (0 = exact-key only).
  std::size_t probes = 8;
};

/// L tables of K-bit SimHash keys with margin-ordered probing.
class MultiprobeSimHashTables {
 public:
  /// Builds over `data` (rows are points, hashed directly -- apply any
  /// ALSH transform beforehand). `data` is only read here.
  MultiprobeSimHashTables(const Matrix& data, MultiprobeParams params,
                          Rng* rng);

  /// Candidate rows from the exact bucket plus `params.probes` flipped
  /// buckets per table (deduplicated, ascending).
  std::vector<std::size_t> Query(std::span<const double> q) const;

 private:
  struct Table {
    Matrix planes;  // dim x k: column `bit` is that bit's Gaussian direction
    BucketTable buckets;
  };

  MultiprobeParams params_;
  std::vector<Table> tables_;
};

}  // namespace ips

#endif  // IPS_LSH_MULTIPROBE_H_
