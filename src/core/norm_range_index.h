// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// LEMP-style norm-range MIPS index (Teflioudi et al. [50], the
// recommender-systems motivation of the paper): sort data vectors by
// norm and partition them into buckets; for a query q, buckets are
// visited in decreasing max-norm order and a bucket is pruned outright
// once max_norm * ||q|| falls below the current threshold (every later
// bucket is even smaller). Inside a live bucket the problem becomes
// *cosine* similarity search at local threshold
// t_b = threshold / (max_norm_b * ||q||), solved either by a SimHash
// probe (high t_b: selective) or an exact scan (low t_b) -- the
// adaptive choice that makes LEMP effective on norm-skewed data.

#ifndef IPS_CORE_NORM_RANGE_INDEX_H_
#define IPS_CORE_NORM_RANGE_INDEX_H_

#include <memory>
#include <vector>

#include "core/mips_index.h"
#include "lsh/simhash.h"
#include "lsh/tables.h"

namespace ips {

/// Tuning of the norm-range index.
struct NormRangeParams {
  /// Data vectors per norm bucket.
  std::size_t bucket_size = 128;
  /// Local cosine threshold above which a bucket uses its LSH probe
  /// instead of an exact scan.
  double lsh_cosine_threshold = 0.7;
  /// Amplification of the per-bucket cosine tables.
  LshTableParams lsh_params = {.k = 8, .l = 16};
};

/// Signed MIPS index over norm-sorted buckets.
class NormRangeIndex : public MipsIndex {
 public:
  /// `data` must outlive the index.
  NormRangeIndex(const Matrix& data, const NormRangeParams& params,
                 Rng* rng);

  std::string Name() const override { return "norm-range(lemp)"; }

  /// Query restricted to matches scoring >= `floor`: the bucket prune
  /// runs against max(k-th best so far, floor), so buckets that cannot
  /// reach the floor are never opened, and only matches >= floor are
  /// returned. With k = 1 and floor = cs this is the (cs, s)-search of
  /// Definition 1, which IndexJoin runs on this index. Same envelope
  /// (validation, trace) as Query.
  [[nodiscard]] StatusOr<std::vector<SearchMatch>> QueryAbove(
      std::span<const double> q, const QueryOptions& options, double floor,
      QueryStats* stats = nullptr, Trace* trace = nullptr) const;

  std::size_t num_buckets() const { return buckets_.size(); }

 private:
  /// Signed, exact precision only (kAuto / kExact): the bucket prune
  /// bounds exact signed scores.
  Status CheckAnswerable(const QueryOptions& options) const override;
  /// Signed top-k over the norm-sorted buckets: SearchAbove with no
  /// floor. Reports through stats and "core.normrange.*".
  std::vector<SearchMatch> Search(std::span<const double> q,
                                  const QueryOptions& options,
                                  QueryStats* stats,
                                  Trace* trace) const override;
  std::vector<SearchMatch> SearchAbove(std::span<const double> q,
                                       const QueryOptions& options,
                                       double floor, QueryStats* stats,
                                       Trace* trace) const;

  struct Bucket {
    std::vector<std::uint32_t> members;  // original data indices
    double max_norm = 0.0;
    Matrix directions;  // normalized member vectors (rows align with
                        // members)
    std::unique_ptr<SimHashFamily> family;
    std::unique_ptr<LshTables> tables;
  };

  NormRangeParams params_;
  std::vector<Bucket> buckets_;  // descending max_norm
};

}  // namespace ips

#endif  // IPS_CORE_NORM_RANGE_INDEX_H_
