// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The complete Section 4.2 search procedure: the symmetric-incoherent
// LSH gives no collision guarantee for a query identical to a data
// vector (the relaxed LSH definition disregards that pair), so the
// paper prescribes "an initial step that verifies whether a query
// vector is in the input set and, if this is the case, returns the
// vector q itself if q^T q >= s". This wrapper adds exactly that exact-
// membership step in front of a symmetric LshMipsIndex: a BucketTable
// (lsh/bucket_table.h) of row fingerprints, whose ascending rows make
// the first bitwise-equal row the answer.

#ifndef IPS_CORE_SYMMETRIC_INDEX_H_
#define IPS_CORE_SYMMETRIC_INDEX_H_

#include "core/mips_index.h"
#include "lsh/bucket_table.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"

namespace ips {

/// Symmetric MIPS index per Section 4.2: membership check + symmetric
/// incoherent LSH.
class SymmetricMipsIndex : public MipsIndex {
 public:
  /// Builds the incoherent lift (coherence epsilon), the base family in
  /// the lifted space, the (K, L) tables, and the exact membership map.
  /// `data` must outlive the index. Preconditions are IPS_CHECKed;
  /// prefer Create for untrusted input.
  SymmetricMipsIndex(const Matrix& data, double epsilon,
                     LshTableParams params, Rng* rng);

  /// Validated construction: rejects empty or non-finite data, rows
  /// outside the unit ball (Section 4.2's embedding needs ||x|| <= 1),
  /// epsilon outside (0, 1), k or l of zero, and a null rng with a
  /// Status instead of aborting. Failpoint: "core/symmetric-build".
  [[nodiscard]] static StatusOr<std::unique_ptr<SymmetricMipsIndex>> Create(
      const Matrix& data, double epsilon, LshTableParams params, Rng* rng);

  std::string Name() const override { return "symmetric-incoherent-lsh"; }
  /// True iff `q` equals (bitwise) some data row; sets *index when so.
  bool LookupExact(std::span<const double> q, std::size_t* index) const;

 private:
  /// Membership check (a "membership" span) followed by the inner LSH
  /// pipeline; an exact self-match the tables missed is spliced into
  /// the top-k.
  std::vector<SearchMatch> Search(std::span<const double> q,
                                  const QueryOptions& options,
                                  QueryStats* stats,
                                  Trace* trace) const override;

  SymmetricIncoherentTransform transform_;
  SimHashFamily base_;
  LshMipsIndex lsh_;
  // Exact membership: fingerprint -> candidate row indices (fingerprint
  // collisions resolved by full comparison).
  BucketTable members_;
};

}  // namespace ips

#endif  // IPS_CORE_SYMMETRIC_INDEX_H_
