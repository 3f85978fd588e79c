// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The (asymmetric) LSH abstraction of Definition 2 in the paper: a family
// H of pairs (h_p, h_q) of hash functions, where data vectors are hashed
// with h_p and query vectors with h_q. A family is
// (s, cs, P1, P2)-asymmetric-LSH for a similarity `sim` when
//   sim(p, q) >= s   =>  Pr_H[h_p(p) = h_q(q)] >= P1, and
//   sim(p, q) <  cs  =>  Pr_H[h_p(p) = h_q(q)] <= P2.
// Symmetric families simply use h_p = h_q.

#ifndef IPS_LSH_LSH_FAMILY_H_
#define IPS_LSH_LSH_FAMILY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rng/random.h"
#include "util/stats.h"

namespace ips {

class VectorTransform;
class LshKeyer;

/// One sampled hash-function pair (h_p, h_q) from a family.
class LshFunction {
 public:
  virtual ~LshFunction() = default;

  /// h_p: hash of a data vector.
  virtual std::uint64_t HashData(std::span<const double> p) const = 0;

  /// h_q: hash of a query vector. Symmetric families forward to HashData.
  virtual std::uint64_t HashQuery(std::span<const double> q) const = 0;
};

/// A distribution over hash-function pairs (Definition 2).
class LshFamily {
 public:
  virtual ~LshFamily() = default;

  /// Human-readable family name ("simhash", "e2lsh(w=4)", ...).
  virtual std::string Name() const = 0;

  /// Dimension of vectors the family hashes.
  virtual std::size_t dim() const = 0;

  /// Samples a fresh (h_p, h_q) pair.
  virtual std::unique_ptr<LshFunction> Sample(Rng* rng) const = 0;

  /// Samples the `l` concatenated functions of a (k, l) index, table by
  /// table, each from `k` Sample() draws: the same functions, from the
  /// same Rng draws, as `l` ConcatenatedLshFunctions sampled in turn,
  /// and the same keys. The default wraps exactly those; a family with a
  /// batched kernel (SimHash) overrides it to hash a block of rows at
  /// once.
  virtual std::unique_ptr<LshKeyer> SampleKeyer(std::size_t k,
                                                std::size_t l,
                                                Rng* rng) const;

  /// True when h_p == h_q by construction.
  virtual bool IsSymmetric() const { return false; }

  /// The map this family applies to every vector before hashing it, or
  /// nullptr when it hashes vectors as given. A pass over many rows maps
  /// each row once with it and hashes the result with base(), instead of
  /// re-running the map inside every sampled function.
  virtual const VectorTransform* transform() const { return nullptr; }

  /// The family that hashes transform()'s output; *this when there is no
  /// transform. Samples exactly the functions Sample() would wrap, from
  /// the same Rng draws.
  virtual const LshFamily& base() const { return *this; }
};

/// Convenience base for symmetric families: implement HashData only.
class SymmetricLshFunction : public LshFunction {
 public:
  std::uint64_t HashQuery(std::span<const double> q) const final {
    return HashData(q);
  }
};

/// Monte-Carlo estimate of Pr_H[h_p(p) = h_q(q)] from `trials` fresh
/// samples of the family.
BernoulliEstimate EstimateCollisionProbability(const LshFamily& family,
                                               std::span<const double> p,
                                               std::span<const double> q,
                                               std::size_t trials, Rng* rng);

/// The key mix of a concatenated function: a table's key starts at
/// kConcatKeySeed and folds in each constituent hash in draw order.
inline constexpr std::uint64_t kConcatKeySeed = 0x8000000080001111ULL;
inline std::uint64_t ConcatKeyMix(std::uint64_t state, std::uint64_t hash) {
  return state ^ (hash + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2));
}

/// A (h_p, h_q) pair formed by concatenating `k` independent draws;
/// collides iff all k constituents collide (AND-amplification).
/// Collision probability is P^k when the base collides w.p. P.
class ConcatenatedLshFunction : public LshFunction {
 public:
  ConcatenatedLshFunction(const LshFamily& family, std::size_t k, Rng* rng);

  std::uint64_t HashData(std::span<const double> p) const override;
  std::uint64_t HashQuery(std::span<const double> q) const override;

 private:
  std::vector<std::unique_ptr<LshFunction>> functions_;
};

/// Which function of a sampled pair hashes a row: h_p or h_q.
enum class HashSide { kData, kQuery };

/// The sampled tables of a (k, l) index, hashing whole blocks of rows:
/// the one path by which tables, bucket joins and snapshot restores
/// turn rows into keys. Immutable once sampled; Keys keeps its scratch
/// local, so one keyer serves concurrent callers.
class LshKeyer {
 public:
  virtual ~LshKeyer() = default;

  /// Writes the key of every row of `rows` (row-major, the family's
  /// dim() entries each) in every table t of [table_begin, table_end)
  /// of the l sampled, hashed on `side`, to
  /// out[(t - table_begin) * num_rows + i]. Requires out.size() to be
  /// (table_end - table_begin) * num_rows.
  virtual void Keys(std::span<const double> rows, HashSide side,
                    std::size_t table_begin, std::size_t table_end,
                    std::span<std::uint64_t> out) const = 0;
};

}  // namespace ips

#endif  // IPS_LSH_LSH_FAMILY_H_
