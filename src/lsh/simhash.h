// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// SimHash / hyperplane LSH (Charikar [15,16]): h(x) = sign(<g, x>) for a
// Gaussian g. For unit vectors, Pr[h(x) = h(y)] = 1 - angle(x, y)/pi.
// This is the base hash used by the SIMP-ALSH of Neyshabur-Srebro [39]
// and by Valiant's reduction of R^d to {-1,1}^d.

#ifndef IPS_LSH_SIMHASH_H_
#define IPS_LSH_SIMHASH_H_

#include <cstddef>

#include "lsh/lsh_family.h"

namespace ips {

/// Family of sign-of-random-projection hash functions.
class SimHashFamily : public LshFamily {
 public:
  explicit SimHashFamily(std::size_t dim);

  std::string Name() const override { return "simhash"; }
  std::size_t dim() const override { return dim_; }
  std::unique_ptr<LshFunction> Sample(Rng* rng) const override;
  bool IsSymmetric() const override { return true; }

  /// Draws the l * k hyperplanes in Sample() order and packs them
  /// transposed, eight tables per block, so Keys projects a block of
  /// rows onto a group's hyperplanes with one kernels::ProjectBlock
  /// call. Keys equal the default keyer's by construction: a sampled
  /// function's HashData runs the same kernel on one row and one plane.
  std::unique_ptr<LshKeyer> SampleKeyer(std::size_t k, std::size_t l,
                                        Rng* rng) const override;

  /// Analytic collision probability 1 - acos(cosine)/pi for two vectors
  /// with the given cosine similarity.
  static double CollisionProbability(double cosine);

 private:
  std::size_t dim_;
};

}  // namespace ips

#endif  // IPS_LSH_SIMHASH_H_
