// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Asymmetric (and symmetric) vector transforms that reduce inner product
// similarity to angular / Euclidean similarity, turning any sphere LSH
// into an (A)LSH for IPS:
//
//  * DualBallTransform      -- the paper's Section 4.1 map (from [39,12]):
//       data p -> (p, sqrt(1-||p||^2), 0), query q -> (q/U, 0,
//       sqrt(1-||q/U||^2)); both land on the unit sphere and inner
//       products are preserved up to the factor 1/U.
//  * SimpleMipsTransform    -- "Simple-LSH" of Neyshabur-Srebro [39]:
//       data p -> (p/M, sqrt(1-||p/M||^2)), query q -> (q/||q||, 0).
//  * XboxTransform          -- Bachrach et al. [12]: like SimpleMips but
//       the query keeps its length (only data is lifted).
//  * L2AlshTransform        -- Shrivastava-Li [45]: append norm powers
//       ||x||^2, ||x||^4, ..., ||x||^(2^m) to data and 1/2's to queries;
//       use with E2LSH.
//  * MinHashAlshTransform   -- asymmetric minwise hashing [46] for binary
//       vectors: pad data with ones up to weight M, queries with zeros;
//       use with MinHash.
//  * SymmetricIncoherentTransform -- Section 4.2: the *symmetric* map
//       x -> (x, sqrt(1-||x||^2) * v_u(x)) with v from an explicit
//       Reed-Solomon incoherent family; preserves inner products up to
//       +-epsilon for all pairs x != y (no guarantee when x == y).
//
// TransformedLshFamily composes a transform with any base LshFamily.

#ifndef IPS_LSH_TRANSFORMS_H_
#define IPS_LSH_TRANSFORMS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "codes/incoherent.h"
#include "linalg/matrix.h"
#include "lsh/lsh_family.h"

namespace ips {

/// A pair of maps (data transform, query transform) into a common space.
class VectorTransform {
 public:
  virtual ~VectorTransform() = default;

  virtual std::string Name() const = 0;
  virtual std::size_t input_dim() const = 0;
  virtual std::size_t output_dim() const = 0;

  /// Map applied to data vectors.
  virtual std::vector<double> TransformData(
      std::span<const double> p) const = 0;

  /// Map applied to query vectors.
  virtual std::vector<double> TransformQuery(
      std::span<const double> q) const = 0;

  /// True when TransformData == TransformQuery pointwise.
  virtual bool IsSymmetric() const { return false; }

  /// Applies TransformData to every row.
  Matrix TransformDataset(const Matrix& points) const;

  /// Applies TransformQuery to every row.
  Matrix TransformQueries(const Matrix& points) const;
};

/// Section 4.1: both sides land on the unit sphere in d+2 dimensions.
/// Requires ||p|| <= 1 and ||q|| <= U.
class DualBallTransform : public VectorTransform {
 public:
  DualBallTransform(std::size_t dim, double query_radius);

  std::string Name() const override { return "dual-ball"; }
  std::size_t input_dim() const override { return dim_; }
  std::size_t output_dim() const override { return dim_ + 2; }
  std::vector<double> TransformData(std::span<const double> p) const override;
  std::vector<double> TransformQuery(std::span<const double> q) const override;

 private:
  std::size_t dim_;
  double query_radius_;
};

/// Neyshabur-Srebro "Simple-LSH" [39]. Requires ||p|| <= max_data_norm.
class SimpleMipsTransform : public VectorTransform {
 public:
  SimpleMipsTransform(std::size_t dim, double max_data_norm);

  std::string Name() const override { return "simple-mips"; }
  std::size_t input_dim() const override { return dim_; }
  std::size_t output_dim() const override { return dim_ + 1; }
  std::vector<double> TransformData(std::span<const double> p) const override;
  std::vector<double> TransformQuery(std::span<const double> q) const override;

 private:
  std::size_t dim_;
  double max_data_norm_;
};

/// Bachrach et al. [12] Euclidean lift; queries untouched (zero-padded).
class XboxTransform : public VectorTransform {
 public:
  XboxTransform(std::size_t dim, double max_data_norm);

  std::string Name() const override { return "xbox"; }
  std::size_t input_dim() const override { return dim_; }
  std::size_t output_dim() const override { return dim_ + 1; }
  std::vector<double> TransformData(std::span<const double> p) const override;
  std::vector<double> TransformQuery(std::span<const double> q) const override;

 private:
  std::size_t dim_;
  double max_data_norm_;
};

/// Shrivastava-Li L2-ALSH [45] with m appended norm powers and data
/// pre-scaled so max norm is `u_scale` < 1. Queries are normalized to
/// unit length and padded with 1/2 entries.
class L2AlshTransform : public VectorTransform {
 public:
  L2AlshTransform(std::size_t dim, std::size_t m, double u_scale,
                  double max_data_norm);

  std::string Name() const override { return "l2-alsh"; }
  std::size_t input_dim() const override { return dim_; }
  std::size_t output_dim() const override { return dim_ + m_; }
  std::vector<double> TransformData(std::span<const double> p) const override;
  std::vector<double> TransformQuery(std::span<const double> q) const override;

  std::size_t m() const { return m_; }

 private:
  std::size_t dim_;
  std::size_t m_;
  double u_scale_;
  double max_data_norm_;
};

/// Asymmetric minwise hashing [46] for 0/1 vectors: data padded with
/// ones up to weight `max_weight` in a dedicated padding region, queries
/// padded with zeros. Use with MinHashFamily.
class MinHashAlshTransform : public VectorTransform {
 public:
  MinHashAlshTransform(std::size_t dim, std::size_t max_weight);

  std::string Name() const override { return "mh-alsh"; }
  std::size_t input_dim() const override { return dim_; }
  std::size_t output_dim() const override { return dim_ + max_weight_; }
  std::vector<double> TransformData(std::span<const double> p) const override;
  std::vector<double> TransformQuery(std::span<const double> q) const override;

 private:
  std::size_t dim_;
  std::size_t max_weight_;
};

/// Section 4.2: symmetric lift onto the unit sphere through an explicit
/// incoherent family. Inner products of *distinct* vectors are preserved
/// up to +-epsilon; identical vectors map to the same point (inner
/// product 1), which is exactly the case the relaxed LSH definition
/// disregards. Requires ||x|| <= 1.
class SymmetricIncoherentTransform : public VectorTransform {
 public:
  /// `fingerprint_bits` controls the size of the underlying family
  /// (2^fingerprint_bits vectors); 32 is plenty for experiments.
  SymmetricIncoherentTransform(std::size_t dim, double epsilon,
                               std::size_t fingerprint_bits = 32);

  std::string Name() const override { return "symmetric-incoherent"; }
  std::size_t input_dim() const override { return dim_; }
  std::size_t output_dim() const override { return dim_ + family_.dim(); }
  std::vector<double> TransformData(std::span<const double> p) const override;
  std::vector<double> TransformQuery(std::span<const double> q) const override;
  bool IsSymmetric() const override { return true; }

  const RsIncoherentFamily& family() const { return family_; }

  /// The 64-bit fingerprint (mod family size) identifying x's incoherent
  /// companion vector; equal vectors get equal fingerprints.
  std::uint64_t Fingerprint(std::span<const double> x) const;

 private:
  std::size_t dim_;
  std::size_t fingerprint_bits_;
  RsIncoherentFamily family_;
};

/// An LshFamily that first applies a transform, then a base family
/// sampled in the transform's output space.
class TransformedLshFamily : public LshFamily {
 public:
  /// Both pointers must outlive the family.
  TransformedLshFamily(const VectorTransform* transform,
                       const LshFamily* base);

  std::string Name() const override;
  std::size_t dim() const override { return transform_->input_dim(); }
  std::unique_ptr<LshFunction> Sample(Rng* rng) const override;
  bool IsSymmetric() const override {
    return transform_->IsSymmetric() && base_->IsSymmetric();
  }
  const VectorTransform* transform() const override { return transform_; }
  const LshFamily& base() const override { return *base_; }

 private:
  const VectorTransform* transform_;
  const LshFamily* base_;
};

}  // namespace ips

#endif  // IPS_LSH_TRANSFORMS_H_
