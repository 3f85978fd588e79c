#include "lsh/transforms.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "util/check.h"

namespace ips {
namespace {

// sqrt(max(0, 1 - t)) with a tolerance for tiny negative values caused by
// floating-point rounding of ||x||^2 near 1.
double SqrtComplement(double t) {
  const double complement = 1.0 - t;
  IPS_CHECK_GE(complement, -1e-9) << "vector norm exceeds the ball radius";
  return complement > 0.0 ? std::sqrt(complement) : 0.0;
}

}  // namespace

Matrix VectorTransform::TransformDataset(const Matrix& points) const {
  Matrix result(points.rows(), output_dim());
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const std::vector<double> transformed = TransformData(points.Row(i));
    IPS_CHECK_EQ(transformed.size(), output_dim());
    std::copy(transformed.begin(), transformed.end(), result.Row(i).begin());
  }
  return result;
}

Matrix VectorTransform::TransformQueries(const Matrix& points) const {
  Matrix result(points.rows(), output_dim());
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const std::vector<double> transformed = TransformQuery(points.Row(i));
    IPS_CHECK_EQ(transformed.size(), output_dim());
    std::copy(transformed.begin(), transformed.end(), result.Row(i).begin());
  }
  return result;
}

DualBallTransform::DualBallTransform(std::size_t dim, double query_radius)
    : dim_(dim), query_radius_(query_radius) {
  IPS_CHECK_GT(dim, 0u);
  IPS_CHECK_GT(query_radius, 0.0);
}

std::vector<double> DualBallTransform::TransformData(
    std::span<const double> p) const {
  IPS_CHECK_EQ(p.size(), dim_);
  std::vector<double> out(p.begin(), p.end());
  out.push_back(SqrtComplement(kernels::SquaredNorm(p)));
  out.push_back(0.0);
  return out;
}

std::vector<double> DualBallTransform::TransformQuery(
    std::span<const double> q) const {
  IPS_CHECK_EQ(q.size(), dim_);
  std::vector<double> out(q.begin(), q.end());
  kernels::ScaleInPlace(out, 1.0 / query_radius_);
  const double scaled_norm_sq = kernels::SquaredNorm(out);
  out.push_back(0.0);
  out.push_back(SqrtComplement(scaled_norm_sq));
  return out;
}

SimpleMipsTransform::SimpleMipsTransform(std::size_t dim,
                                         double max_data_norm)
    : dim_(dim), max_data_norm_(max_data_norm) {
  IPS_CHECK_GT(dim, 0u);
  IPS_CHECK_GT(max_data_norm, 0.0);
}

std::vector<double> SimpleMipsTransform::TransformData(
    std::span<const double> p) const {
  IPS_CHECK_EQ(p.size(), dim_);
  std::vector<double> out(p.begin(), p.end());
  kernels::ScaleInPlace(out, 1.0 / max_data_norm_);
  const double scaled_norm_sq = kernels::SquaredNorm(out);
  out.push_back(SqrtComplement(scaled_norm_sq));
  return out;
}

std::vector<double> SimpleMipsTransform::TransformQuery(
    std::span<const double> q) const {
  IPS_CHECK_EQ(q.size(), dim_);
  std::vector<double> out = kernels::Normalized(q);
  out.push_back(0.0);
  return out;
}

XboxTransform::XboxTransform(std::size_t dim, double max_data_norm)
    : dim_(dim), max_data_norm_(max_data_norm) {
  IPS_CHECK_GT(dim, 0u);
  IPS_CHECK_GT(max_data_norm, 0.0);
}

std::vector<double> XboxTransform::TransformData(
    std::span<const double> p) const {
  IPS_CHECK_EQ(p.size(), dim_);
  const double norm_sq = kernels::SquaredNorm(p);
  const double m_sq = max_data_norm_ * max_data_norm_;
  IPS_CHECK_LE(norm_sq, m_sq * (1.0 + 1e-9));
  std::vector<double> out(p.begin(), p.end());
  const double lift = m_sq - norm_sq;
  out.push_back(lift > 0.0 ? std::sqrt(lift) : 0.0);
  return out;
}

std::vector<double> XboxTransform::TransformQuery(
    std::span<const double> q) const {
  IPS_CHECK_EQ(q.size(), dim_);
  std::vector<double> out(q.begin(), q.end());
  out.push_back(0.0);
  return out;
}

L2AlshTransform::L2AlshTransform(std::size_t dim, std::size_t m,
                                 double u_scale, double max_data_norm)
    : dim_(dim), m_(m), u_scale_(u_scale), max_data_norm_(max_data_norm) {
  IPS_CHECK_GT(dim, 0u);
  IPS_CHECK_GE(m, 1u);
  IPS_CHECK_GT(u_scale, 0.0);
  IPS_CHECK_LT(u_scale, 1.0);
  IPS_CHECK_GT(max_data_norm, 0.0);
}

std::vector<double> L2AlshTransform::TransformData(
    std::span<const double> p) const {
  IPS_CHECK_EQ(p.size(), dim_);
  std::vector<double> out(p.begin(), p.end());
  kernels::ScaleInPlace(out, u_scale_ / max_data_norm_);
  double power = kernels::SquaredNorm(out);  // ||x'||^2
  for (std::size_t i = 0; i < m_; ++i) {
    out.push_back(power);
    power *= power;  // ||x'||^(2^(i+1)) -> next squared power
  }
  return out;
}

std::vector<double> L2AlshTransform::TransformQuery(
    std::span<const double> q) const {
  IPS_CHECK_EQ(q.size(), dim_);
  std::vector<double> out = kernels::Normalized(q);
  out.insert(out.end(), m_, 0.5);
  return out;
}

MinHashAlshTransform::MinHashAlshTransform(std::size_t dim,
                                           std::size_t max_weight)
    : dim_(dim), max_weight_(max_weight) {
  IPS_CHECK_GT(dim, 0u);
  IPS_CHECK_GE(max_weight, 1u);
}

std::vector<double> MinHashAlshTransform::TransformData(
    std::span<const double> p) const {
  IPS_CHECK_EQ(p.size(), dim_);
  std::size_t weight = 0;
  for (double v : p) {
    IPS_CHECK(v == 0.0 || v == 1.0) << "mh-alsh requires binary vectors";
    if (v == 1.0) ++weight;
  }
  IPS_CHECK_LE(weight, max_weight_);
  std::vector<double> out(p.begin(), p.end());
  out.resize(dim_ + max_weight_, 0.0);
  // Pad with ones so every transformed data vector has weight exactly
  // max_weight_; queries are zero here, so intersections are unchanged.
  for (std::size_t i = 0; i < max_weight_ - weight; ++i) {
    out[dim_ + i] = 1.0;
  }
  return out;
}

std::vector<double> MinHashAlshTransform::TransformQuery(
    std::span<const double> q) const {
  IPS_CHECK_EQ(q.size(), dim_);
  std::vector<double> out(q.begin(), q.end());
  out.resize(dim_ + max_weight_, 0.0);
  return out;
}

SymmetricIncoherentTransform::SymmetricIncoherentTransform(
    std::size_t dim, double epsilon, std::size_t fingerprint_bits)
    : dim_(dim),
      fingerprint_bits_(fingerprint_bits),
      family_(fingerprint_bits >= 64
                  ? ~0ULL
                  : (1ULL << fingerprint_bits),
              epsilon) {
  IPS_CHECK_GT(dim, 0u);
  IPS_CHECK_GE(fingerprint_bits, 1u);
  IPS_CHECK_LE(fingerprint_bits, 64u);
}

std::uint64_t SymmetricIncoherentTransform::Fingerprint(
    std::span<const double> x) const {
  // Hash the exact bit pattern of the coordinates: equal vectors (the
  // finite-precision encodings of Section 4.2) get equal fingerprints.
  std::uint64_t state = 0x61c8864680b583ebULL;
  for (double v : x) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    state ^= bits;
    state = SplitMix64(state);
  }
  return state % family_.size();
}

std::vector<double> SymmetricIncoherentTransform::TransformData(
    std::span<const double> p) const {
  IPS_CHECK_EQ(p.size(), dim_);
  std::vector<double> out(p.begin(), p.end());
  out.resize(dim_ + family_.dim(), 0.0);
  const double lift = SqrtComplement(kernels::SquaredNorm(p));
  if (lift > 0.0) {
    const std::uint64_t index = Fingerprint(p);
    const double value =
        lift / std::sqrt(static_cast<double>(family_.q()));
    for (std::size_t coord : family_.Support(index)) {
      out[dim_ + coord] = value;
    }
  }
  return out;
}

std::vector<double> SymmetricIncoherentTransform::TransformQuery(
    std::span<const double> q) const {
  return TransformData(q);
}

TransformedLshFamily::TransformedLshFamily(const VectorTransform* transform,
                                           const LshFamily* base)
    : transform_(transform), base_(base) {
  IPS_CHECK(transform != nullptr);
  IPS_CHECK(base != nullptr);
  IPS_CHECK_EQ(transform->output_dim(), base->dim());
}

std::string TransformedLshFamily::Name() const {
  return transform_->Name() + "+" + base_->Name();
}

namespace {

class TransformedLshFunction : public LshFunction {
 public:
  TransformedLshFunction(const VectorTransform* transform,
                         std::unique_ptr<LshFunction> base)
      : transform_(transform), base_(std::move(base)) {}

  std::uint64_t HashData(std::span<const double> p) const override {
    return base_->HashData(transform_->TransformData(p));
  }

  std::uint64_t HashQuery(std::span<const double> q) const override {
    return base_->HashQuery(transform_->TransformQuery(q));
  }

 private:
  const VectorTransform* transform_;
  std::unique_ptr<LshFunction> base_;
};

}  // namespace

std::unique_ptr<LshFunction> TransformedLshFamily::Sample(Rng* rng) const {
  return std::make_unique<TransformedLshFunction>(transform_,
                                                  base_->Sample(rng));
}

}  // namespace ips
