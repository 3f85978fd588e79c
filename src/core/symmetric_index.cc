#include "core/symmetric_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/validate.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace ips {

SymmetricMipsIndex::SymmetricMipsIndex(const Matrix& data, double epsilon,
                                       LshTableParams params, Rng* rng)
    : MipsIndex(data),
      transform_(data.cols(), epsilon, /*fingerprint_bits=*/24),
      base_(transform_.output_dim()),
      lsh_(data, &transform_, base_, params, rng) {
  std::vector<std::uint64_t> fingerprints(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    fingerprints[i] = transform_.Fingerprint(data.Row(i));
  }
  members_ = BucketTable::Build(fingerprints);
}

StatusOr<std::unique_ptr<SymmetricMipsIndex>> SymmetricMipsIndex::Create(
    const Matrix& data, double epsilon, LshTableParams params, Rng* rng) {
  IPS_FAILPOINT("core/symmetric-build");
  if (rng == nullptr) {
    return Status::InvalidArgument(
        "symmetric index requires a non-null rng");
  }
  if (!std::isfinite(epsilon) || epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument(
        "incoherence epsilon must lie in (0, 1), got " +
        std::to_string(epsilon));
  }
  if (params.k < 1 || params.l < 1) {
    return Status::InvalidArgument(
        "symmetric index needs k >= 1 and l >= 1, got k=" +
        std::to_string(params.k) + ", l=" + std::to_string(params.l));
  }
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "symmetric index data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "symmetric index data"));
  IPS_RETURN_IF_ERROR(ValidateMaxNorm(data, 1.0, "symmetric index data"));
  return std::make_unique<SymmetricMipsIndex>(data, epsilon, params, rng);
}

bool SymmetricMipsIndex::LookupExact(std::span<const double> q,
                                     std::size_t* index) const {
  IPS_CHECK(index != nullptr);
  for (std::uint32_t candidate : members_.Find(transform_.Fingerprint(q))) {
    if (std::ranges::equal(data_->Row(candidate), q)) {
      *index = candidate;
      return true;
    }
  }
  return false;
}

std::vector<SearchMatch> SymmetricMipsIndex::Search(
    std::span<const double> q, const QueryOptions& options, QueryStats* stats,
    Trace* trace) const {
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("core.symmetric.queries");
  static Counter* const membership_hits =
      MetricsRegistry::Global().GetCounter("core.symmetric.membership_hits");
  std::size_t exact_index = 0;
  bool member = false;
  {
    TraceSpan span(trace, "membership");
    member = LookupExact(q, &exact_index);
  }
  // The envelope already checked the request, and the inner LSH index
  // answers every request shape over the same dimension.
  std::vector<SearchMatch> matches =
      lsh_.Query(q, options, stats, trace).value();
  if (member) {
    membership_hits->Increment();
    stats->metrics.Set("symmetric.membership_hit", 1);
    // Section 4.2's initial step: the relaxed LSH guarantee disregards
    // the (q, q) pair, so splice the exact self-match in if the tables
    // missed it.
    bool present = false;
    for (const SearchMatch& m : matches) present = present || m.index == exact_index;
    if (!present) {
      const double raw = kernels::Score(q, q);
      matches.push_back({exact_index, options.is_signed ? raw : std::abs(raw)});
      std::sort(matches.begin(), matches.end(), RanksBefore);
      if (matches.size() > options.k) matches.resize(options.k);
      stats->candidates += 1;
      stats->dot_products += 1;
    }
  }
  queries->Increment();
  return matches;
}

}  // namespace ips
