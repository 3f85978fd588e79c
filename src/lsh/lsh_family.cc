#include "lsh/lsh_family.h"

#include "util/check.h"

namespace ips {

BernoulliEstimate EstimateCollisionProbability(const LshFamily& family,
                                               std::span<const double> p,
                                               std::span<const double> q,
                                               std::size_t trials, Rng* rng) {
  IPS_CHECK(rng != nullptr);
  std::size_t collisions = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::unique_ptr<LshFunction> h = family.Sample(rng);
    if (h->HashData(p) == h->HashQuery(q)) ++collisions;
  }
  return EstimateBernoulli(collisions, trials);
}

ConcatenatedLshFunction::ConcatenatedLshFunction(const LshFamily& family,
                                                 std::size_t k, Rng* rng) {
  IPS_CHECK_GE(k, 1u);
  functions_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) functions_.push_back(family.Sample(rng));
}

std::uint64_t ConcatenatedLshFunction::HashData(
    std::span<const double> p) const {
  std::uint64_t state = kConcatKeySeed;
  for (const auto& function : functions_) {
    state = ConcatKeyMix(state, function->HashData(p));
  }
  return state;
}

std::uint64_t ConcatenatedLshFunction::HashQuery(
    std::span<const double> q) const {
  std::uint64_t state = kConcatKeySeed;
  for (const auto& function : functions_) {
    state = ConcatKeyMix(state, function->HashQuery(q));
  }
  return state;
}

namespace {

// Any family's keyer: one ConcatenatedLshFunction per table, each row
// hashed through its virtual HashData / HashQuery.
class ConcatenatedKeyer : public LshKeyer {
 public:
  ConcatenatedKeyer(const LshFamily& family, std::size_t k, std::size_t l,
                    Rng* rng)
      : dim_(family.dim()) {
    functions_.reserve(l);
    for (std::size_t t = 0; t < l; ++t) {
      functions_.emplace_back(family, k, rng);
    }
  }

  void Keys(std::span<const double> rows, HashSide side,
            std::size_t table_begin, std::size_t table_end,
            std::span<std::uint64_t> out) const override {
    const std::size_t n = rows.size() / dim_;
    IPS_DCHECK(rows.size() == n * dim_);
    IPS_DCHECK(table_begin <= table_end && table_end <= functions_.size());
    IPS_DCHECK(out.size() == (table_end - table_begin) * n);
    for (std::size_t t = table_begin; t < table_end; ++t) {
      const ConcatenatedLshFunction& function = functions_[t];
      std::uint64_t* keys = out.data() + (t - table_begin) * n;
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<const double> row = rows.subspan(i * dim_, dim_);
        keys[i] = side == HashSide::kData ? function.HashData(row)
                                          : function.HashQuery(row);
      }
    }
  }

 private:
  std::size_t dim_;
  std::vector<ConcatenatedLshFunction> functions_;
};

}  // namespace

std::unique_ptr<LshKeyer> LshFamily::SampleKeyer(std::size_t k,
                                                 std::size_t l,
                                                 Rng* rng) const {
  IPS_CHECK(rng != nullptr);
  return std::make_unique<ConcatenatedKeyer>(*this, k, l, rng);
}

}  // namespace ips
