// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Summary statistics: online moments, batch percentiles and a rolling
// p99. Used by the benchmark harness, by statistical tests of collision
// probabilities and by the serving layer's latency trackers.

#ifndef IPS_UTIL_STATS_H_
#define IPS_UTIL_STATS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ips {

/// Streaming mean/variance accumulator (Welford's algorithm).
class OnlineStats {
 public:
  /// Folds `value` into the running moments.
  void Add(double value);

  /// Number of samples added so far.
  std::size_t count() const { return count_; }

  /// Arithmetic mean; 0 when empty.
  double Mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Unbiased sample variance; 0 with fewer than two samples.
  double Variance() const;

  /// sqrt(Variance()).
  double StdDev() const;

  /// Standard error of the mean: StdDev()/sqrt(count).
  double StdError() const;

  double Min() const { return min_; }
  double Max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Batch summary over a sample vector.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  /// One-line human-readable rendering.
  std::string ToString() const;
};

/// Computes a Summary of `samples`. Leaves `samples` unmodified.
Summary Summarize(std::vector<double> samples);

/// Linear-interpolation percentile of `sorted` (must be sorted ascending),
/// `q` in [0, 1]. Returns 0 for an empty vector.
double Percentile(const std::vector<double>& sorted, double q);

/// The last N samples of a stream and their nearest-rank p99: the
/// ceil(0.99 n)-th smallest of the n = min(count(), N) samples held.
template <std::size_t N>
class RollingP99 {
 public:
  /// Records `sample`, overwriting the oldest once N are held.
  void Add(double sample) {
    samples_[count_ % N] = sample;
    ++count_;
  }

  /// Samples added so far (not capped at N).
  std::size_t count() const { return count_; }

  /// The nearest-rank p99 of the samples held; 0 when empty.
  double P99() const {
    const auto n = static_cast<std::ptrdiff_t>(std::min(count_, N));
    if (n == 0) return 0.0;
    std::array<double, N> held = samples_;
    const auto rank = held.begin() + (n * 99 + 99) / 100 - 1;  // ceil(0.99 n)
    std::nth_element(held.begin(), rank, held.begin() + n);
    return *rank;
  }

 private:
  std::array<double, N> samples_{};
  std::size_t count_ = 0;
};

/// Fraction of `trials` Bernoulli successes, with a convenience for the
/// +-z*sqrt(p(1-p)/n) normal-approximation half-width used by statistical
/// tests of collision probabilities.
struct BernoulliEstimate {
  double p_hat = 0.0;
  std::size_t trials = 0;

  /// Normal-approximation half-width of a confidence interval at `z`
  /// standard deviations (z=3 for approximately 99.7% coverage).
  double HalfWidth(double z) const;
};

/// Counts successes/trials into a BernoulliEstimate.
BernoulliEstimate EstimateBernoulli(std::size_t successes, std::size_t trials);

}  // namespace ips

#endif  // IPS_UTIL_STATS_H_
