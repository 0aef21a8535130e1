// Online statistics for Monte-Carlo experiments.
//
// The experiment harnesses report means with confidence intervals and
// proportions with Wilson score bounds so that "measured ≤ paper bound"
// statements in EXPERIMENTS.md are statistically meaningful rather than
// single-sample anecdotes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace bprc {

/// Wall-clock throughput meter for harness instrumentation: ns/item and
/// items/sec over a steady_clock interval. Used by the torture campaign's
/// per-run step-rate log line.
///
/// This is strictly OUTSIDE the deterministic simulation: readings must
/// never feed back into scheduling, seeds, or any simulated decision —
/// the only sanctioned nondeterminism is the watchdog deadline.
class Throughput {
 public:
  Throughput() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  double elapsed_seconds() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

  /// Nanoseconds per item so far; zero items yields zero.
  double ns_per(std::uint64_t items) const {
    return items == 0 ? 0.0
                      : static_cast<double>(elapsed_ns()) /
                            static_cast<double>(items);
  }

  /// Items per second so far; clamps to zero on a sub-tick interval.
  double per_second(std::uint64_t items) const {
    const double secs = elapsed_seconds();
    return secs > 0.0 ? static_cast<double>(items) / secs : 0.0;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Welford online mean/variance accumulator with min/max tracking.
class RunningStat {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Unbiased sample variance; zero for fewer than two samples.
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  /// Standard error of the mean.
  double sem() const {
    return count_ > 0 ? stddev() / std::sqrt(static_cast<double>(count_))
                      : 0.0;
  }

  /// Half-width of the ~95% normal-approximation confidence interval.
  double ci95_halfwidth() const { return 1.96 * sem(); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Success-count accumulator for estimating probabilities.
class Proportion {
 public:
  void add(bool success) {
    ++trials_;
    if (success) ++successes_;
  }

  std::uint64_t trials() const { return trials_; }
  std::uint64_t successes() const { return successes_; }

  double estimate() const {
    return trials_ > 0
               ? static_cast<double>(successes_) / static_cast<double>(trials_)
               : 0.0;
  }

  /// Wilson score interval (z = 1.96). Well-behaved near 0 and 1, which is
  /// where the paper's rare-event bounds (overflow, disagreement) live.
  struct Interval {
    double low;
    double high;
  };
  Interval wilson95() const {
    if (trials_ == 0) return {0.0, 1.0};
    const double z = 1.96;
    const double n = static_cast<double>(trials_);
    const double p = estimate();
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
    return {std::max(0.0, center - half), std::min(1.0, center + half)};
  }

 private:
  std::uint64_t trials_ = 0;
  std::uint64_t successes_ = 0;
};

/// Stores all samples; supports exact quantiles. Use for distributions the
/// experiments print (rounds-to-decide, steps-to-decide).
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return values_.size(); }

  double mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

  /// Exact empirical quantile, q in [0,1].
  double quantile(double q) {
    BPRC_REQUIRE(!values_.empty(), "quantile of empty sample set");
    BPRC_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order out of range");
    ensure_sorted();
    const double pos = q * static_cast<double>(values_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values_[lo] * (1.0 - frac) + values_[hi] * frac;
  }

  double median() { return quantile(0.5); }
  double max() {
    ensure_sorted();
    return values_.empty() ? 0.0 : values_.back();
  }

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }

  std::vector<double> values_;
  bool sorted_ = true;
};

/// Least-squares fit of y = a * x^k for a fixed exponent k; used to check
/// "steps grow like n^2" style claims. Returns the coefficient a and the
/// per-point relative residuals' max magnitude.
struct PowerFit {
  double coefficient;
  double max_rel_residual;
};

inline PowerFit fit_power(const std::vector<double>& xs,
                          const std::vector<double>& ys, double exponent) {
  BPRC_REQUIRE(xs.size() == ys.size() && !xs.empty(),
               "power fit needs matched, non-empty inputs");
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double b = std::pow(xs[i], exponent);
    num += ys[i] * b;
    den += b * b;
  }
  const double a = num / den;
  double max_rel = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = a * std::pow(xs[i], exponent);
    if (pred != 0.0) {
      max_rel = std::max(max_rel, std::abs(ys[i] - pred) / pred);
    }
  }
  return {a, max_rel};
}

}  // namespace bprc
