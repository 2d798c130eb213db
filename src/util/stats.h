// Streaming statistics accumulators used by the benchmark harnesses.
#pragma once

#include <cstddef>
#include <vector>

namespace mcharge {

/// Online mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Collects raw samples; supports exact quantiles. For small sample counts
/// (benchmark replications), memory is not a concern.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double stddev() const;
  /// Exact q-quantile by linear interpolation, q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace mcharge
