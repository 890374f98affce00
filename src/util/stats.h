// Summary statistics used by the Monte-Carlo reliability simulator and the
// discrete-event serving simulator (TTFT/TBT percentiles, utilization, ...).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace litegpu {

// Streaming mean/variance via Welford's algorithm; O(1) memory.
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Stores all samples; supports exact quantiles. Suitable for the sample
// counts our simulators produce (<= millions). Quantiles, min and max select
// the ranks they need instead of sorting: the first costs about 2n element
// moves, and each later one partitions only the gap between two ranks
// already selected, so a report's handful of quantiles costs about as much
// as the first.
class SampleSet {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  // The sum in storage order over the count: insertion order until the
  // first min, max or Quantile call, which reorders the samples. No report
  // reads it.
  double mean() const;
  double min() const;
  double max() const;
  // Linear-interpolated quantile, q in [0,1]. Returns 0 for empty sets.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  // Every sample once, in an unspecified order (see mean()).
  const std::vector<double>& samples() const { return samples_; }

 private:
  // The value of 0-based rank k in ascending order.
  double Rank(size_t k) const;

  mutable std::vector<double> samples_;
  // Ranks selected so far, ascending: samples_[r] is the r-th smallest, no
  // sample before it is greater and none after it is smaller.
  mutable std::vector<size_t> ranked_;
};

// Streaming fixed-bin latency accumulator: O(bins) memory no matter how
// many samples stream through, unlike SampleSet's O(samples) storage. Bins
// are fixed-width over [0, hi); samples at or above `hi` land in an
// overflow bucket whose quantiles report the tracked exact maximum. Count,
// sum/mean, min, and max are exact; Quantile() interpolates inside the
// containing bin, so it is within one bin width of the exact sample
// quantile. Used for the serving simulator's per-step TBT distribution,
// whose sample count is O(simulated tokens).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double hi = 1.0, size_t bins = 16384);

  void Add(double x);
  // Adds `n` identical samples in O(1) — the per-class TBT accounting adds
  // one decode-step duration per active sequence of the class, so a step
  // with k sequences is one weighted add instead of k.
  void Add(double x, size_t n);

  size_t count() const { return count_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  // The quantile error bound: width of one bin.
  double bin_width() const { return hi_ / static_cast<double>(counts_.size()); }

  // Within bin_width() of the exact sample quantile (SampleSet::Quantile's
  // interpolated-rank convention), q in [0,1]; clamped to the exact
  // [min, max]. Returns 0 for empty histograms.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  // Number of samples at or below `x`, estimated by linear interpolation
  // inside the containing bin (exact at bin boundaries). Used for streamed
  // SLO-attainment checks where the exact sample list is not kept.
  double CountAtOrBelow(double x) const;

  // Folds `other` into this histogram bin-wise. Both must have identical
  // [0, hi) range and bin count — the shard merge path constructs every
  // shard's histogram from the same full-horizon config, so mismatches are
  // programming errors and trip an assert.
  void Merge(const LatencyHistogram& other);

 private:
  // The 0-based order statistic at `rank`, located to within one bin width
  // (overflow ranks report the exact maximum).
  double ValueAtRank(size_t rank) const;

  double hi_ = 1.0;
  std::vector<size_t> counts_;
  size_t overflow_ = 0;  // samples >= hi_
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
// first/last bucket. Used for availability and latency distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);
  size_t bucket_count() const { return counts_.size(); }
  size_t bucket(size_t i) const { return counts_[i]; }
  double bucket_lo(size_t i) const;
  double bucket_hi(size_t i) const;
  size_t total() const { return total_; }

  // Renders a one-line-per-bucket ASCII bar chart (max `width` chars of bar).
  std::string ToAscii(size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

}  // namespace litegpu
