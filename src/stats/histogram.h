#ifndef RUBIK_STATS_HISTOGRAM_H
#define RUBIK_STATS_HISTOGRAM_H

/**
 * @file
 * Fixed-bucket-count histogram over a dynamic range.
 *
 * This is the sample-collection side of Rubik's online profiling: per-request
 * compute-cycle and memory-time samples are accumulated here and later
 * normalized into a DiscreteDistribution for the statistical model.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rubik {

/**
 * Histogram with a fixed number of equal-width buckets covering [0, max).
 * The range grows geometrically when a sample exceeds it (existing counts
 * are rebinned), so a single pass over unknown-scale data works.
 */
class Histogram
{
  public:
    /**
     * @param num_buckets Number of buckets (Rubik uses 128).
     * @param initial_max Initial upper edge of the covered range.
     */
    explicit Histogram(std::size_t num_buckets = 128,
                       double initial_max = 1.0);

    /// Add a sample (value >= 0; negatives are clamped to 0).
    void add(double value);

    /// Add a sample with a fractional weight.
    void addWeighted(double value, double weight);

    /// Remove all samples.
    void clear();

    /// Total weight of accumulated samples.
    double totalWeight() const { return totalWeight_; }

    /// Number of add() calls since construction/clear().
    uint64_t count() const { return count_; }

    std::size_t numBuckets() const { return counts_.size(); }
    double bucketWidth() const { return max_ / numBuckets(); }
    double max() const { return max_; }

    /// Weight in bucket i.
    double bucketWeight(std::size_t i) const { return counts_[i]; }

    /// Every bucket's weight, in bucket order.
    const std::vector<double> &counts() const { return counts_; }

    /// Midpoint value of bucket i.
    double bucketMid(std::size_t i) const
    {
        return (static_cast<double>(i) + 0.5) * bucketWidth();
    }

    /// Mean of the binned samples (0 if empty).
    double mean() const;

    /// Variance of the binned samples (0 if empty).
    double variance() const;

    /**
     * Quantile of the binned distribution with linear interpolation
     * within the bucket. q in [0, 1].
     */
    double quantile(double q) const;

    /// Normalized bucket masses (sums to 1; empty histogram -> all zeros).
    std::vector<double> normalized() const;

  private:
    /// Grow range to cover value, rebinning existing counts.
    void grow(double value);

    std::vector<double> counts_;
    double max_;
    double totalWeight_;
    uint64_t count_;
};

} // namespace rubik

#endif // RUBIK_STATS_HISTOGRAM_H
