#ifndef RUBIK_STATS_LATENCY_HISTOGRAM_H
#define RUBIK_STATS_LATENCY_HISTOGRAM_H

/**
 * @file
 * Fixed-footprint nanosecond histogram for decision-latency telemetry.
 *
 * The serve daemon times a sample of its frequency decisions; at
 * >=1 M decisions/s the recorder itself must cost a handful of ns and
 * no allocation. Samples land in 64 power-of-two buckets (bucket b
 * counts latencies in [2^(b-1), 2^b) ns), so add() is a
 * count-leading-zeros plus an increment, and percentiles come from a
 * cumulative walk with linear interpolation inside the winning bucket.
 * The histogram is a summary, not a sample store: memory is O(1)
 * regardless of how long the daemon runs.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace rubik {

/// Log2-bucketed ns histogram with exact count/max/sum.
class LatencyHistogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    /// Record one latency sample (ns). 0 is folded into bucket 0.
    void add(uint64_t ns)
    {
        ++counts_[bucketOf(ns)];
        ++count_;
        sum_ += ns;
        if (ns > max_)
            max_ = ns;
    }

    /// Fold another histogram into this one.
    void merge(const LatencyHistogram &other);

    void reset();

    uint64_t count() const { return count_; }
    uint64_t maxNs() const { return max_; }

    /// Mean latency (ns); 0 when empty.
    double meanNs() const
    {
        return count_ > 0
                   ? static_cast<double>(sum_) /
                         static_cast<double>(count_)
                   : 0.0;
    }

    /**
     * q-percentile latency in ns (q in [0, 1]), interpolated linearly
     * inside the winning power-of-two bucket and clamped to the
     * observed max. 0 when empty.
     */
    double percentileNs(double q) const;

    /// Bucket index for a sample: floor(log2(ns)) + 1, 0 for ns <= 1,
    /// clamped so samples >= 2^63 land in the top bucket.
    static std::size_t bucketOf(uint64_t ns)
    {
        if (ns <= 1)
            return 0;
        return std::min(kBuckets - 1,
                        kBuckets - static_cast<std::size_t>(
                                       __builtin_clzll(ns - 1)));
    }

    const uint64_t *counts() const { return counts_; }

  private:
    uint64_t counts_[kBuckets] = {};
    uint64_t count_ = 0;
    uint64_t max_ = 0;
    uint64_t sum_ = 0;
};

} // namespace rubik

#endif // RUBIK_STATS_LATENCY_HISTOGRAM_H
