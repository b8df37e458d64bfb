#ifndef RUBIK_CORE_PROFILER_H
#define RUBIK_CORE_PROFILER_H

/**
 * @file
 * Online request profiler.
 *
 * In a real deployment Rubik reads per-request CPI stacks from performance
 * counters to split each request's work into compute cycles and
 * memory-bound time (Sec. 4.2, "Estimating probability distributions").
 * The simulator hands the policy exactly those measurements on completion;
 * this class accumulates them over a sliding window of recent requests and
 * materializes the two distributions the target tail tables need.
 *
 * Each side's histogram is kept up to date as samples arrive: a record()
 * moves one count in and one out, against the window max the counts were
 * binned with. Only when that max may have changed (a larger sample
 * arrived, or the last sample equal to it left the window) are the counts
 * rebuilt from the window, at the next materialization. The result is
 * bitwise the one-shot histogram of the window: the same bucket for every
 * sample, the same integer counts, the same masses.
 */

#include <cstdint>
#include <vector>

#include "core/distribution.h"

namespace rubik {

/**
 * Sliding-window sample store for (compute cycles, memory time) pairs.
 */
class Profiler
{
  public:
    /**
     * @param window_samples Number of most-recent requests retained.
     * @param buckets        Resolution of the produced distributions.
     */
    explicit Profiler(std::size_t window_samples = 4096,
                      std::size_t buckets = 128);

    /// Record a completed request's measured demands.
    void record(double compute_cycles, double memory_time);

    std::size_t numSamples() const { return compute_.window.size(); }

    void clear();

    /// Distribution of per-request compute cycles, P[C = c].
    DiscreteDistribution computeDistribution()
    {
        return compute_.distribution(buckets_);
    }

    /// Distribution of per-request memory-bound time, P[M = t].
    DiscreteDistribution memoryDistribution()
    {
        return memory_.distribution(buckets_);
    }

    /// Full recounts of a side's window since construction or clear(),
    /// summed over both sides. Every other materialization reused the
    /// counts record() kept.
    uint64_t rescans() const { return compute_.rescans + memory_.rescans; }

  private:
    /// One resource's window and the histogram binned over it.
    struct Side
    {
        /// The window in a ring: grows to the window size, then the
        /// oldest sample at `next` is overwritten.
        std::vector<double> window;
        std::size_t next = 0;
        /// Per-bucket sample counts over [0, max * 1.0001), `width`
        /// wide each.
        std::vector<double> counts;
        double width = 0.0;
        /// The window max the counts were binned against, and how many
        /// window samples equal it.
        double max = 0.0;
        std::size_t atMax = 0;
        /// The max may have changed: recount before the next build.
        bool stale = true;
        uint64_t rescans = 0;

        void push(double value, std::size_t capacity);
        DiscreteDistribution distribution(std::size_t buckets);
        void recount(std::size_t buckets);
        /// Histogram::add's bucket for `value` under the current max.
        std::size_t bucketOf(double value) const;
    };

    std::size_t window_;
    std::size_t buckets_;
    Side compute_;
    Side memory_;
};

} // namespace rubik

#endif // RUBIK_CORE_PROFILER_H
