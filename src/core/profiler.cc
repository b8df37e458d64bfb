#include "core/profiler.h"

#include <algorithm>

#include "util/error.h"

namespace rubik {

Profiler::Profiler(std::size_t window_samples, std::size_t buckets)
    : window_(window_samples), buckets_(buckets)
{
    RUBIK_ASSERT(window_samples >= 2, "window too small");
}

void
Profiler::record(double compute_cycles, double memory_time)
{
    compute_.push(std::max(0.0, compute_cycles), window_);
    memory_.push(std::max(0.0, memory_time), window_);
}

void
Profiler::clear()
{
    compute_ = Side{};
    memory_ = Side{};
}

void
Profiler::Side::push(double value, std::size_t capacity)
{
    const bool full = window.size() == capacity;
    const double evicted = full ? window[next] : 0.0;
    if (full) {
        window[next] = value;
        if (++next == capacity)
            next = 0;
    } else {
        window.push_back(value);
    }
    if (stale)
        return;

    // A sample above the max, or the eviction of the last sample equal
    // to it, moves the max and with it every bucket edge.
    if (value > max) {
        stale = true;
        return;
    }
    if (value == max)
        ++atMax;
    if (full && evicted == max && --atMax == 0) {
        stale = true;
        return;
    }
    // A zero max is a point mass at 0 whatever the counts hold.
    if (max <= 0.0)
        return;
    counts[bucketOf(value)] += 1.0;
    if (full)
        counts[bucketOf(evicted)] -= 1.0;
}

std::size_t
Profiler::Side::bucketOf(double value) const
{
    const auto idx = static_cast<std::size_t>(value / width);
    return std::min(idx, counts.size() - 1);
}

void
Profiler::Side::recount(std::size_t buckets)
{
    max = 0.0;
    for (const double v : window)
        max = std::max(max, v);
    const auto ties = std::count(window.begin(), window.end(), max);
    atMax = static_cast<std::size_t>(ties);
    counts.assign(buckets, 0.0);
    width = max * 1.0001 / static_cast<double>(buckets);
    if (max > 0.0) {
        for (const double v : window)
            counts[bucketOf(v)] += 1.0;
    }
    stale = false;
    ++rescans;
}

DiscreteDistribution
Profiler::Side::distribution(std::size_t buckets)
{
    if (stale)
        recount(buckets);
    if (max <= 0.0)
        return DiscreteDistribution::pointMass(0.0, buckets);
    // Sized to the window's max, so no growth/rebin noise enters the
    // distribution.
    const auto total = static_cast<double>(window.size());
    const double upper = max * 1.0001;
    return DiscreteDistribution::fromCounts(counts, total, upper, buckets);
}

} // namespace rubik
