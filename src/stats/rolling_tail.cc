#include "stats/rolling_tail.h"

#include <algorithm>

#include "stats/percentile.h"
#include "util/error.h"

namespace rubik {

RollingTail::RollingTail(double window)
    : window_(window)
{
    RUBIK_ASSERT(window > 0, "rolling window must be positive");
}

void
RollingTail::add(double time, double value)
{
    samples_.push_back({time, value});
    expire(time);
}

void
RollingTail::expire(double now)
{
    const double cutoff = now - window_;
    while (!samples_.empty() && samples_.front().time < cutoff)
        samples_.pop_front();
}

double
RollingTail::tail(double q) const
{
    if (samples_.empty())
        return 0.0;
    // Values below the pivot fill the buffer from the front, the rest
    // from the back, so [0, below) < pivot <= [below, n).
    const std::size_t n = samples_.size();
    buffer_.resize(n);
    std::size_t below = 0;
    std::size_t above = n;
    for (const Sample &s : samples_) {
        if (s.value < pivot_)
            buffer_[below++] = s.value;
        else
            buffer_[--above] = s.value;
    }
    const std::size_t rank = nearestRankIndex(n, q);
    const auto first = buffer_.begin();
    const auto nth = first + static_cast<std::ptrdiff_t>(rank);
    const auto split = first + static_cast<std::ptrdiff_t>(below);
    if (rank < below)
        std::nth_element(first, nth, split);
    else
        std::nth_element(split, nth, buffer_.end());
    pivot_ = *nth;
    return pivot_;
}

} // namespace rubik
