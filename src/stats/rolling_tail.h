#ifndef RUBIK_STATS_ROLLING_TAIL_H
#define RUBIK_STATS_ROLLING_TAIL_H

/**
 * @file
 * Tail-latency estimation over a rolling time window.
 *
 * Rubik's feedback controller observes the measured tail latency over a
 * rolling 1-second window (Sec. 4.2); the responsiveness figures (Fig. 1b,
 * Fig. 10) plot tail latency over rolling 200 ms windows. This class holds
 * (timestamp, latency) pairs, expires old ones, and reports percentiles of
 * the live window.
 */

#include <deque>
#include <limits>
#include <vector>

namespace rubik {

/**
 * Rolling time-window percentile estimator over (time, value) samples.
 */
class RollingTail
{
  public:
    /// @param window Window length in seconds.
    explicit RollingTail(double window);

    /// Record a value observed at the given time (times must not decrease).
    void add(double time, double value);

    /// Drop samples older than (now - window).
    void expire(double now);

    /**
     * Nearest-rank percentile of the current window (0 if empty), the
     * element percentile() of a copy of the window picks. One pass
     * copies the window into a buffer kept across calls, split around
     * the previous answer; the selection then runs only over the side
     * that holds the rank. Successive answers sit close together, so
     * for a high percentile that side is a small share of the window.
     */
    double tail(double q) const;

    /// Number of live samples.
    std::size_t size() const { return samples_.size(); }

    bool empty() const { return samples_.empty(); }

    double window() const { return window_; }

  private:
    struct Sample
    {
        double time;
        double value;
    };

    double window_;
    std::deque<Sample> samples_;
    /// tail()'s selection buffer and its last answer, the next pivot.
    mutable std::vector<double> buffer_;
    mutable double pivot_ = std::numeric_limits<double>::infinity();
};

} // namespace rubik

#endif // RUBIK_STATS_ROLLING_TAIL_H
