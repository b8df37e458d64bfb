#ifndef RUBIK_POLICIES_REPLAY_H
#define RUBIK_POLICIES_REPLAY_H

/**
 * @file
 * Analytic FIFO trace replay.
 *
 * For schemes whose frequency is fixed per request (fixed frequency,
 * StaticOracle, AdrenalineOracle, DynamicOracle), a FIFO single server has
 * a closed-form schedule:
 *
 *     completion_i = max(arrival_i, completion_{i-1}) + C_i/f_i + M_i
 *
 * so replay is O(n) without event simulation. This is the machinery behind
 * the paper's trace-driven characterization (Sec. 5.3). The event-driven
 * simulator reproduces these results exactly for fixed-frequency policies
 * (tested in tests/sim_test.cc), so analytic and event results are
 * interchangeable.
 */

#include <algorithm>
#include <vector>

#include "power/power_model.h"
#include "sim/trace.h"
#include "stats/percentile.h"

namespace rubik {

/// Result of an analytic replay.
struct ReplayResult
{
    std::vector<double> latencies;   ///< Per request, trace order.
    double coreActiveEnergy = 0.0;   ///< J over the whole trace.
    double makespan = 0.0;           ///< Last completion time.

    double tailLatency(double q = 0.95) const;
    double meanLatency() const;
    double energyPerRequest() const;
};

/**
 * Replay with a per-request frequency vector (freqs.size() must equal
 * trace.size()).
 */
ReplayResult replayFifo(const Trace &trace,
                        const std::vector<double> &freqs,
                        const PowerModel &power);

/// Replay the whole trace at one frequency.
ReplayResult replayFixed(const Trace &trace, double freq,
                         const PowerModel &power);

/**
 * Exactly `replayFifo(trace, freqs, power).tailLatency(q) <= bound`,
 * without building the replay: the nearest-rank q-quantile of n
 * latencies is <= bound iff at most n - 1 - nearestRankIndex(n, q) of
 * them exceed it, so one FIFO pass counts latencies over the bound (by
 * replayFifo's expressions, in its order) and returns false as soon as
 * the count passes that budget. No allocation, no sort; this is the
 * oracles' feasibility probe.
 */
bool meetsTailBound(const Trace &trace, const std::vector<double> &freqs,
                    double q, double bound);

/**
 * meetsTailBound with request i's frequency given by freq_of(i), so a
 * search over schedules of one or two distinct frequencies
 * (StaticOracle's uniform ones, AdrenalineOracle's base/boost splits)
 * probes without filling a frequency vector first.
 */
template <class FreqOf>
bool
meetsTailBoundWith(const Trace &trace, FreqOf freq_of, double q,
                   double bound)
{
    if (trace.empty())
        return 0.0 <= bound; // tailLatency() of no latencies is 0
    const std::size_t budget =
        trace.size() - 1 - nearestRankIndex(trace.size(), q);
    std::size_t over = 0;
    double completion = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &r = trace[i];
        const double start = std::max(r.arrivalTime, completion);
        const double service = r.serviceTime(freq_of(i));
        completion = start + service;
        // "Not <= bound" rather than "> bound": a NaN bound then fails
        // every request, as the quantile comparison does. Counting
        // without a branch keeps the scattered misses from costing a
        // misprediction each.
        over += !(completion - r.arrivalTime <= bound);
        if (over > budget)
            return false;
    }
    return true;
}

/**
 * Active core energy of serving one request at frequency f (dynamic +
 * static over its service time, with the memory-stall activity factor) —
 * the unit the oracles' greedy steps optimize.
 */
inline double
requestEnergy(const TraceRecord &r, double freq, const PowerModel &power)
{
    const double service = r.serviceTime(freq);
    if (service <= 0.0)
        return 0.0;
    const double stall_frac = r.memoryTime / service;
    return power.coreActivePower(freq, stall_frac) * service;
}

/**
 * requestEnergy at one frequency, with the factors of coreActivePower
 * that depend on the frequency alone (the voltage, Ceff·V²·f and
 * kLeak·V) evaluated once. Every call is bitwise
 * requestEnergy(r, freq, power): the same operations on the same
 * values, in the same order. The oracles keep one per grid level.
 */
class RequestEnergyAt
{
  public:
    RequestEnergyAt(double freq, const PowerModel &power)
        : freq_(freq), stallActivity_(power.params().stallActivity)
    {
        const double v = power.dvfs().voltage(freq);
        dynamic_ = power.params().ceff * v * v * freq;
        leakage_ = power.params().kLeak * v;
    }

    double operator()(const TraceRecord &r) const
    {
        const double service = r.serviceTime(freq_);
        if (service <= 0.0)
            return 0.0;
        const double stall_frac = r.memoryTime / service;
        const double activity =
            (1.0 - stall_frac) + stall_frac * stallActivity_;
        return (dynamic_ * activity + leakage_) * service;
    }

  private:
    double freq_;
    double stallActivity_;
    double dynamic_ = 0.0; ///< Ceff * V * V * f, coreDynamicPower's prefix.
    double leakage_ = 0.0; ///< kLeak * V, coreStaticPower.
};

} // namespace rubik

#endif // RUBIK_POLICIES_REPLAY_H
