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

#include <vector>

#include "power/power_model.h"
#include "sim/trace.h"

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
 * Active core energy of serving one request at frequency f (dynamic +
 * static over its service time, with the memory-stall activity factor) —
 * the unit the oracles' greedy steps optimize.
 */
double requestEnergy(const TraceRecord &r, double freq,
                     const PowerModel &power);

} // namespace rubik

#endif // RUBIK_POLICIES_REPLAY_H
