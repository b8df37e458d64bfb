#include "policies/replay.h"

#include <algorithm>

#include "stats/percentile.h"
#include "util/error.h"

namespace rubik {

double
ReplayResult::tailLatency(double q) const
{
    return percentile(latencies, q);
}

double
ReplayResult::meanLatency() const
{
    return mean(latencies);
}

double
ReplayResult::energyPerRequest() const
{
    if (latencies.empty())
        return 0.0;
    return coreActiveEnergy / static_cast<double>(latencies.size());
}

double
requestEnergy(const TraceRecord &r, double freq, const PowerModel &power)
{
    const double service = r.serviceTime(freq);
    if (service <= 0.0)
        return 0.0;
    const double stall_frac = r.memoryTime / service;
    return power.coreActivePower(freq, stall_frac) * service;
}

ReplayResult
replayFifo(const Trace &trace, const std::vector<double> &freqs,
           const PowerModel &power)
{
    RUBIK_ASSERT(trace.size() == freqs.size(),
                 "one frequency per request required");
    ReplayResult result;
    result.latencies.reserve(trace.size());

    double completion = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &r = trace[i];
        const double start = std::max(r.arrivalTime, completion);
        const double service = r.serviceTime(freqs[i]);
        completion = start + service;
        result.latencies.push_back(completion - r.arrivalTime);
        result.coreActiveEnergy += requestEnergy(r, freqs[i], power);
    }
    result.makespan = completion;
    return result;
}

ReplayResult
replayFixed(const Trace &trace, double freq, const PowerModel &power)
{
    return replayFifo(trace, std::vector<double>(trace.size(), freq), power);
}

bool
meetsTailBound(const Trace &trace, const std::vector<double> &freqs,
               double q, double bound)
{
    RUBIK_ASSERT(trace.size() == freqs.size(),
                 "one frequency per request required");
    if (trace.empty())
        return 0.0 <= bound; // tailLatency() of no latencies is 0
    const std::size_t budget =
        trace.size() - 1 - nearestRankIndex(trace.size(), q);
    std::size_t over = 0;
    double completion = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &r = trace[i];
        const double start = std::max(r.arrivalTime, completion);
        const double service = r.serviceTime(freqs[i]);
        completion = start + service;
        // "Not <= bound" rather than "> bound": a NaN bound then fails
        // every request, as the quantile comparison does.
        if (!(completion - r.arrivalTime <= bound) && ++over > budget)
            return false;
    }
    return true;
}

} // namespace rubik
