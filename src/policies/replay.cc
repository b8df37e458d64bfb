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
    return meetsTailBoundWith(
        trace, [&freqs](std::size_t i) { return freqs[i]; }, q, bound);
}

} // namespace rubik
