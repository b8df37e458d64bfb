#include "policies/static_oracle.h"

namespace rubik {

StaticOracleResult
staticOracle(const Trace &trace, double latency_bound, double percentile,
             const DvfsModel &dvfs, const PowerModel &power)
{
    StaticOracleResult result;
    // Probe each grid frequency by counting (meetsTailBoundWith); only
    // the chosen one is replayed.
    for (double f : dvfs.frequencies()) {
        if (meetsTailBoundWith(
                trace, [f](std::size_t) { return f; }, percentile,
                latency_bound)) {
            result.frequency = f;
            result.feasible = true;
            result.replay = replayFixed(trace, f, power);
            return result;
        }
    }
    result.frequency = dvfs.maxFrequency();
    result.feasible = false;
    result.replay = replayFixed(trace, result.frequency, power);
    return result;
}

} // namespace rubik
