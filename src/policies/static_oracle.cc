#include "policies/static_oracle.h"

#include <algorithm>

namespace rubik {

StaticOracleResult
staticOracle(const Trace &trace, double latency_bound, double percentile,
             const DvfsModel &dvfs, const PowerModel &power)
{
    StaticOracleResult result;
    // Probe each grid frequency by counting (meetsTailBound); only the
    // chosen one is replayed.
    std::vector<double> freqs(trace.size());
    for (double f : dvfs.frequencies()) {
        std::fill(freqs.begin(), freqs.end(), f);
        if (meetsTailBound(trace, freqs, percentile, latency_bound)) {
            result.frequency = f;
            result.feasible = true;
            result.replay = replayFifo(trace, freqs, power);
            return result;
        }
    }
    result.frequency = dvfs.maxFrequency();
    result.feasible = false;
    result.replay = replayFixed(trace, result.frequency, power);
    return result;
}

} // namespace rubik
