#include "policies/adrenaline.h"

#include <algorithm>
#include <limits>

#include "stats/percentile.h"
#include "util/error.h"

namespace rubik {

AdrenalineResult
adrenalineOracle(const Trace &trace, double latency_bound,
                 const DvfsModel &dvfs, const PowerModel &power,
                 double nominal_freq, const AdrenalineConfig &config)
{
    RUBIK_ASSERT(!trace.empty(), "empty trace");

    // Threshold candidates: quantiles of nominal service time.
    std::vector<double> service(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        service[i] = trace[i].serviceTime(nominal_freq);
    std::sort(service.begin(), service.end());

    AdrenalineResult best;
    double best_energy = std::numeric_limits<double>::infinity();
    const auto &grid = dvfs.frequencies();

    // One long/short split per threshold and one frequency buffer,
    // refilled for every probe.
    std::vector<char> is_long(trace.size());
    std::vector<double> freqs(trace.size());
    auto classify = [&](double threshold) {
        for (std::size_t i = 0; i < trace.size(); ++i)
            is_long[i] = trace[i].serviceTime(nominal_freq) > threshold;
    };
    auto assign = [&](double base, double boost) {
        for (std::size_t i = 0; i < trace.size(); ++i)
            freqs[i] = is_long[i] ? boost : base;
    };
    auto feasible = [&](double base, double boost) {
        assign(base, boost);
        return meetsTailBound(trace, freqs, config.percentile,
                              latency_bound);
    };

    for (double q : config.thresholdQuantiles) {
        const double threshold = percentileSorted(service, q);
        classify(threshold);
        for (std::size_t b = 0; b < grid.size(); ++b) {
            const double boost = grid[b];
            // Tail latency is non-increasing in the base frequency
            // (raising it weakly reduces every completion time), so
            // binary-search the smallest feasible base <= boost. `hi`
            // only ever holds a verified-feasible index, so grid[lo]
            // is feasible once the search closes.
            if (!feasible(boost, boost))
                continue; // no base in [0, boost] can work
            std::size_t lo = 0;
            std::size_t hi = b;
            while (lo < hi) {
                const std::size_t mid = (lo + hi) / 2;
                if (feasible(grid[mid], boost))
                    hi = mid;
                else
                    lo = mid + 1;
            }
            // The replay's energy, summed by replayFifo's expression in
            // its order, so it is bitwise the replay's.
            double energy = 0.0;
            for (std::size_t i = 0; i < trace.size(); ++i)
                energy += requestEnergy(trace[i],
                                        is_long[i] ? boost : grid[lo],
                                        power);
            if (energy < best_energy) {
                best_energy = energy;
                best.threshold = threshold;
                best.baseFrequency = grid[lo];
                best.boostFrequency = boost;
                best.feasible = true;
            }
        }
    }

    if (!best.feasible) {
        // Nothing meets the bound: run everything at max frequency.
        best.threshold = 0.0;
        best.baseFrequency = dvfs.maxFrequency();
        best.boostFrequency = dvfs.maxFrequency();
        best.replay = replayFixed(trace, dvfs.maxFrequency(), power);
        return best;
    }
    // Replay only the overall winner.
    classify(best.threshold);
    assign(best.baseFrequency, best.boostFrequency);
    best.replay = replayFifo(trace, freqs, power);
    return best;
}

} // namespace rubik
