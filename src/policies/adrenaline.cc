#include "policies/adrenaline.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "policies/static_oracle.h"
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
    const std::size_t n = trace.size();

    // One long/short split per threshold and one frequency buffer,
    // refilled for every probe.
    std::vector<char> is_long(n);
    std::vector<double> freqs(n);
    auto classify = [&](double threshold) {
        for (std::size_t i = 0; i < n; ++i)
            is_long[i] = trace[i].serviceTime(nominal_freq) > threshold;
    };
    auto assign = [&](double base, double boost) {
        for (std::size_t i = 0; i < n; ++i)
            freqs[i] = is_long[i] ? boost : base;
    };
    auto feasible = [&](double base, double boost) {
        assign(base, boost);
        return meetsTailBound(trace, freqs, config.percentile,
                              latency_bound);
    };

    // Feasibility is monotone in both frequencies, even in IEEE
    // arithmetic: division, max and addition all round monotonically,
    // so raising either frequency never lengthens a completion. A
    // uniform frequency (base = boost) ignores the threshold, so the
    // lowest feasible one, StaticOracle's choice, is found once per
    // trace; every boost below it fails at every threshold.
    StaticOracleResult uniform = staticOracle(
        trace, latency_bound, config.percentile, dvfs, power);
    if (!uniform.feasible) {
        // Nothing meets the bound: run everything at max frequency
        // (the replay StaticOracle falls back to as well).
        best.threshold = 0.0;
        best.baseFrequency = dvfs.maxFrequency();
        best.boostFrequency = dvfs.maxFrequency();
        best.replay = std::move(uniform.replay);
        return best;
    }
    const std::size_t lowest = dvfs.indexOf(uniform.frequency);

    // requestEnergy of every request at every grid level, one column
    // per level, so a candidate's energy sums the replay's values in
    // its order and is bitwise the replay's.
    std::vector<double> energy_at(grid.size() * n);
    for (std::size_t k = 0; k < grid.size(); ++k) {
        for (std::size_t i = 0; i < n; ++i)
            energy_at[k * n + i] = requestEnergy(trace[i], grid[k], power);
    }

    for (double q : config.thresholdQuantiles) {
        const double threshold = percentileSorted(service, q);
        classify(threshold);
        // Binary-search the smallest feasible base for each boost,
        // walking the boosts upward. Raising the boost never raises
        // that base, so the previous boost's answer is a feasible upper
        // end for the next search (the first starts from the uniform
        // `lowest`). `hi` only ever holds a feasible index, so grid[lo]
        // is feasible once the search closes.
        std::size_t prev = lowest;
        for (std::size_t b = lowest; b < grid.size(); ++b) {
            const double boost = grid[b];
            std::size_t lo = 0;
            std::size_t hi = prev;
            while (lo < hi) {
                const std::size_t mid = (lo + hi) / 2;
                if (feasible(grid[mid], boost))
                    hi = mid;
                else
                    lo = mid + 1;
            }
            prev = lo;
            const double *base_energy = &energy_at[lo * n];
            const double *boost_energy = &energy_at[b * n];
            double energy = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                energy += is_long[i] ? boost_energy[i] : base_energy[i];
            if (energy < best_energy) {
                best_energy = energy;
                best.threshold = threshold;
                best.baseFrequency = grid[lo];
                best.boostFrequency = boost;
                best.feasible = true;
            }
        }
    }

    // Replay only the overall winner.
    classify(best.threshold);
    assign(best.baseFrequency, best.boostFrequency);
    best.replay = replayFifo(trace, freqs, power);
    return best;
}

} // namespace rubik
