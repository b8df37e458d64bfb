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

    // One long/short split per threshold; a probe reads each request's
    // frequency straight from it. Long and short requests interleave at
    // random, so the probes and the energy sums below index by the
    // split instead of branching on it.
    std::vector<unsigned char> is_long(n);
    auto classify = [&](double threshold) {
        for (std::size_t i = 0; i < n; ++i)
            is_long[i] = trace[i].serviceTime(nominal_freq) > threshold;
    };
    auto feasible = [&](double base, double boost) {
        const double freqs[2] = {base, boost};
        return meetsTailBoundWith(
            trace, [&](std::size_t i) { return freqs[is_long[i]]; },
            config.percentile, latency_bound);
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
        const RequestEnergyAt energy(grid[k], power);
        for (std::size_t i = 0; i < n; ++i)
            energy_at[k * n + i] = energy(trace[i]);
    }

    // The smallest feasible base index per boost, at the previous
    // threshold.
    std::vector<std::size_t> floor_at(grid.size(), 0);
    double prev_threshold = -std::numeric_limits<double>::infinity();
    for (double q : config.thresholdQuantiles) {
        const double threshold = percentileSorted(service, q);
        classify(threshold);
        // Raising the threshold moves requests from boost to base, and
        // every base searched is at most its boost, so no frequency
        // rises: a base feasible now was feasible at every lower
        // threshold. While thresholds do not decrease, the previous
        // threshold's answer is therefore a lower end for this search.
        if (threshold < prev_threshold)
            std::fill(floor_at.begin(), floor_at.end(), 0);
        prev_threshold = threshold;
        // Binary-search the smallest feasible base for each boost,
        // walking the boosts upward. Raising the boost never raises
        // that base, so the previous boost's answer is a feasible upper
        // end for the next search (the first starts from the uniform
        // `lowest`). `hi` only ever holds a feasible index, so grid[lo]
        // is feasible once the search closes.
        std::size_t prev = lowest;
        for (std::size_t b = lowest; b < grid.size(); ++b) {
            const double boost = grid[b];
            std::size_t lo = floor_at[b];
            std::size_t hi = prev;
            while (lo < hi) {
                const std::size_t mid = (lo + hi) / 2;
                if (feasible(grid[mid], boost))
                    hi = mid;
                else
                    lo = mid + 1;
            }
            prev = floor_at[b] = lo;
            const double *columns[2] = {&energy_at[lo * n],
                                        &energy_at[b * n]};
            double energy = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                energy += columns[is_long[i]][i];
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
    std::vector<double> freqs(n);
    for (std::size_t i = 0; i < n; ++i)
        freqs[i] = is_long[i] ? best.boostFrequency : best.baseFrequency;
    best.replay = replayFifo(trace, freqs, power);
    return best;
}

} // namespace rubik
