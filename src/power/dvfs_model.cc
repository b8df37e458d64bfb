#include "power/dvfs_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/units.h"

namespace rubik {

DvfsModel
DvfsModel::haswell(double transition_latency)
{
    // Table 2: 0.8-3.4 GHz in 200 MHz steps, 2.4 GHz nominal. The V/f
    // endpoints approximate a Haswell FIVR operating range (near-
    // threshold at the bottom of the grid, turbo voltage at the top).
    return DvfsModel(0.8 * kGHz, 3.4 * kGHz, 0.2 * kGHz, 2.4 * kGHz,
                     0.55, 1.15, transition_latency);
}

DvfsModel::DvfsModel(double min_freq, double max_freq, double step,
                     double nominal, double v_min, double v_max,
                     double transition_latency)
    : nominal_(nominal), vMin_(v_min), vMax_(v_max),
      transitionLatency_(transition_latency)
{
    RUBIK_ASSERT(min_freq > 0 && max_freq > min_freq && step > 0,
                 "invalid DVFS grid");
    RUBIK_ASSERT(transition_latency >= 0, "negative transition latency");
    for (double f = min_freq; f <= max_freq + step * 0.5; f += step)
        freqs_.push_back(f);
    // Snap the recorded max to the last grid point (fp accumulation).
    freqs_.back() = std::min(freqs_.back(), max_freq);
    RUBIK_ASSERT(nominal >= min_freq && nominal <= max_freq,
                 "nominal frequency outside grid");
}

double
DvfsModel::quantizeUp(double freq) const
{
    auto it = std::lower_bound(freqs_.begin(), freqs_.end(),
                               freq - 1.0 /* Hz slop */);
    if (it == freqs_.end())
        return freqs_.back();
    return *it;
}

double
DvfsModel::ceilingThreshold(double ceiling) const
{
    // Uncapped walks (ceiling f_max) skip the search.
    const auto it = ceiling >= freqs_.back()
                        ? freqs_.end() - 1
                        : std::lower_bound(freqs_.begin(), freqs_.end(),
                                           ceiling);
    if (it == freqs_.begin())
        return -std::numeric_limits<double>::infinity();
    return *(it - 1);
}

double
DvfsModel::quantizeDown(double freq) const
{
    auto it = std::upper_bound(freqs_.begin(), freqs_.end(),
                               freq + 1.0 /* Hz slop */);
    if (it == freqs_.begin())
        return freqs_.front();
    return *(it - 1);
}

std::size_t
DvfsModel::indexOf(double freq) const
{
    std::size_t best = 0;
    double best_d = std::abs(freqs_[0] - freq);
    for (std::size_t i = 1; i < freqs_.size(); ++i) {
        const double d = std::abs(freqs_[i] - freq);
        if (d < best_d) {
            best_d = d;
            best = i;
        }
    }
    return best;
}

} // namespace rubik
