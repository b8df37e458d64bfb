#ifndef RUBIK_POLICIES_ADRENALINE_H
#define RUBIK_POLICIES_ADRENALINE_H

/**
 * @file
 * AdrenalineOracle (Sec. 5.2): an idealized, oracular version of
 * Adrenaline (Hsu et al., HPCA 2015).
 *
 * Adrenaline boosts long requests: requests classified as long run at a
 * boost frequency, others at a base frequency. The oracle version can
 * perfectly distinguish long from short requests (the real system uses
 * application-level hints). Following the paper's tuning methodology, we
 * sweep the long/short threshold and, for each threshold and boost
 * frequency, find the lowest feasible base frequency (tail latency is
 * monotone in the base frequency, so a binary search on the grid is
 * exact); among all feasible combinations we keep the one with minimum
 * energy. Each probe of the search is a counting pass
 * (meetsTailBound), and only the overall winner is replayed.
 *
 * Tail latency is monotone in the boost frequency too, so the uniform
 * frequencies (base = boost) are searched once per trace, by
 * StaticOracle, rather than once per threshold, and each boost's
 * search is bounded above by the previous, lower boost's answer.
 * Candidate energies are summed from a table of requestEnergy values
 * per request and grid level.
 */

#include "policies/replay.h"
#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "sim/trace.h"

namespace rubik {

/// Sweep options for the offline tuning phase.
struct AdrenalineConfig
{
    /// Threshold candidates are these quantiles of the per-request
    /// nominal service time.
    std::vector<double> thresholdQuantiles =
        {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99};
    double percentile = 0.95;
};

/// Chosen operating point and its replay.
struct AdrenalineResult
{
    double threshold = 0.0;      ///< Nominal-service-time split point (s).
    double baseFrequency = 0.0;  ///< For short requests (Hz).
    double boostFrequency = 0.0; ///< For long requests (Hz).
    bool feasible = false;
    ReplayResult replay;
};

/**
 * Tune and evaluate AdrenalineOracle on a trace against `latency_bound`.
 */
AdrenalineResult adrenalineOracle(const Trace &trace, double latency_bound,
                                  const DvfsModel &dvfs,
                                  const PowerModel &power,
                                  double nominal_freq,
                                  const AdrenalineConfig &config = AdrenalineConfig());

} // namespace rubik

#endif // RUBIK_POLICIES_ADRENALINE_H
