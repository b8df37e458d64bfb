#ifndef RUBIK_STATS_PERCENTILE_H
#define RUBIK_STATS_PERCENTILE_H

/**
 * @file
 * Exact percentile computation over sample vectors.
 *
 * Tail latency throughout the paper is the 95th percentile of the response
 * time distribution (Sec. 5.1); these helpers compute exact percentiles of
 * finished runs (the rolling online estimator lives in rolling_tail.h).
 */

#include <cstddef>
#include <vector>

namespace rubik {

/**
 * Nearest-rank position of the q-quantile among n > 0 samples: the
 * 0-based index max(1, ceil(q*n)) - 1 into the sorted samples, with q
 * clamped to [0, 1]. Every exact percentile in the repository picks
 * this element, so "the q-quantile is <= x" holds exactly when at most
 * n - 1 - nearestRankIndex(n, q) samples exceed x.
 */
std::size_t nearestRankIndex(std::size_t n, double q);

/**
 * Exact q-quantile (q in [0,1]) of the samples using the nearest-rank
 * method. Selects the element in place (std::nth_element, O(n)) rather
 * than sorting; the value is the sorted copy's. Returns 0 for an empty
 * vector.
 */
double percentile(std::vector<double> samples, double q);

/**
 * Exact q-quantile of the samples for each q in `qs`, in that order
 * (nearest rank, as percentile(); 0 for every q when `samples` is
 * empty). Only the ranks read are selected, each with std::nth_element
 * over the range the previous, lower rank left, rather than sorting;
 * every value is the sorted copy's.
 */
std::vector<double> percentiles(std::vector<double> samples,
                                const std::vector<double> &qs);

/**
 * q-quantile of pre-sorted samples (no copy). Callers own the sorted
 * precondition.
 */
double percentileSorted(const std::vector<double> &sorted, double q);

/// Arithmetic mean (0 for empty input).
double mean(const std::vector<double> &samples);

/// Population variance (0 for fewer than 2 samples).
double variance(const std::vector<double> &samples);

/**
 * Empirical CDF evaluation points: returns the fraction of samples <= x.
 */
double empiricalCdf(const std::vector<double> &sorted, double x);

/**
 * Inverse standard normal CDF (quantile function), via Acklam's rational
 * approximation (|relative error| < 1.15e-9). Used by the target tail
 * tables' Gaussian CLT extension for large queue positions (Sec. 4.2,
 * "Large queues"). p must be in (0, 1).
 */
double inverseNormalCdf(double p);

} // namespace rubik

#endif // RUBIK_STATS_PERCENTILE_H
