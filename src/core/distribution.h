#ifndef RUBIK_CORE_DISTRIBUTION_H
#define RUBIK_CORE_DISTRIBUTION_H

/**
 * @file
 * Bucketed probability distributions for Rubik's statistical model.
 *
 * Rubik represents the per-request compute-cycle distribution P[C = c] and
 * memory-time distribution P[M = t] as 128-bucket histograms (Sec. 4.2,
 * "Cost"). This class supports the three operations the model needs:
 *
 *  1. conditioning on elapsed work ω (the in-flight request):
 *       P[S0 = c] = P[S = c + ω | S > ω]                      (Sec. 4.1)
 *  2. convolution, for queued requests: P_Si = P_Si-1 * P_S,
 *     accelerated with FFTs,
 *  3. tail quantiles (the c_i / m_i of the target tail tables).
 *
 * The distribution always keeps a fixed bucket count; convolution widens
 * the bucket width instead of growing the array, so chained convolutions
 * stay O(n log n) with bounded memory.
 *
 * Every distribution carries its CDF (prefix sums built with the same
 * accumulation order as the linear scans they replaced), so quantile()
 * and quantileUpper() are binary searches with bitwise-identical results.
 * Convolutions run planned FFTs in per-thread scratch buffers, so a
 * chain allocates nothing beyond its results.
 */

#include <complex>
#include <cstddef>
#include <vector>

#include "stats/histogram.h"

namespace rubik {

/// Convolution variant selection. The defaults are the exact path whose
/// results every golden CSV pins down.
struct ConvolveOptions
{
    /// FFT path (paper's choice); the direct path is exact and used for
    /// testing.
    bool useFft = true;
};

/**
 * The forward FFT spectrum of one convolution right operand, kept by a
 * caller that convolves many distributions with the same operand (a
 * tail table's mixture). convolveWith() fills it on first use and
 * reuses it while the common bucket width and the transform size
 * match, recomputing it otherwise. One spectrum serves one right
 * operand only.
 */
struct OperandSpectrum
{
    double width = 0.0; ///< Common bucket width it was taken at.
    /// The transform; its size is the transform length.
    std::vector<std::complex<double>> data;
};

/**
 * A probability distribution over [0, numBuckets * bucketWidth), stored as
 * per-bucket masses. Bucket i covers [i*w, (i+1)*w).
 */
class DiscreteDistribution
{
  public:
    /// Point mass at `value` (width chosen so value falls mid-range).
    static DiscreteDistribution pointMass(double value,
                                          std::size_t buckets = 128);

    /// Normalize a sample histogram into a distribution.
    static DiscreteDistribution fromHistogram(const Histogram &hist,
                                              std::size_t buckets = 128);

    /**
     * Normalize per-bucket sample counts over [0, upper): bucket i gets
     * mass bins[i] / total and width upper / bins.size(), rebinned to
     * `buckets` when the sizes differ. A zero total gives a point mass
     * at 0. fromHistogram() and the profiler both build here.
     */
    static DiscreteDistribution fromCounts(const std::vector<double> &bins,
                                           double total, double upper,
                                           std::size_t buckets = 128);

    /// Build from explicit masses (will be normalized).
    DiscreteDistribution(std::vector<double> masses, double bucket_width);

    std::size_t numBuckets() const { return p_.size(); }
    double bucketWidth() const { return width_; }

    /// Upper edge of the support.
    double max() const { return width_ * static_cast<double>(p_.size()); }

    double mass(std::size_t i) const { return p_[i]; }

    /// Representative (midpoint) value of bucket i.
    double bucketMid(std::size_t i) const
    {
        return (static_cast<double>(i) + 0.5) * width_;
    }

    double mean() const;
    double variance() const;

    /**
     * q-quantile with linear interpolation inside the bucket.
     */
    double quantile(double q) const;

    /**
     * Conservative q-quantile: the *upper edge* of the bucket containing
     * the quantile. Rubik uses this for tail values so discretization
     * error never causes latency violations.
     */
    double quantileUpper(double q) const;

    /**
     * Distribution of remaining work after ω has elapsed:
     * P[S - ω = c | S > ω]. If ω exceeds the support (the request has
     * outlived every profiled sample), returns a one-bucket point mass —
     * the model predicts imminent completion.
     */
    DiscreteDistribution conditionalOnElapsed(double omega) const;

    /**
     * Convolution with another distribution (sum of independent draws),
     * rebinned back to this distribution's bucket count. The default
     * options take the exact FFT path.
     */
    DiscreteDistribution convolveWith(
        const DiscreteDistribution &other,
        const ConvolveOptions &opts = {}) const;

    /**
     * The FFT convolveWith(other), taking other's spectrum from
     * `other_spectrum` (filled on a miss) instead of transforming it
     * again; a self product (`&other == this`) runs no forward
     * transform when the spectrum hits. Bitwise identical to
     * convolveWith(other).
     */
    DiscreteDistribution convolveWith(
        const DiscreteDistribution &other,
        OperandSpectrum &other_spectrum) const;

    /// Rebin to a new bucket width/count (mass split proportionally).
    DiscreteDistribution rebin(double new_width,
                               std::size_t new_buckets) const;

    /// Total mass (1 up to rounding; 0 only for the empty edge case).
    /// O(1): the tail of the cached CDF.
    double totalMass() const
    {
        return cdf_.empty() ? 0.0 : cdf_.back();
    }

  private:
    DiscreteDistribution() = default;

    void normalize();
    /// Recompute cdf_ from p_ (sequential prefix sums).
    void rebuildCdf();

    /// Both convolveWith overloads: the FFT path uses `other_spectrum`
    /// when it is non-null.
    DiscreteDistribution convolve(const DiscreteDistribution &other,
                                  bool use_fft,
                                  OperandSpectrum *other_spectrum) const;

    /// The rebin() mass-splitting loop on raw arrays, shared with the
    /// convolution trim/rebin stage.
    static std::vector<double> rebinMasses(const double *src,
                                           std::size_t src_len,
                                           double src_width,
                                           double new_width,
                                           std::size_t new_buckets);

    std::vector<double> p_;
    /// Inclusive prefix sums of p_: cdf_[i] = p_[0] + ... + p_[i],
    /// accumulated in index order (the same order the quantile scans
    /// used, so binary searches return bitwise-identical results).
    std::vector<double> cdf_;
    double width_ = 1.0;
};

} // namespace rubik

#endif // RUBIK_CORE_DISTRIBUTION_H
