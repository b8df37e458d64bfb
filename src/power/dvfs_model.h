#ifndef RUBIK_POWER_DVFS_MODEL_H
#define RUBIK_POWER_DVFS_MODEL_H

/**
 * @file
 * The DVFS interface of the simulated CMP (Table 2 of the paper):
 * Haswell-like FIVR per-core DVFS, 0.8-3.4 GHz in 200 MHz steps, nominal
 * 2.4 GHz, 4 us voltage/frequency transition latency. The real-system
 * evaluation (Sec. 5.5) observed transitions of up to 130 us; the
 * transition latency is a parameter so both systems can be modeled.
 */

#include <algorithm>
#include <cstddef>
#include <vector>

namespace rubik {

/**
 * Frequency grid, voltage/frequency curve, and transition latency of a
 * per-core DVFS domain.
 */
class DvfsModel
{
  public:
    /**
     * Haswell-like FIVR configuration from Table 2.
     *
     * @param transition_latency V/f transition latency in seconds
     *        (paper default 4 us; 130 us models the real system).
     */
    static DvfsModel haswell(double transition_latency = 4e-6);

    /**
     * Custom grid.
     *
     * @param min_freq   Lowest frequency (Hz).
     * @param max_freq   Highest frequency (Hz).
     * @param step       Grid step (Hz).
     * @param nominal    Nominal frequency (Hz, must lie on the grid).
     * @param v_min      Supply voltage at min_freq (V).
     * @param v_max      Supply voltage at max_freq (V).
     * @param transition_latency V/f transition latency (s).
     */
    DvfsModel(double min_freq, double max_freq, double step, double nominal,
              double v_min, double v_max, double transition_latency);

    const std::vector<double> &frequencies() const { return freqs_; }
    double minFrequency() const { return freqs_.front(); }
    double maxFrequency() const { return freqs_.back(); }
    double nominalFrequency() const { return nominal_; }
    double transitionLatency() const { return transitionLatency_; }

    void setTransitionLatency(double latency) { transitionLatency_ = latency; }

    /// Supply voltage at frequency f (linear V/f curve, clamped to grid).
    double voltage(double freq) const
    {
        const double f = std::clamp(freq, minFrequency(), maxFrequency());
        const double t = (f - minFrequency()) /
                         (maxFrequency() - minFrequency());
        return vMin_ + t * (vMax_ - vMin_);
    }

    /**
     * Smallest grid frequency >= freq (max frequency if freq is above the
     * grid). This is the quantization Rubik applies to its analytical
     * frequency floor.
     */
    double quantizeUp(double freq) const;

    /// Largest grid frequency <= freq (min frequency if below the grid).
    double quantizeDown(double freq) const;

    /**
     * The largest grid frequency below min(ceiling, maxFrequency()),
     * or -infinity when there is none. For finite f,
     * f - 1.0 > ceilingThreshold(ceiling) exactly when quantizeUp(f)
     * >= min(ceiling, maxFrequency()): the 1.0 is quantizeUp's own
     * slop, subtracted the same way. A walk whose floor only grows
     * tests its stop with one comparison instead of a search.
     */
    double ceilingThreshold(double ceiling) const;

    /// Index of the grid frequency closest to f (for residency histograms).
    std::size_t indexOf(double freq) const;

    /// Number of grid points.
    std::size_t numFrequencies() const { return freqs_.size(); }

  private:
    std::vector<double> freqs_;
    double nominal_;
    double vMin_;
    double vMax_;
    double transitionLatency_;
};

} // namespace rubik

#endif // RUBIK_POWER_DVFS_MODEL_H
