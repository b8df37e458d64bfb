#ifndef RUBIK_POWER_POWER_MODEL_H
#define RUBIK_POWER_POWER_MODEL_H

/**
 * @file
 * Analytical full-system power model.
 *
 * The paper fits a regression power model (per-component: cores, uncore,
 * DRAM, other) against RAPL and wall-plug measurements of a Haswell server
 * (Sec. 5.1). We build an analytical model of the same functional form:
 *
 *   core dynamic  = Ceff * V(f)^2 * f * activity
 *   core static   = k_leak * V(f)
 *   idle (C1)     = clock-gated residual
 *   sleep (C3)    = power-gated residual (L1/L2 flushed)
 *   uncore        = static + per-active-core term
 *   DRAM          = static + bandwidth-proportional term
 *   other         = constant (PSU losses, disk, NIC, fans)
 *
 * Constants are calibrated so that the relative anchors the paper reports
 * hold (e.g., ~33% total LC-server power reduction from 60% to 10% load
 * under StaticOracle; Fig. 12's modest full-system savings). Absolute watts
 * are representative of a 6-core Westmere/Haswell-class server, not
 * measurements.
 */

#include "power/dvfs_model.h"

namespace rubik {

/// Power state of one core.
enum class CoreState
{
    Active,   ///< Executing a request.
    IdleC1,   ///< Clock-gated halt, state retained.
    SleepC3,  ///< Deep sleep, L1/L2 flushed (Haswell C3).
};

/// Energy split by component, in joules.
struct EnergyBreakdown
{
    double coreActive = 0.0;  ///< Cores, while serving requests.
    double coreIdle = 0.0;    ///< Cores, in C1.
    double coreSleep = 0.0;   ///< Cores, in C3.
    double uncore = 0.0;      ///< LLC, NoC, memory controller.
    double dram = 0.0;
    double other = 0.0;       ///< PSU losses, disk, NIC, fans, etc.

    double total() const
    {
        return coreActive + coreIdle + coreSleep + uncore + dram + other;
    }

    double coreTotal() const { return coreActive + coreIdle + coreSleep; }

    EnergyBreakdown &operator+=(const EnergyBreakdown &o);
};

/**
 * Per-component power model of the simulated server.
 *
 * All power values in watts; all times in seconds; frequencies in Hz.
 */
class PowerModel
{
  public:
    struct Params
    {
        /// Effective switched capacitance of one core (F). Calibrated so a
        /// core at nominal 2.4 GHz draws ~6 W dynamic.
        double ceff = 3.1e-9;
        /// Leakage coefficient (W/V): static power = kLeak * V. FinFET-
        /// class leakage: a small share of core power at nominal.
        double kLeak = 0.3;
        /// Dynamic-power multiplier while memory-stalled (pipeline mostly
        /// idle but clocks toggling).
        double stallActivity = 0.3;
        /// C1 residual power per core (W).
        double c1Power = 0.4;
        /// C3 residual power per core (W).
        double c3Power = 0.1;
        /// Idle time after which a core enters C3 (s).
        double c3EntryThreshold = 300e-6;
        /// Uncore static power (W) - LLC, NoC, memory controller.
        double uncoreStatic = 7.0;
        /// Additional uncore power per active core (W).
        double uncorePerActiveCore = 0.5;
        /// DRAM background power (W).
        double dramStatic = 3.0;
        /// DRAM power at full bandwidth utilization (W, added to static).
        double dramPeak = 3.0;
        /// Everything else: PSU losses, disk, NIC, fans, motherboard (W).
        double other = 30.0;
        /// Package TDP (W), used by HW-controlled DVFS schemes (Table 2).
        double tdp = 65.0;
        /// Number of cores in the CMP (Table 2).
        int numCores = 6;
    };

    /// Model with the default (Table 2-calibrated) parameters.
    explicit PowerModel(const DvfsModel &dvfs);
    PowerModel(const DvfsModel &dvfs, const Params &params);

    const Params &params() const { return params_; }
    const DvfsModel &dvfs() const { return dvfs_; }

    /**
     * Power of one active core at frequency f.
     *
     * @param freq        Core frequency (Hz).
     * @param stall_frac  Fraction of time stalled on memory in [0,1];
     *                    stalled cycles toggle less logic.
     */
    double coreActivePower(double freq, double stall_frac = 0.0) const
    {
        return coreDynamicPower(freq, stall_frac) + coreStaticPower(freq);
    }

    /// Dynamic-only component of coreActivePower (for dynamic/static splits).
    double coreDynamicPower(double freq, double stall_frac = 0.0) const
    {
        const double v = dvfs_.voltage(freq);
        const double activity =
            (1.0 - stall_frac) + stall_frac * params_.stallActivity;
        return params_.ceff * v * v * freq * activity;
    }

    /// Static (leakage) component at frequency f's voltage.
    double coreStaticPower(double freq) const
    {
        return params_.kLeak * dvfs_.voltage(freq);
    }

    /// Power of one core in the given state (Active uses stall_frac = 0).
    double corePower(CoreState state, double freq) const;

    /// Uncore power given the number of currently active cores.
    double uncorePower(int active_cores) const;

    /// DRAM power at the given bandwidth utilization in [0,1].
    double dramPower(double bw_utilization) const;

    /// Constant non-CPU power.
    double otherPower() const { return params_.other; }

    /**
     * Package power (cores + uncore) with all cores active at the given
     * frequencies; used for TDP checks by HW-T / HW-TPW.
     */
    double packagePower(const std::vector<double> &core_freqs,
                        const std::vector<double> &stall_fracs) const;

    double tdp() const { return params_.tdp; }

  private:
    DvfsModel dvfs_;
    Params params_;
};

/**
 * Highest grid frequency whose worst-case active-core power fits under
 * `cap_watts` (the grid minimum when none does). coreActivePower is
 * monotone in frequency and maximal at stall_frac = 0 (stalled cycles
 * toggle less logic), so a core that never runs above the returned
 * frequency draws at most `cap_watts` of active power at every instant
 * — the translation cap-aware DVFS policies and the fleet coordinator
 * share. A non-positive cap means "uncapped" and returns the grid
 * maximum.
 */
double capFrequencyCeiling(const PowerModel &power, double cap_watts);

} // namespace rubik

#endif // RUBIK_POWER_POWER_MODEL_H
