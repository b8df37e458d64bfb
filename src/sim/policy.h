#ifndef RUBIK_SIM_POLICY_H
#define RUBIK_SIM_POLICY_H

/**
 * @file
 * DVFS policy extension point.
 *
 * The simulation driver consults the policy on every request arrival and
 * completion (the adaptation points in Fig. 3 of the paper) and at
 * policy-requested periodic instants (e.g., Rubik's 100 ms table rebuilds,
 * Pegasus's epoch adjustments). The policy reads queue state from a
 * CoreView — a zero-copy snapshot of the engine's request lanes
 * (sim/core_view.h) — and returns the frequency it wants; the driver
 * forwards it to the engine, which models the transition latency.
 */

#include <cstdio>
#include <limits>
#include <stdexcept>

#include "power/power_model.h"
#include "sim/core_view.h"
#include "sim/request.h"

namespace rubik {

/**
 * Interface implemented by all online DVFS schemes (Rubik, Pegasus,
 * fixed frequency, hardware schemes...).
 *
 * Offline/oracular schemes (StaticOracle, DynamicOracle,
 * AdrenalineOracle) are trace-replay computations and do not implement
 * this interface; see policies/replay.h.
 */
class DvfsPolicy
{
  public:
    static constexpr double kNever = std::numeric_limits<double>::infinity();

    virtual ~DvfsPolicy() = default;

    /// Called once before simulation starts.
    virtual void reset() {}

    /**
     * Pick the frequency to run at, given current core state. Called on
     * every arrival and completion (and after periodic updates). Must
     * return a frequency on the DVFS grid.
     */
    virtual double selectFrequency(const CoreView &core) = 0;

    /**
     * Completed-request feedback: measured compute cycles, memory time
     * and latency — what per-request CPI-stack performance counters
     * provide in a real deployment (Sec. 4.2).
     */
    virtual void onCompletion(const CompletedRequest &done,
                              const CoreView &core)
    {
        (void)done;
        (void)core;
    }

    /// Next absolute time the policy wants a periodicUpdate (kNever: none).
    virtual double nextPeriodicUpdate() const { return kNever; }

    /**
     * Most update periods a periodic clock may have to step through,
     * idle ones included: a run whose last arrival lies further out is
     * refused (simulate), and so is a serve event that jumps further
     * past the engine clock (ServeEngine). 1e7 idle periods take
     * ~0.1 s in the serve engine and ~0.3 s in a Rubik simulation.
     */
    static constexpr double kMaxGapPeriods = 1e7;

    /**
     * The error a periodic clock raises once adding `period` at
     * `clock` leaves the clock where it was (the period is below half
     * an ulp of the clock), so that further steps would spin forever:
     * a load near 1e-300 puts the arrivals that far out.
     */
    static std::runtime_error stalledClock(double period, double clock)
    {
        char what[200];
        std::snprintf(what, sizeof(what),
                      "update period %g s no longer advances a clock at "
                      "%g s (is the load too low?)",
                      period, clock);
        return std::runtime_error(what);
    }

    /// Periodic hook (table rebuilds, feedback adjustment, ...).
    virtual void periodicUpdate(const CoreView &core) { (void)core; }

    /**
     * Thermal telemetry: the simulation driver reports the RC-network
     * state at every thermal quantum boundary when thermal modeling is
     * enabled (SimOptions::thermal) — what an on-die digital thermal
     * sensor provides in a real deployment. Never called on the legacy
     * (thermal-off) path. Thermal-capacity-aware policies
     * (policies/rubik_thermal.h) budget their boost headroom from it.
     */
    virtual void onThermalSample(double now, double core_temp,
                                 double package_temp)
    {
        (void)now;
        (void)core_temp;
        (void)package_temp;
    }

    /**
     * Optional per-core power cap in watts (a fleet coordinator's
     * water-filled allocation). The base class only records the value —
     * a policy that does not override its frequency choice is
     * unaffected. Cap-aware policies (Rubik, RubikBoost, Pegasus) clamp
     * selectFrequency to capCeiling() so worst-case active-core power
     * never exceeds the cap. Non-positive watts clears the cap.
     */
    virtual void setPowerCap(double watts)
    {
        powerCap_ = watts > 0.0 ? watts : 0.0;
    }

    /// Active cap in watts (0 = uncapped).
    double powerCap() const { return powerCap_; }

  protected:
    /**
     * The periodic policies' catch-up: step `next` by `period` until it
     * is past `now` (by more than 1e-12 s) and return it. Throws
     * stalledClock() when a step leaves `next` unchanged. The steps
     * are the same additions whatever the load, so no result moves.
     */
    static double catchUp(double next, double period, double now)
    {
        while (next <= now + 1e-12) {
            const double stepped = next + period;
            if (stepped == next)
                throw stalledClock(period, now);
            next = stepped;
        }
        return next;
    }

    /**
     * Grid frequency ceiling implied by the active cap: the highest
     * grid frequency whose stall-free active power fits under
     * powerCap() (power/power_model.h capFrequencyCeiling), the grid
     * maximum when uncapped. Cached per cap value; the grid scan only
     * reruns when the coordinator moves the cap.
     */
    double capCeiling(const CoreView &core) const
    {
        if (powerCap_ <= 0.0)
            return core.dvfs->maxFrequency();
        if (powerCap_ != ceilingWatts_) {
            ceilingFreq_ = capFrequencyCeiling(*core.power, powerCap_);
            ceilingWatts_ = powerCap_;
        }
        return ceilingFreq_;
    }

  private:
    double powerCap_ = 0.0;
    mutable double ceilingWatts_ = -1.0;
    mutable double ceilingFreq_ = 0.0;
};

/// Trivial policy: always run at one frequency (the paper's baseline).
/// Final so the statically-dispatched simulation loop (sim/simulation.cc)
/// can fold its no-op hooks away entirely.
class FixedFrequencyPolicy final : public DvfsPolicy
{
  public:
    explicit FixedFrequencyPolicy(double freq) : freq_(freq) {}

    double selectFrequency(const CoreView &) override { return freq_; }

    double frequency() const { return freq_; }

  private:
    double freq_;
};

} // namespace rubik

#endif // RUBIK_SIM_POLICY_H
