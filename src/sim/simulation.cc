#include "sim/simulation.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "stats/percentile.h"
#include "util/error.h"

namespace rubik {

std::vector<double>
SimResult::latencies() const
{
    std::vector<double> out;
    out.reserve(completed.size());
    for (const auto &r : completed)
        out.push_back(r.latency());
    return out;
}

double
SimResult::tailLatency(double q) const
{
    return percentile(latencies(), q);
}

double
SimResult::meanLatency() const
{
    return mean(latencies());
}

double
SimResult::coreEnergyPerRequest() const
{
    if (completed.empty())
        return 0.0;
    return core.energy.coreActive / static_cast<double>(completed.size());
}

double
SimResult::meanActiveCorePower() const
{
    if (simTime <= 0.0)
        return 0.0;
    return core.energy.coreActive / simTime;
}

double
SimResult::utilization() const
{
    if (simTime <= 0.0)
        return 0.0;
    return core.busyTime / simTime;
}

double
SimResult::thermalCoreEnergyPerRequest() const
{
    if (completed.empty())
        return 0.0;
    return thermalCoreActiveEnergy() /
           static_cast<double>(completed.size());
}

double
SimResult::thermalMeanActiveCorePower() const
{
    if (simTime <= 0.0)
        return 0.0;
    return thermalCoreActiveEnergy() / simTime;
}

namespace {

/**
 * The event loop, parameterized on the concrete policy type. Called with
 * Policy = DvfsPolicy in the general case; when the driver recognizes the
 * dynamic type (FixedFrequencyPolicy below) the instantiation devirtualizes
 * every hook, folds nextPeriodicUpdate() == kNever out of the min, and
 * elides CoreView construction for hooks that ignore it. Static and
 * dynamic dispatch execute identical arithmetic, so results are bitwise
 * equal either way.
 */
template <class Policy>
SimResult
simulateLoop(const Trace &trace, Policy &policy, const DvfsModel &dvfs,
             const PowerModel &power, const SimConfig &config,
             const ThermalOptions &thermal)
{
    CoreEngineConfig ecfg;
    ecfg.initialFrequency = config.initialFrequency;
    ecfg.transitionMode = config.transitionMode;
    ecfg.wakeLatency = config.wakeLatency;
    ecfg.recordTimeline = config.recordTimeline;
    CoreEngine core(dvfs, power, ecfg);

    policy.reset();

    // A periodic policy steps its update clock one period at a time,
    // through idle gaps too, and its first update falls one period in.
    // When that period is below half an ulp of the last arrival time,
    // the steps stall before the run can end (DvfsPolicy::catchUp
    // throws there), so fail now instead of after ~1e16 steps. Short
    // of that, a run is held to the number of periods a serve event
    // may cross, so a tiny load fails at once instead of stepping for
    // minutes or years.
    const double period = policy.nextPeriodicUpdate();
    if (period < DvfsPolicy::kNever && !trace.empty()) {
        const double last = trace.back().arrivalTime;
        if (last + period == last)
            throw DvfsPolicy::stalledClock(period, last);
        if (last > DvfsPolicy::kMaxGapPeriods * period) {
            char what[200];
            std::snprintf(what, sizeof(what),
                          "last arrival at %g s lies %.3g update periods "
                          "of %g s out, more than %g (is the load too "
                          "low?)",
                          last, last / period, period,
                          DvfsPolicy::kMaxGapPeriods);
            throw std::runtime_error(what);
        }
    }

    SimResult result;
    result.completed.reserve(trace.size());

    // Thermal-quantum event stream. Disabled: t_thermal stays at kNever
    // (it never wins the min below), no model is constructed, and the
    // loop body is the exact legacy sequence — outputs are bitwise
    // identical, which the golden CSVs pin.
    const bool thermal_on = thermal.enabled;
    std::optional<ThermalModel> tm;
    double t_thermal = DvfsPolicy::kNever;
    double last_thermal_time = 0.0;
    double last_total_energy = 0.0;
    double last_static_energy = 0.0;
    if (thermal_on) {
        tm.emplace(thermal.params, /*num_cores=*/1);
        t_thermal = thermal.params.quantum;
        result.thermal.enabled = true;
        result.thermal.maxCoreTemp = tm->coreTemp(0);
        result.thermal.maxPackageTemp = tm->packageTemp();
    }

    // Pointer-walk the (time-sorted) trace: the driver touches only the
    // next pending record, and the end test stays in registers.
    const TraceRecord *next_arrival = trace.data();
    const TraceRecord *const trace_end = next_arrival + trace.size();
    uint64_t next_id = 0;

    while (next_arrival != trace_end || core.busy()) {
        const double t_arrival = next_arrival != trace_end
                                     ? next_arrival->arrivalTime
                                     : DvfsPolicy::kNever;
        const double t_engine = core.nextEventTime();
        const double t_policy = policy.nextPeriodicUpdate();
        const double t_next =
            std::min({t_arrival, t_engine, t_policy, t_thermal});
        RUBIK_ASSERT(t_next < DvfsPolicy::kNever,
                     "simulation stuck with no next event");

        core.advanceTo(t_next);

        bool consult_policy = false;

        // Engine events (completion / transition end).
        if (t_engine <= t_next + 1e-12) {
            auto done = core.processEvents();
            if (done) {
                policy.onCompletion(*done, core.view());
                result.completed.push_back(*done);
                consult_policy = true;
            }
        }

        // Arrivals due now (ties: admit before consulting the policy so
        // the policy sees the new queue state, per Fig. 3).
        while (next_arrival != trace_end &&
               next_arrival->arrivalTime <= t_next + 1e-12) {
            Request r;
            r.id = next_id++;
            r.arrivalTime = core.now();
            r.computeCycles = next_arrival->computeCycles;
            r.memoryTime = next_arrival->memoryTime;
            r.classHint = next_arrival->classHint;
            core.enqueue(r);
            ++next_arrival;
            consult_policy = true;
        }

        // Periodic policy work (table rebuilds, feedback).
        if (t_policy <= t_next + 1e-12) {
            policy.periodicUpdate(core.view());
            consult_policy = true;
        }

        // Thermal quantum boundary: advance the RC network with the
        // quantum's mean core power, charge the temperature-dependent
        // leakage surcharge, and report the sensor state.
        if (thermal_on && t_thermal <= t_next + 1e-12) {
            const CoreStats &cs = core.stats();
            const double total_energy = cs.energy.coreActive +
                                        cs.energy.coreIdle +
                                        cs.energy.coreSleep;
            const double dt = core.now() - last_thermal_time;
            // Leakage over the quantum is scaled at the quantum's
            // start-of-interval temperature (what a sensor read at the
            // previous boundary gives a real controller).
            const double scale = tm->leakScale(tm->coreTemp(0));
            const double extra =
                (scale - 1.0) * (cs.staticBusyEnergy -
                                 last_static_energy);
            result.thermal.extraLeakageEnergy += extra;
            // The RC network is heated by the corrected power: legacy
            // accounting plus the leakage surcharge.
            const double watts =
                dt > 0.0
                    ? (total_energy - last_total_energy + extra) / dt
                    : 0.0;
            tm->step(dt, watts);
            const double core_temp = tm->coreTemp(0);
            const double pkg_temp = tm->packageTemp();
            result.thermal.maxCoreTemp =
                std::max(result.thermal.maxCoreTemp, core_temp);
            result.thermal.maxPackageTemp =
                std::max(result.thermal.maxPackageTemp, pkg_temp);
            if (core_temp > thermal.params.junction)
                result.thermal.timeAboveJunction += dt;
            ++result.thermal.quanta;
            if (config.recordTimeline) {
                result.thermal.timeline.push_back(
                    {core.now(), core_temp, pkg_temp, extra});
            }
            policy.onThermalSample(core.now(), core_temp, pkg_temp);
            last_thermal_time = core.now();
            last_total_energy = total_energy;
            last_static_energy = cs.staticBusyEnergy;
            t_thermal += thermal.params.quantum;
            consult_policy = true;
        }

        if (consult_policy)
            core.requestFrequency(policy.selectFrequency(core.view()));
    }

    result.core = core.stats();
    result.simTime = core.now();
    result.freqTimeline = core.timeline();
    if (thermal_on) {
        result.thermal.finalCoreTemp = tm->coreTemp(0);
        result.thermal.finalPackageTemp = tm->packageTemp();
    }
    return result;
}

} // anonymous namespace

SimResult
simulate(const Trace &trace, DvfsPolicy &policy, const DvfsModel &dvfs,
         const PowerModel &power, const SimConfig &config)
{
    return simulate(trace, policy, dvfs, power, config, ThermalOptions());
}

SimResult
simulate(const Trace &trace, DvfsPolicy &policy, const DvfsModel &dvfs,
         const PowerModel &power, const SimConfig &config,
         const ThermalOptions &thermal)
{
    // Fixed-frequency baselines dominate the figure sweeps (every
    // frequency point of the static curves runs one); dispatch them
    // through the statically-typed loop.
    if (auto *fixed = dynamic_cast<FixedFrequencyPolicy *>(&policy))
        return simulateLoop(trace, *fixed, dvfs, power, config, thermal);
    return simulateLoop(trace, policy, dvfs, power, config, thermal);
}

EnergyBreakdown
systemEnergy(const SimResult &result, const PowerModel &power, int copies)
{
    RUBIK_ASSERT(copies >= 1, "need at least one copy");
    const double n = static_cast<double>(copies);
    const double t = result.simTime;

    EnergyBreakdown e;
    e.coreActive = result.core.energy.coreActive * n;
    e.coreIdle = result.core.energy.coreIdle * n;
    e.coreSleep = result.core.energy.coreSleep * n;

    // Average number of active cores = copies * utilization; uncore power
    // is linear in it, so using the average is exact.
    const double avg_active = n * result.utilization();
    e.uncore = (power.params().uncoreStatic +
                power.params().uncorePerActiveCore * avg_active) * t;

    // DRAM bandwidth utilization approximated by the memory-stall share of
    // wall time summed over copies (each core saturating its 8.6 GB/s slice
    // maps to stall-fraction 1).
    const double bw_util =
        t > 0.0 ? std::min(1.0, n * result.core.stallTime /
                                    (t * static_cast<double>(
                                             power.params().numCores)))
                : 0.0;
    e.dram = power.dramPower(bw_util) * t;
    e.other = power.otherPower() * t;
    return e;
}

} // namespace rubik
