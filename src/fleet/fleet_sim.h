#ifndef RUBIK_FLEET_FLEET_SIM_H
#define RUBIK_FLEET_FLEET_SIM_H

/**
 * @file
 * Fleet-scale simulation: O(10^4) Rubik-controlled cores under one
 * global power budget.
 *
 * Per coordinator epoch, the correlated load model emits per-machine
 * offered load, the router assigns it (spilling overflow, shedding
 * the rest), and the power coordinator water-fills the budget into
 * per-core caps. Simulating every core individually would be 10^4
 * simulations per epoch; instead, cores are exact-grouped: assigned
 * load is quantized to a grid (loadQuantum) and a cap matters only
 * through its frequency ceiling, so every core with the same
 * (quantized load, cap ceiling) pair runs the identical simulation.
 * One simulation per distinct group is run (and memoized across
 * epochs — the trace seed depends on the load, not the epoch), and
 * fleet metrics are core-count-weighted aggregations: pooled
 * weighted tail percentile, weighted energy per request, and summed
 * power.
 *
 * Determinism: group keys are iterated in sorted order, simulations
 * fan out on an ExperimentRunner (results in submission order), and
 * the coordinator is open-loop — so fleet results are byte-stable
 * across worker counts (CI-gated), and a (cores, budget) sweep cell
 * never depends on any other cell.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/load_model.h"
#include "power/thermal_model.h"

namespace rubik {

/// One fleet experiment: a fleet of identical machines, one app, one
/// policy, one optional global power budget.
struct FleetConfig
{
    std::string app = "masstree";
    std::string policy = "rubik";
    int machines = 16;
    int coresPerMachine = 6;
    int epochs = 6;
    /// Requests simulated per core per epoch.
    int requestsPerEpoch = 600;
    /// Global active-power budget over all cores (W); <= 0: uncapped.
    double budgetWatts = 0.0;
    /// Tail latency bound in ms; <= 0 derives it from the app's
    /// 50%-load fixed-nominal replay (the sweep runner's rule).
    double boundMs = 0.0;
    /// Router saturation point: no machine is assigned more than this
    /// per-core load; overflow spills, then sheds.
    double maxCoreLoad = 0.9;
    /// Assigned load is rounded to this grid before simulation; the
    /// grouping knob (smaller = more groups = slower, finer).
    double loadQuantum = 0.02;
    double transitionUs = 4.0; ///< DVFS transition latency (us).
    uint64_t seed = 42;
    LoadModelConfig loadModel; ///< seed is overridden with `seed`.
    /**
     * Thermal modeling (power/thermal_model.h). When enabled, every
     * per-core cap the water-filler grants is first derated to the
     * machine's steady-state thermal budget — the sustained per-core
     * power at which the RC network settles exactly at the junction
     * limit with all coresPerMachine cores active — so the fleet
     * never plans on power a machine cannot sustain thermally; group
     * simulations then run with temperature-dependent leakage.
     * Default off: legacy fleet outputs are bitwise unchanged.
     */
    ThermalOptions thermal;

    int totalCores() const { return machines * coresPerMachine; }

    /// Throws std::runtime_error on out-of-range fields or an unknown
    /// app/policy name.
    void validate() const;
};

/// One epoch's fleet-wide outcome.
struct FleetEpochResult
{
    int epoch = 0;
    double offeredLoad = 0.0; ///< Mean per-core offered load.
    double meanLoad = 0.0;    ///< Mean per-core assigned load.
    /// Fraction of offered demand no machine could absorb.
    double shedFraction = 0.0;
    double tailLatency = 0.0; ///< Pooled weighted p95 (s).
    double energyPerRequest = 0.0; ///< Core energy (J/request).
    double meanPower = 0.0; ///< Aggregate mean active power (W).
    double capPower = 0.0;  ///< Sum of granted caps (W); 0 uncapped.
    /// Cores granted less than their predicted demand.
    double cappedFraction = 0.0;
    int groups = 0; ///< Distinct (load, ceiling) groups this epoch.
    /// False when budget < cores * floor power (caps degraded to the
    /// floor; aggregate power may exceed the budget).
    bool feasible = true;
};

/// Whole-run rollup plus the per-epoch series.
struct FleetResult
{
    double bound = 0.0;       ///< Resolved tail bound (s).
    double budgetWatts = 0.0; ///< 0 when uncapped.
    bool feasible = true;     ///< All epochs feasible.
    std::vector<FleetEpochResult> epochs;
    double worstTail = 0.0;  ///< Max epoch tail latency (s).
    double peakPower = 0.0;  ///< Max epoch aggregate power (W).
    double energyPerRequest = 0.0; ///< Mean over epochs (J/request).
    double shedFraction = 0.0;     ///< Demand-weighted, all epochs.
    int groupsSimulated = 0; ///< Simulations actually run.
};

/**
 * Run one fleet experiment on `jobs` workers (0 = hardware default).
 * Deterministic for a fixed config regardless of `jobs`. Throws
 * std::runtime_error on an invalid config.
 */
FleetResult runFleet(const FleetConfig &config, int jobs = 0);

} // namespace rubik

#endif // RUBIK_FLEET_FLEET_SIM_H
