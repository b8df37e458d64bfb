#ifndef RUBIK_FLEET_COORDINATOR_H
#define RUBIK_FLEET_COORDINATOR_H

/**
 * @file
 * Cluster power coordinator: turns a global power budget into
 * per-core caps, once per epoch.
 *
 * The coordinator is open-loop model-predictive: each core's power
 * demand is predicted from its assigned load through the shared
 * PowerModel (demandPower), and the budget is divided over those
 * demands by fair water-filling (fleet/water_fill.h) with the
 * minimum-frequency power as the per-core floor. Because caps derive
 * from the demand model rather than from the previous epoch's
 * measurements, every (fleet size, budget) sweep cell is independent
 * of every other. Enforcement is conservative by construction: a cap is
 * translated to a frequency ceiling via capFrequencyCeiling, so each
 * core's instantaneous active power stays <= its cap and the fleet's
 * aggregate measured power stays <= sum(caps) <= budget in every
 * feasible epoch.
 */

#include <vector>

#include "fleet/water_fill.h"
#include "power/power_model.h"

namespace rubik {

class PowerCoordinator
{
  public:
    /**
     * @param power  Shared per-core power model (caller keeps it
     *               alive for the coordinator's lifetime).
     * @param budget_watts  Global budget over all cores' active
     *               power; must be > 0 (a fleet without a budget
     *               simply does not construct a coordinator).
     */
    PowerCoordinator(const PowerModel &power, double budget_watts);

    /**
     * Predicted active power (W) of one core at per-core load in
     * [0, 1]: the power of the grid frequency proportional to load
     * between f_min and f_max, at the worst-case (stall-free)
     * activity. Monotone and deterministic in `load`; equal loads
     * always produce equal demands, which water-filling turns into
     * equal caps (fairness).
     */
    double demandPower(double load) const;

    /// Per-core floor: active power at the minimum grid frequency. A
    /// cap below this could not be honored by any DVFS setting.
    double floorPower() const;

    double budget() const { return budget_; }

    /**
     * Water-fill the budget over the cores' predicted demands. One
     * entry per core, in caller order. result.feasible is false when
     * budget < numCores * floorPower() — caps then degrade to the
     * floor and the caller must report the epoch as over budget.
     */
    WaterFillResult assignCaps(const std::vector<double> &core_loads)
        const;

  private:
    const PowerModel &power_;
    double budget_;
    double floor_;
};

} // namespace rubik

#endif // RUBIK_FLEET_COORDINATOR_H
