/**
 * @file
 * Figure 17 (extension): fleet-scale power capping. Sweeps fleet size
 * (up to ~10^4 Rubik-controlled cores) against global power budget
 * tightness and reports, per (cores, budget) cell, the fleet's worst
 * epoch tail latency, energy per request, peak aggregate power, and
 * how much of the fleet the coordinator had to cap.
 *
 * The shape to expect: with a slack budget (frac >= ~0.8 of nominal
 * core power) the coordinator never binds and the fleet matches the
 * uncapped run; as the budget tightens, water-filling first shaves
 * the surge epochs (capped_frac jumps while tails hold), then pushes
 * every core to a low frequency ceiling and tails blow through the
 * bound — the capacity-vs-latency cliff cluster operators size
 * budgets around. peak_power_w stays <= budget_w in every feasible
 * cell by construction (caps translate to frequency ceilings).
 */

#include "common.h"
#include "fleet/fleet_sim.h"
#include "util/units.h"

using namespace rubik;
using namespace rubik::bench;

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    Platform plat;
    const double nominal_w =
        plat.power.coreActivePower(plat.dvfs.nominalFrequency(), 0.0);

    // Fleet sizes in cores (6-core machines) x budget as a fraction of
    // cores * nominal core power (0 = uncapped reference).
    const std::vector<int> sizes =
        opts.fast ? std::vector<int>{48, 96}
                  : std::vector<int>{96, 960, 10080};
    const std::vector<double> fracs =
        opts.fast ? std::vector<double>{0.0, 0.6, 0.9}
                  : std::vector<double>{0.0, 0.4, 0.6, 0.8, 1.0};

    heading(opts, "Fig. 17: fleet-scale power capping (worst epoch per "
                  "cell; budget = frac x cores x nominal core power)");
    TablePrinter table({"cores", "budget_frac", "budget_w",
                        "worst_tail_ms", "tail_over_bound",
                        "energy_mj_per_req", "peak_power_w",
                        "peak_over_budget", "capped_frac", "shed_frac",
                        "groups", "feasible"},
                       opts.csv);

    for (std::size_t ci = 0; ci < sizes.size() * fracs.size(); ++ci) {
        const int cores = sizes[ci / fracs.size()];
        const double frac = fracs[ci % fracs.size()];

        FleetConfig cfg;
        cfg.machines = cores / cfg.coresPerMachine;
        cfg.requestsPerEpoch = opts.numRequests(600);
        cfg.seed = opts.seed;
        cfg.budgetWatts = frac > 0.0 ? frac * cores * nominal_w : 0.0;
        const FleetResult r = runFleet(cfg, opts.jobs);

        double capped_max = 0.0;
        for (const FleetEpochResult &er : r.epochs)
            capped_max = std::max(capped_max, er.cappedFraction);

        table.addRow(
            {fmt("%.0f", static_cast<double>(cores)),
             fmt("%.2f", frac), fmt("%.1f", cfg.budgetWatts),
             fmt("%.3f", r.worstTail / kMs),
             fmt("%.3f", r.worstTail / r.bound),
             fmt("%.3f", r.energyPerRequest / kMj),
             fmt("%.1f", r.peakPower),
             fmt("%.3f", cfg.budgetWatts > 0.0
                             ? r.peakPower / cfg.budgetWatts
                             : 0.0),
             fmt("%.3f", capped_max), fmt("%.3f", r.shedFraction),
             fmt("%.0f", static_cast<double>(r.groupsSimulated)),
             fmt("%.0f", r.feasible ? 1.0 : 0.0)});
    }
    table.print();
    return 0;
}
