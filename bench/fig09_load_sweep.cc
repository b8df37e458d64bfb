/**
 * @file
 * Figure 9: trace-driven characterization. For each app and load
 * (10%..90%), tail latency (9a) and core energy per request (9b) under:
 * fixed nominal frequency, StaticOracle, DynamicOracle, Rubik without
 * feedback, and Rubik.
 *
 * Paper's shape: fixed-frequency tail explodes with load; oracles hold a
 * flat tail to ~50% (the bound is unachievable beyond — shaded region);
 * DynamicOracle saves 20-45% of StaticOracle's energy at 50%; Rubik
 * captures most of that for tight-service apps, and Rubik-without-
 * feedback runs slightly conservative (lower tail than necessary).
 *
 * Sweep execution: the 5 apps x 9 loads grid is 45 independent jobs run
 * through ExperimentRunner; tables are emitted in submission order, so
 * the output is byte-identical to the old serial loop.
 */

#include "common.h"
#include "core/rubik_controller.h"
#include "policies/dynamic_oracle.h"
#include "policies/replay.h"
#include "policies/static_oracle.h"
#include "runner/experiment_runner.h"
#include "sim/simulation.h"
#include "util/units.h"
#include "workloads/trace_store.h"

using namespace rubik;
using namespace rubik::bench;

namespace {

/// Per-app inputs shared by that app's nine load cells.
struct AppContext
{
    AppProfile app;
    int n = 0;
    double bound = 0.0;
};

/// One (app, load) cell: tail latency and energy/request per scheme.
struct Cell
{
    double tail[5] = {};   // Fixed, StaticOracle, DynamicOracle,
    double energy[5] = {}; // Rubik_noFB, Rubik.
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    Platform plat;
    const double nominal = plat.dvfs.nominalFrequency();
    ExperimentRunner runner(opts.jobs);

    const std::vector<AppId> apps = allApps();
    const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9};

    // Phase 1: per-app latency bound from the 50%-load trace.
    std::vector<std::function<AppContext()>> bound_jobs;
    for (const AppId id : apps) {
        bound_jobs.push_back([&, id] {
            AppContext ctx;
            ctx.app = makeApp(id);
            ctx.n = opts.numRequests(std::max(ctx.app.paperRequests, 5000));
            const auto t50 = globalTraceStore().loadTrace(
                ctx.app, 0.5, ctx.n, nominal, opts.seed);
            ctx.bound = replayFixed(*t50, nominal, plat.power)
                            .tailLatency(0.95);
            return ctx;
        });
    }
    const std::vector<AppContext> ctxs =
        runner.runBatch(std::move(bound_jobs));

    // Phase 2: one job per (app, load) cell, all five schemes inside,
    // in cell-index order.
    std::vector<std::function<Cell()>> cell_jobs;
    for (std::size_t ci = 0; ci < apps.size() * loads.size(); ++ci) {
        const std::size_t ai = ci / loads.size();
        const std::size_t li = ci % loads.size();
        cell_jobs.push_back([&, ai, li] {
            const AppContext &ctx = ctxs[ai];
            const auto trace = globalTraceStore().loadTrace(
                ctx.app, loads[li], ctx.n, nominal, opts.seed + 1);
            const Trace &t = *trace;

            const ReplayResult fixed =
                replayFixed(t, nominal, plat.power);
            const auto so = staticOracle(t, ctx.bound, 0.95, plat.dvfs,
                                         plat.power);
            const auto dyn = dynamicOracle(t, ctx.bound, 0.95,
                                           plat.dvfs, plat.power);

            RubikConfig nofb_cfg;
            nofb_cfg.latencyBound = ctx.bound;
            nofb_cfg.feedback = false;
            RubikController rubik_nofb(plat.dvfs, nofb_cfg);
            const SimResult nofb =
                simulate(t, rubik_nofb, plat.dvfs, plat.power);

            RubikConfig fb_cfg;
            fb_cfg.latencyBound = ctx.bound;
            RubikController rubik(plat.dvfs, fb_cfg);
            const SimResult fb =
                simulate(t, rubik, plat.dvfs, plat.power);

            Cell cell;
            cell.tail[0] = fixed.tailLatency();
            cell.tail[1] = so.replay.tailLatency();
            cell.tail[2] = dyn.replay.tailLatency();
            cell.tail[3] = nofb.tailLatency();
            cell.tail[4] = fb.tailLatency();
            cell.energy[0] = fixed.energyPerRequest();
            cell.energy[1] = so.replay.energyPerRequest();
            cell.energy[2] = dyn.replay.energyPerRequest();
            cell.energy[3] = nofb.coreEnergyPerRequest();
            cell.energy[4] = fb.coreEnergyPerRequest();
            return cell;
        });
    }
    const std::vector<Cell> cells = runner.runBatch(std::move(cell_jobs));

    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const AppContext &ctx = ctxs[ai];
        heading(opts, "Fig. 9: " + ctx.app.name + " (bound " +
                          fmt("%.3f", ctx.bound / kMs) +
                          " ms = fixed-freq tail @50%)");
        TablePrinter table(
            {"load", "metric", "Fixed", "StaticOracle", "DynamicOracle",
             "Rubik_noFB", "Rubik"},
            opts.csv);

        for (std::size_t li = 0; li < loads.size(); ++li) {
            const Cell &cell = cells[ai * loads.size() + li];
            table.addRow({fmt("%.0f%%", loads[li] * 100), "tail_ms",
                          fmt("%.3f", cell.tail[0] / kMs),
                          fmt("%.3f", cell.tail[1] / kMs),
                          fmt("%.3f", cell.tail[2] / kMs),
                          fmt("%.3f", cell.tail[3] / kMs),
                          fmt("%.3f", cell.tail[4] / kMs)});
            table.addRow({fmt("%.0f%%", loads[li] * 100), "mJ/req",
                          fmt("%.3f", cell.energy[0] / kMj),
                          fmt("%.3f", cell.energy[1] / kMj),
                          fmt("%.3f", cell.energy[2] / kMj),
                          fmt("%.3f", cell.energy[3] / kMj),
                          fmt("%.3f", cell.energy[4] / kMj)});
        }
        table.print();
    }
    return 0;
}
