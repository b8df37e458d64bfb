/**
 * @file
 * Extension: tail latency and energy vs thermal headroom under
 * adversarial arrival scenarios (workloads/scenarios.h).
 *
 * The paper's evaluation assumes the chip can always reach its top
 * DVFS state. A thermally limited part cannot: sustained load
 * heat-soaks the RC network (power/thermal_model.h) until boosting
 * would cross the junction limit. This bench sweeps the thermal
 * headroom (junction minus ambient) across three scenario families —
 * diurnal sine, flash crowd, multi-tier cascade — and compares plain
 * Rubik against the thermally budgeted RubikThermal controller
 * (policies/rubik_thermal.h).
 *
 * The shape to expect: with roomy headroom the two schemes are
 * identical (the thermal ceiling never binds and temperatures sit a
 * few degrees over ambient). As headroom shrinks toward the
 * scenario's self-heating, rubik keeps boosting and its peak die
 * temperature crosses the junction limit, while rubik-thermal trades
 * tail slack for staying under it — the bounded-by-physics operating
 * curve. Temperature-dependent leakage makes the hot scheme pay
 * extra energy on top (extra_leak_mj_per_req).
 */

#include <functional>
#include <vector>

#include "common.h"
#include "policies/replay.h"
#include "runner/experiment_runner.h"
#include "runner/sweep_runner.h"
#include "util/units.h"
#include "workloads/scenarios.h"
#include "workloads/trace_gen.h"

using namespace rubik;
using namespace rubik::bench;

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    Platform plat;
    const double nominal = plat.dvfs.nominalFrequency();
    const AppProfile app = makeApp(AppId::Masstree);
    const int n = opts.numRequests(6000);

    // Junction = ambient + headroom. 30 C never binds (the reference
    // rows), the smaller values descend into the scenarios' own
    // self-heating range.
    const std::vector<double> headrooms =
        opts.fast ? std::vector<double>{30.0, 10.0, 6.0}
                  : std::vector<double>{30.0, 15.0, 10.0, 6.0};
    const std::vector<std::string> policies = {"rubik",
                                               "rubik-thermal"};

    struct Scenario
    {
        std::string name;
        Trace trace;
    };
    struct Context
    {
        double bound = 0.0;
        std::vector<Scenario> scenarios;
    };

    ExperimentRunner runner(opts.jobs);

    // Phase 1: the shared bound and one trace per scenario family.
    // Scenario spans derive from the app's max rate so every family
    // carries ~n requests regardless of --requests scaling.
    std::vector<std::function<Context()>> setup_jobs;
    setup_jobs.push_back([&] {
        Context ctx;
        const Trace t50 =
            generateLoadTrace(app, 0.5, n, nominal, opts.seed);
        ctx.bound =
            replayFixed(t50, nominal, plat.power).tailLatency(0.95);

        const double rate = 0.55 * app.maxQps(nominal, nominal);
        const double span = static_cast<double>(n) / rate;
        Scenario diurnal{
            "diurnal",
            generateDiurnalTrace(app, 0.55, 0.35, span / 2.0, span,
                                 nominal, opts.seed + 1)};
        Scenario flash{
            "flash",
            generateFlashCrowdTrace(app, 0.45, 0.95, 0.3 * span,
                                    0.1 * span, span, nominal,
                                    opts.seed + 2)};
        Scenario cascade{
            "cascade",
            generateCascadeTrace(app, 0.55, 3, 2.0, 2e-3, n / 7,
                                 nominal, opts.seed + 3)};
        for (Scenario *s : {&diurnal, &flash, &cascade})
            annotateClasses(s->trace, 0.85, nominal);
        ctx.scenarios = {std::move(diurnal), std::move(flash),
                         std::move(cascade)};
        return ctx;
    });
    const Context ctx =
        runner.runBatch(std::move(setup_jobs)).front();

    const std::size_t cells =
        ctx.scenarios.size() * headrooms.size() * policies.size();

    heading(opts, "Extension: tail latency and energy vs thermal "
                  "headroom (junction - ambient) under adversarial "
                  "scenarios; rubik vs rubik-thermal");
    TablePrinter table({"scenario", "headroom_c", "policy", "tail_ms",
                        "tail_over_bound", "energy_mj_per_req",
                        "max_temp_c", "extra_leak_mj_per_req"},
                       opts.csv);

    // Phase 2: one job per (scenario, headroom, policy) cell, fanned
    // out in cell order so rows land deterministically.
    std::vector<std::function<std::vector<std::string>()>> row_jobs;
    for (std::size_t ci = 0; ci < cells; ++ci) {
        row_jobs.push_back([&, ci]() -> std::vector<std::string> {
            const std::size_t per_scenario =
                headrooms.size() * policies.size();
            const Scenario &sc = ctx.scenarios[ci / per_scenario];
            const double headroom =
                headrooms[(ci % per_scenario) / policies.size()];
            const std::string &policy = policies[ci % policies.size()];

            PolicyRunRequest req;
            req.trace = &sc.trace;
            req.bound = ctx.bound;
            req.dvfs = &plat.dvfs;
            req.power = &plat.power;
            req.options = opts.sim;
            req.options.thermal.enabled = true;
            req.options.thermal.params.junction =
                req.options.thermal.params.ambient + headroom;
            const PolicyOutcome out = runPolicy(policy, req);

            return {sc.name, fmt("%.0f", headroom), policy,
                    fmt("%.3f", out.tailLatency / kMs),
                    fmt("%.2f", out.tailLatency / ctx.bound),
                    fmt("%.4f", out.energyPerRequest / kMj),
                    fmt("%.2f", out.maxCoreTemp),
                    fmt("%.4f", out.extraLeakagePerRequest / kMj)};
        });
    }
    for (auto &row : runner.runBatch(std::move(row_jobs)))
        table.addRow(std::move(row));
    table.print();
    return 0;
}
