/**
 * @file
 * rubik_cli — run any workload/load/policy combination from the command
 * line and print tail latency, energy, and frequency statistics. The
 * "driver" a downstream user reaches for before writing code against the
 * library.
 *
 * Examples:
 *   rubik_cli --app masstree --load 0.4 --policy rubik
 *   rubik_cli --app xapian --load 0.5 --policy static --transition-us 130
 *   rubik_cli --app specjbb --load 0.3 --policy dynamic --csv
 *   rubik_cli --app moses --loads 0.1,0.3,0.5,0.7 --policy rubik --csv
 *
 * Subcommands for batch experiment grids (src/runner/sweep_spec.h):
 *   rubik_cli sweep --spec grid.spec                # whole grid as CSV
 *   rubik_cli sweep --spec grid.spec --dry-run      # list cells only
 *   rubik_cli sweep --spec grid.spec --out grid.csv # journaled, resumable
 *
 * Any orchestration flag (--out, --ledger, --resume, --schedule
 * dynamic, --backend, --shards) runs the grid through the orchestrator
 * (src/runner/orchestrator.h), which leases batches of cells to
 * workers; a dispatching backend runs each batch as a child process:
 *   rubik_cli sweep --spec grid.spec --backend subprocess --shards 3
 *   rubik_cli sweep --spec grid.spec --shards 4 \
 *       --backend 'command:ssh host {argv}'
 * --trace-stats reports how many traces each process generated, and
 * the most it held at once, on stderr.
 *
 * Multi-load sweeps (--loads) run every load as an independent job on
 * an ExperimentRunner thread pool; each job derives its trace from the
 * same seed, so results match a serial sweep exactly.
 *
 * Fleet mode (src/fleet/fleet_sim.h) sweeps fleet size x power budget
 * under the cluster coordinator:
 *   rubik_cli fleet --cores 96,960 --budget-frac 0.6,1.0 --csv
 *   rubik_cli fleet --cores 10080 --budget-watts 40000 --json
 * One cell per (cores, budget) pair.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fleet/fleet_sim.h"
#include "policies/replay.h"
#include "runner/backend.h"
#include "runner/experiment_runner.h"
#include "runner/fault.h"
#include "runner/options_parser.h"
#include "runner/orchestrator.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "serve/daemon.h"
#include "sim/decision_log.h"
#include "sim/simulation.h"
#include "util/error.h"
#include "util/units.h"
#include "workloads/trace_gen.h"
#include "workloads/trace_import.h"

using namespace rubik;

namespace {

/// Offered load, as a fraction of max throughput at 2.4 GHz: the range
/// the trace generators accept.
const NumberRange kLoadRange = NumberRange::open(0.0, 1.5);
/// A temperature in degrees C: above absolute zero.
const NumberRange kCelsiusRange = NumberRange::above(-273.15);
/// `sweep --lease-timeout` in seconds (0 disables leases): at most
/// 10^6, so a lease doubled on every retry stays a representable
/// steady-clock deadline.
const NumberRange kLeaseRange{0.0, 1e6, false, false};
/// `sweep --retries`: an ample cap that keeps the attempt count an int.
constexpr uint64_t kMaxRetries = 1000;

struct CliOptions
{
    std::string app = "masstree";
    std::string policy = "rubik";
    std::vector<double> loads = {0.4};
    int requests = 9000;
    double boundMs = 0.0;       ///< 0: auto (fixed-freq tail @50%).
    double transitionUs = 4.0;
    uint64_t seed = 42;
    bool csv = false;
    bool json = false;
    bool bursty = false;
    bool decisionHash = false;  ///< Report the chained decision hash.
    int jobs = 0;               ///< Sweep workers; 0: hardware default.
    SimOptions sim;             ///< PolicyRunRequest::options source.
};

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --app NAME         masstree|moses|shore|specjbb|xapian "
        "(default masstree)\n"
        "  --load F           fraction of max throughput at 2.4 GHz, "
        "in (0, 1.5)\n"
        "                     (default 0.4)\n"
        "  --loads F1,F2,...  sweep several loads in parallel\n"
        "  --jobs N           sweep worker threads (default: hardware)\n"
        "  --policy NAME      fixed|static|dynamic|adrenaline|pegasus|"
        "rubik|rubik-nofb|boost|\n"
        "                     rubik-thermal (default rubik;\n"
        "                     rubik-thermal needs --thermal)\n"
        "  --requests N       trace length (default 9000)\n"
        "  --bound-ms MS      tail latency bound; 0 = auto from 50%% "
        "load (default)\n"
        "  --transition-us US DVFS transition latency (default 4)\n"
        "  --bursty           MMPP-2 arrivals instead of Poisson\n"
        "  --thermal          enable the thermal RC network and "
        "temperature-\n"
        "                     dependent leakage (docs/thermal.md); "
        "off by\n"
        "                     default, and off reproduces legacy "
        "outputs\n"
        "                     bitwise. Adds max_temp_c and\n"
        "                     extra_leak_mj_per_req to --csv/--json\n"
        "  --tj C             junction temperature limit in C "
        "(default 95)\n"
        "  --ambient C        ambient/coolant temperature in C "
        "(default 45;\n"
        "                     also re-pins the leakage reference "
        "temperature)\n"
        "  --seed S           RNG seed (default 42)\n"
        "  --simd MODE        auto|scalar|avx2|neon kernel dispatch "
        "(default auto;\n"
        "                     also --simd=MODE; every mode is bitwise-"
        "identical)\n"
        "  --csv              machine-readable output\n"
        "  --json             JSON array output (one object per load)\n"
        "  --decision-hash    report the chained per-decision hash and "
        "count\n"
        "                     (byte-comparable with the serve daemon's "
        "replay;\n"
        "                     replay-based policies do not support it)\n"
        "subcommands:\n"
        "  %s sweep --spec FILE [--jobs N] [--dry-run] [--simd MODE]\n"
        "       [--trace-stats] [--cells B-E]\n"
        "       [--backend local|subprocess|command:<tmpl>] "
        "[--shards N]\n"
        "       [--out CSV] [--resume] [--ledger FILE] "
        "[--schedule dynamic]\n"
        "       [--retries N] [--batch-cells N] [--lease-timeout SEC] "
        "[--fault SPEC]\n"
        "                     run a sweep-spec grid as CSV on stdout. "
        "--cells runs\n"
        "                     one batch (rows only, no header). Any of "
        "--backend,\n"
        "                     --shards, --out, --ledger, --resume or "
        "--schedule\n"
        "                     runs the fault-tolerant orchestrator: "
        "cells are\n"
        "                     leased in batches to N workers "
        "(work-stealing after\n"
        "                     --lease-timeout), every finished cell is "
        "journaled\n"
        "                     to the ledger, and --resume skips "
        "journaled cells —\n"
        "                     the CSV stays byte-identical to an "
        "uninterrupted\n"
        "                     run. --fault injects deterministic "
        "failures\n"
        "                     (docs/backends.md)\n"
        "  %s fleet [--cores N1,N2,...] [--budget-frac F1,F2,... | "
        "--budget-watts W]\n"
        "       [--app NAME] [--policy NAME] [--cores-per-machine N]\n"
        "       [--epochs N] [--requests N] [--bound-ms MS] [--seed S]\n"
        "       [--base-load F] [--surge-factor F] "
        "[--surge-fraction F]\n"
        "       [--max-core-load F] [--load-quantum F] "
        "[--transition-us US]\n"
        "       [--thermal] [--tj C] [--ambient C]\n"
        "       [--jobs N] [--simd MODE] [--csv | --json]\n"
        "                     sweep fleet size x global power budget "
        "under the\n"
        "                     cluster coordinator; budget-frac scales "
        "cores x nominal\n"
        "                     core power (0 = uncapped)\n"
        "  %s serve --socket PATH --bound-ms MS [--percentile P]\n"
        "       [--update-ms MS] [--feedback] [--max-queue N] "
        "[--no-timing]\n"
        "       [--transition-us US] [--simd MODE]\n"
        "                     run the live decision daemon on a Unix "
        "socket\n"
        "                     (docs/serving.md): newline-delimited "
        "arrival/\n"
        "                     completion events in, frequency decisions "
        "out.\n"
        "                     Query a running daemon with:\n"
        "  %s serve --socket PATH --stats | --shutdown\n"
        "                     print the daemon's one-line JSON stats / "
        "ask it\n"
        "                     to exit cleanly\n"
        "  %s trace gen --out FILE [--app NAME] [--load F] "
        "[--requests N]\n"
        "       [--seed S] [--bursty]\n"
        "                     write a class-annotated .rtrace file — "
        "the serve\n"
        "                     daemon's replay input, generated exactly "
        "like the\n"
        "                     one-shot run's trace\n"
        "  %s trace import --in CSV --out FILE\n"
        "                     validate an external trace CSV "
        "(arrival_s,\n"
        "                     compute_cycles,memory_time_s[,class]) "
        "and convert\n"
        "                     it to the checksummed .rtrace format; "
        "malformed\n"
        "                     rows, non-monotonic arrivals, NaN or "
        "negative\n"
        "                     demands, and truncated files are "
        "rejected with\n"
        "                     the offending line number "
        "(docs/thermal.md)\n",
        argv0, argv0, argv0, argv0, argv0, argv0, argv0);
    std::exit(0);
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions o;
    CommonRunOptions run;
    run.requests = o.requests;
    OptionsParser parser(argc, argv);
    parser.value("--app", [&o](const char *v) { o.app = v; });
    parser.value("--policy", [&o](const char *v) { o.policy = v; });
    parser.number("--load", kLoadRange,
                  [&o](double load) { o.loads = {load}; });
    parser.numberList("--loads", &o.loads, kLoadRange);
    parser.number("--bound-ms", &o.boundMs, NumberRange::atLeast(0.0));
    parser.number("--transition-us", &o.transitionUs,
                  NumberRange::atLeast(0.0));
    parser.flag("--csv", [&o] { o.csv = true; });
    parser.flag("--json", [&o] { o.json = true; });
    parser.flag("--bursty", [&o] { o.bursty = true; });
    // Thermal flags write into run.sim: parse() adopts run.sim after
    // parser.run() (addRunFlags owns the shared SimOptions).
    parser.flag("--thermal",
                [&run] { run.sim.thermal.enabled = true; });
    ThermalParams &thermal = run.sim.thermal.params;
    parser.number("--tj", &thermal.junction, kCelsiusRange);
    parser.number("--ambient", kCelsiusRange, [&thermal](double c) {
        // The leakage reference follows ambient so a chip at rest has
        // exactly the calibrated (legacy) leakage share.
        thermal.ambient = c;
        thermal.leakTref = c;
    });
    parser.flag("--decision-hash", [&o] { o.decisionHash = true; });
    addRunFlags(parser, &run);
    addSimdFlag(parser, &run);
    parser.flag("--help", [argv] { usage(argv[0]); });
    parser.onUnknown([](const char *token) {
        // Not usage(): that exits 0 on stdout, so a typo'd flag or a
        // removed subcommand would pass for a successful run.
        std::fprintf(stderr,
                     "unknown flag or subcommand: %s (try --help)\n",
                     token);
        std::exit(1);
    });
    parser.run();

    o.requests = run.requests;
    o.seed = run.seed;
    o.jobs = run.jobs;
    o.sim = run.sim;
    if (run.simdGiven)
        applySimdSelection(run);
    if (o.csv && o.json) {
        std::fprintf(stderr, "--csv and --json are mutually exclusive\n");
        std::exit(1);
    }
    return o;
}

AppId
appByName(const std::string &name)
{
    const std::optional<AppId> id = appIdByName(name);
    if (!id)
        fatal("unknown app (try --help)");
    return *id;
}

/**
 * `rubik_cli sweep --spec FILE ...`: the whole grid in this process,
 * one `--cells` batch (a batch child), or, given any orchestration
 * flag, the orchestrator (runner/orchestrator.h).
 */
int
sweepMain(int argc, char **argv)
{
    std::string spec_path;
    std::string backend_desc = "local";
    std::string cells_arg, out_path, ledger_path, schedule, fault_spec;
    std::size_t batch_cells = 0;
    double lease_timeout = 0.0;
    bool resume = false;
    int jobs = 0;
    int dispatch_shards = 1, retries = -1;
    bool dry_run = false, trace_stats = false;
    CommonRunOptions run;
    OptionsParser parser(argc, argv, 2);
    parser.value("--spec", [&](const char *v) { spec_path = v; });
    parser.count("--jobs", &jobs, 0);
    parser.value("--backend", [&](const char *v) { backend_desc = v; });
    parser.count("--shards", &dispatch_shards, 1);
    parser.count("--retries", &retries, 0, kMaxRetries);
    parser.flag("--trace-stats", [&] { trace_stats = true; });
    parser.flag("--dry-run", [&] { dry_run = true; });
    parser.value("--cells", [&](const char *v) { cells_arg = v; });
    parser.value("--out", [&](const char *v) { out_path = v; });
    parser.value("--ledger", [&](const char *v) { ledger_path = v; });
    parser.flag("--resume", [&] { resume = true; });
    parser.value("--schedule", [&](const char *v) { schedule = v; });
    parser.count("--batch-cells", &batch_cells, 0);
    parser.number("--lease-timeout", &lease_timeout, kLeaseRange);
    parser.value("--fault", [&](const char *v) { fault_spec = v; });
    addSimdFlag(parser, &run);
    parser.onUnknown([](const char *token) {
        // Not usage(): that exits 0 on stdout, which would let a
        // typo'd flag corrupt a redirected CSV silently.
        std::fprintf(stderr, "sweep: unknown flag %s\n", token);
        std::exit(1);
    });
    parser.run();
    if (run.simdGiven)
        applySimdSelection(run);
    if (spec_path.empty()) {
        std::fprintf(stderr, "sweep needs --spec FILE\n");
        return 1;
    }
    if (!schedule.empty() && schedule != "dynamic") {
        // The orchestrator's leased batches are the only schedule.
        std::fprintf(stderr, "sweep: --schedule wants dynamic\n");
        return 1;
    }
    const bool orchestrated =
        !out_path.empty() || resume || !ledger_path.empty() ||
        !schedule.empty() || backend_desc != "local" ||
        dispatch_shards > 1;
    if (!cells_arg.empty() && (orchestrated || dry_run)) {
        // --cells is a leased batch child: rows only, no dispatch, no
        // ledger of its own. The coordinator owns everything else.
        std::fprintf(stderr,
                     "sweep: --cells cannot be combined with --dry-run "
                     "or the orchestration flags\n");
        return 1;
    }
    if (resume && out_path.empty() && ledger_path.empty()) {
        std::fprintf(stderr,
                     "sweep: --resume needs --out or --ledger "
                     "(nothing to resume from)\n");
        return 1;
    }
    if (!fault_spec.empty()) {
        // Arm this process AND export the spec so dispatched batch
        // children inherit it (the scheduler strips it from retries).
        ::setenv("RUBIK_FAULT", fault_spec.c_str(), 1);
        try {
            FaultInjector::instance().configure(fault_spec);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sweep: %s\n", e.what());
            return 1;
        }
    }
    int status = 0;
    try {
        const SweepSpec spec = SweepSpec::parseFile(spec_path);
        if (dry_run) {
            printSweepCells(spec, stdout);
            return 0;
        }
        if (!cells_arg.empty()) {
            std::size_t begin = 0, end = 0;
            if (!parseCellRange(cells_arg, &begin, &end)) {
                std::fprintf(stderr,
                             "sweep: --cells wants B-E with B < E\n");
                return 1;
            }
            runSweepCells(spec, begin, end, jobs, stdout);
        } else if (orchestrated) {
            OrchestratorOptions opt;
            opt.backendDesc = backend_desc;
            opt.backend.numShards = dispatch_shards;
            opt.backend.jobs = jobs;
            opt.backend.traceStats = trace_stats;
            opt.backend.selfExe = selfExePath(argv[0]);
            opt.outPath = out_path;
            opt.ledgerPath = ledger_path;
            opt.resume = resume;
            opt.batchCells = batch_cells;
            opt.leaseTimeoutSec = lease_timeout;
            opt.maxAttempts = retries >= 0 ? retries + 1 : 0;
            runOrchestratedSweep(spec, opt);
        } else {
            runSweep(spec, jobs, stdout);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep: %s\n", e.what());
        status = 1;
    }
    // Batch children forward --trace-stats to their own stderr,
    // which the orchestrator replays; only in-process execution
    // reports this process's traces, after a failed sweep too.
    if (trace_stats && backend_desc == "local") {
        const SweepTraceStats s = sweepTraceStats();
        std::fprintf(stderr, "trace-stats: generated=%llu held_peak=%llu\n",
                     static_cast<unsigned long long>(s.generated),
                     static_cast<unsigned long long>(s.heldPeak));
    }
    return status;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

/// `rubik_cli fleet [--cores ...] [--budget-frac ... | --budget-watts W]`:
/// one fleet run per (cores, budget) grid cell.
int
fleetMain(int argc, char **argv)
{
    FleetConfig base;
    std::vector<int> cores_list = {96};
    std::vector<double> fracs; ///< Empty: --budget-frac not given.
    double budget_watts = 0.0;
    bool csv = false, json = false;
    CommonRunOptions run;
    run.seed = base.seed;
    run.requests = base.requestsPerEpoch;
    ThermalParams &thermal = base.thermal.params;

    OptionsParser parser(argc, argv, 2);
    parser.value("--app", [&](const char *v) { base.app = v; });
    parser.value("--policy", [&](const char *v) { base.policy = v; });
    parser.countList("--cores", &cores_list, 1);
    parser.numberList("--budget-frac", &fracs, NumberRange::atLeast(0.0));
    parser.number("--budget-watts", &budget_watts,
                  NumberRange::atLeast(0.0));
    parser.count("--cores-per-machine", &base.coresPerMachine, 1);
    parser.count("--epochs", &base.epochs, 1);
    parser.number("--bound-ms", &base.boundMs, NumberRange::atLeast(0.0));
    parser.number("--base-load", &base.loadModel.baseLoad, kLoadRange);
    parser.number("--surge-factor", &base.loadModel.surgeFactor,
                  NumberRange::atLeast(0.0));
    parser.number("--surge-fraction", &base.loadModel.surgeFraction,
                  NumberRange{0.0, 1.0, false, false});
    parser.number("--max-core-load", &base.maxCoreLoad,
                  NumberRange{0.0, 1.0, true, false});
    parser.number("--load-quantum", &base.loadQuantum,
                  NumberRange{0.0, 0.5, true, false});
    parser.number("--transition-us", &base.transitionUs,
                  NumberRange::atLeast(0.0));
    parser.flag("--thermal", [&] { base.thermal.enabled = true; });
    parser.number("--tj", &thermal.junction, kCelsiusRange);
    parser.number("--ambient", kCelsiusRange, [&thermal](double c) {
        thermal.ambient = c;
        thermal.leakTref = c;
    });
    addRunFlags(parser, &run);
    addSimdFlag(parser, &run);
    parser.flag("--csv", [&] { csv = true; });
    parser.flag("--json", [&] { json = true; });
    parser.onUnknown([](const char *token) {
        // Not usage(): that exits 0 on stdout, which would let a
        // typo'd flag corrupt a redirected CSV silently.
        std::fprintf(stderr, "fleet: unknown flag %s\n", token);
        std::exit(1);
    });
    parser.run();
    if (run.simdGiven)
        applySimdSelection(run);
    base.seed = run.seed;
    base.requestsPerEpoch = run.requests;
    const int jobs = run.jobs;
    const bool fracs_given = !fracs.empty();
    if (!fracs_given)
        fracs = {0.0};
    if (csv && json) {
        std::fprintf(stderr,
                     "--csv and --json are mutually exclusive\n");
        return 1;
    }
    if (budget_watts > 0.0 && fracs_given) {
        std::fprintf(stderr,
                     "fleet: --budget-watts and --budget-frac are "
                     "mutually exclusive\n");
        return 1;
    }

    const DvfsModel dvfs = DvfsModel::haswell(base.transitionUs * kUs);
    const PowerModel power(dvfs);
    const double nominal_w =
        power.coreActivePower(dvfs.nominalFrequency(), 0.0);

    // The grid: cores-major, budget-minor, like a sweep spec's cell
    // order. A fractional budget scales with the fleet (frac x cores x
    // nominal core power); an absolute budget is one cell per size.
    struct Cell
    {
        int cores = 0;
        double frac = 0.0;
        double watts = 0.0;
    };
    std::vector<Cell> cells;
    for (const int cores : cores_list) {
        if (cores < base.coresPerMachine ||
            cores % base.coresPerMachine != 0) {
            std::fprintf(stderr,
                         "fleet: --cores %d is not a positive multiple "
                         "of --cores-per-machine %d\n",
                         cores, base.coresPerMachine);
            return 1;
        }
        if (budget_watts > 0.0) {
            Cell cell;
            cell.cores = cores;
            cell.watts = budget_watts;
            cell.frac = budget_watts / (cores * nominal_w);
            cells.push_back(cell);
        } else {
            for (const double frac : fracs) {
                Cell cell;
                cell.cores = cores;
                cell.frac = frac;
                cell.watts = frac > 0.0 ? frac * cores * nominal_w : 0.0;
                cells.push_back(cell);
            }
        }
    }

    try {
        if (csv) {
            std::printf(
                "app,policy,cores,budget_frac,budget_w,epoch,"
                "offered_load,mean_load,shed_frac,tail_ms,"
                "tail_over_bound,energy_mj_per_req,fleet_power_w,"
                "cap_power_w,capped_frac,groups,feasible\n");
        }
        if (json)
            std::printf("[");
        for (std::size_t ci = 0; ci < cells.size(); ++ci) {
            const Cell &cell = cells[ci];
            FleetConfig cfg = base;
            cfg.machines = cell.cores / base.coresPerMachine;
            cfg.budgetWatts = cell.watts;
            const FleetResult r = runFleet(cfg, jobs);

            if (json) {
                double capped_max = 0.0;
                for (const FleetEpochResult &er : r.epochs)
                    capped_max =
                        std::max(capped_max, er.cappedFraction);
                std::printf(
                    "%s\n  {\"app\": \"%s\", \"policy\": \"%s\", "
                    "\"cores\": %d, \"budget_frac\": %.4f, "
                    "\"budget_w\": %.2f, \"bound_ms\": %.4f, "
                    "\"feasible\": %s, \"epochs\": %zu, "
                    "\"worst_tail_ms\": %.4f, "
                    "\"tail_over_bound\": %.3f, "
                    "\"energy_mj_per_req\": %.4f, "
                    "\"peak_power_w\": %.2f, "
                    "\"peak_over_budget\": %.4f, \"shed_frac\": %.4f, "
                    "\"capped_frac\": %.4f, \"groups\": %d}",
                    ci > 0 ? "," : "",
                    jsonEscape(cfg.app).c_str(),
                    jsonEscape(cfg.policy).c_str(), cell.cores,
                    cell.frac, cell.watts, r.bound / kMs,
                    r.feasible ? "true" : "false", r.epochs.size(),
                    r.worstTail / kMs, r.worstTail / r.bound,
                    r.energyPerRequest / kMj, r.peakPower,
                    r.budgetWatts > 0.0 ? r.peakPower / r.budgetWatts
                                        : 0.0,
                    r.shedFraction, capped_max, r.groupsSimulated);
                continue;
            }

            double offered = 0.0, assigned = 0.0, cap_max = 0.0;
            double capped_max = 0.0;
            for (const FleetEpochResult &er : r.epochs) {
                offered += er.offeredLoad;
                assigned += er.meanLoad;
                cap_max = std::max(cap_max, er.capPower);
                capped_max = std::max(capped_max, er.cappedFraction);
                if (csv) {
                    std::printf(
                        "%s,%s,%d,%.4f,%.2f,%d,%.4f,%.4f,%.4f,%.4f,"
                        "%.3f,%.4f,%.2f,%.2f,%.4f,%d,%d\n",
                        cfg.app.c_str(), cfg.policy.c_str(),
                        cell.cores, cell.frac, cell.watts, er.epoch,
                        er.offeredLoad, er.meanLoad, er.shedFraction,
                        er.tailLatency / kMs,
                        er.tailLatency / r.bound,
                        er.energyPerRequest / kMj, er.meanPower,
                        er.capPower, er.cappedFraction, er.groups,
                        er.feasible ? 1 : 0);
                }
            }
            offered /= static_cast<double>(r.epochs.size());
            assigned /= static_cast<double>(r.epochs.size());
            if (csv) {
                // Cell summary row: worst tail, peak power, overall
                // shed, total simulations.
                std::printf(
                    "%s,%s,%d,%.4f,%.2f,all,%.4f,%.4f,%.4f,%.4f,"
                    "%.3f,%.4f,%.2f,%.2f,%.4f,%d,%d\n",
                    cfg.app.c_str(), cfg.policy.c_str(), cell.cores,
                    cell.frac, cell.watts, offered, assigned,
                    r.shedFraction, r.worstTail / kMs,
                    r.worstTail / r.bound, r.energyPerRequest / kMj,
                    r.peakPower, cap_max, capped_max,
                    r.groupsSimulated, r.feasible ? 1 : 0);
                continue;
            }

            if (ci > 0)
                std::printf("\n");
            std::printf("fleet          %d cores (%d machines x %d), "
                        "%s/%s\n",
                        cell.cores, cfg.machines, cfg.coresPerMachine,
                        cfg.app.c_str(), cfg.policy.c_str());
            if (cell.watts > 0.0)
                std::printf("budget         %.1f W (%.0f%% of nominal"
                            ")%s\n",
                            cell.watts, cell.frac * 100,
                            r.feasible ? "" : "  [INFEASIBLE]");
            else
                std::printf("budget         uncapped\n");
            std::printf("bound          %.3f ms (95th pct)\n",
                        r.bound / kMs);
            std::printf("worst tail     %.3f ms (%.2fx bound)\n",
                        r.worstTail / kMs, r.worstTail / r.bound);
            std::printf("peak power     %.1f W%s\n", r.peakPower,
                        cell.watts > 0.0
                            ? (r.peakPower <= cell.watts
                                   ? "  (within budget)"
                                   : "  (OVER budget)")
                            : "");
            std::printf("core energy    %.3f mJ/req\n",
                        r.energyPerRequest / kMj);
            std::printf("shed demand    %.2f%%\n",
                        r.shedFraction * 100);
            std::printf("simulations    %d core groups over %zu "
                        "epochs\n",
                        r.groupsSimulated, r.epochs.size());
        }
        if (json)
            std::printf("%s]\n", cells.empty() ? "" : "\n");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fleet: %s\n", e.what());
        return 1;
    }
    return 0;
}

/// The one-shot run's auto-bound: the fixed-frequency 95th-percentile
/// tail at 50% load.
double
autoBound(const AppProfile &app, int requests, double nominal,
          uint64_t seed, const PowerModel &power)
{
    const Trace t50 =
        generateLoadTrace(app, 0.5, requests, nominal, seed);
    return replayFixed(t50, nominal, power).tailLatency(0.95);
}

/// `rubik_cli serve --socket PATH ...`: the live decision daemon, or
/// (with --stats/--shutdown) a one-line client query against one.
int
serveMain(int argc, char **argv)
{
    std::string socket_path;
    bool stats = false, shutdown = false;
    ServeConfig sc;
    double bound_ms = 0.0, update_ms = 100.0, transition_us = 4.0;
    CommonRunOptions run;
    OptionsParser parser(argc, argv, 2);
    parser.value("--socket", [&](const char *v) { socket_path = v; });
    parser.flag("--stats", [&] { stats = true; });
    parser.flag("--shutdown", [&] { shutdown = true; });
    // Numeric flags are checked as parsed, so a bad value exits 1
    // naming the flag before any socket is touched.
    parser.number("--bound-ms", &bound_ms, NumberRange::above(0.0));
    parser.number("--percentile", &sc.percentile,
                  NumberRange::open(0.0, 1.0));
    parser.number("--update-ms", &update_ms, NumberRange::above(0.0));
    parser.flag("--feedback", [&] { sc.feedback = true; });
    parser.count("--max-queue", &sc.maxQueue, 1);
    parser.flag("--no-timing", [&] { sc.timeDecisions = false; });
    parser.number("--transition-us", &transition_us,
                  NumberRange::atLeast(0.0));
    addSimdFlag(parser, &run);
    parser.onUnknown([](const char *token) {
        std::fprintf(stderr, "serve: unknown flag %s\n", token);
        std::exit(1);
    });
    parser.run();
    if (run.simdGiven)
        applySimdSelection(run);
    if (socket_path.empty()) {
        std::fprintf(stderr, "serve needs --socket PATH\n");
        return 1;
    }
    if (stats || shutdown) {
        // Client mode: one query line against a running daemon.
        try {
            const std::string reply =
                serveQuery(socket_path, stats ? "stats" : "shutdown");
            std::printf("%s\n", reply.c_str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        return 0;
    }
    sc.latencyBound = bound_ms * kMs;
    sc.updatePeriod = update_ms * kMs;
    // Checked in seconds: a positive value of a few ulps in ms still
    // underflows to 0 s.
    if (!(sc.latencyBound > 0.0)) {
        std::fprintf(stderr, "serve needs --bound-ms MS > 0\n");
        return 1;
    }
    if (!(sc.updatePeriod > 0.0)) {
        std::fprintf(stderr, "serve needs --update-ms MS > 0\n");
        return 1;
    }
    DaemonConfig dc;
    dc.socketPath = socket_path;
    dc.serve = sc;
    const DvfsModel dvfs = DvfsModel::haswell(transition_us * kUs);
    try {
        return runServeDaemon(dvfs, dc);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "serve: %s\n", e.what());
        return 1;
    }
}

/// `rubik_cli trace import --in CSV --out FILE`: validate an external
/// trace CSV and convert it to the checksummed binary format. Every
/// rejection names the offending line; nothing is written on failure.
int
traceImportMain(int argc, char **argv)
{
    std::string in_path, out_path;
    OptionsParser parser(argc, argv, 3);
    parser.value("--in", [&](const char *v) { in_path = v; });
    parser.value("--out", [&](const char *v) { out_path = v; });
    parser.onUnknown([](const char *token) {
        std::fprintf(stderr, "trace import: unknown flag %s\n", token);
        std::exit(1);
    });
    parser.run();
    if (in_path.empty() || out_path.empty()) {
        std::fprintf(stderr,
                     "trace import needs --in CSV and --out FILE\n");
        return 1;
    }
    try {
        const TraceImportResult r = convertTraceCsv(in_path, out_path);
        std::printf("imported %s -> %s: %llu requests over %.3f s "
                    "(checksum %016llx)\n",
                    in_path.c_str(), out_path.c_str(),
                    static_cast<unsigned long long>(r.records),
                    r.duration,
                    static_cast<unsigned long long>(r.checksum));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}

/// `rubik_cli trace gen --out FILE ...`: write a class-annotated
/// binary trace, generated exactly like the one-shot run's.
int
traceMain(int argc, char **argv)
{
    const std::string action = argc > 2 ? argv[2] : "";
    if (action == "import")
        return traceImportMain(argc, argv);
    if (action != "gen") {
        std::fprintf(stderr, "trace wants: gen|import\n");
        return 1;
    }
    std::string app_name = "masstree", out_path;
    double load = 0.4;
    bool bursty = false;
    CommonRunOptions run;
    run.requests = 9000;
    OptionsParser parser(argc, argv, 3);
    parser.value("--app", [&](const char *v) { app_name = v; });
    parser.number("--load", &load, kLoadRange);
    parser.value("--out", [&](const char *v) { out_path = v; });
    parser.flag("--bursty", [&] { bursty = true; });
    addRunFlags(parser, &run);
    parser.onUnknown([](const char *token) {
        std::fprintf(stderr, "trace gen: unknown flag %s\n", token);
        std::exit(1);
    });
    parser.run();
    if (out_path.empty()) {
        std::fprintf(stderr, "trace gen needs --out FILE\n");
        return 1;
    }
    const DvfsModel dvfs = DvfsModel::haswell(4.0 * kUs);
    const double nominal = dvfs.nominalFrequency();
    const AppProfile app = makeApp(appByName(app_name));
    try {
        Trace trace =
            bursty ? generateBurstyTrace(app, load, run.requests,
                                         nominal, run.seed)
                   : generateLoadTrace(app, load, run.requests,
                                       nominal, run.seed);
        annotateClasses(trace, 0.85, nominal);
        char meta[160];
        std::snprintf(meta, sizeof(meta),
                      "app=%s load=%.4f requests=%d seed=%llu "
                      "bursty=%d classes=0.85",
                      app_name.c_str(), load, run.requests,
                      static_cast<unsigned long long>(run.seed),
                      bursty ? 1 : 0);
        saveTraceBinary(trace, out_path, meta);
        std::printf("wrote %s: %zu requests (%s)\n", out_path.c_str(),
                    trace.size(), meta);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trace gen: %s\n", e.what());
        return 1;
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && !std::strcmp(argv[1], "sweep"))
        return sweepMain(argc, argv);
    if (argc > 1 && !std::strcmp(argv[1], "fleet"))
        return fleetMain(argc, argv);
    if (argc > 1 && !std::strcmp(argv[1], "serve"))
        return serveMain(argc, argv);
    if (argc > 1 && !std::strcmp(argv[1], "trace"))
        return traceMain(argc, argv);

    const CliOptions o = parse(argc, argv);
    const DvfsModel dvfs = DvfsModel::haswell(o.transitionUs * kUs);
    const PowerModel power(dvfs);
    const double nominal = dvfs.nominalFrequency();
    const AppProfile app = makeApp(appByName(o.app));

    // Reject unknown policies before any worker thread starts. Not
    // usage(): that exits 0 on stdout and would corrupt redirected
    // CSV output while reporting success.
    if (!isKnownPolicy(o.policy)) {
        std::fprintf(stderr, "unknown policy: %s (try --help)\n",
                     o.policy.c_str());
        return 1;
    }

    double bound = o.boundMs * kMs;
    if (bound <= 0.0)
        bound = autoBound(app, o.requests, nominal, o.seed, power);

    // One sweep job per load. Every job owns its trace and reads only
    // shared immutable state, so parallel results match a serial sweep.
    std::vector<DecisionLog> decisionLogs(o.loads.size());
    auto run_load = [&](double load, DecisionLog *log) {
        Trace trace = o.bursty
                          ? generateBurstyTrace(app, load, o.requests,
                                                nominal, o.seed)
                          : generateLoadTrace(app, load, o.requests,
                                              nominal, o.seed);
        annotateClasses(trace, 0.85, nominal);
        PolicyRunRequest req;
        req.trace = &trace;
        req.bound = bound;
        req.dvfs = &dvfs;
        req.power = &power;
        req.options = o.sim;
        req.decisionLog = log;
        return runPolicy(o.policy, req);
    };

    ExperimentRunner runner(o.jobs);
    std::vector<std::function<PolicyOutcome()>> jobs;
    for (std::size_t li = 0; li < o.loads.size(); ++li) {
        DecisionLog *log =
            o.decisionHash ? &decisionLogs[li] : nullptr;
        const double load = o.loads[li];
        jobs.push_back(
            [&run_load, load, log] { return run_load(load, log); });
    }
    std::vector<PolicyOutcome> results;
    try {
        results = runner.runBatch(std::move(jobs));
    } catch (const std::exception &e) {
        // E.g. --decision-hash with a replay-based policy.
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    if (o.csv) {
        std::printf("app,policy,load,bound_ms,tail_ms,tail_over_bound,"
                    "energy_mj_per_req,savings_vs_fixed,mean_freq_ghz,"
                    "mean_power_w,transitions%s%s\n",
                    o.sim.thermal.enabled
                        ? ",max_temp_c,extra_leak_mj_per_req"
                        : "",
                    o.decisionHash ? ",decisions,decision_hash" : "");
    }
    if (o.json)
        std::printf("[");
    for (std::size_t li = 0; li < o.loads.size(); ++li) {
        const double load = o.loads[li];
        const PolicyOutcome &out = results[li];
        const double savings =
            1.0 - out.energyPerRequest / out.fixedEnergyPerRequest;
        const DecisionLog &dlog = decisionLogs[li];
        if (o.json) {
            // One object per load: key order matches
            // the CSV columns (docs/fleet.md documents the schema).
            std::printf(
                "%s\n  {\"app\": \"%s\", \"policy\": \"%s\", "
                "\"load\": %.2f, \"bound_ms\": %.4f, "
                "\"tail_ms\": %.4f, \"tail_over_bound\": %.3f, "
                "\"energy_mj_per_req\": %.4f, "
                "\"savings_vs_fixed\": %.4f, \"mean_freq_ghz\": %.2f, "
                "\"mean_power_w\": %.4f, \"transitions\": %llu",
                li ? "," : "", jsonEscape(o.app).c_str(),
                jsonEscape(o.policy).c_str(), load, bound / kMs,
                out.tailLatency / kMs, out.tailLatency / bound,
                out.energyPerRequest / kMj, savings,
                out.meanFrequency / kGHz, out.meanPower,
                static_cast<unsigned long long>(out.transitions));
            if (o.sim.thermal.enabled) {
                std::printf(", \"max_temp_c\": %.2f, "
                            "\"extra_leak_mj_per_req\": %.4f",
                            out.maxCoreTemp,
                            out.extraLeakagePerRequest / kMj);
            }
            if (o.decisionHash) {
                std::printf(", \"decisions\": %" PRIu64
                            ", \"decision_hash\": \"%016" PRIx64 "\"",
                            dlog.count, dlog.hash);
            }
            std::printf("}");
            continue;
        }
        if (o.csv) {
            std::printf("%s,%s,%.2f,%.4f,%.4f,%.3f,%.4f,%.4f,%.2f,"
                        "%.4f,%llu",
                        o.app.c_str(), o.policy.c_str(), load,
                        bound / kMs, out.tailLatency / kMs,
                        out.tailLatency / bound,
                        out.energyPerRequest / kMj, savings,
                        out.meanFrequency / kGHz, out.meanPower,
                        static_cast<unsigned long long>(out.transitions));
            if (o.sim.thermal.enabled) {
                std::printf(",%.2f,%.4f", out.maxCoreTemp,
                            out.extraLeakagePerRequest / kMj);
            }
            if (o.decisionHash) {
                std::printf(",%" PRIu64 ",%016" PRIx64, dlog.count,
                            dlog.hash);
            }
            std::printf("\n");
            continue;
        }
        if (li > 0)
            std::printf("\n");
        std::printf("app            %s (%s)\n", o.app.c_str(),
                    app.workloadConfig.c_str());
        std::printf("policy         %s\n", o.policy.c_str());
        std::printf("load           %.0f%%%s\n", load * 100,
                    o.bursty ? " (bursty MMPP)" : "");
        std::printf("bound          %.3f ms (95th pct)\n", bound / kMs);
        std::printf("tail latency   %.3f ms (%.2fx bound)\n",
                    out.tailLatency / kMs, out.tailLatency / bound);
        std::printf("core energy    %.3f mJ/req (%.1f%% vs fixed "
                    "2.4 GHz)\n",
                    out.energyPerRequest / kMj, savings * 100);
        std::printf("mean power     %.3f W (active core)\n",
                    out.meanPower);
        if (o.sim.thermal.enabled)
            std::printf("max core temp  %.2f C (+%.4f mJ/req "
                        "thermal leakage)\n",
                        out.maxCoreTemp,
                        out.extraLeakagePerRequest / kMj);
        if (out.meanFrequency > 0)
            std::printf("mean frequency %.2f GHz (busy-time weighted)\n",
                        out.meanFrequency / kGHz);
        if (out.transitions > 0)
            std::printf("transitions    %llu\n",
                        static_cast<unsigned long long>(out.transitions));
        if (o.decisionHash)
            std::printf("decision hash  %016" PRIx64 " (%" PRIu64
                        " decisions)\n",
                        dlog.hash, dlog.count);
    }
    if (o.json)
        std::printf("%s]\n", o.loads.empty() ? "" : "\n");
    return 0;
}
