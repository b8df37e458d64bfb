#include "runner/sweep_runner.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/rubik_boost.h"
#include "core/rubik_controller.h"
#include "policies/adrenaline.h"
#include "policies/dynamic_oracle.h"
#include "policies/pegasus.h"
#include "policies/replay.h"
#include "policies/rubik_thermal.h"
#include "policies/static_oracle.h"
#include "runner/experiment_runner.h"
#include "runner/fault.h"
#include "sim/decision_log.h"
#include "sim/simulation.h"
#include "util/units.h"
#include "workloads/apps.h"
#include "workloads/trace_store.h"

namespace rubik {

namespace {

AppProfile
appByNameOrThrow(const std::string &name)
{
    const std::optional<AppId> id = appIdByName(name);
    if (!id)
        throw std::runtime_error("unknown app: " + name);
    return makeApp(*id);
}

PolicyOutcome
fromSim(const SimResult &r, const DvfsModel &dvfs)
{
    PolicyOutcome o;
    o.tailLatency = r.tailLatency(0.95);
    o.energyPerRequest = r.coreEnergyPerRequest();
    double weighted = 0.0;
    for (std::size_t i = 0; i < r.core.freqResidency.size(); ++i)
        weighted += r.core.freqResidency[i] * dvfs.frequencies()[i];
    o.meanFrequency =
        r.core.busyTime > 0 ? weighted / r.core.busyTime : 0.0;
    o.meanPower = r.meanActiveCorePower();
    o.transitions = r.core.numTransitions;
    if (r.thermal.enabled) {
        // Thermally-corrected measurement: the temperature-driven
        // leakage surcharge lands in every outcome's energy and power.
        // Never taken on the legacy path (enabled is false there), so
        // disabled runs stay bitwise identical.
        o.energyPerRequest = r.thermalCoreEnergyPerRequest();
        o.meanPower = r.thermalMeanActiveCorePower();
        o.maxCoreTemp = r.thermal.maxCoreTemp;
        o.extraLeakagePerRequest =
            r.completed.empty()
                ? 0.0
                : r.thermal.extraLeakageEnergy /
                      static_cast<double>(r.completed.size());
    }
    return o;
}

/// Mean active core power of an analytic replay (W).
double
replayMeanPower(const ReplayResult &r)
{
    return r.makespan > 0.0 ? r.coreActiveEnergy / r.makespan : 0.0;
}

void
fillFromReplay(PolicyOutcome &out, const ReplayResult &r)
{
    out.tailLatency = r.tailLatency();
    out.energyPerRequest = r.energyPerRequest();
    out.meanPower = replayMeanPower(r);
}

} // anonymous namespace

const std::vector<std::string> &
knownPolicyNames()
{
    static const std::vector<std::string> names = {
        "fixed", "static",     "dynamic", "adrenaline",   "pegasus",
        "rubik", "rubik-nofb", "boost",   "rubik-thermal"};
    return names;
}

bool
isKnownPolicy(const std::string &name)
{
    for (const auto &known : knownPolicyNames()) {
        if (known == name)
            return true;
    }
    return false;
}

PolicyOutcome
runPolicy(const std::string &policy, const PolicyRunRequest &request)
{
    if (!request.trace || !request.dvfs || !request.power)
        throw std::runtime_error(
            "PolicyRunRequest needs trace, dvfs, and power");
    request.options.validate();
    const Trace &trace = *request.trace;
    const DvfsModel &dvfs = *request.dvfs;
    const PowerModel &power = *request.power;
    const double bound = request.bound;
    const double cap = request.powerCapWatts;
    const double nominal = dvfs.nominalFrequency();

    // Shared fixed-nominal baseline: supplied by grid callers so the
    // cells of one trace replay it once, recomputed here otherwise.
    ReplayResult local_fixed;
    if (!request.fixedBaseline)
        local_fixed = replayFixed(trace, nominal, power);
    const ReplayResult &fixed =
        request.fixedBaseline ? *request.fixedBaseline : local_fixed;

    // Simulate an online DvfsPolicy under the requested cap and keep
    // the outcome's sim-only fields.
    auto run_capped = [&](DvfsPolicy &scheme) {
        scheme.setPowerCap(cap);
        // The recorder wraps transparently, so a logged run's decision
        // stream is the unlogged run's stream by construction.
        std::optional<DecisionRecordingPolicy> recorder;
        DvfsPolicy *active = &scheme;
        if (request.decisionLog) {
            recorder.emplace(scheme, *request.decisionLog);
            active = &*recorder;
        }
        const SimResult r =
            simulate(trace, *active, dvfs, power, request.options.engine,
                     request.options.thermal);
        PolicyOutcome o = fromSim(r, dvfs);
        if (request.collectLatencies)
            o.latencies = r.latencies();
        return o;
    };
    auto reject_cap = [&] {
        if (cap > 0.0)
            throw std::runtime_error(
                "power cap unsupported for offline policy: " + policy);
    };
    auto reject_decision_log = [&] {
        if (request.decisionLog)
            throw std::runtime_error(
                "decision log unsupported for replay-based policy: " +
                policy);
    };

    PolicyOutcome out;
    out.fixedEnergyPerRequest = fixed.energyPerRequest();
    // Adopt a simulated outcome's fields (everything but the shared
    // fixed baseline, which is set above).
    auto adopt = [&out](const PolicyOutcome &sim) {
        out.tailLatency = sim.tailLatency;
        out.energyPerRequest = sim.energyPerRequest;
        out.meanFrequency = sim.meanFrequency;
        out.meanPower = sim.meanPower;
        out.transitions = sim.transitions;
        out.maxCoreTemp = sim.maxCoreTemp;
        out.extraLeakagePerRequest = sim.extraLeakagePerRequest;
        out.latencies = sim.latencies;
    };
    if (policy == "fixed") {
        reject_decision_log();
        // A capped fixed baseline runs at the cap's frequency ceiling
        // instead of nominal (the baseline replay stays uncapped).
        const double ceiling = capFrequencyCeiling(power, cap);
        if (cap > 0.0 && ceiling < nominal) {
            const ReplayResult capped =
                replayFixed(trace, ceiling, power);
            fillFromReplay(out, capped);
            out.meanFrequency = ceiling;
            if (request.collectLatencies)
                out.latencies = capped.latencies;
        } else {
            fillFromReplay(out, fixed);
            out.meanFrequency = nominal;
            if (request.collectLatencies)
                out.latencies = fixed.latencies;
        }
    } else if (policy == "static") {
        reject_cap();
        reject_decision_log();
        const auto sr = staticOracle(trace, bound, 0.95, dvfs, power);
        fillFromReplay(out, sr.replay);
        out.meanFrequency = sr.frequency;
        if (request.collectLatencies)
            out.latencies = sr.replay.latencies;
    } else if (policy == "dynamic") {
        reject_cap();
        reject_decision_log();
        const auto dr = dynamicOracle(trace, bound, 0.95, dvfs, power);
        fillFromReplay(out, dr.replay);
        if (request.collectLatencies)
            out.latencies = dr.replay.latencies;
    } else if (policy == "adrenaline") {
        reject_cap();
        reject_decision_log();
        const auto ar =
            adrenalineOracle(trace, bound, dvfs, power, nominal);
        fillFromReplay(out, ar.replay);
        if (request.collectLatencies)
            out.latencies = ar.replay.latencies;
    } else if (policy == "pegasus") {
        PegasusConfig cfg;
        cfg.latencyBound = bound;
        PegasusPolicy scheme(dvfs, cfg);
        adopt(run_capped(scheme));
    } else if (policy == "rubik" || policy == "rubik-nofb") {
        RubikConfig cfg;
        cfg.latencyBound = bound;
        cfg.feedback = policy == "rubik";
        cfg.table = request.options.tableConfig();
        RubikController scheme(dvfs, cfg);
        adopt(run_capped(scheme));
    } else if (policy == "rubik-thermal") {
        // The thermal-capacity-aware variant is meaningless without the
        // RC network feeding it sensor samples; reject instead of
        // silently running as plain Rubik (mirrors reject_cap above).
        if (!request.options.thermal.enabled)
            throw std::runtime_error(
                "policy rubik-thermal requires thermal modeling "
                "(SimOptions::thermal / --thermal)");
        RubikThermalConfig cfg;
        cfg.base.latencyBound = bound;
        cfg.base.table = request.options.tableConfig();
        cfg.thermal = request.options.thermal.params;
        RubikThermalController scheme(dvfs, power, cfg);
        adopt(run_capped(scheme));
    } else if (policy == "boost") {
        RubikBoostConfig cfg;
        cfg.base.latencyBound = bound;
        cfg.base.table = request.options.tableConfig();
        RubikBoostController scheme(dvfs, cfg);
        adopt(run_capped(scheme));
    } else {
        throw std::runtime_error("unknown policy: " + policy);
    }
    return out;
}

const char *
sweepCsvHeader()
{
    return "app,policy,load,seed,bound_ms,tail_ms,tail_over_bound,"
           "energy_mj_per_req,savings_vs_fixed,mean_freq_ghz,"
           "mean_power_w,transitions";
}

std::string
sweepCsvRow(const SweepCell &cell, double bound,
            const PolicyOutcome &outcome)
{
    const double savings =
        1.0 - outcome.energyPerRequest / outcome.fixedEnergyPerRequest;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s,%s,%.2f,%llu,%.4f,%.4f,%.3f,%.4f,%.4f,%.2f,%.4f,"
                  "%llu\n",
                  cell.app.c_str(), cell.policy.c_str(), cell.load,
                  static_cast<unsigned long long>(cell.seed),
                  bound / kMs, outcome.tailLatency / kMs,
                  outcome.tailLatency / bound,
                  outcome.energyPerRequest / kMj, savings,
                  outcome.meanFrequency / kGHz, outcome.meanPower,
                  static_cast<unsigned long long>(outcome.transitions));
    return buf;
}

void
sweepCellRows(
    const SweepSpec &spec, std::size_t begin, std::size_t end,
    int jobs,
    const std::function<void(std::size_t, const std::string &)> &sink)
{
    spec.validate();
    if (begin > end || end > spec.numCells())
        throw std::runtime_error("sweep cell range outside the grid");
    std::map<std::string, AppProfile> apps;
    for (const auto &name : spec.apps)
        apps.emplace(name, appByNameOrThrow(name));
    for (const auto &policy : spec.policies) {
        if (!isKnownPolicy(policy))
            throw std::runtime_error("unknown policy: " + policy);
    }
    // Resolve seeded fault targets (cell=~S) now that the grid size
    // is known; inactive injectors make this (and every hook) a no-op.
    FaultInjector::instance().armCellCount(spec.numCells());

    const DvfsModel dvfs = DvfsModel::haswell(spec.transitionUs * kUs);
    const PowerModel power(dvfs);
    const double nominal = dvfs.nominalFrequency();
    const int n = spec.effectiveRequests();

    ExperimentRunner runner(jobs);
    TraceStore &store = globalTraceStore();

    // Phase 1: latency bounds for the (app, seed) pairs this range
    // touches. Bounds depend only on (app, seed), so every batch that
    // shares a pair computes the identical value. Keys are kept in
    // first-use order; the set only answers membership.
    std::vector<std::pair<std::string, uint64_t>> bound_keys;
    std::set<std::pair<std::string, uint64_t>> bound_seen;
    for (std::size_t i = begin; i < end; ++i) {
        const SweepCell cell = spec.cell(i);
        const auto key = std::make_pair(cell.app, cell.seed);
        if (bound_seen.insert(key).second)
            bound_keys.push_back(key);
    }
    std::map<std::pair<std::string, uint64_t>, double> bounds;
    if (spec.boundMs > 0.0) {
        for (const auto &key : bound_keys)
            bounds[key] = spec.boundMs * kMs;
    } else {
        std::vector<std::function<double()>> bound_jobs;
        for (const auto &key : bound_keys) {
            bound_jobs.push_back([&, key] {
                const auto t50 = store.loadTrace(apps.at(key.first),
                                                 0.5, n, nominal,
                                                 key.second);
                return replayFixed(*t50, nominal, power)
                    .tailLatency(0.95);
            });
        }
        const std::vector<double> values =
            runner.runBatch(std::move(bound_jobs));
        for (std::size_t i = 0; i < bound_keys.size(); ++i)
            bounds[bound_keys[i]] = values[i];
    }

    // Phase 2: per distinct (app, load, seed) triple, the annotated
    // trace and its fixed-nominal baseline replay — each shared by
    // every policy cell of that triple, so the trace is generated,
    // annotated, and baseline-replayed once instead of once per
    // policy.
    using TripleKey = std::tuple<std::string, double, uint64_t>;
    struct Prepared
    {
        std::shared_ptr<const Trace> trace; ///< Class-annotated.
        ReplayResult fixed;
    };
    std::vector<TripleKey> triple_keys;
    std::set<TripleKey> triple_seen;
    for (std::size_t i = begin; i < end; ++i) {
        const SweepCell cell = spec.cell(i);
        const TripleKey key{cell.app, cell.load, cell.seed};
        if (triple_seen.insert(key).second)
            triple_keys.push_back(key);
    }
    std::vector<std::function<Prepared()>> prep_jobs;
    for (const TripleKey &key : triple_keys) {
        prep_jobs.push_back([&, key] {
            const auto &[app, load, seed] = key;
            const auto base =
                store.loadTrace(apps.at(app), load, n, nominal, seed);
            auto annotated = std::make_shared<Trace>(*base);
            annotateClasses(*annotated, 0.85, nominal);
            Prepared prep;
            prep.fixed = replayFixed(*annotated, nominal, power);
            prep.trace = std::move(annotated);
            return prep;
        });
    }
    std::map<TripleKey, Prepared> prepared;
    {
        std::vector<Prepared> batch =
            runner.runBatch(std::move(prep_jobs));
        for (std::size_t i = 0; i < triple_keys.size(); ++i)
            prepared.emplace(triple_keys[i], std::move(batch[i]));
    }

    // Phase 3: one job per owned cell, rows in cell-index order. A
    // cell's cost grows with its trace's simulated span, so the pool
    // starts the longest spans first (ties by index) instead of ending
    // on a long cell that started last.
    struct Row
    {
        SweepCell cell;
        double bound = 0.0;
        PolicyOutcome outcome;
    };
    std::vector<std::function<Row()>> cell_jobs;
    std::vector<double> spans;
    for (std::size_t i = begin; i < end; ++i) {
        const SweepCell cell = spec.cell(i);
        spans.push_back(traceDuration(
            *prepared.at({cell.app, cell.load, cell.seed}).trace));
        cell_jobs.push_back([&, cell] {
            Row row;
            row.cell = cell;
            row.bound = bounds.at({cell.app, cell.seed});
            const Prepared &prep =
                prepared.at({cell.app, cell.load, cell.seed});
            PolicyRunRequest req;
            req.trace = prep.trace.get();
            req.bound = row.bound;
            req.dvfs = &dvfs;
            req.power = &power;
            req.fixedBaseline = &prep.fixed;
            row.outcome = runPolicy(cell.policy, req);
            return row;
        });
    }
    std::vector<std::size_t> longest_first(cell_jobs.size());
    std::iota(longest_first.begin(), longest_first.end(), 0);
    std::stable_sort(longest_first.begin(), longest_first.end(),
                     [&spans](std::size_t a, std::size_t b) {
                         return spans[a] > spans[b];
                     });
    const std::vector<Row> rows =
        runner.runBatch(std::move(cell_jobs), longest_first);

    for (const Row &row : rows) {
        // Crash/hang faults fire here, before the row is delivered —
        // a killed process has durably recorded (ledger) or emitted
        // (CSV) exactly the cells before the fault point.
        FaultInjector::instance().onCellEmit(row.cell.index);
        sink(row.cell.index,
             sweepCsvRow(row.cell, row.bound, row.outcome));
    }
}

void
runSweep(const SweepSpec &spec, int jobs, std::FILE *out)
{
    // Buffer the CSV so `out` stays untouched when a cell throws (a
    // failed sweep must never emit a partial CSV).
    std::string text = sweepCsvHeader();
    text += '\n';
    sweepCellRows(spec, 0, spec.numCells(), jobs,
                  [&text](std::size_t, const std::string &row) {
                      text += row;
                  });
    if (std::fwrite(text.data(), 1, text.size(), out) != text.size())
        throw std::runtime_error("sweep: short write of CSV");
}

void
runSweepCells(const SweepSpec &spec, std::size_t begin,
              std::size_t end, int jobs, std::FILE *out)
{
    std::string text;
    sweepCellRows(spec, begin, end, jobs,
                  [&text](std::size_t, const std::string &row) {
                      text += row;
                  });
    if (!text.empty() &&
        std::fwrite(text.data(), 1, text.size(), out) != text.size())
        throw std::runtime_error("sweep: short write of cell batch");
    std::fflush(out);
    // corrupt-csv-tail fires here: truncate our own finished output
    // and exit 0, the silent-corruption case the batch coordinator's
    // row validation has to catch.
    FaultInjector::instance().onBatchEnd(out);
}

void
printSweepCells(const SweepSpec &spec, std::FILE *out)
{
    spec.validate();
    std::fprintf(out, "cell,app,load,policy,seed\n");
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        std::fprintf(out, "%zu,%s,%.2f,%s,%llu\n", cell.index,
                     cell.app.c_str(), cell.load, cell.policy.c_str(),
                     static_cast<unsigned long long>(cell.seed));
    }
}

} // namespace rubik
