#include "runner/sweep_runner.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
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
#include "workloads/trace_gen.h"

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

/// Backs sweepTraceStats(): traces generated, and held at once.
class TraceAccount
{
  public:
    void generated()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.generated;
        stats_.heldPeak = std::max(stats_.heldPeak, ++stats_.held);
    }

    void freed()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --stats_.held;
    }

    SweepTraceStats stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

  private:
    mutable std::mutex mutex_;
    SweepTraceStats stats_;
};

TraceAccount &
traceAccount()
{
    static TraceAccount account;
    return account;
}

/// A generated load trace and its fixed-nominal replay, counted as
/// held from generation until it is freed.
struct SweepTrace
{
    explicit SweepTrace(Trace generated) : trace(std::move(generated))
    {
        traceAccount().generated();
    }
    ~SweepTrace() { traceAccount().freed(); }
    SweepTrace(const SweepTrace &) = delete;
    SweepTrace &operator=(const SweepTrace &) = delete;

    Trace trace;        ///< Class-annotated before any cell reads it.
    ReplayResult fixed; ///< Fixed-nominal baseline.
};

/// The trace of one (app, load, seed) triple, shared by its cells.
class SharedTrace
{
  public:
    /// Count one more cell; called before any cell starts.
    void addCell() { ++pending_; }

    /// Take a trace prepared elsewhere (the bound phase's).
    void adopt(std::unique_ptr<SweepTrace> prepared)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        prepared_ = std::move(prepared);
    }

    /**
     * Run one cell's `body(trace)`. The first cell prepares the trace
     * with `prepare()` while later ones wait for it; the last cell to
     * finish frees it, whether its body returns or throws.
     */
    template <typename Prepare, typename Body>
    auto use(const Prepare &prepare, const Body &body)
    {
        try {
            auto result = body(acquire(prepare));
            release();
            return result;
        } catch (...) {
            release();
            throw;
        }
    }

  private:
    template <typename Prepare>
    const SweepTrace &acquire(const Prepare &prepare)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!prepared_)
            prepared_ = prepare();
        return *prepared_;
    }

    void release()
    {
        std::unique_ptr<SweepTrace> last;
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0)
            last = std::move(prepared_);
    }

    std::mutex mutex_;
    std::unique_ptr<SweepTrace> prepared_;
    std::size_t pending_ = 0;
};

} // anonymous namespace

SweepTraceStats
sweepTraceStats()
{
    return traceAccount().stats();
}

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

    // The range's (app, load, seed) triples in first-use order, one
    // shared trace each, and each cell's triple.
    using TripleKey = std::tuple<std::string, double, uint64_t>;
    std::map<TripleKey, std::size_t> triple_ids;
    std::vector<TripleKey> triple_keys;
    std::vector<std::size_t> cell_triple;
    for (std::size_t i = begin; i < end; ++i) {
        const SweepCell cell = spec.cell(i);
        const auto [it, fresh] = triple_ids.emplace(
            TripleKey{cell.app, cell.load, cell.seed}, triple_keys.size());
        if (fresh)
            triple_keys.push_back(it->first);
        cell_triple.push_back(it->second);
    }
    std::vector<SharedTrace> traces(triple_keys.size());
    for (const std::size_t t : cell_triple)
        traces[t].addCell();
    auto generate = [&](const std::string &app, double load,
                        uint64_t seed) {
        return std::make_unique<SweepTrace>(generateLoadTrace(
            apps.at(app), load, n, nominal, seed));
    };

    ExperimentRunner runner(jobs);

    // Phase 1: latency bounds for the (app, seed) pairs this range
    // touches. Bounds depend only on (app, seed), so every batch that
    // shares a pair computes the identical value. Keys are kept in
    // first-use order; the set only answers membership. replayFixed
    // ignores class hints, so when the range holds the (app, 0.5,
    // seed) triple, the bound's replay is that triple's baseline: its
    // trace is annotated and handed over, not generated again. Bounds
    // that hand nothing over start first, so on one worker each of
    // their traces is freed before a handed-over one is generated.
    std::vector<std::pair<std::string, uint64_t>> bound_keys;
    std::set<std::pair<std::string, uint64_t>> bound_seen;
    for (std::size_t i = begin; i < end; ++i) {
        const SweepCell cell = spec.cell(i);
        const auto key = std::make_pair(cell.app, cell.seed);
        if (bound_seen.insert(key).second)
            bound_keys.push_back(key);
    }
    std::map<std::pair<std::string, uint64_t>, double> bounds;
    // Whether each triple is handed its bound's trace.
    std::vector<char> handed(triple_keys.size(), 0);
    if (spec.boundMs > 0.0) {
        for (const auto &key : bound_keys)
            bounds[key] = spec.boundMs * kMs;
    } else {
        std::vector<std::function<double()>> bound_jobs;
        std::vector<std::size_t> bound_order;
        std::vector<std::size_t> handing_over;
        for (const auto &key : bound_keys) {
            const auto kept =
                triple_ids.find({key.first, 0.5, key.second});
            if (kept != triple_ids.end()) {
                handed[kept->second] = 1;
                handing_over.push_back(bound_jobs.size());
            } else {
                bound_order.push_back(bound_jobs.size());
            }
            bound_jobs.push_back([&, key, kept] {
                auto t50 = generate(key.first, 0.5, key.second);
                t50->fixed = replayFixed(t50->trace, nominal, power);
                const double bound = t50->fixed.tailLatency(0.95);
                if (kept != triple_ids.end()) {
                    annotateClasses(t50->trace, 0.85, nominal);
                    traces[kept->second].adopt(std::move(t50));
                }
                return bound;
            });
        }
        bound_order.insert(bound_order.end(), handing_over.begin(),
                           handing_over.end());
        const std::vector<double> values =
            runner.runBatch(std::move(bound_jobs), bound_order);
        for (std::size_t i = 0; i < bound_keys.size(); ++i)
            bounds[bound_keys[i]] = values[i];
    }

    // Phase 2: one job per owned cell, rows in cell-index order. The
    // first cell of a triple to start generates, annotates and
    // baseline-replays its trace; the last to finish frees it. A
    // cell's cost grows with its trace's simulated span, so the pool
    // starts the longest expected span n / (load x maxQps) first (ties
    // by first use) instead of ending on a long cell that started
    // last. A triple's cells start together, so beyond the traces the
    // bounds handed over, each worker holds at most one open trace.
    // On one worker the start order cannot change the wall time, only
    // what is held at once: there the triples the bounds handed over
    // start first, so each is freed before the next trace is
    // generated and the batch holds one trace at a time.
    struct Row
    {
        SweepCell cell;
        double bound = 0.0;
        PolicyOutcome outcome;
    };
    std::vector<double> spans;
    for (const auto &[app, load, seed] : triple_keys) {
        const double rate = load * apps.at(app).maxQps(nominal, nominal);
        spans.push_back(n / rate);
    }
    std::vector<std::function<Row()>> cell_jobs;
    for (std::size_t i = begin; i < end; ++i) {
        const SweepCell cell = spec.cell(i);
        cell_jobs.push_back([&, cell, t = cell_triple[i - begin]] {
            auto prepare = [&] {
                auto prepared = generate(cell.app, cell.load, cell.seed);
                annotateClasses(prepared->trace, 0.85, nominal);
                prepared->fixed =
                    replayFixed(prepared->trace, nominal, power);
                return prepared;
            };
            return traces[t].use(prepare, [&](const SweepTrace &prep) {
                Row row;
                row.cell = cell;
                row.bound = bounds.at({cell.app, cell.seed});
                PolicyRunRequest req;
                req.trace = &prep.trace;
                req.bound = row.bound;
                req.dvfs = &dvfs;
                req.power = &power;
                req.fixedBaseline = &prep.fixed;
                row.outcome = runPolicy(cell.policy, req);
                return row;
            });
        });
    }
    std::vector<std::size_t> start_order(cell_jobs.size());
    std::iota(start_order.begin(), start_order.end(), 0);
    const bool one_worker = runner.numWorkers() == 1;
    std::stable_sort(start_order.begin(), start_order.end(),
                     [&](std::size_t a, std::size_t b) {
                         const std::size_t ta = cell_triple[a];
                         const std::size_t tb = cell_triple[b];
                         if (one_worker && handed[ta] != handed[tb])
                             return handed[ta] > handed[tb];
                         if (spans[ta] != spans[tb])
                             return spans[ta] > spans[tb];
                         return ta < tb;
                     });
    const std::vector<Row> rows =
        runner.runBatch(std::move(cell_jobs), start_order);

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
