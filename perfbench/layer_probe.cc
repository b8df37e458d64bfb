/**
 * layer_probe: the benchmark's traced driver and stream tools.
 *
 *   layer_probe sweep --spec F --rows OUT
 *       Runs the spec's grid in-process the way `rubik_cli sweep --jobs 4`
 *       does (same three phases, same worker count, same row bytes), timing
 *       each call into a layer: generateLoadTrace (workloads), the
 *       replays and oracles behind runPolicy (policies), simulate (sim)
 *       and, through a DvfsPolicy decorator, RubikController's hooks
 *       (core). Writes the CSV to OUT and the per-layer JSON to stdout.
 *
 *   layer_probe stream --trace F.rtrace --out EVENTS
 *       Turns a generated trace into an open-loop event stream: one
 *       arrival per record at its trace time and one completion at
 *       arrival + fixed-nominal replay latency, in due-time order. Each
 *       line is `<due_s>\t<protocol line>`. Prints the stream's JSON
 *       summary (including the auto latency bound) to stdout.
 *
 *   layer_probe engine --events EVENTS --bound-ms MS --reps R
 *       Feeds the stream through an in-process ServeEngine configured
 *       like `rubik_cli serve --bound-ms MS`: untimed passes for the
 *       engine's cost per event, then timed passes that time every
 *       onArrival/onCompletion call. Wall times are the fastest of the R
 *       passes of each kind. Prints JSON to stdout.
 *
 *   layer_probe exec USAGE PROGRAM ARGS...
 *       Runs PROGRAM as a child, writes the CPU time (user + system) and
 *       peak RSS of the child and its reaped descendants to USAGE as
 *       JSON, and exits with the child's status. A child's peak RSS as
 *       wait4 reports it includes the RSS of the process it was forked
 *       from, so the benchmark forks the measured program from this small
 *       process rather than from its Python driver.
 *
 * Every timing is host steady_clock time; nothing here changes what the
 * library computes, which is why the sweep rows must match the
 * untraced program's rows byte for byte.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/rubik_controller.h"
#include "policies/pegasus.h"
#include "policies/replay.h"
#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "runner/experiment_runner.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "serve/serve_engine.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "util/units.h"
#include "workloads/apps.h"
#include "workloads/trace_gen.h"

using namespace rubik;

namespace {

using Clock = std::chrono::steady_clock;

/// Worker threads of a traced sweep: the `--jobs` the benchmark gives
/// the untraced `rubik_cli sweep` it is compared with.
constexpr int kSweepWorkers = 4;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Work done in one layer: calls and busy (self) seconds.
struct Span
{
    uint64_t count = 0;
    double busy = 0.0;

    void add(double seconds)
    {
        ++count;
        busy += seconds;
    }
};

/// Spans recorded by one runner job (one cell, one bound, one trace).
struct JobTrace
{
    std::map<std::string, Span> layers;
    std::vector<double> rebuildMs;
    uint64_t periodicCalls = 0;
    uint64_t simEvents = 0;
    double wall = 0.0;

    double explained() const
    {
        double sum = 0.0;
        for (const auto &[name, span] : layers)
            sum += span.busy;
        return sum;
    }

    void merge(const JobTrace &other)
    {
        for (const auto &[name, span] : other.layers) {
            layers[name].count += span.count;
            layers[name].busy += span.busy;
        }
        rebuildMs.insert(rebuildMs.end(), other.rebuildMs.begin(),
                         other.rebuildMs.end());
        periodicCalls += other.periodicCalls;
        simEvents += other.simEvents;
    }
};

/**
 * Times an online policy's hooks. For RubikController the hooks map to
 * core spans: selectFrequency -> core.decide, onCompletion ->
 * core.profile, and periodicUpdate -> core.rebuild when
 * tableRebuilds() advanced during the call, core.update otherwise.
 * Any other policy books every hook to one span.
 */
class TimedPolicy final : public DvfsPolicy
{
  public:
    TimedPolicy(DvfsPolicy &inner, const RubikController *rubik,
                JobTrace &trace, const std::string &otherSpan)
        : inner_(inner), rubik_(rubik), trace_(trace)
    {
        if (rubik_) {
            decide_ = &trace.layers["core.decide"];
            profile_ = &trace.layers["core.profile"];
            rebuild_ = &trace.layers["core.rebuild"];
            update_ = &trace.layers["core.update"];
        } else {
            decide_ = profile_ = rebuild_ = update_ =
                &trace.layers[otherSpan];
        }
    }

    void reset() override { inner_.reset(); }

    double selectFrequency(const CoreView &core) override
    {
        const auto t0 = Clock::now();
        const double f = inner_.selectFrequency(core);
        decide_->add(since(t0));
        return f;
    }

    void onCompletion(const CompletedRequest &done,
                      const CoreView &core) override
    {
        const auto t0 = Clock::now();
        inner_.onCompletion(done, core);
        profile_->add(since(t0));
    }

    double nextPeriodicUpdate() const override
    {
        return inner_.nextPeriodicUpdate();
    }

    void periodicUpdate(const CoreView &core) override
    {
        const uint64_t before = rubik_ ? rubik_->tableRebuilds() : 0;
        const auto t0 = Clock::now();
        inner_.periodicUpdate(core);
        const double dt = since(t0);
        ++trace_.periodicCalls;
        if (rubik_ && rubik_->tableRebuilds() != before) {
            rebuild_->add(dt);
            trace_.rebuildMs.push_back(dt * 1e3);
        } else {
            update_->add(dt);
        }
    }

    void onThermalSample(double now, double core_temp,
                         double package_temp) override
    {
        inner_.onThermalSample(now, core_temp, package_temp);
    }

    void setPowerCap(double watts) override
    {
        DvfsPolicy::setPowerCap(watts);
        inner_.setPowerCap(watts);
    }

    double hookBusy() const
    {
        std::set<const Span *> spans{decide_, profile_, rebuild_, update_};
        double sum = 0.0;
        for (const Span *s : spans)
            sum += s->busy;
        return sum;
    }

  private:
    DvfsPolicy &inner_;
    const RubikController *rubik_;
    JobTrace &trace_;
    Span *decide_ = nullptr;
    Span *profile_ = nullptr;
    Span *rebuild_ = nullptr;
    Span *update_ = nullptr;
};

/// The outcome fields runPolicy copies from a simulation (thermal off).
PolicyOutcome
outcomeFromSim(const SimResult &r, const DvfsModel &dvfs)
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
    return o;
}

std::string
argValue(int argc, char **argv, const char *flag)
{
    for (int i = 2; i + 1 < argc; ++i) {
        if (!std::strcmp(argv[i], flag))
            return argv[i + 1];
    }
    return "";
}

std::string
requireArg(int argc, char **argv, const char *flag)
{
    const std::string v = argValue(argc, argv, flag);
    if (v.empty())
        throw std::runtime_error(std::string("missing ") + flag);
    return v;
}

void
printLayers(const std::map<std::string, Span> &layers)
{
    std::printf("\"layers\":{");
    bool first = true;
    for (const auto &[name, span] : layers) {
        std::printf("%s\"%s\":{\"count\":%" PRIu64 ",\"busy_s\":%.9g}",
                    first ? "" : ",", name.c_str(), span.count, span.busy);
        first = false;
    }
    std::printf("}");
}

// ---------------------------------------------------------------- sweep

int
sweepMain(int argc, char **argv)
{
    const SweepSpec spec =
        SweepSpec::parseFile(requireArg(argc, argv, "--spec"));
    const std::string rows_path = requireArg(argc, argv, "--rows");
    spec.validate();

    const auto t_start = Clock::now();
    const DvfsModel dvfs = DvfsModel::haswell(spec.transitionUs * kUs);
    const PowerModel power(dvfs);
    const double nominal = dvfs.nominalFrequency();
    const int n = spec.effectiveRequests();
    const SimOptions options;
    ExperimentRunner runner(kSweepWorkers);

    std::vector<JobTrace> traces; // every job's spans, merged at the end
    using TraceKey = std::tuple<std::string, double, uint64_t>;
    std::map<TraceKey, std::shared_ptr<const Trace>> generated;

    // Traces the program would pull from its memoized store: generate
    // each (app, load, seed) once.
    auto generate = [&](JobTrace &jt, const std::string &app, double load,
                        uint64_t seed) {
        const std::optional<AppId> id = appIdByName(app);
        if (!id)
            throw std::runtime_error("unknown app: " + app);
        const auto t0 = Clock::now();
        auto t = std::make_shared<const Trace>(
            generateLoadTrace(makeApp(*id), load, n, nominal, seed));
        jt.layers["workloads.trace_gen"].add(since(t0));
        return t;
    };

    // Phase 1: auto bounds per (app, seed); the specs never fix one.
    if (spec.boundMs > 0.0)
        throw std::runtime_error("layer_probe traces auto bounds only");
    std::vector<std::pair<std::string, uint64_t>> bound_keys;
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell c = spec.cell(i);
        const auto key = std::make_pair(c.app, c.seed);
        if (std::find(bound_keys.begin(), bound_keys.end(), key) ==
            bound_keys.end())
            bound_keys.push_back(key);
    }
    struct BoundJob
    {
        JobTrace trace;
        std::shared_ptr<const Trace> t50;
        double bound = 0.0;
    };
    std::map<std::pair<std::string, uint64_t>, double> bounds;
    {
        std::vector<std::function<BoundJob()>> batch;
        for (const auto &key : bound_keys) {
            batch.push_back([&, key] {
                BoundJob job;
                const auto t0 = Clock::now();
                job.t50 = generate(job.trace, key.first, 0.5, key.second);
                const auto t1 = Clock::now();
                job.bound =
                    replayFixed(*job.t50, nominal, power).tailLatency(0.95);
                job.trace.layers["policies.fixed_replay"].add(since(t1));
                job.trace.wall = since(t0);
                return job;
            });
        }
        std::vector<BoundJob> done = runner.runBatch(std::move(batch));
        for (std::size_t i = 0; i < done.size(); ++i) {
            const auto &key = bound_keys[i];
            bounds[key] = done[i].bound;
            generated[{key.first, 0.5, key.second}] = done[i].t50;
            traces.push_back(std::move(done[i].trace));
        }
    }

    // Phase 2: annotated trace + fixed-nominal baseline per triple.
    std::vector<TraceKey> triple_keys;
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell c = spec.cell(i);
        const TraceKey key{c.app, c.load, c.seed};
        if (std::find(triple_keys.begin(), triple_keys.end(), key) ==
            triple_keys.end())
            triple_keys.push_back(key);
    }
    struct Prepared
    {
        JobTrace trace;
        std::shared_ptr<const Trace> annotated;
        ReplayResult fixed;
    };
    std::map<TraceKey, Prepared> prepared;
    {
        std::vector<std::function<Prepared()>> batch;
        for (const TraceKey &key : triple_keys) {
            batch.push_back([&, key] {
                Prepared prep;
                const auto t0 = Clock::now();
                const auto it = generated.find(key);
                const auto base =
                    it != generated.end()
                        ? it->second
                        : generate(prep.trace, std::get<0>(key),
                                   std::get<1>(key), std::get<2>(key));
                const auto t1 = Clock::now();
                auto annotated = std::make_shared<Trace>(*base);
                annotateClasses(*annotated, 0.85, nominal);
                prep.trace.layers["workloads.annotate"].add(since(t1));
                const auto t2 = Clock::now();
                prep.fixed = replayFixed(*annotated, nominal, power);
                prep.trace.layers["policies.fixed_replay"].add(since(t2));
                prep.annotated = std::move(annotated);
                prep.trace.wall = since(t0);
                return prep;
            });
        }
        std::vector<Prepared> done = runner.runBatch(std::move(batch));
        for (std::size_t i = 0; i < done.size(); ++i) {
            traces.push_back(done[i].trace);
            prepared.emplace(triple_keys[i], std::move(done[i]));
        }
    }

    // Phase 3: one job per cell.
    struct CellRun
    {
        JobTrace trace;
        SweepCell cell;
        double bound = 0.0;
        PolicyOutcome outcome;
    };
    std::vector<std::function<CellRun()>> batch;
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        batch.push_back([&, cell] {
            CellRun run;
            const auto t0 = Clock::now();
            run.cell = cell;
            run.bound = bounds.at({cell.app, cell.seed});
            const Prepared &prep =
                prepared.at({cell.app, cell.load, cell.seed});
            if (cell.policy == "rubik" || cell.policy == "pegasus") {
                // runPolicy's online path, with the policy wrapped.
                std::unique_ptr<DvfsPolicy> scheme;
                const RubikController *rubik = nullptr;
                if (cell.policy == "rubik") {
                    RubikConfig cfg;
                    cfg.latencyBound = run.bound;
                    cfg.feedback = true;
                    cfg.table = options.tableConfig();
                    auto rc = std::make_unique<RubikController>(dvfs, cfg);
                    rubik = rc.get();
                    scheme = std::move(rc);
                } else {
                    PegasusConfig cfg;
                    cfg.latencyBound = run.bound;
                    scheme = std::make_unique<PegasusPolicy>(dvfs, cfg);
                }
                scheme->setPowerCap(0.0);
                TimedPolicy timed(*scheme, rubik, run.trace,
                                  "policies.pegasus");
                Span &engine = run.trace.layers["sim.engine"];
                Span &result = run.trace.layers["sim.result"];
                const auto t1 = Clock::now();
                {
                    const SimResult r =
                        simulate(*prep.annotated, timed, dvfs, power,
                                 options.engine, options.thermal);
                    const double sim_s = since(t1);
                    ++engine.count;
                    engine.busy += sim_s - timed.hookBusy();
                    run.trace.simEvents += 2 * r.completed.size();
                    run.outcome = outcomeFromSim(r, dvfs);
                } // the result's teardown books to sim.result too
                result.add(since(t1) - engine.busy - timed.hookBusy());
                run.outcome.fixedEnergyPerRequest =
                    prep.fixed.energyPerRequest();
            } else {
                PolicyRunRequest req;
                req.trace = prep.annotated.get();
                req.bound = run.bound;
                req.dvfs = &dvfs;
                req.power = &power;
                req.fixedBaseline = &prep.fixed;
                const auto t1 = Clock::now();
                run.outcome = runPolicy(cell.policy, req);
                const std::string span =
                    cell.policy == "fixed" ? "fixed_replay" : cell.policy;
                run.trace.layers["policies." + span].add(since(t1));
            }
            run.trace.wall = since(t0);
            return run;
        });
    }
    const std::vector<CellRun> cells = runner.runBatch(std::move(batch));
    const double wall = since(t_start);

    std::string text = sweepCsvHeader();
    text += '\n';
    for (const CellRun &c : cells)
        text += sweepCsvRow(c.cell, c.bound, c.outcome);
    std::ofstream(rows_path, std::ios::binary) << text;

    JobTrace total;
    double job_busy = 0.0;
    for (const JobTrace &t : traces) {
        total.merge(t);
        job_busy += t.wall;
    }
    double cell_busy = 0.0;
    for (const CellRun &c : cells) {
        total.merge(c.trace);
        job_busy += c.trace.wall;
        cell_busy += c.trace.wall;
    }
    std::vector<double> rebuild = total.rebuildMs;
    std::sort(rebuild.begin(), rebuild.end());

    std::printf("{\"wall_s\":%.9g,\"workers\":%d,\"job_busy_s\":%.9g,"
                "\"cell_busy_s\":%.9g,\"periodic_calls\":%" PRIu64
                ",\"sim_events\":%" PRIu64 ",\"rebuild_p50_ms\":%.9g,"
                "\"rebuild_max_ms\":%.9g,",
                wall, runner.numWorkers(), job_busy, cell_busy,
                total.periodicCalls, total.simEvents,
                rebuild.empty() ? 0.0 : rebuild[rebuild.size() / 2],
                rebuild.empty() ? 0.0 : rebuild.back());
    printLayers(total.layers);
    std::printf(",\"cells\":[");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::printf("%s{\"index\":%zu,\"policy\":\"%s\",\"wall_s\":%.9g,"
                    "\"explained_s\":%.9g}",
                    i ? "," : "", cells[i].cell.index,
                    cells[i].cell.policy.c_str(), cells[i].trace.wall,
                    cells[i].trace.explained());
    }
    std::printf("]}\n");
    return 0;
}

// --------------------------------------------------------------- stream

int
streamMain(int argc, char **argv)
{
    const Trace trace = loadTraceBinary(requireArg(argc, argv, "--trace"));
    const std::string out_path = requireArg(argc, argv, "--out");
    if (trace.empty())
        throw std::runtime_error("empty trace");
    const DvfsModel dvfs = DvfsModel::haswell(4.0 * kUs);
    const PowerModel power(dvfs);
    const ReplayResult fixed =
        replayFixed(trace, dvfs.nominalFrequency(), power);

    std::string text;
    char line[256];
    std::size_t next_done = 0;
    auto emit_completion = [&](std::size_t i) {
        const TraceRecord &r = trace[i];
        const double due = r.arrivalTime + fixed.latencies[i];
        std::snprintf(line, sizeof line, "%.17g\tc %.17g %.17g %.17g\n",
                      due, due, r.computeCycles, r.memoryTime);
        text += line;
    };
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord &r = trace[i];
        while (next_done < i && trace[next_done].arrivalTime +
                                        fixed.latencies[next_done] <=
                                    r.arrivalTime)
            emit_completion(next_done++);
        std::snprintf(line, sizeof line, "%.17g\ta %.17g 0 %d\n",
                      r.arrivalTime, r.arrivalTime, r.classHint);
        text += line;
    }
    while (next_done < trace.size())
        emit_completion(next_done++);
    std::ofstream(out_path, std::ios::binary) << text;

    // The grid as the daemon formats a decision (`f %.9g`).
    std::printf("{\"requests\":%zu,\"events\":%zu,\"duration_s\":%.9g,"
                "\"bound_ms\":%.17g,\"fixed_energy_mj_per_req\":%.17g,"
                "\"grid\":[",
                trace.size(), 2 * trace.size(),
                trace.back().arrivalTime + fixed.latencies.back(),
                fixed.tailLatency(0.95) / kMs,
                fixed.energyPerRequest() / kMj);
    for (std::size_t i = 0; i < dvfs.frequencies().size(); ++i)
        std::printf("%s\"%.9g\"", i ? "," : "", dvfs.frequencies()[i]);
    std::printf("]}\n");
    return 0;
}

// --------------------------------------------------------------- engine

struct Event
{
    bool arrival = true;
    double t = 0.0, a = 0.0, b = 0.0;
    int hint = -1;
};

std::vector<Event>
readEvents(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Event> events;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos)
            throw std::runtime_error("bad event line: " + line);
        std::istringstream toks(line.substr(tab + 1));
        std::string kind, t, x, y;
        toks >> kind >> t >> x >> y;
        Event e;
        e.arrival = kind == "a";
        // strtod, as the daemon parses them, so both see the same bits.
        e.t = std::strtod(t.c_str(), nullptr);
        e.a = std::strtod(x.c_str(), nullptr);
        if (e.arrival)
            e.hint = static_cast<int>(std::strtod(y.c_str(), nullptr));
        else
            e.b = std::strtod(y.c_str(), nullptr);
        events.push_back(e);
    }
    return events;
}

int
engineMain(int argc, char **argv)
{
    const std::vector<Event> events =
        readEvents(requireArg(argc, argv, "--events"));
    const std::string bound_ms = requireArg(argc, argv, "--bound-ms");
    const int reps = std::max(1, std::atoi(argValue(argc, argv, "--reps")
                                               .c_str()));
    ServeConfig sc;
    sc.latencyBound = std::atof(bound_ms.c_str()) * kMs;
    sc.updatePeriod = 100.0 * kMs;
    const DvfsModel dvfs = DvfsModel::haswell(4.0 * kUs);

    auto apply = [](ServeEngine &engine, const Event &e) {
        return e.arrival ? engine.onArrival(e.t, e.a, e.hint)
                         : engine.onCompletion(e.t, e.a, e.b);
    };

    std::vector<double> plain_wall, timed_wall;
    uint64_t hash = 0, decisions = 0, rebuilds = 0, failed = 0;
    JobTrace timed; // spans of the last timed pass
    for (int rep = 0; rep < reps; ++rep) {
        {
            ServeEngine engine(dvfs, sc);
            const auto t0 = Clock::now();
            for (const Event &e : events)
                failed += apply(engine, e).ok ? 0 : 1;
            plain_wall.push_back(since(t0));
            hash = engine.decisionLog().hash;
            decisions = engine.decisionLog().count;
            rebuilds = engine.tableRebuilds();
        }
        {
            // A call that rebuilt the table (inline, on the periodic
            // path) books to core.rebuild; the rest to decide/profile.
            ServeEngine engine(dvfs, sc);
            JobTrace jt;
            Span &decide = jt.layers["core.decide"];
            Span &profile = jt.layers["core.profile"];
            Span &rebuild = jt.layers["core.rebuild"];
            const auto t0 = Clock::now();
            for (const Event &e : events) {
                const uint64_t before = engine.tableRebuilds();
                const double next_update =
                    engine.controller().nextPeriodicUpdate();
                const auto t1 = Clock::now();
                apply(engine, e);
                const double dt = since(t1);
                // Each periodic update advances the schedule one period.
                jt.periodicCalls += static_cast<uint64_t>(std::llround(
                    (engine.controller().nextPeriodicUpdate() -
                     next_update) /
                    sc.updatePeriod));
                if (engine.tableRebuilds() != before) {
                    rebuild.add(dt);
                    jt.rebuildMs.push_back(dt * 1e3);
                } else {
                    (e.arrival ? decide : profile).add(dt);
                }
            }
            jt.wall = since(t0);
            timed_wall.push_back(jt.wall);
            timed = std::move(jt);
        }
    }
    std::sort(timed.rebuildMs.begin(), timed.rebuildMs.end());
    const double plain =
        *std::min_element(plain_wall.begin(), plain_wall.end());
    const double traced =
        *std::min_element(timed_wall.begin(), timed_wall.end());
    const std::vector<double> &rb = timed.rebuildMs;

    std::printf("{\"events\":%zu,\"decisions\":%" PRIu64
                ",\"decision_hash\":\"%016" PRIx64 "\",\"failed\":%" PRIu64
                ",\"table_rebuilds\":%" PRIu64 ",\"periodic_calls\":%" PRIu64
                ",\"plain_wall_s\":%.9g,"
                "\"traced_wall_s\":%.9g,\"last_traced_wall_s\":%.9g,"
                "\"explained_s\":%.9g,\"rebuild_p50_ms\":%.9g,"
                "\"rebuild_max_ms\":%.9g,",
                events.size(), decisions, hash, failed, rebuilds,
                timed.periodicCalls, plain, traced, timed.wall,
                timed.explained(),
                rb.empty() ? 0.0 : rb[rb.size() / 2],
                rb.empty() ? 0.0 : rb.back());
    printLayers(timed.layers);
    std::printf("}\n");
    return 0;
}

// ----------------------------------------------------------------- exec

int
execMain(int argc, char **argv)
{
    if (argc < 4)
        throw std::runtime_error("exec wants USAGE PROGRAM [ARGS...]");
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        execv(argv[3], argv + 3);
        std::perror("layer_probe exec");
        _exit(127);
    }
    int status = 0;
    struct rusage ru;
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            throw std::runtime_error("wait4 failed");
    }
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    std::FILE *usage = std::fopen(argv[2], "w");
    if (!usage)
        throw std::runtime_error(std::string("cannot write ") + argv[2]);
    std::fprintf(usage, "{\"cpu_s\":%.9g,\"peak_rss_kb\":%ld}\n",
                 seconds(ru.ru_utime) + seconds(ru.ru_stime), ru.ru_maxrss);
    std::fclose(usage);
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + WTERMSIG(status);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    try {
        if (cmd == "sweep")
            return sweepMain(argc, argv);
        if (cmd == "stream")
            return streamMain(argc, argv);
        if (cmd == "engine")
            return engineMain(argc, argv);
        if (cmd == "exec")
            return execMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "layer_probe %s: %s\n", cmd.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr,
                 "usage: layer_probe sweep|stream|engine|exec ...\n");
    return 2;
}
