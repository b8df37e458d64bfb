/**
 * @file
 * Tests for the sweep-spec subsystem: spec parsing/serialization,
 * cell batches that concatenate to the whole-grid runSweep output,
 * rows that match cells run one by one on their own traces, traces
 * freed by their last cell, the dry-run cell listing, and the
 * memoized TraceStore — hit/miss accounting, compute-once behaviour
 * under concurrent access, and failure propagation to concurrent
 * waiters.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "policies/replay.h"
#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "sim/trace.h"
#include "util/units.h"
#include "workloads/apps.h"
#include "workloads/trace_gen.h"
#include "workloads/trace_store.h"

namespace rubik {
namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.apps = {"masstree", "xapian"};
    spec.loads = {0.3, 0.5};
    spec.policies = {"rubik", "static"};
    spec.seeds = {42, 43};
    spec.requests = 400;
    return spec;
}

TEST(SweepSpec, CellEnumerationOrder)
{
    const SweepSpec spec = smallSpec();
    ASSERT_EQ(spec.numCells(), 16u);

    // Apps outermost, then loads, policies, seeds innermost.
    const SweepCell first = spec.cell(0);
    EXPECT_EQ(first.app, "masstree");
    EXPECT_EQ(first.load, 0.3);
    EXPECT_EQ(first.policy, "rubik");
    EXPECT_EQ(first.seed, 42u);

    const SweepCell second = spec.cell(1);
    EXPECT_EQ(second.seed, 43u);
    EXPECT_EQ(second.policy, "rubik");

    const SweepCell last = spec.cell(15);
    EXPECT_EQ(last.app, "xapian");
    EXPECT_EQ(last.load, 0.5);
    EXPECT_EQ(last.policy, "static");
    EXPECT_EQ(last.seed, 43u);

    EXPECT_THROW(spec.cell(16), std::runtime_error);
}

TEST(SweepSpec, SerializeParseRoundTrip)
{
    SweepSpec spec = smallSpec();
    spec.fast = true;
    spec.boundMs = 1.25;
    spec.transitionUs = 130.0;

    const SweepSpec parsed = SweepSpec::parse(spec.serialize());
    EXPECT_EQ(parsed.apps, spec.apps);
    EXPECT_EQ(parsed.loads, spec.loads);
    EXPECT_EQ(parsed.policies, spec.policies);
    EXPECT_EQ(parsed.seeds, spec.seeds);
    EXPECT_EQ(parsed.requests, spec.requests);
    EXPECT_EQ(parsed.fast, spec.fast);
    EXPECT_EQ(parsed.boundMs, spec.boundMs);
    EXPECT_EQ(parsed.transitionUs, spec.transitionUs);
}

TEST(SweepSpec, ParseAcceptsCommentsAndWhitespace)
{
    const SweepSpec spec = SweepSpec::parse(
        "# a comment\n"
        "  apps =  masstree , moses \n"
        "loads = 0.4\n"
        "policies = rubik\n"
        "\n"
        "seeds = 7   # trailing comment\n");
    ASSERT_EQ(spec.apps.size(), 2u);
    EXPECT_EQ(spec.apps[1], "moses");
    EXPECT_EQ(spec.seeds, std::vector<uint64_t>{7});
}

TEST(SweepSpec, ParseRejectsMalformedInput)
{
    EXPECT_THROW(SweepSpec::parse("no equals sign\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("bogus_key = 1\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("loads = fast\n"),
                 std::runtime_error);
    // Structurally empty specs fail validation.
    EXPECT_THROW(SweepSpec::parse(""), std::runtime_error);
    // Loads outside (0, 1.5).
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 2.0\n"
                                  "policies = rubik\n"),
                 std::runtime_error);
    // Non-finite numbers never validate (NaN fails every range test).
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = nan\n"
                                  "policies = rubik\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 0.4\n"
                                  "policies = rubik\n"
                                  "bound_ms = inf\n"),
                 std::runtime_error);
    // requests is a strict integer; seeds reject sign-wrapping.
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 0.4\n"
                                  "policies = rubik\n"
                                  "requests = 9000.7\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 0.4\n"
                                  "policies = rubik\n"
                                  "requests = 5000000000\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 0.4\n"
                                  "policies = rubik\n"
                                  "seeds = -1\n"),
                 std::runtime_error);
}

TEST(SweepSpec, ValidateRejectsNonFiniteFields)
{
    SweepSpec spec = smallSpec();
    spec.loads = {std::numeric_limits<double>::quiet_NaN()};
    EXPECT_THROW(spec.validate(), std::runtime_error);

    spec = smallSpec();
    spec.boundMs = std::numeric_limits<double>::infinity();
    EXPECT_THROW(spec.validate(), std::runtime_error);

    spec = smallSpec();
    spec.transitionUs = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(spec.validate(), std::runtime_error);
}

TEST(SweepSpec, FastSizingMatchesBenchConvention)
{
    SweepSpec spec = smallSpec();
    spec.requests = 9000;
    EXPECT_EQ(spec.effectiveRequests(), 9000);
    spec.fast = true;
    EXPECT_EQ(spec.effectiveRequests(), 2250);
    spec.requests = 100; // floor at 200
    EXPECT_EQ(spec.effectiveRequests(), 200);
}

/// Run `body(out)` against a tmpfile and return what it wrote.
template <typename F>
std::string
captureOutput(F &&body)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    body(f);
    std::rewind(f);
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

// End-to-end: the rows of any split of a real (tiny) grid into
// contiguous cell batches concatenate, after the header, to the
// whole-grid run byte for byte — what the orchestrator's merge relies
// on.
TEST(RunSweep, CellBatchesConcatenateToTheWholeGrid)
{
    SweepSpec spec;
    spec.apps = {"masstree"};
    spec.loads = {0.3, 0.5};
    spec.policies = {"fixed", "static"};
    spec.seeds = {42};
    spec.requests = 300;

    const std::string full =
        captureOutput([&](std::FILE *f) { runSweep(spec, 2, f); });
    EXPECT_NE(full.find("app,policy,load,seed"), std::string::npos);
    // 4 cells + header.
    EXPECT_EQ(static_cast<int>(
                  std::count(full.begin(), full.end(), '\n')),
              5);

    for (const std::vector<std::size_t> &cuts :
         {std::vector<std::size_t>{0, 4}, {0, 1, 4}, {0, 1, 3, 4},
          {0, 1, 2, 3, 4}}) {
        std::string merged = std::string(sweepCsvHeader()) + "\n";
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            merged += captureOutput([&](std::FILE *f) {
                runSweepCells(spec, cuts[i], cuts[i + 1], 2, f);
            });
        }
        EXPECT_EQ(merged, full) << "batches=" << cuts.size() - 1;
    }
}

// Cells start longest trace span first, so workers finish them out of
// index order; the rows must not depend on that or on the worker count.
TEST(RunSweep, RowsAreIdenticalAcrossJobsWhenSpansDiffer)
{
    SweepSpec spec;
    spec.apps = {"masstree", "moses"};
    spec.loads = {0.2, 0.7};
    spec.policies = {"rubik", "boost", "pegasus"};
    spec.seeds = {42};
    spec.requests = 500;

    // Lower loads and slower apps run longer traces, so the longest
    // spans are not the first cells.
    std::vector<double> spans;
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        const std::optional<AppId> id = appIdByName(cell.app);
        ASSERT_TRUE(id.has_value());
        spans.push_back(traceDuration(generateLoadTrace(
            makeApp(*id), cell.load, spec.requests, 2.4e9, cell.seed)));
    }
    EXPECT_FALSE(std::is_sorted(spans.rbegin(), spans.rend()));

    const std::string serial =
        captureOutput([&](std::FILE *f) { runSweep(spec, 1, f); });
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(serial.begin(), serial.end(), '\n')),
              spec.numCells() + 1);
    for (const int jobs : {2, 4}) {
        EXPECT_EQ(captureOutput([&](std::FILE *f) {
                      runSweep(spec, jobs, f);
                  }),
                  serial)
            << "jobs=" << jobs;
    }
}

/// The grid's CSV the slow way: each cell, in index order, generates,
/// annotates and bounds its own trace, and replays its own baseline.
std::string
referenceSweepCsv(const SweepSpec &spec)
{
    const DvfsModel dvfs = DvfsModel::haswell(spec.transitionUs * kUs);
    const PowerModel power(dvfs);
    const double nominal = dvfs.nominalFrequency();
    const int n = spec.effectiveRequests();
    std::string csv = std::string(sweepCsvHeader()) + "\n";
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        const AppProfile app = makeApp(*appIdByName(cell.app));
        const double bound =
            spec.boundMs > 0.0
                ? spec.boundMs * kMs
                : replayFixed(generateLoadTrace(app, 0.5, n, nominal,
                                                cell.seed),
                              nominal, power)
                      .tailLatency(0.95);
        Trace trace =
            generateLoadTrace(app, cell.load, n, nominal, cell.seed);
        annotateClasses(trace, 0.85, nominal);
        PolicyRunRequest req;
        req.trace = &trace;
        req.bound = bound;
        req.dvfs = &dvfs;
        req.power = &power;
        csv += sweepCsvRow(cell, bound, runPolicy(cell.policy, req));
    }
    return csv;
}

// A sweep shares each (app, load, seed) trace among its cells, frees
// it after the last, and hands the bound's 50%-load trace to that
// load's cells. None of it may show in the rows: on any worker count,
// and in batches that split triples and (app, seed) pairs, they are
// the rows of cells that each bring their own trace.
TEST(RunSweep, StreamedTracesMatchAPerCellReference)
{
    SweepSpec spec;
    spec.apps = {"masstree", "xapian"};
    spec.loads = {0.3, 0.5};
    // boost reads the class hints each trace is annotated with.
    spec.policies = {"fixed", "static", "rubik", "boost"};
    spec.seeds = {42, 43};
    spec.requests = 400;
    SweepSpec fixed_bound = spec;
    fixed_bound.boundMs = 2.0;

    for (const SweepSpec &grid : {spec, fixed_bound}) {
        SCOPED_TRACE("bound_ms=" + std::to_string(grid.boundMs));
        const std::string reference = referenceSweepCsv(grid);
        ASSERT_EQ(static_cast<std::size_t>(std::count(
                      reference.begin(), reference.end(), '\n')),
                  grid.numCells() + 1);
        for (const int jobs : {1, 2, 4}) {
            EXPECT_EQ(captureOutput([&](std::FILE *f) {
                          runSweep(grid, jobs, f);
                      }),
                      reference)
                << "jobs=" << jobs;
        }
        // Cells run app, load, policy, seed (innermost): [0, 3) holds
        // no 50%-load cell, [3, 9) one seed's, [16, 17) one cell.
        std::string merged = std::string(sweepCsvHeader()) + "\n";
        const std::vector<std::size_t> cuts = {0, 3, 9, 16, 17, 32};
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            merged += captureOutput([&](std::FILE *f) {
                runSweepCells(grid, cuts[i], cuts[i + 1], 2, f);
            });
        }
        EXPECT_EQ(merged, reference);
    }
}

// Each trace is freed by the last cell that reads it, so none is
// left by the time the rows are emitted, and a failing sweep leaves
// none behind. (runner_test's FailingSweepCellsFreeTheirTraces checks
// that a failing cell frees its trace before the sweep ends.)
TEST(RunSweep, CellsFreeTheirTraces)
{
    SweepSpec spec;
    spec.apps = {"masstree"};
    spec.loads = {0.3, 0.5, 0.7};
    spec.policies = {"fixed", "pegasus"};
    spec.seeds = {42, 43};
    spec.requests = 300;

    const SweepTraceStats before = sweepTraceStats();
    std::size_t rows = 0;
    sweepCellRows(spec, 0, spec.numCells(), 2,
                  [&](std::size_t, const std::string &) {
                      ++rows;
                      EXPECT_EQ(sweepTraceStats().held, before.held);
                  });
    EXPECT_EQ(rows, spec.numCells());
    // One trace per (app, load, seed); the bounds' are the 0.5 ones.
    const SweepTraceStats after = sweepTraceStats();
    EXPECT_EQ(after.generated - before.generated, 6u);
    EXPECT_EQ(after.held, before.held);

    // rubik-thermal needs thermal modeling, which sweeps never enable,
    // so every one of its cells throws.
    spec.policies = {"fixed", "rubik-thermal"};
    try {
        runSweep(spec, 2, stdout);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("rubik-thermal"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(sweepTraceStats().held, before.held);
}

TEST(RunSweep, RejectsUnknownAppsAndPolicies)
{
    SweepSpec spec = smallSpec();
    spec.apps = {"nosuchapp"};
    EXPECT_THROW(runSweep(spec, 1, stdout), std::runtime_error);

    spec = smallSpec();
    spec.policies = {"nosuchpolicy"};
    EXPECT_THROW(runSweep(spec, 1, stdout), std::runtime_error);
}

TEST(PolicyNames, KnownPolicyLookup)
{
    EXPECT_TRUE(isKnownPolicy("rubik"));
    EXPECT_TRUE(isKnownPolicy("rubik-nofb"));
    EXPECT_TRUE(isKnownPolicy("boost"));
    EXPECT_TRUE(isKnownPolicy("rubik-thermal"));
    EXPECT_FALSE(isKnownPolicy("distilled"));
    EXPECT_FALSE(isKnownPolicy("Rubik"));
    EXPECT_FALSE(isKnownPolicy(""));
    EXPECT_EQ(knownPolicyNames().size(), 9u);
}

TEST(TraceStore, CountsHitsAndMisses)
{
    TraceStore store;
    const AppProfile app = makeApp(AppId::Masstree);
    const double nominal = 2.4e9;

    const auto a = store.loadTrace(app, 0.4, 300, nominal, 1);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 0u);

    const auto b = store.loadTrace(app, 0.4, 300, nominal, 1);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(a.get(), b.get()); // same cached object

    // Any key component change is a distinct trace.
    store.loadTrace(app, 0.5, 300, nominal, 1);
    store.loadTrace(app, 0.4, 301, nominal, 1);
    store.loadTrace(app, 0.4, 300, nominal, 2);
    EXPECT_EQ(store.stats().misses, 4u);
    EXPECT_EQ(store.size(), 4u);

    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.stats().misses, 0u);
}

TEST(TraceStore, MemoizedTraceMatchesDirectGeneration)
{
    TraceStore store;
    const AppProfile app = makeApp(AppId::Xapian);
    const double nominal = 2.4e9;

    const auto cached = store.loadTrace(app, 0.3, 250, nominal, 9);
    const Trace direct = generateLoadTrace(app, 0.3, 250, nominal, 9);
    ASSERT_EQ(cached->size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ((*cached)[i].arrivalTime, direct[i].arrivalTime);
        EXPECT_EQ((*cached)[i].computeCycles, direct[i].computeCycles);
        EXPECT_EQ((*cached)[i].memoryTime, direct[i].memoryTime);
    }
}

// Many threads asking for the same key: the generator runs exactly
// once and everyone gets the same object.
TEST(TraceStore, ConcurrentAccessComputesOnce)
{
    TraceStore store;
    const TraceKey key{"shared", 0.4, 100, 2.4e9, 1};
    std::atomic<int> generated{0};

    constexpr int kThreads = 16;
    std::vector<std::shared_ptr<const Trace>> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            results[i] = store.get(key, [&] {
                ++generated;
                // Widen the race window so contention is real.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                return Trace{TraceRecord{0.0, 1000.0, 0.0, -1}};
            });
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(generated.load(), 1);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits,
              static_cast<uint64_t>(kThreads - 1));
    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(results[i].get(), results[0].get());
}

// Concurrent access across distinct keys stays consistent: every key
// generated exactly once, no cross-talk.
TEST(TraceStore, ConcurrentDistinctKeys)
{
    TraceStore store;
    constexpr int kThreads = 8;
    constexpr int kKeys = 20;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int k = 0; k < kKeys; ++k) {
                std::string name = "k";
                name += std::to_string(k);
                const TraceKey key{name, 0.1, k, 1e9, 0};
                const auto trace = store.get(key, [&] {
                    return Trace(static_cast<std::size_t>(k + 1));
                });
                EXPECT_EQ(trace->size(),
                          static_cast<std::size_t>(k + 1));
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(store.size(), static_cast<std::size_t>(kKeys));
    EXPECT_EQ(store.stats().misses, static_cast<uint64_t>(kKeys));
    EXPECT_EQ(store.stats().hits,
              static_cast<uint64_t>(kThreads * kKeys - kKeys));
}

// A failed generation propagates to all waiters but is not cached: a
// later request retries and can succeed.
TEST(TraceStore, FailedGenerationIsRetried)
{
    TraceStore store;
    const TraceKey key{"flaky", 0.5, 10, 1e9, 3};
    EXPECT_THROW(store.get(key,
                           []() -> Trace {
                               throw std::runtime_error("boom");
                           }),
                 std::runtime_error);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.stats().generated, 0u);

    const auto trace = store.get(key, [] { return Trace(3); });
    EXPECT_EQ(trace->size(), 3u);
    EXPECT_EQ(store.stats().generated, 1u);
}

// Concurrent waiters on a failing producer all observe the error, the
// entry is not cached, and the next request regenerates successfully.
TEST(TraceStore, ConcurrentWaitersSeeGenerationFailure)
{
    TraceStore store;
    const TraceKey key{"flaky", 0.5, 10, 1e9, 4};
    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            try {
                store.get(key, [&]() -> Trace {
                    // Widen the window so waiters really block.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("boom");
                });
            } catch (const std::runtime_error &) {
                ++failures;
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // Every thread saw the error: the single producer's waiters share
    // its exception, and threads arriving after the uncache retried
    // the (still failing) generation themselves.
    EXPECT_EQ(failures.load(), kThreads);
    EXPECT_EQ(store.size(), 0u);

    const auto trace = store.get(key, [] { return Trace(5); });
    EXPECT_EQ(trace->size(), 5u);
}

TEST(PrintSweepCells, ListsEveryCell)
{
    SweepSpec spec;
    spec.apps = {"masstree"};
    spec.loads = {0.3, 0.5};
    spec.policies = {"fixed", "static"};
    spec.seeds = {42};
    spec.requests = 300;

    EXPECT_EQ(captureOutput(
                  [&](std::FILE *f) { printSweepCells(spec, f); }),
              "cell,app,load,policy,seed\n"
              "0,masstree,0.30,fixed,42\n"
              "1,masstree,0.30,static,42\n"
              "2,masstree,0.50,fixed,42\n"
              "3,masstree,0.50,static,42\n");
}

} // namespace
} // namespace rubik
