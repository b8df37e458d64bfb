/**
 * @file
 * Tests for the discrete-event substrate: core engine mechanics (fluid
 * service, DVFS transitions, idle/sleep accounting), the simulation
 * driver, consistency with the analytic FIFO replay, and validation of
 * the queueing behavior against the M/G/1 Pollaczek-Khinchine formula.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "policies/replay.h"
#include "runner/sweep_runner.h"
#include "sim/core_engine.h"
#include "sim/metrics.h"
#include "sim/simulation.h"
#include "util/units.h"
#include "workloads/apps.h"
#include "workloads/trace_gen.h"

namespace rubik {
namespace {

DvfsModel
instantDvfs()
{
    return DvfsModel::haswell(/*transition_latency=*/0.0);
}

Request
makeRequest(uint64_t id, double arrival, double cycles, double mem)
{
    Request r;
    r.id = id;
    r.arrivalTime = arrival;
    r.computeCycles = cycles;
    r.memoryTime = mem;
    return r;
}

TEST(CoreEngine, SingleComputeRequestTiming)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 2.0 * kGHz;
    CoreEngine core(dvfs, pm, cfg);

    core.enqueue(makeRequest(0, 0.0, 2.0e6, 0.0)); // 2M cycles @ 2GHz = 1ms
    EXPECT_TRUE(core.busy());
    EXPECT_NEAR(core.nextEventTime(), 1.0 * kMs, 1e-12);

    core.advanceTo(core.nextEventTime());
    auto done = core.processEvents();
    ASSERT_TRUE(done.has_value());
    EXPECT_NEAR(done->completionTime, 1.0 * kMs, 1e-12);
    EXPECT_NEAR(done->latency(), 1.0 * kMs, 1e-12);
    EXPECT_FALSE(core.busy());
}

TEST(CoreEngine, MemoryTimeUnaffectedByFrequency)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 0.8 * kGHz;
    CoreEngine core(dvfs, pm, cfg);

    // Pure memory request: service time independent of frequency.
    core.enqueue(makeRequest(0, 0.0, 0.0, 0.5 * kMs));
    EXPECT_NEAR(core.nextEventTime(), 0.5 * kMs, 1e-12);
}

TEST(CoreEngine, FifoOrdering)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 1.0 * kGHz;
    CoreEngine core(dvfs, pm, cfg);

    core.enqueue(makeRequest(0, 0.0, 1.0e6, 0.0)); // 1ms
    core.enqueue(makeRequest(1, 0.0, 1.0e6, 0.0));
    core.enqueue(makeRequest(2, 0.0, 1.0e6, 0.0));
    EXPECT_EQ(core.queueLength(), 2u);

    std::vector<uint64_t> order;
    while (core.busy()) {
        core.advanceTo(core.nextEventTime());
        auto done = core.processEvents();
        if (done)
            order.push_back(done->id);
    }
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 1u);
    EXPECT_EQ(order[2], 2u);
}

TEST(CoreEngine, MidRequestFrequencyChange)
{
    // 2M cycles at 2 GHz; halfway through, drop to 1 GHz. Expected
    // completion: 0.5ms (1M cycles at 2GHz) + 1.0ms (1M at 1GHz).
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 2.0 * kGHz;
    CoreEngine core(dvfs, pm, cfg);

    core.enqueue(makeRequest(0, 0.0, 2.0e6, 0.0));
    core.advanceTo(0.5 * kMs);
    EXPECT_NEAR(core.elapsedCycles(), 1.0e6, 1.0);
    core.requestFrequency(1.0 * kGHz);
    EXPECT_NEAR(core.nextEventTime(), 1.5 * kMs, 1e-12);
    core.advanceTo(core.nextEventTime());
    auto done = core.processEvents();
    ASSERT_TRUE(done.has_value());
    EXPECT_NEAR(done->completionTime, 1.5 * kMs, 1e-12);
}

TEST(CoreEngine, FluidModelDepletesProportionally)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 1.0 * kGHz;
    CoreEngine core(dvfs, pm, cfg);

    // 1M cycles (1ms at 1GHz) + 1ms memory = 2ms total; advance 1ms:
    // both components should be half done.
    core.enqueue(makeRequest(0, 0.0, 1.0e6, 1.0 * kMs));
    core.advanceTo(1.0 * kMs);
    EXPECT_NEAR(core.elapsedCycles(), 0.5e6, 1.0);
    EXPECT_NEAR(core.elapsedMemTime(), 0.5 * kMs, 1e-9);
}

TEST(CoreEngine, TransitionLatencyDelaysFrequencyChange)
{
    const DvfsModel dvfs = DvfsModel::haswell(4e-6);
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 1.0 * kGHz;
    CoreEngine core(dvfs, pm, cfg);

    core.enqueue(makeRequest(0, 0.0, 10.0e6, 0.0));
    core.requestFrequency(2.0 * kGHz);
    EXPECT_TRUE(core.inTransition());
    EXPECT_DOUBLE_EQ(core.currentFrequency(), 1.0 * kGHz);
    EXPECT_DOUBLE_EQ(core.targetFrequency(), 2.0 * kGHz);

    // Transition end is the next event.
    EXPECT_NEAR(core.nextEventTime(), 4e-6, 1e-12);
    core.advanceTo(core.nextEventTime());
    core.processEvents();
    EXPECT_FALSE(core.inTransition());
    EXPECT_DOUBLE_EQ(core.currentFrequency(), 2.0 * kGHz);
    EXPECT_EQ(core.stats().numTransitions, 1u);
}

TEST(CoreEngine, StalledTransitionMakesNoProgress)
{
    DvfsModel dvfs = DvfsModel::haswell(100e-6);
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 1.0 * kGHz;
    cfg.transitionMode = TransitionMode::Stalled;
    CoreEngine core(dvfs, pm, cfg);

    core.enqueue(makeRequest(0, 0.0, 1.0e6, 0.0)); // 1ms at 1GHz
    core.requestFrequency(2.0 * kGHz);
    core.advanceTo(core.nextEventTime()); // transition end at 100us
    core.processEvents();
    EXPECT_NEAR(core.elapsedCycles(), 0.0, 1.0); // stalled: no progress
    // Completes at 100us + 1e6/2GHz = 600us.
    EXPECT_NEAR(core.nextEventTime(), 600e-6, 1e-12);
}

TEST(CoreEngine, RedundantFrequencyRequestIsNoOp)
{
    const DvfsModel dvfs = DvfsModel::haswell(4e-6);
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 2.4 * kGHz;
    CoreEngine core(dvfs, pm, cfg);
    core.requestFrequency(2.4 * kGHz);
    EXPECT_FALSE(core.inTransition());
    EXPECT_EQ(core.stats().numTransitions, 0u);
}

TEST(CoreEngine, IdleSplitsIntoC1AndC3)
{
    const DvfsModel dvfs = instantDvfs();
    PowerModel::Params params;
    params.c3EntryThreshold = 1.0 * kMs;
    const PowerModel pm(dvfs, params);
    CoreEngine core(dvfs, pm);

    core.advanceTo(5.0 * kMs); // idle the whole time
    EXPECT_NEAR(core.stats().idleTime, 1.0 * kMs, 1e-9);
    EXPECT_NEAR(core.stats().sleepTime, 4.0 * kMs, 1e-9);
    EXPECT_NEAR(core.stats().energy.coreIdle,
                params.c1Power * 1.0 * kMs, 1e-9);
    EXPECT_NEAR(core.stats().energy.coreSleep,
                params.c3Power * 4.0 * kMs, 1e-9);
}

TEST(CoreEngine, WakeLatencyAppliedAfterSleep)
{
    const DvfsModel dvfs = instantDvfs();
    PowerModel::Params params;
    params.c3EntryThreshold = 1.0 * kMs;
    const PowerModel pm(dvfs, params);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 1.0 * kGHz;
    cfg.wakeLatency = 50e-6;
    CoreEngine core(dvfs, pm, cfg);

    core.advanceTo(10.0 * kMs); // deep in C3
    core.enqueue(makeRequest(0, 10.0 * kMs, 1.0e6, 0.0));
    // Completion = wake (50us) + 1ms.
    EXPECT_NEAR(core.nextEventTime(), 10.0 * kMs + 50e-6 + 1.0 * kMs,
                1e-12);
}

TEST(CoreEngine, RemainderBelowClockResolutionCompletes)
{
    // Past 2^14 s half an ulp of the clock exceeds the engine's 1e-12 s
    // completion tolerance. A remainder between the two can never be
    // advanced through (now + left == now), so it has to complete now:
    // the event loop used to spin on it forever.
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 2.0 * kGHz;
    cfg.wakeLatency = 0.0;
    CoreEngine core(dvfs, pm, cfg);

    const double now = 20000.0;
    const double left = 1.5e-12;
    ASSERT_GT(left, 1e-12);
    ASSERT_EQ(now + left, now);
    core.advanceTo(now);
    core.enqueue(makeRequest(0, now, left * 2.0 * kGHz, 0.0));
    EXPECT_EQ(core.nextEventTime(), now);
    core.advanceTo(core.nextEventTime());
    const auto done = core.processEvents();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->completionTime, now);
    EXPECT_FALSE(core.busy());
}

TEST(CoreEngine, PerRequestEnergyMatchesPowerIntegral)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 2.0 * kGHz;
    CoreEngine core(dvfs, pm, cfg);

    const double cycles = 4.0e6; // 2ms at 2GHz
    core.enqueue(makeRequest(0, 0.0, cycles, 0.0));
    core.advanceTo(core.nextEventTime());
    auto done = core.processEvents();
    ASSERT_TRUE(done.has_value());
    const double expected = pm.coreActivePower(2.0 * kGHz, 0.0) * 2.0 * kMs;
    EXPECT_NEAR(done->coreEnergy, expected, expected * 1e-9);
}

TEST(CoreEngine, QueueLengthAtArrivalIncludesRunning)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    CoreEngineConfig cfg;
    cfg.initialFrequency = 1.0 * kGHz;
    CoreEngine core(dvfs, pm, cfg);

    core.enqueue(makeRequest(0, 0.0, 1e6, 0.0));
    core.enqueue(makeRequest(1, 0.0, 1e6, 0.0));
    core.enqueue(makeRequest(2, 0.0, 1e6, 0.0));
    std::vector<int> qlens;
    while (core.busy()) {
        core.advanceTo(core.nextEventTime());
        auto done = core.processEvents();
        if (done)
            qlens.push_back(done->queueLenAtArrival);
    }
    ASSERT_EQ(qlens.size(), 3u);
    EXPECT_EQ(qlens[0], 0);
    EXPECT_EQ(qlens[1], 1);
    EXPECT_EQ(qlens[2], 2);
}

TEST(Simulate, EventSimMatchesAnalyticReplayAtFixedFrequency)
{
    // With no transitions/wake effects, the event-driven engine must agree
    // exactly with the closed-form FIFO replay.
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    const Trace trace =
        generateLoadTrace(app, 0.5, 2000, dvfs.nominalFrequency(), 17);

    FixedFrequencyPolicy policy(1.8 * kGHz);
    SimConfig cfg;
    cfg.initialFrequency = 1.8 * kGHz;
    const SimResult sim = simulate(trace, policy, dvfs, pm, cfg);
    const ReplayResult replay = replayFixed(trace, 1.8 * kGHz, pm);

    ASSERT_EQ(sim.completed.size(), trace.size());
    ASSERT_EQ(replay.latencies.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_NEAR(sim.completed[i].latency(), replay.latencies[i], 1e-7);
    EXPECT_NEAR(sim.core.energy.coreActive, replay.coreActiveEnergy,
                replay.coreActiveEnergy * 1e-6);
}

struct MG1Case
{
    double load;
    double cv;
};

class MG1Validation : public ::testing::TestWithParam<MG1Case>
{
};

TEST_P(MG1Validation, MeanWaitMatchesPollaczekKhinchine)
{
    // Build an M/G/1 queue: Poisson arrivals, lognormal service times,
    // all-compute demands, fixed frequency. Mean waiting time must match
    // W = lambda E[S^2] / (2 (1 - rho)).
    const auto [load, cv] = GetParam();
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    const double f = dvfs.nominalFrequency();

    AppProfile app = makeApp(AppId::Masstree);
    app.serviceTime = std::make_shared<LognormalServiceTime>(1.0 * kMs, cv);
    app.memFraction = 0.0;
    app.memNoise = 0.0;

    const int n = 60000;
    const Trace trace = generateLoadTrace(app, load, n, f, 23);

    FixedFrequencyPolicy policy(f);
    const SimResult sim = simulate(trace, policy, dvfs, pm);

    double wait = 0.0;
    double es = 0.0, es2 = 0.0;
    for (const auto &r : sim.completed) {
        wait += r.queuingTime();
        const double s = r.serviceTime();
        es += s;
        es2 += s * s;
    }
    wait /= n;
    es /= n;
    es2 /= n;

    const double lambda = load / (1.0 * kMs);
    const double rho = lambda * es;
    const double pk = lambda * es2 / (2.0 * (1.0 - rho));
    EXPECT_NEAR(wait, pk, pk * 0.08) << "load=" << load << " cv=" << cv;
}

INSTANTIATE_TEST_SUITE_P(
    LoadsAndVariability, MG1Validation,
    ::testing::Values(MG1Case{0.3, 0.2}, MG1Case{0.5, 0.2},
                      MG1Case{0.7, 0.2}, MG1Case{0.3, 1.0},
                      MG1Case{0.5, 1.0}, MG1Case{0.5, 0.5}));

TEST(Simulate, UtilizationMatchesLoad)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    const Trace trace =
        generateLoadTrace(app, 0.4, 20000, dvfs.nominalFrequency(), 31);
    FixedFrequencyPolicy policy(dvfs.nominalFrequency());
    const SimResult sim = simulate(trace, policy, dvfs, pm);
    EXPECT_NEAR(sim.utilization(), 0.4, 0.02);
}

TEST(Simulate, TailLatencyIncreasesWithLoad)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    double prev = 0.0;
    for (double load : {0.2, 0.5, 0.8}) {
        const Trace trace = generateLoadTrace(app, load, 20000,
                                              dvfs.nominalFrequency(), 37);
        FixedFrequencyPolicy policy(dvfs.nominalFrequency());
        const SimResult sim = simulate(trace, policy, dvfs, pm);
        const double tail = sim.tailLatency(0.95);
        EXPECT_GT(tail, prev);
        prev = tail;
    }
}

TEST(Simulate, FrequencyResidencyAccountsBusyTime)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    const AppProfile app = makeApp(AppId::Shore);
    const Trace trace =
        generateLoadTrace(app, 0.5, 3000, dvfs.nominalFrequency(), 41);
    FixedFrequencyPolicy policy(2.0 * kGHz);
    SimConfig cfg;
    cfg.initialFrequency = 2.0 * kGHz;
    const SimResult sim = simulate(trace, policy, dvfs, pm, cfg);

    double residency = 0.0;
    for (double t : sim.core.freqResidency)
        residency += t;
    EXPECT_NEAR(residency, sim.core.busyTime, 1e-9);
    EXPECT_GT(sim.core.freqResidency[dvfs.indexOf(2.0 * kGHz)],
              0.99 * sim.core.busyTime);
}

TEST(Simulate, SystemEnergyScalesComponents)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    const Trace trace =
        generateLoadTrace(app, 0.3, 3000, dvfs.nominalFrequency(), 43);
    FixedFrequencyPolicy policy(dvfs.nominalFrequency());
    const SimResult sim = simulate(trace, policy, dvfs, pm);

    const EnergyBreakdown one = systemEnergy(sim, pm, 1);
    const EnergyBreakdown six = systemEnergy(sim, pm, 6);
    EXPECT_NEAR(six.coreActive, 6.0 * one.coreActive, 1e-9);
    EXPECT_GT(six.uncore, one.uncore);
    EXPECT_DOUBLE_EQ(six.other, one.other); // shared constant
    EXPECT_GT(six.total(), one.total());
}

TEST(Simulate, FinishesRunsPastTwoToTheFourteenSeconds)
{
    // `rubik_cli --app masstree --load 1e-6 --requests 100` for both
    // online policies: arrivals ~170 s apart put the clock past 2^14 s,
    // where both runs used to stall at t = 16,942 s.
    const DvfsModel dvfs = DvfsModel::haswell(4.0 * kUs);
    const PowerModel power(dvfs);
    const double nominal = dvfs.nominalFrequency();
    const AppProfile app = makeApp(AppId::Masstree);
    const Trace t50 = generateLoadTrace(app, 0.5, 100, nominal, 42);
    Trace trace = generateLoadTrace(app, 1e-6, 100, nominal, 42);
    annotateClasses(trace, 0.85, nominal);
    ASSERT_GT(trace.back().arrivalTime, 16384.0);
    PolicyRunRequest req;
    req.trace = &trace;
    req.bound = replayFixed(t50, nominal, power).tailLatency(0.95);
    req.dvfs = &dvfs;
    req.power = &power;
    req.collectLatencies = true;
    for (const char *policy : {"pegasus", "rubik"}) {
        SCOPED_TRACE(policy);
        const PolicyOutcome out = runPolicy(policy, req);
        EXPECT_EQ(out.latencies.size(), trace.size());
        EXPECT_GT(out.tailLatency, 0.0);
    }
}

TEST(Metrics, InstantaneousQpsTracksRate)
{
    // 1000 arrivals at exactly 1ms spacing -> 1000 QPS in any window.
    std::vector<double> arrivals;
    for (int i = 0; i < 1000; ++i)
        arrivals.push_back(i * 1.0 * kMs);
    const auto qps = instantaneousQps(arrivals, 50.0 * kMs, 10.0 * kMs);
    ASSERT_FALSE(qps.empty());
    for (const auto &s : qps)
        EXPECT_NEAR(s.value, 1000.0, 21.0); // +/- one request per window
}

TEST(Metrics, RollingTailWindowing)
{
    std::vector<CompletedRequest> completed;
    for (int i = 0; i < 100; ++i) {
        CompletedRequest r;
        r.arrivalTime = i * 10.0 * kMs;
        r.startTime = r.arrivalTime;
        // First half slow (10ms), second half fast (1ms).
        r.completionTime = r.arrivalTime + (i < 50 ? 10.0 : 1.0) * kMs;
        completed.push_back(r);
    }
    const auto series =
        rollingTailLatency(completed, 100.0 * kMs, 0.95, 50.0 * kMs);
    ASSERT_GT(series.size(), 10u);
    EXPECT_NEAR(series.front().value, 10.0 * kMs, 1.0 * kMs);
    EXPECT_NEAR(series.back().value, 1.0 * kMs, 0.2 * kMs);
}

TEST(Metrics, PerRequestSeriesShapes)
{
    const DvfsModel dvfs = instantDvfs();
    const PowerModel pm(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    const Trace trace =
        generateLoadTrace(app, 0.5, 2000, dvfs.nominalFrequency(), 47);
    FixedFrequencyPolicy policy(dvfs.nominalFrequency());
    const SimResult sim = simulate(trace, policy, dvfs, pm);

    const PerRequestSeries s = perRequestSeries(sim.completed);
    EXPECT_EQ(s.responseLatency.size(), trace.size());
    EXPECT_EQ(s.serviceTime.size(), trace.size());
    EXPECT_EQ(s.queueLength.size(), trace.size());
    EXPECT_EQ(s.instantaneousQps.size(), trace.size());
}

TEST(Trace, SaveLoadRoundTrip)
{
    const AppProfile app = makeApp(AppId::Xapian);
    const Trace trace = generateLoadTrace(app, 0.3, 100, 2.4 * kGHz, 53);
    const std::string path = ::testing::TempDir() + "/trace_test.csv";
    saveTrace(trace, path);
    const Trace loaded = loadTrace(path);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_NEAR(loaded[i].arrivalTime, trace[i].arrivalTime, 1e-9);
        EXPECT_NEAR(loaded[i].computeCycles, trace[i].computeCycles, 1.0);
        EXPECT_NEAR(loaded[i].memoryTime, trace[i].memoryTime, 1e-12);
    }
}

/// Reference copy of annotateClasses before it selected its threshold
/// with nth_element: a full sort, then the rank-th element.
void
referenceAnnotateClasses(Trace &trace, double quantile, double nominal)
{
    if (trace.empty())
        return;
    std::vector<double> service;
    for (const auto &r : trace)
        service.push_back(r.serviceTime(nominal));
    std::sort(service.begin(), service.end());
    const auto rank = static_cast<std::size_t>(
        quantile * static_cast<double>(service.size()));
    const double threshold = service[std::min(rank, service.size() - 1)];
    for (auto &r : trace)
        r.classHint = r.serviceTime(nominal) > threshold ? 1 : 0;
}

TEST(Trace, AnnotateClassesMatchesSortingReference)
{
    // Every app's trace at several sizes, plus one made of a few
    // repeated records (ties at the threshold), over quantiles from
    // the first rank to the last.
    const double nominal = 2.4 * kGHz;
    std::vector<Trace> traces;
    for (const AppId id : allApps()) {
        for (const int n : {1, 2, 7, 64, 3000}) {
            traces.push_back(
                generateLoadTrace(makeApp(id), 0.5, n, nominal, 9));
        }
    }
    Trace ties;
    for (int i = 0; i < 500; ++i)
        ties.push_back({i * 1e-3, 1e6 * static_cast<double>(i % 4), 0.0});
    traces.push_back(ties);
    for (const Trace &base : traces) {
        for (const double q : {1e-6, 0.25, 0.5, 0.85, 0.999999}) {
            Trace got = base, want = base;
            annotateClasses(got, q, nominal);
            referenceAnnotateClasses(want, q, nominal);
            for (std::size_t i = 0; i < base.size(); ++i) {
                ASSERT_EQ(got[i].classHint, want[i].classHint)
                    << "size " << base.size() << " q " << q << " request "
                    << i;
            }
        }
    }
}

TEST(Trace, MeanServiceTimeAndDuration)
{
    Trace t;
    t.push_back({0.0, 2.4e6, 0.0});      // 1ms at 2.4GHz
    t.push_back({1.0, 0.0, 2.0 * kMs});  // 2ms memory
    EXPECT_NEAR(traceMeanServiceTime(t, 2.4 * kGHz), 1.5 * kMs, 1e-12);
    EXPECT_DOUBLE_EQ(traceDuration(t), 1.0);
}

} // namespace
} // namespace rubik
