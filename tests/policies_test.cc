/**
 * @file
 * Tests for the baseline policies: analytic replay, StaticOracle
 * minimality, AdrenalineOracle tuning, DynamicOracle budgeting, and the
 * Pegasus feedback baseline.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>

#include <gtest/gtest.h>

#include "policies/adrenaline.h"
#include "policies/dynamic_oracle.h"
#include "policies/pegasus.h"
#include "policies/replay.h"
#include "policies/savings_queue.h"
#include "policies/static_oracle.h"
#include "sim/simulation.h"
#include "stats/percentile.h"
#include "util/rng.h"
#include "util/units.h"
#include "workloads/apps.h"
#include "workloads/trace_gen.h"

namespace rubik {
namespace {

struct Harness
{
    DvfsModel dvfs = DvfsModel::haswell(0.0);
    PowerModel pm{dvfs};

    Trace trace(AppId app, double load, int n, uint64_t seed = 11) const
    {
        return generateLoadTrace(makeApp(app), load, n,
                                 dvfs.nominalFrequency(), seed);
    }

    double bound(const Trace &t) const
    {
        return replayFixed(t, dvfs.nominalFrequency(), pm).tailLatency(0.95);
    }
};

// ------------------------------------------------------------------
// Reference searches: the oracles as they were before feasibility
// became a counting probe. Every probe replays the trace and sorts its
// latencies; the production oracles must reproduce these bit for bit.

namespace reference {

std::vector<double>
assignFrequencies(const Trace &trace, double nominal_freq, double threshold,
                  double base, double boost)
{
    std::vector<double> freqs(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const double nominal_service = trace[i].serviceTime(nominal_freq);
        freqs[i] = nominal_service > threshold ? boost : base;
    }
    return freqs;
}

AdrenalineResult
adrenalineOracle(const Trace &trace, double latency_bound,
                 const DvfsModel &dvfs, const PowerModel &power,
                 double nominal_freq,
                 const AdrenalineConfig &config = AdrenalineConfig())
{
    std::vector<double> service(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        service[i] = trace[i].serviceTime(nominal_freq);
    std::sort(service.begin(), service.end());

    AdrenalineResult best;
    double best_energy = std::numeric_limits<double>::infinity();
    const auto &grid = dvfs.frequencies();
    for (double q : config.thresholdQuantiles) {
        const double threshold = percentileSorted(service, q);
        for (double boost : grid) {
            std::size_t lo = 0;
            std::size_t hi = dvfs.indexOf(boost);
            {
                auto freqs = assignFrequencies(trace, nominal_freq,
                                               threshold, grid[hi], boost);
                ReplayResult r = replayFifo(trace, freqs, power);
                if (r.tailLatency(config.percentile) > latency_bound)
                    continue;
            }
            while (lo < hi) {
                const std::size_t mid = (lo + hi) / 2;
                auto freqs = assignFrequencies(trace, nominal_freq,
                                               threshold, grid[mid], boost);
                ReplayResult r = replayFifo(trace, freqs, power);
                if (r.tailLatency(config.percentile) <= latency_bound)
                    hi = mid;
                else
                    lo = mid + 1;
            }
            auto freqs = assignFrequencies(trace, nominal_freq, threshold,
                                           grid[lo], boost);
            ReplayResult r = replayFifo(trace, freqs, power);
            if (r.tailLatency(config.percentile) > latency_bound)
                continue;
            if (r.coreActiveEnergy < best_energy) {
                best_energy = r.coreActiveEnergy;
                best.threshold = threshold;
                best.baseFrequency = grid[lo];
                best.boostFrequency = boost;
                best.feasible = true;
                best.replay = std::move(r);
            }
        }
    }
    if (!best.feasible) {
        best.threshold = 0.0;
        best.baseFrequency = dvfs.maxFrequency();
        best.boostFrequency = dvfs.maxFrequency();
        best.replay = replayFixed(trace, dvfs.maxFrequency(), power);
    }
    return best;
}

StaticOracleResult
staticOracle(const Trace &trace, double latency_bound, double percentile,
             const DvfsModel &dvfs, const PowerModel &power)
{
    StaticOracleResult result;
    for (double f : dvfs.frequencies()) {
        ReplayResult r = replayFixed(trace, f, power);
        if (r.tailLatency(percentile) <= latency_bound) {
            result.frequency = f;
            result.feasible = true;
            result.replay = std::move(r);
            return result;
        }
    }
    result.frequency = dvfs.maxFrequency();
    result.replay = replayFixed(trace, result.frequency, power);
    return result;
}

/// FIFO schedule with a full-walk, allocate-per-try rollback.
class Schedule
{
  public:
    Schedule(const Trace &trace, std::vector<double> freqs, double bound,
             double percentile)
        : trace_(trace), freqs_(std::move(freqs)), bound_(bound)
    {
        completions_.resize(trace.size());
        double prev = 0.0;
        for (std::size_t j = 0; j < trace_.size(); ++j) {
            const double start = std::max(trace_[j].arrivalTime, prev);
            completions_[j] = start + trace_[j].serviceTime(freqs_[j]);
            prev = completions_[j];
        }
        for (std::size_t i = 0; i < trace_.size(); ++i)
            violations_ += isViolation(i);
        maxViolations_ = trace_.size() - 1 -
                         nearestRankIndex(trace_.size(), percentile);
    }

    bool tryLower(std::size_t i, double freq)
    {
        const double old_freq = freqs_[i];
        freqs_[i] = freq;
        std::vector<std::pair<std::size_t, double>> saved;
        double prev = i == 0 ? 0.0 : completions_[i - 1];
        std::size_t new_violations = violations_;
        for (std::size_t j = i; j < trace_.size(); ++j) {
            const double start = std::max(trace_[j].arrivalTime, prev);
            const double done = start + trace_[j].serviceTime(freqs_[j]);
            if (j > i && done == completions_[j])
                break;
            saved.emplace_back(j, completions_[j]);
            new_violations -= isViolation(j);
            completions_[j] = done;
            new_violations += isViolation(j);
            prev = done;
        }
        if (new_violations <= maxViolations_) {
            violations_ = new_violations;
            return true;
        }
        freqs_[i] = old_freq;
        for (const auto &[idx, val] : saved)
            completions_[idx] = val;
        return false;
    }

    const std::vector<double> &freqs() const { return freqs_; }

  private:
    bool isViolation(std::size_t i) const
    {
        return completions_[i] - trace_[i].arrivalTime > bound_;
    }

    const Trace &trace_;
    std::vector<double> freqs_;
    std::vector<double> completions_;
    double bound_;
    std::size_t violations_ = 0;
    std::size_t maxViolations_ = 0;
};

/// The heap search with indexOf lookups and the stale-entry re-check.
DynamicOracleResult
dynamicOracle(const Trace &trace, double latency_bound, double percentile,
              const DvfsModel &dvfs, const PowerModel &power)
{
    const auto &grid = dvfs.frequencies();
    Schedule sched(trace,
                   std::vector<double>(trace.size(), dvfs.maxFrequency()),
                   latency_bound, percentile);
    auto step_down_saving = [&](std::size_t i) -> double {
        const double f = sched.freqs()[i];
        const std::size_t idx = dvfs.indexOf(f);
        if (idx == 0)
            return -1.0;
        return requestEnergy(trace[i], f, power) -
               requestEnergy(trace[i], grid[idx - 1], power);
    };
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item> heap;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const double s = step_down_saving(i);
        if (s > 0.0)
            heap.push({s, i});
    }
    while (!heap.empty()) {
        const auto [saving, i] = heap.top();
        heap.pop();
        const double fresh = step_down_saving(i);
        if (fresh <= 0.0)
            continue;
        if (std::abs(fresh - saving) > 1e-12 * std::max(1.0, saving)) {
            heap.push({fresh, i});
            continue;
        }
        const std::size_t idx = dvfs.indexOf(sched.freqs()[i]);
        if (sched.tryLower(i, grid[idx - 1])) {
            const double next = step_down_saving(i);
            if (next > 0.0)
                heap.push({next, i});
        }
    }
    DynamicOracleResult result;
    result.frequencies = sched.freqs();
    result.replay = replayFifo(trace, result.frequencies, power);
    return result;
}

} // namespace reference

/// Bitwise equality of two replays.
void
expectSameReplay(const ReplayResult &got, const ReplayResult &want)
{
    EXPECT_EQ(got.latencies, want.latencies);
    EXPECT_EQ(got.coreActiveEnergy, want.coreActiveEnergy);
    EXPECT_EQ(got.makespan, want.makespan);
}

/// One oracle scenario: a trace and a bound to tune it against.
struct OracleCase
{
    std::string name;
    Trace trace;
    double bound;
};

/// All five apps at loads 0.3 and 0.7, against 0.6x, 1x and 2x the
/// trace's fixed-nominal tail, a loose 50x bound (the bottom of the
/// grid) and an impossible bound (the max-frequency fallback). Then a
/// trace of identical requests at the same bounds, whose equal savings
/// leave DynamicOracle's order to the tie-break on the larger index,
/// and one 20 000-request trace, whose heap is as deep as a perfbench
/// sweep cell's.
std::vector<OracleCase>
oracleCases(const Harness &s, int n)
{
    std::vector<OracleCase> cases;
    auto add_bounds = [&](const std::string &name, const Trace &t) {
        const double tail = s.bound(t);
        for (double scale : {0.6, 1.0, 2.0, 50.0, 0.0}) {
            const double bound = scale > 0.0 ? scale * tail : 1e-9;
            cases.push_back({name + "x" + std::to_string(scale), t, bound});
        }
    };
    for (AppId app : {AppId::Masstree, AppId::Moses, AppId::Shore,
                      AppId::Specjbb, AppId::Xapian}) {
        for (double load : {0.3, 0.7}) {
            add_bounds(makeApp(app).name + "@" + std::to_string(load),
                       s.trace(app, load, n));
        }
    }
    Trace identical = s.trace(AppId::Masstree, 0.5, n);
    for (TraceRecord &r : identical) {
        r.computeCycles = identical.front().computeCycles;
        r.memoryTime = identical.front().memoryTime;
    }
    add_bounds("identical@0.5", identical);
    Trace deep = s.trace(AppId::Xapian, 0.5, 20000);
    cases.push_back({"xapian@0.5x1 (20000 requests)", deep, s.bound(deep)});
    return cases;
}

TEST(Replay, NoQueueingAtTinyLoad)
{
    Harness s;
    const Trace t = s.trace(AppId::Masstree, 0.01, 200);
    const ReplayResult r = replayFixed(t, s.dvfs.nominalFrequency(), s.pm);
    // Latency == service time for nearly every request (rare Poisson
    // clusters may still queue).
    int unqueued = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const double service = t[i].serviceTime(s.dvfs.nominalFrequency());
        unqueued += std::abs(r.latencies[i] - service) < 1e-9;
    }
    EXPECT_GE(unqueued, static_cast<int>(t.size()) * 95 / 100);
}

TEST(Replay, LatenciesShrinkWithFrequency)
{
    Harness s;
    const Trace t = s.trace(AppId::Shore, 0.5, 2000);
    const ReplayResult slow = replayFixed(t, 1.2 * kGHz, s.pm);
    const ReplayResult fast = replayFixed(t, 3.0 * kGHz, s.pm);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_LE(fast.latencies[i], slow.latencies[i] + 1e-12);
}

TEST(Replay, EnergyIncreasesWithFrequencyAtFixedWork)
{
    Harness s;
    const Trace t = s.trace(AppId::Masstree, 0.3, 1000);
    double prev = 0.0;
    for (double f : s.dvfs.frequencies()) {
        const double e = replayFixed(t, f, s.pm).coreActiveEnergy;
        EXPECT_GT(e, prev * 0.99); // monotone up to memory-time effects
        prev = e;
    }
}

TEST(Replay, PerRequestFrequencyVector)
{
    Harness s;
    Trace t;
    t.push_back({0.0, 2.4e6, 0.0});
    t.push_back({10.0, 2.4e6, 0.0});
    const ReplayResult r =
        replayFifo(t, {2.4 * kGHz, 1.2 * kGHz}, s.pm);
    EXPECT_NEAR(r.latencies[0], 1.0 * kMs, 1e-9);
    EXPECT_NEAR(r.latencies[1], 2.0 * kMs, 1e-9);
}

TEST(Replay, RequestEnergyUsesStallFactor)
{
    Harness s;
    TraceRecord compute{0.0, 2.4e6, 0.0};
    TraceRecord memory{0.0, 0.0, 1.0 * kMs};
    // Same 1 ms service time at nominal, but the memory-bound request
    // burns less energy.
    EXPECT_LT(requestEnergy(memory, 2.4 * kGHz, s.pm),
              requestEnergy(compute, 2.4 * kGHz, s.pm));
}

TEST(Replay, EnergyAtOneFrequencyIsRequestEnergy)
{
    // The oracles evaluate energies through RequestEnergyAt, one per
    // grid level. Every record of the five apps' sweep traces, at every
    // level, must give requestEnergy's bits.
    Harness s;
    Trace records;
    for (AppId app : allApps()) {
        for (double load : {0.3, 0.5, 0.7}) {
            const Trace t = s.trace(app, load, 20000, 42);
            records.insert(records.end(), t.begin(), t.end());
        }
    }
    records.push_back({0.0, 2.4e6, 0.0});     // no memory time
    records.push_back({0.0, 0.0, 1.0 * kMs}); // no compute
    records.push_back({0.0, 0.0, 0.0});       // no service at all
    records.push_back({0.0, 1.0, 1e-12});     // nearly nothing
    for (double f : s.dvfs.frequencies()) {
        const RequestEnergyAt energy(f, s.pm);
        for (const TraceRecord &r : records) {
            ASSERT_EQ(energy(r), requestEnergy(r, f, s.pm))
                << "f=" << f << " cycles=" << r.computeCycles
                << " memory=" << r.memoryTime;
        }
    }
}

TEST(Replay, TailBoundProbeMatchesReplay)
{
    Harness s;
    const Trace t = s.trace(AppId::Xapian, 0.6, 1000);
    // Mixed per-request frequencies, as AdrenalineOracle assigns them.
    std::vector<double> freqs(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        freqs[i] = i % 3 == 0 ? 2.8 * kGHz : 1.6 * kGHz;
    const ReplayResult r = replayFifo(t, freqs, s.pm);
    const double lmax =
        *std::max_element(r.latencies.begin(), r.latencies.end());
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
        const double tail = r.tailLatency(q);
        // The bound exactly at the latency on the budget boundary, one
        // ulp below it, a budget never reached (nothing or few over),
        // and a NaN bound (the quantile comparison fails).
        for (double bound :
             {tail, std::nextafter(tail, 0.0), lmax, 0.5 * (tail + lmax),
              std::numeric_limits<double>::infinity(),
              std::numeric_limits<double>::quiet_NaN()}) {
            EXPECT_EQ(meetsTailBound(t, freqs, q, bound),
                      r.tailLatency(q) <= bound)
                << "q=" << q << " bound=" << bound;
        }
        EXPECT_TRUE(meetsTailBound(t, freqs, q, tail)) << q;
        EXPECT_FALSE(meetsTailBound(t, freqs, q, std::nextafter(tail, 0.0)))
            << q;
    }

    // q = 1 leaves no budget: the first request over the bound fails the
    // probe on the spot.
    ASSERT_GT(r.latencies[0], 0.0);
    const double below_first = std::nextafter(r.latencies[0], 0.0);
    EXPECT_FALSE(meetsTailBound(t, freqs, 1.0, below_first));
    EXPECT_EQ(r.tailLatency(1.0) <= below_first, false);

    // An empty trace has tail 0.
    EXPECT_TRUE(meetsTailBound({}, {}, 0.95, 0.0));
    EXPECT_FALSE(meetsTailBound({}, {}, 0.95, -1.0));
}

TEST(StaticOracle, PicksLowestFeasibleFrequency)
{
    Harness s;
    const Trace t = s.trace(AppId::Masstree, 0.3, 4000);
    const double bound = s.bound(t);
    const auto result = staticOracle(t, bound, 0.95, s.dvfs, s.pm);
    ASSERT_TRUE(result.feasible);
    // The chosen frequency meets the bound...
    EXPECT_LE(result.replay.tailLatency(0.95), bound);
    // ...and the next lower one does not.
    const std::size_t idx = s.dvfs.indexOf(result.frequency);
    if (idx > 0) {
        const auto lower =
            replayFixed(t, s.dvfs.frequencies()[idx - 1], s.pm);
        EXPECT_GT(lower.tailLatency(0.95), bound);
    }

    // The counting probe picks exactly what sorted replays pick.
    int lowest = 0, infeasible = 0;
    for (const OracleCase &c : oracleCases(s, 2000)) {
        SCOPED_TRACE(c.name);
        const auto got = staticOracle(c.trace, c.bound, 0.95, s.dvfs, s.pm);
        const auto want =
            reference::staticOracle(c.trace, c.bound, 0.95, s.dvfs, s.pm);
        EXPECT_EQ(got.frequency, want.frequency);
        EXPECT_EQ(got.feasible, want.feasible);
        expectSameReplay(got.replay, want.replay);
        lowest += want.frequency == s.dvfs.frequencies().front();
        infeasible += !want.feasible;
    }
    // The cases reach both ends of the grid.
    EXPECT_GT(lowest, 0);
    EXPECT_GT(infeasible, 0);
}

TEST(StaticOracle, FrequencyRisesWithLoad)
{
    Harness s;
    double prev = 0.0;
    // Same bound for all loads: fixed-frequency tail at 50% load.
    const Trace t50 = s.trace(AppId::Masstree, 0.5, 4000);
    const double bound = s.bound(t50);
    for (double load : {0.3, 0.5, 0.7}) {
        const Trace t = s.trace(AppId::Masstree, load, 4000);
        const auto r = staticOracle(t, bound, 0.95, s.dvfs, s.pm);
        EXPECT_GE(r.frequency, prev);
        prev = r.frequency;
    }
}

TEST(StaticOracle, InfeasibleFallsBackToMax)
{
    Harness s;
    const Trace t = s.trace(AppId::Masstree, 0.9, 3000);
    // Impossible bound.
    const auto r = staticOracle(t, 1e-6, 0.95, s.dvfs, s.pm);
    EXPECT_FALSE(r.feasible);
    EXPECT_DOUBLE_EQ(r.frequency, s.dvfs.maxFrequency());
}

TEST(AdrenalineOracle, MeetsBoundAndBeatsNothing)
{
    Harness s;
    const Trace t = s.trace(AppId::Shore, 0.4, 4000);
    const double bound = s.bound(t);
    const auto adr =
        adrenalineOracle(t, bound, s.dvfs, s.pm, s.dvfs.nominalFrequency());
    ASSERT_TRUE(adr.feasible);
    EXPECT_LE(adr.replay.tailLatency(0.95), bound);
    EXPECT_LE(adr.baseFrequency, adr.boostFrequency);
}

TEST(AdrenalineOracle, AtMostStaticOracleEnergy)
{
    // Adrenaline with threshold above all requests degenerates to a
    // static frequency, so its tuned energy can't exceed StaticOracle's.
    Harness s;
    for (AppId app : {AppId::Masstree, AppId::Xapian}) {
        const Trace t = s.trace(app, 0.4, 3000);
        const double bound = s.bound(t);
        const auto st = staticOracle(t, bound, 0.95, s.dvfs, s.pm);
        const auto adr = adrenalineOracle(t, bound, s.dvfs, s.pm,
                                          s.dvfs.nominalFrequency());
        ASSERT_TRUE(adr.feasible);
        EXPECT_LE(adr.replay.coreActiveEnergy,
                  st.replay.coreActiveEnergy * 1.001);
    }
}

TEST(AdrenalineOracle, MatchesReplaySearch)
{
    Harness s;
    int feasible = 0, infeasible = 0;
    for (const OracleCase &c : oracleCases(s, 2000)) {
        SCOPED_TRACE(c.name);
        const double nominal = s.dvfs.nominalFrequency();
        const auto got = adrenalineOracle(c.trace, c.bound, s.dvfs, s.pm,
                                          nominal);
        const auto want = reference::adrenalineOracle(c.trace, c.bound,
                                                      s.dvfs, s.pm, nominal);
        EXPECT_EQ(got.threshold, want.threshold);
        EXPECT_EQ(got.baseFrequency, want.baseFrequency);
        EXPECT_EQ(got.boostFrequency, want.boostFrequency);
        EXPECT_EQ(got.feasible, want.feasible);
        expectSameReplay(got.replay, want.replay);
        (want.feasible ? feasible : infeasible) += 1;
    }
    // The cases reach both the search and the fallback.
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);
}

TEST(AdrenalineOracle, MatchesReplaySearchInAnyThresholdOrder)
{
    // Each boost's search starts at the previous threshold's answer
    // only while the thresholds do not decrease; a shuffled list must
    // restart it, and a repeated quantile must find the same answer.
    Harness s;
    AdrenalineConfig shuffled;
    shuffled.thresholdQuantiles = {0.9, 0.5, 0.99, 0.7, 0.95, 0.6, 0.8};
    AdrenalineConfig repeated;
    repeated.thresholdQuantiles = {0.5, 0.7, 0.7, 0.9, 0.6, 0.6, 0.95};
    const double nominal = s.dvfs.nominalFrequency();
    for (const AdrenalineConfig &config : {shuffled, repeated}) {
        for (const OracleCase &c : oracleCases(s, 2000)) {
            SCOPED_TRACE(c.name);
            const auto got = adrenalineOracle(c.trace, c.bound, s.dvfs,
                                              s.pm, nominal, config);
            const auto want = reference::adrenalineOracle(
                c.trace, c.bound, s.dvfs, s.pm, nominal, config);
            EXPECT_EQ(got.threshold, want.threshold);
            EXPECT_EQ(got.baseFrequency, want.baseFrequency);
            EXPECT_EQ(got.boostFrequency, want.boostFrequency);
            EXPECT_EQ(got.feasible, want.feasible);
            expectSameReplay(got.replay, want.replay);
        }
    }
}

TEST(DynamicOracle, MatchesReplaySearch)
{
    Harness s;
    for (const OracleCase &c : oracleCases(s, 2000)) {
        SCOPED_TRACE(c.name);
        const auto got = dynamicOracle(c.trace, c.bound, 0.95, s.dvfs, s.pm);
        const auto want = reference::dynamicOracle(c.trace, c.bound, 0.95,
                                                   s.dvfs, s.pm);
        EXPECT_EQ(got.frequencies, want.frequencies);
        expectSameReplay(got.replay, want.replay);
    }
}

TEST(DynamicOracle, RespectsViolationBudget)
{
    Harness s;
    const Trace t = s.trace(AppId::Masstree, 0.5, 4000);
    const double bound = s.bound(t);
    const auto dyn = dynamicOracle(t, bound, 0.95, s.dvfs, s.pm);
    int violations = 0;
    for (double l : dyn.replay.latencies)
        violations += l > bound;
    EXPECT_LE(violations, static_cast<int>(0.05 * t.size()) + 1);
}

TEST(DynamicOracle, SpendsTheNearestRankBudget)
{
    // The oracle used to allow floor((1 - q) * n) violations. At
    // q = 0.95 that is the nearest-rank budget for every n up to
    // 200 000, so no 0.95 result moves...
    for (std::size_t n = 1; n <= 200000; ++n) {
        ASSERT_EQ(static_cast<std::size_t>(
                      std::floor((1.0 - 0.95) * static_cast<double>(n))),
                  n - 1 - nearestRankIndex(n, 0.95))
            << n;
    }
    // ...but at q = 0.9 it is one lower whenever 10 divides n.
    EXPECT_EQ(std::floor((1.0 - 0.9) * 10.0), 0.0);
    EXPECT_EQ(10 - 1 - nearestRankIndex(10, 0.9), 1u);

    // Ten identical requests, each alone in the system. The bound lies
    // between the latency at the top frequency and one level below, so
    // every step down is a violation, and the 0.9 quantile of ten
    // latencies allows one. Equal savings step the larger index first.
    Harness s;
    const auto &grid = s.dvfs.frequencies();
    Trace t;
    for (int i = 0; i < 10; ++i)
        t.push_back({i * 1.0, 2.4e6, 0.1 * kMs});
    const double bound = 0.5 * (t[0].serviceTime(grid.back()) +
                                t[0].serviceTime(grid[grid.size() - 2]));
    const auto dyn = dynamicOracle(t, bound, 0.9, s.dvfs, s.pm);
    for (std::size_t i = 0; i + 1 < t.size(); ++i)
        EXPECT_EQ(dyn.frequencies[i], grid.back()) << i;
    EXPECT_EQ(dyn.frequencies.back(), grid.front());
    EXPECT_LE(dyn.replay.tailLatency(0.9), bound);

    for (const OracleCase &c : oracleCases(s, 2000)) {
        SCOPED_TRACE(c.name);
        const auto got = dynamicOracle(c.trace, c.bound, 0.9, s.dvfs, s.pm);
        const auto want = reference::dynamicOracle(c.trace, c.bound, 0.9,
                                                   s.dvfs, s.pm);
        EXPECT_EQ(got.frequencies, want.frequencies);
        expectSameReplay(got.replay, want.replay);
    }
}

TEST(DynamicOracle, BeatsStaticOracleEnergy)
{
    // Short-term adaptation with oracle knowledge must save energy over
    // the best static choice (Fig. 9b shows 20-45% at 50% load).
    Harness s;
    for (AppId app : {AppId::Masstree, AppId::Shore}) {
        const Trace t = s.trace(app, 0.5, 4000);
        const double bound = s.bound(t);
        const auto st = staticOracle(t, bound, 0.95, s.dvfs, s.pm);
        const auto dyn = dynamicOracle(t, bound, 0.95, s.dvfs, s.pm);
        EXPECT_LT(dyn.replay.coreActiveEnergy,
                  st.replay.coreActiveEnergy);
    }
}

TEST(DynamicOracle, UsesGridFrequenciesOnly)
{
    Harness s;
    const Trace t = s.trace(AppId::Specjbb, 0.4, 2000);
    const auto dyn = dynamicOracle(t, s.bound(t), 0.95, s.dvfs, s.pm);
    for (double f : dyn.frequencies) {
        const double snapped =
            s.dvfs.frequencies()[s.dvfs.indexOf(f)];
        EXPECT_NEAR(f, snapped, 1.0);
    }
}

TEST(DynamicOracle, TinyLoadUsesLowFrequencies)
{
    Harness s;
    const Trace t = s.trace(AppId::Moses, 0.1, 300);
    // Generous bound: everything can run slow.
    const double bound = s.bound(t) * 3.0;
    const auto dyn = dynamicOracle(t, bound, 0.95, s.dvfs, s.pm);
    double mean_f = 0.0;
    for (double f : dyn.frequencies)
        mean_f += f;
    mean_f /= static_cast<double>(dyn.frequencies.size());
    EXPECT_LT(mean_f, 1.6 * kGHz);
}

/// A deterministic hash of (seed, request, step), so both loops below
/// draw the same next saving whatever order they visit requests in.
uint64_t
scriptHash(uint64_t seed, std::size_t request, int step)
{
    Rng rng(seed ^ (static_cast<uint64_t>(request) << 20) ^
            static_cast<uint64_t>(step));
    return rng.next();
}

/// A saving `ulps` representable doubles above a positive `s`.
double
ulpsAbove(double s, int64_t ulps)
{
    return std::bit_cast<double>(std::bit_cast<uint64_t>(s) + ulps);
}

/**
 * Drive a SavingsQueue over [lo, hi] as dynamicOracle does: pop a
 * request, step it, and push its next saving only when it is below the
 * popped one; a next saving at or above it is taken at once, however
 * many steps follow. The same script through std::priority_queue,
 * which pushes every next saving, must visit the same (saving,
 * request) sequence. `initial(i)` is request i's first saving and
 * `next(i, step, s)` the saving after s; one that is not positive ends
 * the request.
 */
template <typename Initial, typename Next>
void
expectPopsLikePriorityQueue(std::size_t n, double lo, double hi,
                            Initial initial, Next next)
{
    using Item = std::pair<double, std::size_t>;
    std::vector<Item> want;
    {
        std::priority_queue<Item> heap;
        std::vector<int> steps(n, 0);
        for (std::size_t i = 0; i < n; ++i)
            heap.push({initial(i), i});
        while (!heap.empty()) {
            const auto [saving, i] = heap.top();
            heap.pop();
            want.push_back({saving, i});
            const double s = next(i, steps[i]++, saving);
            if (s > 0.0)
                heap.push({s, i});
        }
    }
    std::vector<Item> got;
    {
        SavingsQueue queue(n, lo, hi);
        std::vector<int> steps(n, 0);
        for (std::size_t i = 0; i < n; ++i)
            queue.push(initial(i), i);
        while (!queue.empty()) {
            const auto [popped, i] = queue.pop();
            for (double saving = popped;;) {
                got.push_back({saving, i});
                const double s = next(i, steps[i]++, saving);
                if (!(s > 0.0))
                    break;
                if (s < popped) {
                    queue.push(s, i);
                    break;
                }
                saving = s;
            }
        }
    }
    ASSERT_EQ(got, want);
}

TEST(SavingsQueue, PopsLikePriorityQueueInTheGreedyLoop)
{
    // Savings on a coarse grid give many ties; some requests start at
    // extreme magnitudes. The range is the initial savings', so later
    // savings below it share the clamped bottom bucket.
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        const std::size_t n = seed < 4 ? seed : 400 * seed;
        auto initial = [&](std::size_t i) {
            const uint64_t h = scriptHash(seed, i, -1);
            if (h % 8 == 0) { // anywhere from subnormal to overflow
                const double mantissa =
                    static_cast<double>(1 + (h >> 12) % 1000);
                const int exponent =
                    -1074 + static_cast<int>((h >> 40) % 2090);
                return std::ldexp(mantissa, exponent);
            }
            if (h % 8 == 1)
                return std::numeric_limits<double>::infinity();
            return static_cast<double>(1 + (h >> 8) % 512) / 64.0;
        };
        // Up to 13 steps per request, like the grid's levels: the next
        // saving is equal, larger, smaller on the grid, or none.
        auto next = [&](std::size_t i, int step, double s) {
            if (step >= 13)
                return 0.0;
            const uint64_t h = scriptHash(seed, i, step);
            const double k = static_cast<double>((h >> 8) % 64);
            if (h % 6 == 0)
                return s;
            if (h % 6 == 1)
                return s + (1.0 + k) / 64.0;
            if (h % 6 == 2)
                return 0.0;
            return std::floor(s * k) / 64.0;
        };
        double lo = std::numeric_limits<double>::infinity();
        double hi = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            lo = std::min(lo, initial(i));
            hi = std::max(hi, initial(i));
        }
        expectPopsLikePriorityQueue(n, lo, hi, initial, next);
    }
}

TEST(SavingsQueue, PlacesPushesIntoTheRunBeingServed)
{
    // Savings a few ulps apart, in buckets 2^37 ulps wide: most next
    // savings land in the bucket being served, among entries above and
    // below them that are not served yet.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        const std::size_t n = 300;
        auto initial = [&](std::size_t i) {
            const uint64_t h = scriptHash(seed, i, -1);
            return ulpsAbove(1.5, static_cast<int64_t>(h % 256));
        };
        auto next = [&](std::size_t i, int step, double s) {
            if (step >= 40)
                return 0.0;
            const uint64_t h = scriptHash(seed, i, step);
            if (h % 5 == 0)
                return s;
            return ulpsAbove(s, -static_cast<int64_t>(1 + h % 64));
        };
        expectPopsLikePriorityQueue(n, 1.0, 2.0, initial, next);
    }
}

TEST(SavingsQueue, BreaksTiesAmongHundredsInOneBucket)
{
    // 500 requests share each of four savings, so each bucket that
    // holds any holds hundreds of equal keys, served larger request
    // first.
    const std::size_t n = 500;
    auto initial = [](std::size_t) { return 1.0; };
    auto next = [](std::size_t i, int step, double s) {
        if (step >= 3 || i % 7 == 0)
            return 0.0;
        return s / 2.0;
    };
    expectPopsLikePriorityQueue(n, 0.125, 1.0, initial, next);
}

TEST(SavingsQueue, ServesARangeOfOneSaving)
{
    // lo == hi: one-ulp buckets from lo up, with every saving below lo
    // in bucket 0 and every one far above it in the top bucket.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        const std::size_t n = 1000;
        auto initial = [&](std::size_t i) {
            const uint64_t h = scriptHash(seed, i, -1);
            if (h % 4 == 0) // within the one-ulp buckets
                return ulpsAbove(1.0, static_cast<int64_t>(h % 70000));
            return static_cast<double>(1 + (h >> 8) % 512) / 64.0;
        };
        auto next = [&](std::size_t i, int step, double s) {
            if (step >= 13)
                return 0.0;
            const uint64_t h = scriptHash(seed, i, step);
            if (h % 4 == 0)
                return s;
            if (h % 4 == 1)
                return ulpsAbove(s, -static_cast<int64_t>(1 + h % 1000));
            const double k = static_cast<double>((h >> 8) % 64);
            return std::floor(s * k) / 64.0;
        };
        expectPopsLikePriorityQueue(n, 1.0, 1.0, initial, next);
    }
}

TEST(SavingsQueueDeathTest, RejectsAPushAboveTheLastPop)
{
    SavingsQueue queue(2, 1.0, 2.0);
    queue.push(1.5, 0);
    queue.push(1.25, 1);
    EXPECT_EQ(queue.pop(), std::make_pair(1.5, std::size_t{0}));
    EXPECT_DEATH(queue.push(1.75, 0), "above the last pop");
}

TEST(Pegasus, ReactsToSustainedHighTail)
{
    Harness s;
    PegasusConfig cfg;
    cfg.latencyBound = 0.5 * kMs;
    PegasusPolicy pegasus(s.dvfs, cfg);

    // Run at 60% load with a tight bound: Pegasus should end up at a
    // high frequency.
    const Trace t = s.trace(AppId::Masstree, 0.6, 20000);
    const SimResult r = simulate(t, pegasus, s.dvfs, s.pm);
    EXPECT_GT(r.core.freqResidency[s.dvfs.indexOf(s.dvfs.maxFrequency())] +
                  r.core.freqResidency[s.dvfs.indexOf(3.2 * kGHz)],
              0.0);
}

TEST(Pegasus, SettlesLowUnderLooseBound)
{
    Harness s;
    PegasusConfig cfg;
    cfg.latencyBound = 50.0 * kMs; // enormously loose
    cfg.epoch = 0.2;               // adapt faster for the short test
    PegasusPolicy pegasus(s.dvfs, cfg);
    const Trace t = s.trace(AppId::Masstree, 0.2, 20000);
    const SimResult r = simulate(t, pegasus, s.dvfs, s.pm);
    // Most busy time should end up at the lowest frequencies.
    const double low = r.core.freqResidency[0] + r.core.freqResidency[1] +
                       r.core.freqResidency[2];
    EXPECT_GT(low, 0.5 * r.core.busyTime);
}

} // namespace
} // namespace rubik
