/**
 * @file
 * Tests for the baseline policies: analytic replay, StaticOracle
 * minimality, AdrenalineOracle tuning, DynamicOracle budgeting, and the
 * Pegasus feedback baseline.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include <gtest/gtest.h>

#include "policies/adrenaline.h"
#include "policies/dynamic_oracle.h"
#include "policies/pegasus.h"
#include "policies/replay.h"
#include "policies/static_oracle.h"
#include "sim/simulation.h"
#include "stats/percentile.h"
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
        maxViolations_ = static_cast<std::size_t>(std::floor(
            (1.0 - percentile) * static_cast<double>(trace_.size())));
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
