/**
 * @file
 * Fleet-layer tests: water-filling invariants (conservation, fairness,
 * floor, monotonicity, order-independence), the minimal-disruption
 * router, the correlated load model's determinism and surge shape, the
 * cap-to-frequency-ceiling translation, per-policy power-cap
 * enforcement, the PolicyRunRequest contract, the coordinator's
 * budget guarantee over whole fleet runs, and — when RUBIK_CLI points
 * at the built binary — the `fleet` subcommand and the one-shot
 * `--json` output.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "core/rubik_controller.h"
#include "fleet/coordinator.h"
#include "fleet/fleet_sim.h"
#include "fleet/load_model.h"
#include "fleet/water_fill.h"
#include "runner/sweep_runner.h"
#include "sim/simulation.h"
#include "util/units.h"
#include "workloads/apps.h"
#include "workloads/trace_gen.h"

namespace rubik {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Water-filling.

TEST(WaterFill, SlackBudgetGrantsEveryDemand)
{
    const std::vector<double> demands = {2.0, 3.0, 4.0};
    const WaterFillResult r = waterFill(demands, 20.0, 1.0);
    ASSERT_EQ(r.caps.size(), 3u);
    EXPECT_TRUE(r.feasible);
    for (std::size_t i = 0; i < demands.size(); ++i)
        EXPECT_DOUBLE_EQ(r.caps[i], demands[i]);
    EXPECT_DOUBLE_EQ(r.level, 4.0);
    EXPECT_EQ(r.numCapped(demands), 0u);
}

TEST(WaterFill, BindingBudgetConservesAndIsFair)
{
    const std::vector<double> demands = {1.0, 5.0, 9.0};
    const WaterFillResult r = waterFill(demands, 9.0, 1.0);
    ASSERT_EQ(r.caps.size(), 3u);
    EXPECT_TRUE(r.feasible);
    // Conservation: a binding budget is spent exactly.
    EXPECT_NEAR(r.total(), 9.0, 1e-12);
    // Fairness: both capped entries sit at the common water level.
    EXPECT_DOUBLE_EQ(r.caps[1], r.caps[2]);
    EXPECT_DOUBLE_EQ(r.caps[1], r.level);
    // The uncapped entry keeps its full demand.
    EXPECT_DOUBLE_EQ(r.caps[0], 1.0);
    EXPECT_EQ(r.numCapped(demands), 2u);
}

TEST(WaterFill, BudgetBelowFloorsIsInfeasible)
{
    const std::vector<double> demands = {5.0, 5.0};
    const WaterFillResult r = waterFill(demands, 1.5, 1.0);
    EXPECT_FALSE(r.feasible);
    ASSERT_EQ(r.caps.size(), 2u);
    EXPECT_DOUBLE_EQ(r.caps[0], 1.0);
    EXPECT_DOUBLE_EQ(r.caps[1], 1.0);
    EXPECT_DOUBLE_EQ(r.level, 1.0);
}

TEST(WaterFill, RaisingBudgetNeverLowersAnyCap)
{
    const std::vector<double> demands = {0.5, 2.0, 3.5, 7.0, 1.0};
    std::vector<double> prev(demands.size(), 0.0);
    for (double budget = 2.5; budget <= 16.0; budget += 0.5) {
        const WaterFillResult r = waterFill(demands, budget, 0.5);
        ASSERT_EQ(r.caps.size(), demands.size());
        double total = 0.0;
        for (std::size_t i = 0; i < demands.size(); ++i) {
            EXPECT_GE(r.caps[i], prev[i] - 1e-12)
                << "budget " << budget << " entry " << i;
            // No waste: never above max(floor, demand).
            EXPECT_LE(r.caps[i],
                      std::max(0.5, demands[i]) + 1e-12);
            // Floor: never below it.
            EXPECT_GE(r.caps[i], 0.5 - 1e-12);
            total += r.caps[i];
        }
        EXPECT_LE(total, budget + 1e-9);
        prev = r.caps;
    }
}

TEST(WaterFill, OrderIndependent)
{
    const std::vector<double> fwd = {1.0, 6.0, 3.0, 8.0};
    std::vector<double> rev = fwd;
    std::reverse(rev.begin(), rev.end());
    const WaterFillResult a = waterFill(fwd, 10.0, 0.5);
    const WaterFillResult b = waterFill(rev, 10.0, 0.5);
    ASSERT_EQ(a.caps.size(), b.caps.size());
    for (std::size_t i = 0; i < fwd.size(); ++i)
        EXPECT_DOUBLE_EQ(a.caps[i], b.caps[fwd.size() - 1 - i]);
    EXPECT_DOUBLE_EQ(a.level, b.level);
}

TEST(WaterFill, NegativeDemandTreatedAsZero)
{
    const WaterFillResult r = waterFill({-3.0, 2.0}, 10.0, 0.5);
    ASSERT_EQ(r.caps.size(), 2u);
    EXPECT_DOUBLE_EQ(r.caps[0], 0.5); // floor, not -3
    EXPECT_DOUBLE_EQ(r.caps[1], 2.0);
}

// ---------------------------------------------------------------------
// Request routing.

TEST(RouteLoad, KeepsOwnDemandWhenEverythingFits)
{
    const RouteResult r = routeLoad({0.3, 0.5, 0.7}, 0.9);
    EXPECT_DOUBLE_EQ(r.shed, 0.0);
    EXPECT_DOUBLE_EQ(r.load[0], 0.3);
    EXPECT_DOUBLE_EQ(r.load[1], 0.5);
    EXPECT_DOUBLE_EQ(r.load[2], 0.7);
}

TEST(RouteLoad, SpillsOverflowToLeastLoadedMachines)
{
    const RouteResult r = routeLoad({1.2, 0.2, 0.4}, 0.9);
    EXPECT_DOUBLE_EQ(r.shed, 0.0);
    // The overloaded machine saturates; its 0.3 overflow raises the
    // two least-loaded machines to a common level of 0.45.
    EXPECT_DOUBLE_EQ(r.load[0], 0.9);
    EXPECT_DOUBLE_EQ(r.load[1], 0.45);
    EXPECT_DOUBLE_EQ(r.load[2], 0.45);
    // Conservation: total assigned == total demand.
    const double total =
        std::accumulate(r.load.begin(), r.load.end(), 0.0);
    EXPECT_NEAR(total, 1.8, 1e-12);
}

TEST(RouteLoad, ShedsWhatFitsNowhere)
{
    const RouteResult r = routeLoad({1.0, 1.0}, 0.9);
    EXPECT_DOUBLE_EQ(r.load[0], 0.9);
    EXPECT_DOUBLE_EQ(r.load[1], 0.9);
    EXPECT_NEAR(r.shed, 0.2, 1e-12);
}

// ---------------------------------------------------------------------
// Correlated load model.

TEST(LoadModel, DeterministicAndOrderFree)
{
    LoadModelConfig cfg;
    cfg.seed = 7;
    const CorrelatedLoadModel model(cfg, 12);
    // Same epoch twice: identical. Later epoch first: still identical
    // (cells are seeded, not streamed).
    const std::vector<double> late = model.epochDemand(5);
    const std::vector<double> early = model.epochDemand(1);
    EXPECT_EQ(model.epochDemand(1), early);
    EXPECT_EQ(model.epochDemand(5), late);
}

TEST(LoadModel, SurgeHitsThePrefixDuringTheWindow)
{
    LoadModelConfig cfg;
    cfg.surgeFactor = 2.0;
    cfg.surgeFraction = 0.5;
    cfg.surgeStartEpoch = 2;
    cfg.surgeEndEpoch = 4;
    const CorrelatedLoadModel model(cfg, 20);
    ASSERT_EQ(model.numSurged(), 10);
    EXPECT_FALSE(model.inSurge(1));
    EXPECT_TRUE(model.inSurge(2));
    EXPECT_TRUE(model.inSurge(3));
    EXPECT_FALSE(model.inSurge(4));

    const std::vector<double> surge = model.epochDemand(3);
    double surged = 0.0, calm = 0.0;
    for (int m = 0; m < 10; ++m)
        surged += surge[m];
    for (int m = 10; m < 20; ++m)
        calm += surge[m];
    // The surged prefix runs well above the rest of the fleet.
    EXPECT_GT(surged / 10.0, 1.5 * (calm / 10.0));
}

// ---------------------------------------------------------------------
// Cap-to-ceiling translation and per-policy enforcement.

TEST(PowerCap, CeilingTranslationIsConservative)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel power(dvfs);
    // Uncapped and absurdly-large caps give the grid max.
    EXPECT_DOUBLE_EQ(capFrequencyCeiling(power, 0.0),
                     dvfs.maxFrequency());
    EXPECT_DOUBLE_EQ(capFrequencyCeiling(power, 1e6),
                     dvfs.maxFrequency());
    // A cap below the min-frequency power still returns the grid min.
    EXPECT_DOUBLE_EQ(capFrequencyCeiling(power, 1e-3),
                     dvfs.minFrequency());
    // Every grid point's worst-case power fits under its own cap.
    for (const double f : dvfs.frequencies()) {
        const double ceiling =
            capFrequencyCeiling(power, power.coreActivePower(f, 0.0));
        EXPECT_GE(ceiling, f);
        EXPECT_LE(power.coreActivePower(ceiling, 0.0),
                  power.coreActivePower(f, 0.0) + 1e-9);
    }
}

TEST(PowerCap, PolicyDefaultsToUncapped)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    RubikConfig cfg;
    cfg.latencyBound = 1e-3;
    RubikController policy(dvfs, cfg);
    EXPECT_DOUBLE_EQ(policy.powerCap(), 0.0);
    policy.setPowerCap(-5.0); // Non-positive means uncapped.
    EXPECT_DOUBLE_EQ(policy.powerCap(), 0.0);
    policy.setPowerCap(3.0);
    EXPECT_DOUBLE_EQ(policy.powerCap(), 3.0);
}

TEST(PowerCap, RubikNeverRunsAboveTheCeiling)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel power(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    Trace trace = generateLoadTrace(app, 0.6, 2000,
                                    dvfs.nominalFrequency(), 11);
    annotateClasses(trace, 0.85, dvfs.nominalFrequency());

    const double cap = 3.0; // Watts; well below the max-freq power.
    const double ceiling = capFrequencyCeiling(power, cap);
    ASSERT_LT(ceiling, dvfs.maxFrequency());

    RubikConfig cfg;
    cfg.latencyBound = 1e-3;
    RubikController policy(dvfs, cfg);
    policy.setPowerCap(cap);
    const SimResult r = simulate(trace, policy, dvfs, power);

    // No busy time above the ceiling beyond the startup transient:
    // the core boots at nominal and spends exactly one transition
    // latency leaving it; every later decision is clamped.
    const std::size_t limit = dvfs.indexOf(ceiling);
    double above = 0.0;
    for (std::size_t i = limit + 1; i < r.core.freqResidency.size();
         ++i)
        above += r.core.freqResidency[i];
    EXPECT_LE(above, dvfs.transitionLatency() + 1e-12);
    EXPECT_LE(r.meanActiveCorePower(), cap + 1e-9);
}

// ---------------------------------------------------------------------
// The PolicyRunRequest contract.

struct RunPolicyFixture : ::testing::Test
{
    DvfsModel dvfs = DvfsModel::haswell();
    PowerModel power{dvfs};
    Trace trace;

    void SetUp() override
    {
        const AppProfile app = makeApp(AppId::Masstree);
        trace = generateLoadTrace(app, 0.4, 800,
                                  dvfs.nominalFrequency(), 5);
        annotateClasses(trace, 0.85, dvfs.nominalFrequency());
    }

    PolicyRunRequest request()
    {
        PolicyRunRequest req;
        req.trace = &trace;
        req.bound = 1e-3;
        req.dvfs = &dvfs;
        req.power = &power;
        return req;
    }
};

TEST_F(RunPolicyFixture, MissingRequiredFieldsThrow)
{
    PolicyRunRequest req = request();
    req.trace = nullptr;
    EXPECT_THROW(runPolicy("rubik", req), std::runtime_error);
    req = request();
    req.dvfs = nullptr;
    EXPECT_THROW(runPolicy("rubik", req), std::runtime_error);
    req = request();
    req.power = nullptr;
    EXPECT_THROW(runPolicy("rubik", req), std::runtime_error);
    EXPECT_THROW(runPolicy("no-such-policy", request()),
                 std::runtime_error);
}

TEST_F(RunPolicyFixture, OfflineOraclesRejectPowerCaps)
{
    for (const char *policy : {"static", "dynamic", "adrenaline"}) {
        PolicyRunRequest req = request();
        req.powerCapWatts = 5.0;
        EXPECT_THROW(runPolicy(policy, req), std::runtime_error)
            << policy;
        // Uncapped, the same policies run fine.
        EXPECT_GT(runPolicy(policy, request()).tailLatency, 0.0)
            << policy;
    }
}

TEST_F(RunPolicyFixture, CollectLatenciesIsOptIn)
{
    PolicyRunRequest req = request();
    const PolicyOutcome without = runPolicy("rubik", req);
    EXPECT_TRUE(without.latencies.empty());
    req.collectLatencies = true;
    const PolicyOutcome with = runPolicy("rubik", req);
    EXPECT_EQ(with.latencies.size(), trace.size());
    // The same run, so the summary numbers agree exactly.
    EXPECT_DOUBLE_EQ(with.tailLatency, without.tailLatency);
    EXPECT_DOUBLE_EQ(with.energyPerRequest, without.energyPerRequest);
}

TEST_F(RunPolicyFixture, CappedFixedReplaysAtTheCeiling)
{
    PolicyRunRequest req = request();
    req.powerCapWatts = 3.0;
    const double ceiling = capFrequencyCeiling(power, 3.0);
    ASSERT_LT(ceiling, dvfs.nominalFrequency());
    const PolicyOutcome out = runPolicy("fixed", req);
    EXPECT_DOUBLE_EQ(out.meanFrequency, ceiling);
    EXPECT_LE(out.meanPower, 3.0 + 1e-9);
    // The savings baseline stays the uncapped nominal replay.
    const PolicyOutcome uncapped = runPolicy("fixed", request());
    EXPECT_DOUBLE_EQ(out.fixedEnergyPerRequest,
                     uncapped.fixedEnergyPerRequest);
}

// ---------------------------------------------------------------------
// Coordinator and whole fleet runs.

TEST(Coordinator, EqualLoadsGetEqualCaps)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel power(dvfs);
    const int n = 6;
    const double demand_at_07 = PowerCoordinator(power, 1.0e9)
                                    .demandPower(0.7);
    // A budget that binds: below the sum of six 0.7-load demands.
    PowerCoordinator coord(power, 0.8 * n * demand_at_07);
    const WaterFillResult wf =
        coord.assignCaps({0.7, 0.7, 0.7, 0.2, 0.7, 0.7});
    ASSERT_TRUE(wf.feasible);
    for (const int i : {1, 2, 4, 5})
        EXPECT_DOUBLE_EQ(wf.caps[0], wf.caps[i]);
    EXPECT_LE(wf.total(), coord.budget() + 1e-9);
    // Demand prediction is monotone in load.
    EXPECT_LT(coord.demandPower(0.2), coord.demandPower(0.7));
    EXPECT_GE(coord.demandPower(0.0), coord.floorPower());
}

FleetConfig
smallFleet()
{
    FleetConfig cfg;
    cfg.machines = 8;
    cfg.epochs = 4;
    cfg.requestsPerEpoch = 300;
    return cfg;
}

TEST(Fleet, AggregatePowerStaysWithinBudgetEveryEpoch)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel power(dvfs);
    FleetConfig cfg = smallFleet();
    const double nominal_w =
        power.coreActivePower(dvfs.nominalFrequency(), 0.0);
    cfg.budgetWatts = 0.6 * cfg.totalCores() * nominal_w;

    const FleetResult r = runFleet(cfg, 1);
    EXPECT_TRUE(r.feasible);
    ASSERT_EQ(r.epochs.size(), 4u);
    for (const FleetEpochResult &er : r.epochs) {
        EXPECT_TRUE(er.feasible);
        EXPECT_LE(er.capPower, cfg.budgetWatts + 1e-6)
            << "epoch " << er.epoch;
        EXPECT_LE(er.meanPower, cfg.budgetWatts + 1e-6)
            << "epoch " << er.epoch;
        EXPECT_GT(er.tailLatency, 0.0);
        EXPECT_GT(er.energyPerRequest, 0.0);
    }
    EXPECT_LE(r.peakPower, cfg.budgetWatts + 1e-6);
}

TEST(Fleet, CappingReducesPowerVersusUncapped)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel power(dvfs);
    FleetConfig capped = smallFleet();
    const double nominal_w =
        power.coreActivePower(dvfs.nominalFrequency(), 0.0);
    capped.budgetWatts = 0.5 * capped.totalCores() * nominal_w;
    FleetConfig uncapped = smallFleet();

    const FleetResult rc = runFleet(capped, 1);
    const FleetResult ru = runFleet(uncapped, 1);
    EXPECT_LT(rc.peakPower, ru.peakPower);
    // A tight budget trades tail latency for power.
    EXPECT_GE(rc.worstTail, ru.worstTail);
    EXPECT_DOUBLE_EQ(ru.budgetWatts, 0.0);
}

TEST(Fleet, DeterministicAcrossWorkerCounts)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel power(dvfs);
    FleetConfig cfg = smallFleet();
    cfg.budgetWatts = 0.7 * cfg.totalCores() *
                      power.coreActivePower(dvfs.nominalFrequency(),
                                            0.0);
    const FleetResult serial = runFleet(cfg, 1);
    const FleetResult parallel = runFleet(cfg, 4);
    ASSERT_EQ(serial.epochs.size(), parallel.epochs.size());
    for (std::size_t e = 0; e < serial.epochs.size(); ++e) {
        EXPECT_DOUBLE_EQ(serial.epochs[e].tailLatency,
                         parallel.epochs[e].tailLatency);
        EXPECT_DOUBLE_EQ(serial.epochs[e].energyPerRequest,
                         parallel.epochs[e].energyPerRequest);
        EXPECT_DOUBLE_EQ(serial.epochs[e].meanPower,
                         parallel.epochs[e].meanPower);
        EXPECT_DOUBLE_EQ(serial.epochs[e].capPower,
                         parallel.epochs[e].capPower);
    }
    EXPECT_DOUBLE_EQ(serial.bound, parallel.bound);
    EXPECT_EQ(serial.groupsSimulated, parallel.groupsSimulated);
}

TEST(Fleet, StarvationBudgetIsFlaggedInfeasible)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel power(dvfs);
    FleetConfig cfg = smallFleet();
    const double floor_w =
        power.coreActivePower(dvfs.minFrequency(), 0.0);
    cfg.budgetWatts = 0.5 * cfg.totalCores() * floor_w;
    const FleetResult r = runFleet(cfg, 1);
    EXPECT_FALSE(r.feasible);
    for (const FleetEpochResult &er : r.epochs)
        EXPECT_FALSE(er.feasible);
}

TEST(Fleet, InvalidConfigsThrow)
{
    FleetConfig cfg;
    cfg.machines = 0;
    EXPECT_THROW(runFleet(cfg), std::runtime_error);
    cfg = FleetConfig();
    cfg.policy = "no-such-policy";
    EXPECT_THROW(runFleet(cfg), std::runtime_error);
    cfg = FleetConfig();
    cfg.app = "no-such-app";
    EXPECT_THROW(runFleet(cfg), std::runtime_error);
    cfg = FleetConfig();
    cfg.maxCoreLoad = 1.5;
    EXPECT_THROW(runFleet(cfg), std::runtime_error);
    cfg = FleetConfig();
    cfg.loadQuantum = 0.0;
    EXPECT_THROW(runFleet(cfg), std::runtime_error);
}

// ---------------------------------------------------------------------
// CLI regressions (need the built rubik_cli; skip otherwise).

int
runCommand(const std::string &cmd)
{
    const int rc = std::system(cmd.c_str());
    return rc == -1 ? -1 : WEXITSTATUS(rc);
}

std::string
cliPathOrSkip()
{
    const char *cli = std::getenv("RUBIK_CLI");
    if (!cli || !fs::exists(cli))
        return "";
    return cli;
}

std::string
readFile(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, got);
    std::fclose(f);
    return out;
}

struct TmpFile
{
    std::string path;
    explicit TmpFile(const std::string &name)
        : path("/tmp/rubik_fleet_test_" + name + "_" +
               std::to_string(::getpid()))
    {
    }
    ~TmpFile() { std::remove(path.c_str()); }
};

TEST(FleetCli, JsonOutputCarriesTheDocumentedKeys)
{
    const std::string cli = cliPathOrSkip();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    TmpFile out("fleet_json");
    ASSERT_EQ(runCommand("'" + cli +
                         "' fleet --cores 12 --budget-frac 0,0.6 "
                         "--epochs 2 --requests 120 --json > '" +
                         out.path + "'"),
              0);
    const std::string text = readFile(out.path);
    EXPECT_EQ(text.front(), '[');
    for (const char *key :
         {"\"app\"", "\"policy\"", "\"cores\"", "\"budget_frac\"",
          "\"budget_w\"", "\"bound_ms\"", "\"feasible\"",
          "\"worst_tail_ms\"", "\"tail_over_bound\"",
          "\"energy_mj_per_req\"", "\"peak_power_w\"",
          "\"peak_over_budget\"", "\"shed_frac\"", "\"capped_frac\"",
          "\"groups\""}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
    // Two cells -> two objects.
    EXPECT_NE(text.find("\"budget_frac\": 0.0000"), std::string::npos);
    EXPECT_NE(text.find("\"budget_frac\": 0.6000"), std::string::npos);
}

TEST(FleetCli, FlagContradictionsAreErrors)
{
    const std::string cli = cliPathOrSkip();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    // fleet has no --shard (static shard dispatch is gone); --csv and
    // --json exclude each other; --budget-watts and --budget-frac
    // exclude each other; a fleet size must be a multiple of the
    // machine width.
    EXPECT_EQ(runCommand("'" + cli +
                         "' fleet --cores 12 --shard 0/2 --json "
                         "2>/dev/null"),
              1);
    EXPECT_EQ(runCommand("'" + cli +
                         "' fleet --cores 12 --csv --json 2>/dev/null"),
              1);
    EXPECT_EQ(runCommand("'" + cli +
                         "' fleet --cores 12 --budget-watts 100 "
                         "--budget-frac 0.5 2>/dev/null"),
              1);
    EXPECT_EQ(runCommand("'" + cli +
                         "' fleet --cores 13 2>/dev/null"),
              1);
}

TEST(FleetCli, OneShotJsonMatchesTheCsvColumns)
{
    const std::string cli = cliPathOrSkip();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    TmpFile out("oneshot_json");
    ASSERT_EQ(runCommand("'" + cli +
                         "' --app masstree --load 0.3 --requests 400 "
                         "--policy rubik --json > '" +
                         out.path + "'"),
              0);
    const std::string text = readFile(out.path);
    EXPECT_EQ(text.front(), '[');
    for (const char *key :
         {"\"app\"", "\"policy\"", "\"load\"", "\"bound_ms\"",
          "\"tail_ms\"", "\"tail_over_bound\"",
          "\"energy_mj_per_req\"", "\"savings_vs_fixed\"",
          "\"mean_freq_ghz\"", "\"mean_power_w\"",
          "\"transitions\""}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(runCommand("'" + cli +
                         "' --app masstree --load 0.3 --csv --json "
                         "2>/dev/null"),
              1);
}

} // namespace
} // namespace rubik
