/**
 * @file
 * Tests for rubik::ExperimentRunner: parallel results must be
 * bit-identical to serial execution under fixed seeds, exceptions must
 * propagate in submission order, and >1 worker must actually overlap
 * work. Also the shared OptionsParser: registration hygiene, typed
 * numbers and counts, and the run flags (--seed/--requests/--jobs),
 * both in-process and, when RUBIK_CLI points at the built binary,
 * through the one-shot CLI and `trace gen`.
 */

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/rubik_controller.h"
#include "runner/experiment_runner.h"
#include "runner/options_parser.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workloads/trace_gen.h"

namespace rubik {
namespace {

// ------------------------------------------------------------------
// OptionsParser registration hygiene: a flag registered twice used to
// shadow silently (first registration won), hiding real CLI wiring
// bugs — e.g. a subcommand adding --bound-ms on top of addRunFlags.

TEST(OptionsParser, DuplicateFlagRegistrationThrows)
{
    char prog[] = "prog";
    char *argv[] = {prog};
    OptionsParser parser(1, argv);
    parser.flag("--verbose", [] {});
    EXPECT_THROW(parser.flag("--verbose", [] {}), std::logic_error);
    // A valued flag with the same name collides too: the token match
    // is name-based, not kind-based.
    EXPECT_THROW(parser.value("--verbose", [](const char *) {}),
                 std::logic_error);
}

TEST(OptionsParser, DuplicateValueRegistrationThrows)
{
    char prog[] = "prog";
    char *argv[] = {prog};
    OptionsParser parser(1, argv);
    parser.value("--seed", [](const char *) {});
    EXPECT_THROW(parser.value("--seed", [](const char *) {}),
                 std::logic_error);
    EXPECT_THROW(parser.flag("--seed", [] {}), std::logic_error);
    // The error names the flag, so the broken registration is
    // identifiable from the what() string alone.
    try {
        parser.value("--seed", [](const char *) {});
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("--seed"),
                  std::string::npos);
    }
}

TEST(OptionsParser, DistinctFlagsStillRegister)
{
    char prog[] = "prog";
    char a[] = "--csv";
    char *argv[] = {prog, a};
    bool csv = false;
    OptionsParser parser(2, argv);
    parser.flag("--csv", [&] { csv = true; });
    parser.value("--seed", [](const char *) {});
    parser.run();
    EXPECT_TRUE(csv);
}

// Typed numeric registrations: the whole token must be a finite number
// in range (atof read "2x" as 2 and "nan" as NaN).

TEST(OptionsParser, ParseNumberRejectsGarbageNonFiniteAndOutOfRange)
{
    const NumberRange positive = NumberRange::above(0.0);
    EXPECT_EQ(parseNumber("2", positive), 2.0);
    EXPECT_EQ(parseNumber("2.5e-1", positive), 0.25);
    for (const char *bad : {"", " 2", "2x", "2 ", "nan", "inf", "-inf",
                            "0", "-5", "abc", "1e999"})
        EXPECT_FALSE(parseNumber(bad, positive)) << "'" << bad << "'";

    const NumberRange unit = NumberRange::open(0.0, 1.0);
    EXPECT_EQ(parseNumber("0.95", unit), 0.95);
    for (const char *bad : {"0", "1", "1.5", "0.95x", "nan", "-0.1"})
        EXPECT_FALSE(parseNumber(bad, unit)) << bad;

    const NumberRange non_negative = NumberRange::atLeast(0.0);
    EXPECT_EQ(parseNumber("0", non_negative), 0.0);
    EXPECT_FALSE(parseNumber("-5", non_negative));

    EXPECT_EQ(positive.describe(), "> 0");
    EXPECT_EQ(non_negative.describe(), ">= 0");
    EXPECT_EQ(unit.describe(), "in (0, 1)");
}

TEST(OptionsParser, ParseCountRejectsSignsAndGarbage)
{
    EXPECT_EQ(parseCount("1", 1), 1u);
    EXPECT_EQ(parseCount("65536", 1), 65536u);
    for (const char *bad : {"", "0", "-1", "+3", "abc", "3x", "1e3", " 3",
                            "99999999999999999999999"})
        EXPECT_FALSE(parseCount(bad, 1)) << "'" << bad << "'";
}

TEST(OptionsParser, ParseCountHonorsTheUpperBound)
{
    EXPECT_EQ(parseCount("0", 0, INT_MAX), 0u);
    EXPECT_EQ(parseCount("2147483647", 1, INT_MAX), 2147483647u);
    EXPECT_FALSE(parseCount("2147483648", 1, INT_MAX));
    EXPECT_EQ(parseCount("18446744073709551615", 0),
              std::numeric_limits<uint64_t>::max());
    EXPECT_FALSE(parseCount("18446744073709551616", 0));
}

/// addRunFlags over `args` (each "FLAG VALUE" or "FLAG=VALUE").
CommonRunOptions
parseRunFlags(std::vector<std::string> args)
{
    std::vector<char *> argv;
    char prog[] = "prog";
    argv.push_back(prog);
    for (std::string &a : args)
        argv.push_back(a.data());
    CommonRunOptions run;
    OptionsParser parser(static_cast<int>(argv.size()), argv.data());
    addRunFlags(parser, &run);
    parser.run();
    return run;
}

TEST(OptionsParser, RunFlagsKeepWellFormedValues)
{
    // The values atoi/atoll read the same way before the flags were
    // typed, so goldens generated with them are unchanged.
    CommonRunOptions run = parseRunFlags(
        {"--seed", "42", "--requests", "2000", "--jobs", "0"});
    EXPECT_EQ(run.seed, 42u);
    EXPECT_EQ(run.requests, 2000);
    EXPECT_EQ(run.jobs, 0);

    run = parseRunFlags({"--seed=18446744073709551615",
                         "--requests=2147483647", "--jobs=007"});
    EXPECT_EQ(run.seed, std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(run.requests, INT_MAX);
    EXPECT_EQ(run.jobs, 7);

    // Unset flags keep the caller's defaults.
    run = parseRunFlags({});
    EXPECT_EQ(run.seed, 42u);
    EXPECT_EQ(run.requests, 0);
}

/// Run-flag values each entry point must refuse. --requests -5, 0 and
/// 3000000000 used to die in an assertion (SIGABRT); the rest ran with
/// a silently truncated or wrapped value.
const std::vector<std::pair<std::string, std::string>> kBadRunFlags = {
    {"--requests", "-5"},    {"--requests", "0"},
    {"--requests", "3000000000"},
    {"--requests", "2000x"}, {"--seed", "abc"},
    {"--seed", "-1"},        {"--seed", "18446744073709551616"},
    {"--jobs", "2x"},        {"--jobs", "-3"},
    {"--jobs", "2147483648"},
};

TEST(OptionsParserDeathTest, RunFlagsRejectBadValuesNamingTheFlag)
{
    for (const auto &[flag, value] : kBadRunFlags) {
        EXPECT_EXIT(parseRunFlags({flag, value}),
                    ::testing::ExitedWithCode(1),
                    flag + " wants an integer")
            << flag << " " << value;
    }
}

/// `--loads LIST` through a numberList registration over (0, 1.5).
std::vector<double>
parseLoads(std::string list)
{
    char prog[] = "prog";
    char flag[] = "--loads";
    char *argv[] = {prog, flag, list.data()};
    std::vector<double> loads;
    OptionsParser parser(3, argv);
    parser.numberList("--loads", &loads, NumberRange::open(0.0, 1.5));
    parser.run();
    return loads;
}

TEST(OptionsParserDeathTest, NumberListRejectsEveryBadItem)
{
    const std::string want = "--loads wants a comma list";
    for (const char *list : {"", "0.3,", ",0.3", "0.3,,0.5", "abc"}) {
        EXPECT_EXIT(parseLoads(list), ::testing::ExitedWithCode(1), want)
            << "'" << list << "'";
    }
    for (const char *list : {"0.3,0.5x", "0.3,1.5", "0.3, 0.5", "nan"}) {
        EXPECT_EXIT(parseLoads(list), ::testing::ExitedWithCode(1), want)
            << "'" << list << "'";
    }
}

/// `--cores LIST` through a countList registration over [1, 100].
std::vector<int>
parseCores(std::string list)
{
    char prog[] = "prog";
    char flag[] = "--cores";
    char *argv[] = {prog, flag, list.data()};
    std::vector<int> cores = {7};
    OptionsParser parser(3, argv);
    parser.countList("--cores", &cores, 1, 100);
    parser.run();
    return cores;
}

TEST(OptionsParser, CountListStoresEveryItem)
{
    EXPECT_EQ(parseCores("96"), (std::vector<int>{96}));
    EXPECT_EQ(parseCores("1,100,12"), (std::vector<int>{1, 100, 12}));
}

TEST(OptionsParserDeathTest, CountListRejectsEveryBadItem)
{
    const std::string want =
        "--cores wants a comma list of integers in \\[1, 100\\]";
    for (const char *list : {"", "96,", ",96", "96abc", "0", "101",
                             "-4", "9 6", "1.5"}) {
        EXPECT_EXIT(parseCores(list), ::testing::ExitedWithCode(1), want)
            << "'" << list << "'";
    }
}

TEST(OptionsParser, TypedFlagsStoreParsedValues)
{
    char prog[] = "prog";
    char a[] = "--bound-ms=0.5";
    char b[] = "--max-queue";
    char c[] = "12";
    char d[] = "--loads=0.3,0.5,1e-1";
    char e[] = "--load";
    char f[] = "0.25";
    char *argv[] = {prog, a, b, c, d, e, f};
    double bound = 0.0, load = 0.0;
    std::size_t queue = 0;
    std::vector<double> loads;
    OptionsParser parser(7, argv);
    parser.number("--bound-ms", &bound, NumberRange::above(0.0));
    parser.count("--max-queue", &queue, 1);
    parser.numberList("--loads", &loads, NumberRange::open(0.0, 1.5));
    parser.number("--load", NumberRange::open(0.0, 1.5),
                  [&load](double v) { load = v; });
    parser.run();
    EXPECT_EQ(bound, 0.5);
    EXPECT_EQ(queue, 12u);
    EXPECT_EQ(loads, (std::vector<double>{0.3, 0.5, 0.1}));
    EXPECT_EQ(load, 0.25);
}

// The same values through the built CLI (RUBIK_CLI; skipped when it
// is absent): the one-shot run and `trace gen` exit 1 naming the flag.

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// Exit code of a shell command; -1 if it did not exit normally.
int
exitCode(const std::string &cmd)
{
    const int rc = std::system(cmd.c_str());
    return rc != -1 && WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// Path of the built CLI, or "" when RUBIK_CLI is unset or missing.
std::string
cliPath()
{
    const char *cli = std::getenv("RUBIK_CLI");
    return cli && std::filesystem::exists(cli) ? cli : "";
}

/// (flag, value) pairs to pass on a command line.
using FlagValues = std::vector<std::pair<std::string, std::string>>;

/// Run `cli args FLAG VALUE` for each of `bad`: each must exit 1 with
/// a message "FLAG wants WHAT", and leave no file at `out` (when
/// given).
void
expectBadValuesRejected(const std::string &cli, const std::string &args,
                        const std::string &out, const FlagValues &bad,
                        const std::string &what)
{
    const std::string err = "/tmp/rubik_runner_test_" +
                            std::to_string(::getpid()) + ".stderr";
    for (const auto &[flag, value] : bad) {
        SCOPED_TRACE(flag + " " + value);
        EXPECT_EQ(exitCode("'" + cli + "' " + args + " " + flag + " '" +
                           value + "' > /dev/null 2> " + err),
                  1);
        const std::string text = readFile(err);
        EXPECT_NE(text.find(flag + " wants " + what), std::string::npos)
            << text;
        EXPECT_FALSE(!out.empty() && std::filesystem::exists(out));
    }
    std::remove(err.c_str());
}

/// `flag VALUE` for each of `values`.
FlagValues
flagValues(const std::string &flag, const std::vector<std::string> &values)
{
    FlagValues out;
    for (const std::string &v : values)
        out.emplace_back(flag, v);
    return out;
}

/// Bad --load values: garbage after a number used to run at the
/// number, a non-number or an out-of-range load died in an assertion
/// (SIGABRT).
const std::vector<std::string> kBadLoads = {"0.5x", "abc", "-1", "1.5"};

TEST(RunFlagsCli, OneShotRejectsBadValues)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    expectBadValuesRejected(cli, "--app masstree --load 0.4", "",
                            kBadRunFlags, "an integer");
}

TEST(RunFlagsCli, OneShotRejectsBadNumbers)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    // --bound-ms -3 used to fall back to the automatic bound, --tj abc
    // to run at 0 C, --transition-us -4 to die in an assertion.
    const std::string args = "--app masstree --requests 200";
    auto bad = flagValues("--load", kBadLoads);
    for (const char *flag : {"--bound-ms", "--transition-us"}) {
        bad.emplace_back(flag, "-3");
        bad.emplace_back(flag, "2x");
    }
    for (const char *flag : {"--tj", "--ambient"}) {
        bad.emplace_back(flag, "abc");
        bad.emplace_back(flag, "-300");
        bad.emplace_back(flag, "inf");
    }
    expectBadValuesRejected(cli, args, "", bad, "a finite number");
    const auto lists = flagValues("--loads", {"0.3,0.5x", "0.3,", ""});
    expectBadValuesRejected(cli, args, "", lists, "a comma list");
}

TEST(RunFlagsCli, OneShotKeepsWellFormedNumbers)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    const std::string out = "/tmp/rubik_runner_test_" +
                            std::to_string(::getpid()) + ".csv";
    const std::string flags = "--requests 300 --loads 0.3,0.5 --bound-ms 0 "
                              "--transition-us 4 --tj 95 --ambient=45";
    EXPECT_EQ(exitCode("'" + cli + "' " + flags + " --csv > " + out), 0);
    const std::string csv = readFile(out);
    EXPECT_NE(csv.find("\nmasstree,rubik,0.30,"), std::string::npos) << csv;
    EXPECT_NE(csv.find("\nmasstree,rubik,0.50,"), std::string::npos) << csv;
    std::remove(out.c_str());
}

TEST(RunFlagsCli, TraceGenRejectsBadValues)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    const std::string out = "/tmp/rubik_runner_test_" +
                            std::to_string(::getpid()) + ".rtrace";
    const std::string args = "trace gen --requests 100 --out " + out;
    const auto loads = flagValues("--load", kBadLoads);
    expectBadValuesRejected(cli, args, out, kBadRunFlags, "an integer");
    expectBadValuesRejected(cli, args, out, loads, "a finite number");

    // The load perfbench's serve stream asks for still works.
    const std::string gen = "'" + cli + "' " + args + " --load 0.5";
    EXPECT_EQ(exitCode(gen + " > /dev/null"), 0);
    EXPECT_TRUE(std::filesystem::exists(out));
    std::remove(out.c_str());
}

/// A one-cell sweep spec for the `sweep` flag cases; returns its path.
std::string
writeTinySweepSpec()
{
    const std::string path = "/tmp/rubik_runner_test_" +
                             std::to_string(::getpid()) + ".spec";
    std::ofstream(path) << "apps = masstree\nloads = 0.3\n"
                           "policies = fixed\nrequests = 200\n";
    return path;
}

TEST(RunFlagsCli, SweepRejectsBadCountsAndLease)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    // atoi, atoll and atof read "2x" as 2 and "abc" as 0, so most of
    // these used to run with a wrong value; --lease-timeout abc
    // silently disabled leases.
    const std::string spec = writeTinySweepSpec();
    const std::string out = spec + ".csv";
    const std::string args = "sweep --spec " + spec + " --out " + out;
    const FlagValues counts = {
        {"--shards", "2x"},      {"--shards", "0"},
        {"--jobs", "abc"},       {"--jobs", "-3"},
        {"--retries", "-2"},     {"--retries", "1001"},
        {"--batch-cells", "3x"}, {"--batch-cells", "-1"},
    };
    expectBadValuesRejected(cli, args, out, counts, "an integer");
    const auto leases = flagValues("--lease-timeout", {"abc", "-1", "2e6"});
    expectBadValuesRejected(cli, args, out, leases, "a finite number");
    std::remove(spec.c_str());
}

TEST(RunFlagsCli, SweepKeepsUnsetDefaults)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    // --jobs 0 is the hardware default; --retries 0, --batch-cells 0
    // (automatic) and --lease-timeout 0 (no leases) stay accepted.
    const std::string spec = writeTinySweepSpec();
    const std::string out = spec + ".csv";
    EXPECT_EQ(exitCode("'" + cli + "' sweep --spec " + spec +
                       " --jobs 0 --retries 0 --batch-cells 0 "
                       "--lease-timeout 0 --backend subprocess "
                       "--shards 2 --out " + out + " 2> /dev/null"),
              0);
    EXPECT_NE(readFile(out).find("\nmasstree,fixed,0.30,42,"),
              std::string::npos);
    for (const char *suffix : {"", ".ledger", ".ledger.work"})
        std::remove((out + suffix).c_str());
    std::remove(spec.c_str());
}

TEST(RunFlagsCli, FleetRejectsBadValues)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    // All 17 fleet flags went through atoi, atof or atoll: `--cores
    // 96abc` simulated 96 cores and `--budget-frac 0.6x` capped at 0.6.
    const std::string args = "fleet --cores 12 --epochs 1 --requests 100";
    FlagValues counts = kBadRunFlags;
    for (const char *flag : {"--cores-per-machine", "--epochs"}) {
        counts.emplace_back(flag, "0");
        counts.emplace_back(flag, "6x");
    }
    expectBadValuesRejected(cli, args, "", counts, "an integer");
    const FlagValues numbers = {
        {"--budget-watts", "-1"},   {"--budget-watts", "300W"},
        {"--bound-ms", "-3"},       {"--bound-ms", "2x"},
        {"--base-load", "0"},       {"--base-load", "0.5x"},
        {"--surge-factor", "-1"},   {"--surge-fraction", "1.5"},
        {"--max-core-load", "0"},   {"--max-core-load", "1.1"},
        {"--load-quantum", "0"},    {"--load-quantum", "0.6"},
        {"--transition-us", "-4"},  {"--tj", "abc"},
        {"--ambient", "inf"},
    };
    expectBadValuesRejected(cli, args, "", numbers, "a finite number");
    const FlagValues lists = {
        {"--cores", "96abc"},      {"--cores", "96,"},
        {"--cores", "0"},          {"--budget-frac", "0.6x"},
        {"--budget-frac", "-0.5"}, {"--budget-frac", ""},
    };
    expectBadValuesRejected(cli, args, "", lists, "a comma list");
}

TEST(RunFlagsCli, FleetKeepsWellFormedValues)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    const std::string out = "/tmp/rubik_runner_test_" +
                            std::to_string(::getpid()) + ".csv";
    EXPECT_EQ(exitCode("'" + cli +
                       "' fleet --cores 12,24 --budget-frac 0,0.6 "
                       "--epochs 1 --requests 100 --seed 7 --jobs 2 "
                       "--surge-fraction 1 --max-core-load 1 "
                       "--load-quantum 0.5 --csv > " + out),
              0);
    const std::string csv = readFile(out);
    EXPECT_NE(csv.find("\nmasstree,rubik,12,0.0000,0.00,all,"),
              std::string::npos)
        << csv;
    EXPECT_NE(csv.find("\nmasstree,rubik,24,0.6000,"), std::string::npos)
        << csv;
    std::remove(out.c_str());
}

TEST(RunFlagsCli, RubikJobsIsParsedStrictly)
{
    const std::string cli = cliPath();
    if (cli.empty())
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    // atoi read RUBIK_JOBS=4x as 4 and RUBIK_JOBS=abc as the hardware
    // default.
    const std::string err = "/tmp/rubik_runner_test_" +
                            std::to_string(::getpid()) + ".stderr";
    const std::string run = "'" + cli + "' --requests 200 --loads 0.3,0.5";
    for (const char *value : {"4x", "abc", "-1", "2147483648", " 2"}) {
        SCOPED_TRACE(value);
        EXPECT_EQ(exitCode(std::string("RUBIK_JOBS='") + value + "' " +
                           run + " > /dev/null 2> " + err),
                  1);
        EXPECT_NE(readFile(err).find("RUBIK_JOBS wants an integer"),
                  std::string::npos);
    }
    // Empty means unset, 0 the hardware default, as for --jobs.
    for (const char *value : {"", "0", "2"}) {
        SCOPED_TRACE(value);
        EXPECT_EQ(exitCode(std::string("RUBIK_JOBS='") + value + "' " +
                           run + " > /dev/null"),
                  0);
    }
    std::remove(err.c_str());
}

TEST(ExperimentRunner, RunsAllJobsInSubmissionOrder)
{
    ExperimentRunner runner(4);
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 100; ++i)
        jobs.push_back([i] { return i * i; });
    const std::vector<int> results = runner.runBatch(std::move(jobs));
    ASSERT_EQ(results.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ExperimentRunner, DefaultWorkerCountPositive)
{
    EXPECT_GE(ExperimentRunner::defaultWorkerCount(), 1);
    ExperimentRunner runner;
    EXPECT_GE(runner.numWorkers(), 1);
}

// Parallel simulation results must equal serial results bit for bit:
// every job owns its trace and seed, so scheduling cannot leak in.
TEST(ExperimentRunner, ParallelSimulationsMatchSerial)
{
    const DvfsModel dvfs = DvfsModel::haswell(4e-6);
    const PowerModel power(dvfs);
    const AppProfile app = makeApp(AppId::Masstree);
    const double nominal = dvfs.nominalFrequency();
    const std::vector<double> loads = {0.2, 0.3, 0.4, 0.5, 0.6};
    const uint64_t base_seed = 42;

    auto run_one = [&](std::size_t i) {
        const Trace t = generateLoadTrace(app, loads[i], 800, nominal,
                                          base_seed + i);
        RubikConfig cfg;
        cfg.latencyBound = 1e-3;
        RubikController policy(dvfs, cfg);
        return simulate(t, policy, dvfs, power);
    };

    std::vector<SimResult> serial;
    for (std::size_t i = 0; i < loads.size(); ++i)
        serial.push_back(run_one(i));

    ExperimentRunner runner(4);
    std::vector<std::function<SimResult()>> jobs;
    for (std::size_t i = 0; i < loads.size(); ++i)
        jobs.push_back([&, i] { return run_one(i); });
    const std::vector<SimResult> parallel =
        runner.runBatch(std::move(jobs));

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].tailLatency(), serial[i].tailLatency());
        EXPECT_EQ(parallel[i].coreActiveEnergy(),
                  serial[i].coreActiveEnergy());
        ASSERT_EQ(parallel[i].completed.size(),
                  serial[i].completed.size());
        for (std::size_t j = 0; j < serial[i].completed.size(); ++j) {
            EXPECT_EQ(parallel[i].completed[j].completionTime,
                      serial[i].completed[j].completionTime);
        }
    }
}

// Repeated parallel batches are self-consistent (no run-to-run drift).
TEST(ExperimentRunner, ParallelRunsAreReproducible)
{
    auto batch = [] {
        ExperimentRunner runner(3);
        std::vector<std::function<uint64_t()>> jobs;
        for (int i = 0; i < 16; ++i) {
            jobs.push_back([i] {
                Rng rng(1000 + static_cast<uint64_t>(i));
                uint64_t acc = 0;
                for (int k = 0; k < 1000; ++k)
                    acc ^= rng.next();
                return acc;
            });
        }
        return runner.runBatch(std::move(jobs));
    };
    EXPECT_EQ(batch(), batch());
}

TEST(ExperimentRunner, PropagatesLowestIndexException)
{
    ExperimentRunner runner(4);
    std::atomic<int> completed{0};
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 20; ++i) {
        jobs.push_back([i, &completed]() -> int {
            if (i == 7)
                throw std::runtime_error("job 7 failed");
            if (i == 13)
                throw std::logic_error("job 13 failed");
            ++completed;
            return i;
        });
    }
    try {
        runner.runBatch(std::move(jobs));
        FAIL() << "expected runBatch to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 7 failed"); // index 7 < 13.
    }
    // All non-throwing jobs still ran to completion.
    EXPECT_EQ(completed.load(), 18);
}

TEST(ExperimentRunner, StartOrderKeepsIndexOrderedResultsAndErrors)
{
    // On one worker the jobs run exactly in the start order given; the
    // results, and the failure rethrown, still follow the job index.
    ExperimentRunner runner(1);
    std::vector<int> started;
    const std::vector<std::size_t> order = {3, 0, 4, 1, 2};
    const auto make_jobs = [&started](int failing) {
        std::vector<std::function<int()>> jobs;
        for (int i = 0; i < 5; ++i) {
            jobs.push_back([i, failing, &started]() -> int {
                started.push_back(i);
                if (i == failing || i == 3)
                    throw std::runtime_error("job " + std::to_string(i));
                return 10 * i;
            });
        }
        return jobs;
    };
    std::vector<std::function<int()>> ok;
    for (int i = 0; i < 5; ++i)
        ok.push_back([i, &started] {
            started.push_back(i);
            return 10 * i;
        });
    EXPECT_EQ(runner.runBatch(std::move(ok), order),
              (std::vector<int>{0, 10, 20, 30, 40}));
    EXPECT_EQ(started, (std::vector<int>{3, 0, 4, 1, 2}));

    // Job 3 fails first in time, job 1 has the lower index.
    started.clear();
    try {
        runner.runBatch(make_jobs(1), order);
        FAIL() << "expected runBatch to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 1");
    }
    EXPECT_EQ(started.size(), 5u);
}

TEST(ExperimentRunner, VoidBatchPropagatesExceptions)
{
    ExperimentRunner runner(2);
    std::vector<std::function<void()>> jobs;
    jobs.push_back([] {});
    jobs.push_back([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(runner.runBatch(std::move(jobs)), std::runtime_error);
}

TEST(ExperimentRunner, ParallelForCoversAllIndices)
{
    ExperimentRunner runner(4);
    std::vector<int> hits(257, 0);
    runner.parallelFor(hits.size(),
                       [&](std::size_t i) { hits[i] = 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

// With >1 worker, two blocking jobs must overlap: each waits for the
// other to start, which can only happen if they run concurrently.
TEST(ExperimentRunner, WorkersRunConcurrently)
{
    ExperimentRunner runner(2);
    std::mutex m;
    std::condition_variable cv;
    int started = 0;
    auto job = [&] {
        std::unique_lock<std::mutex> lock(m);
        ++started;
        cv.notify_all();
        // Deadlocks (until timeout) if jobs were serialized.
        return cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return started == 2; });
    };
    std::vector<std::function<bool()>> jobs = {job, job};
    const auto ok = runner.runBatch(std::move(jobs));
    EXPECT_TRUE(ok[0]);
    EXPECT_TRUE(ok[1]);
}

// Wall-clock sanity: 4 workers finish 8 sleep-bound jobs materially
// faster than one worker does. Sleeps make this robust on loaded CI.
TEST(ExperimentRunner, MultiWorkerSpeedup)
{
    auto time_batch = [](int workers) {
        ExperimentRunner runner(workers);
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 8; ++i) {
            jobs.push_back([] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            });
        }
        const auto start = std::chrono::steady_clock::now();
        runner.runBatch(std::move(jobs));
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const double serial = time_batch(1);   // ~400 ms.
    const double parallel = time_batch(4); // ~100 ms.
    EXPECT_LT(parallel, serial * 0.75);
}

} // namespace
} // namespace rubik
