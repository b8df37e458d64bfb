/**
 * @file
 * Tests for the live serving stack: ServeEngine invariants (grid
 * decisions, warmup, bounded queue, error replies, stats JSON,
 * decision-log accounting), rejection of hostile events (non-finite,
 * negative, backwards or too far ahead) without any state change,
 * decision identity between the engine and a hand-driven exact
 * controller fed the same event stream, the LatencyHistogram, the
 * protocol's number grammar and preformatted replies, and — when
 * RUBIK_CLI points at the built binary — the daemon end to end: start,
 * ping, replay producing a decision hash byte-identical to the
 * one-shot CLI's, well-formed --stats, hostile protocol lines, the
 * non-blocking I/O (pipelined bursts, a client that never reads, EOF,
 * the line cap, processing that stops at `shutdown`), and a SIGTERM
 * shutdown that exits 0 and removes the socket.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/rubik_controller.h"
#include "runner/subproc.h"
#include "serve/daemon.h"
#include "serve/serve_engine.h"
#include "sim/trace.h"
#include "stats/latency_histogram.h"
#include "util/rng.h"
#include "util/units.h"

namespace rubik {
namespace {

// ------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogram, BucketsCountsAndPercentiles)
{
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(2), 1u);
    EXPECT_EQ(LatencyHistogram::bucketOf(3), 2u);
    EXPECT_EQ(LatencyHistogram::bucketOf(4), 2u);
    EXPECT_EQ(LatencyHistogram::bucketOf(5), 3u);
    // Samples at/above 2^63 (clz == 0) clamp into the top bucket
    // instead of indexing one past the array.
    EXPECT_EQ(LatencyHistogram::bucketOf(1ull << 63),
              LatencyHistogram::kBuckets - 1);
    EXPECT_EQ(LatencyHistogram::bucketOf(UINT64_MAX),
              LatencyHistogram::kBuckets - 1);

    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentileNs(0.5), 0.0);
    for (uint64_t ns : {10u, 20u, 30u, 40u, 1000u})
        h.add(ns);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.maxNs(), 1000u);
    EXPECT_DOUBLE_EQ(h.meanNs(), 220.0);
    // Percentiles are monotone and clamped to the observed max.
    double prev = 0.0;
    for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
        const double p = h.percentileNs(q);
        EXPECT_GE(p, prev);
        EXPECT_LE(p, 1000.0);
        prev = p;
    }

    LatencyHistogram other;
    other.add(5000);
    h.merge(other);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.maxNs(), 5000u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.maxNs(), 0u);
}

// ------------------------------------------------------------------
// ServeEngine

/// One event of a synthetic serving stream.
struct Event
{
    double t = 0.0;
    bool arrival = true;
    double cycles = 0.0; ///< completions: measured compute cycles
    double mem = 0.0;    ///< completions: measured memory time
};

/// Deterministic open-loop stream: Poisson-ish arrivals, FIFO
/// completions a service time later, merged into one time-ordered
/// event list spanning several update periods.
std::vector<Event>
makeStream(int requests, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Event> arrivals(requests), completions(requests);
    double t = 0.0, done = 0.0;
    for (int i = 0; i < requests; ++i) {
        t += rng.uniform(5e-5, 2e-4);
        arrivals[i] = {t, true, 0.0, 0.0};
        // Service mean below the arrival gap mean: the queue drains,
        // ages stay inside the bound, and decisions actually vary
        // (an overloaded stream saturates at max frequency forever).
        const double service = rng.uniform(2e-5, 1e-4);
        done = std::max(done, t) + service;
        completions[i] = {done, false, rng.lognormal(13.0, 0.3),
                          rng.lognormal(-9.0, 0.3)};
    }
    std::vector<Event> events;
    events.reserve(2 * static_cast<std::size_t>(requests));
    std::size_t a = 0, c = 0;
    while (a < arrivals.size() || c < completions.size()) {
        // Completions only fire for already-arrived requests, so on a
        // tie the arrival goes first.
        if (a < arrivals.size() &&
            (c >= completions.size() || arrivals[a].t <= completions[c].t))
            events.push_back(arrivals[a++]);
        else
            events.push_back(completions[c++]);
    }
    return events;
}

ServeConfig
testConfig()
{
    ServeConfig cfg;
    cfg.latencyBound = 1.0 * kMs;
    cfg.updatePeriod = 10.0 * kMs;
    cfg.timeDecisions = false; // determinism over telemetry in tests
    return cfg;
}

TEST(ServeEngine, DecisionsStayOnTheGridAndWarmUp)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeEngine engine(dvfs, testConfig());
    EXPECT_FALSE(engine.warm());

    const std::vector<Event> events = makeStream(400, 9);
    const std::vector<double> &grid = dvfs.frequencies();
    uint64_t okEvents = 0;
    for (const Event &e : events) {
        const ServeDecision d =
            e.arrival ? engine.onArrival(e.t)
                      : engine.onCompletion(e.t, e.cycles, e.mem);
        ASSERT_TRUE(d.ok);
        ++okEvents;
        EXPECT_TRUE(std::find(grid.begin(), grid.end(), d.frequency) !=
                    grid.end())
            << "off-grid decision " << d.frequency;
    }
    EXPECT_TRUE(engine.warm());
    EXPECT_GE(engine.tableRebuilds(), 1u);
    EXPECT_EQ(engine.queueDepth(), 0u);
    // Every accepted event produced exactly one recorded decision.
    EXPECT_EQ(engine.decisionLog().count, okEvents);
    EXPECT_GT(engine.transitions(), 0u);
}

TEST(ServeEngine, CompletionOnEmptyQueueIsAnError)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeEngine engine(dvfs, testConfig());
    const ServeDecision d = engine.onCompletion(1e-3, 1e5, 1e-5);
    EXPECT_FALSE(d.ok);
    ASSERT_NE(d.error, nullptr);
    EXPECT_STREQ(d.error, "completion with empty queue");
    EXPECT_EQ(engine.decisionLog().count, 0u);
}

TEST(ServeEngine, BoundedQueueRejectsOverflow)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeConfig cfg = testConfig();
    cfg.maxQueue = 4;
    ServeEngine engine(dvfs, cfg);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(engine.onArrival(1e-5 * (i + 1)).ok);
    const ServeDecision d = engine.onArrival(5e-5);
    EXPECT_FALSE(d.ok);
    ASSERT_NE(d.error, nullptr);
    EXPECT_STREQ(d.error, "queue full");
    EXPECT_EQ(engine.queueDepth(), 4u);
    EXPECT_EQ(engine.decisionLog().count, 4u);
    EXPECT_NE(engine.statsJson().find("\"rejected\":1"),
              std::string::npos);
}

TEST(ServeEngine, DecisionTimingLandsInHistogram)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeConfig cfg = testConfig();
    cfg.timeDecisions = true;
    ServeEngine engine(dvfs, cfg);
    for (const Event &e : makeStream(100, 3)) {
        if (e.arrival)
            engine.onArrival(e.t);
        else
            engine.onCompletion(e.t, e.cycles, e.mem);
    }
    EXPECT_EQ(engine.decisionLatency().count(),
              engine.decisionLog().count);
    EXPECT_GT(engine.decisionLatency().maxNs(), 0u);
}

TEST(ServeEngine, StatsJsonIsWellFormed)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    ServeEngine engine(dvfs, testConfig());
    for (const Event &e : makeStream(150, 5)) {
        if (e.arrival)
            engine.onArrival(e.t);
        else
            engine.onCompletion(e.t, e.cycles, e.mem);
    }
    const std::string json = engine.statsJson();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    int depth = 0;
    for (char ch : json) {
        if (ch == '{')
            ++depth;
        else if (ch == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    for (const char *key :
         {"\"table_version\":", "\"table_convolutions\":", "\"warm\":",
          "\"internal_target_ms\":", "\"queue_depth\":",
          "\"frequency_ghz\":", "\"decisions\":", "\"decision_hash\":",
          "\"transitions\":", "\"latency_ns\":", "\"rejected\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    // Decisions after warmup pulled table entries in on demand.
    const uint64_t steps = engine.controller().tableConvolutions();
    EXPECT_GT(steps, 0u);
    const std::string want =
        "\"table_convolutions\":" + std::to_string(steps) + ",";
    EXPECT_NE(json.find(want), std::string::npos) << json;
    // Each table build materialized both profile sides; at least the
    // first build of each side recounted its window.
    const uint64_t rescans = engine.controller().profileRescans();
    EXPECT_GE(rescans, 2u);
    EXPECT_LE(rescans, 2 * engine.controller().tableRebuilds());
    const std::string want_rescans =
        "\"profile_rescans\":" + std::to_string(rescans) + ",";
    EXPECT_NE(json.find(want_rescans), std::string::npos) << json;
}

// The engine is a stream-driven wrapper over the exact controller; a
// hand-driven mirror replicating its event ordering (periodic updates
// due before the event, then completion feed, then one decision) must
// see the identical frequency at every step.
TEST(ServeEngine, MatchesHandDrivenExactController)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const ServeConfig cfg = testConfig();
    ServeEngine engine(dvfs, cfg);

    RubikConfig rc;
    rc.latencyBound = cfg.latencyBound;
    rc.percentile = cfg.percentile;
    rc.updatePeriod = cfg.updatePeriod;
    rc.feedback = cfg.feedback;
    rc.table = cfg.table;
    RubikController mirror(dvfs, rc);
    std::deque<double> queue;
    std::vector<double> lane;
    std::vector<int> hints;
    double now = 0.0, elapsed = 0.0;
    double frequency = dvfs.maxFrequency();

    auto mirrorView = [&]() {
        lane.assign(queue.begin(), queue.end());
        hints.assign(queue.size(), -1);
        CoreView v;
        v.now = now;
        v.frequency = frequency;
        v.elapsedCycles = elapsed;
        v.count = lane.size();
        v.busy = !lane.empty();
        v.arrivals = lane.data();
        v.classHints = hints.data();
        v.dvfs = &dvfs;
        return v;
    };
    auto advanceTo = [&](double t) {
        while (mirror.nextPeriodicUpdate() <= t) {
            const double at = mirror.nextPeriodicUpdate();
            const double save = now;
            now = at;
            mirror.periodicUpdate(mirrorView());
            now = save;
        }
        if (t > now)
            now = t;
    };

    for (const Event &e : makeStream(400, 9)) {
        double got = 0.0, want = 0.0;
        if (e.arrival) {
            got = engine.onArrival(e.t).frequency;
            advanceTo(e.t);
            queue.push_back(e.t);
            elapsed = 0.0;
            want = mirror.selectFrequency(mirrorView());
        } else {
            got = engine.onCompletion(e.t, e.cycles, e.mem).frequency;
            advanceTo(e.t);
            CompletedRequest done;
            done.arrivalTime = queue.front();
            done.completionTime = e.t;
            done.computeCycles = e.cycles;
            done.memoryTime = e.mem;
            done.classHint = -1;
            queue.pop_front();
            elapsed = 0.0;
            mirror.onCompletion(done, mirrorView());
            want = mirror.selectFrequency(mirrorView());
        }
        frequency = want;
        ASSERT_EQ(got, want) << "diverged at t=" << e.t;
    }
    EXPECT_TRUE(engine.warm());
}

// ------------------------------------------------------------------
// Hostile input: a rejected event must not move any engine state.

class ServeEngineInput : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Half a stream, then one more arrival: a warm controller with
        // at least one request in flight.
        const std::vector<Event> events = makeStream(400, 9);
        for (std::size_t i = 0; i < events.size() / 2; ++i) {
            const Event &e = events[i];
            ASSERT_TRUE((e.arrival ? engine.onArrival(e.t)
                                   : engine.onCompletion(e.t, e.cycles,
                                                         e.mem))
                            .ok);
            now = e.t;
        }
        ASSERT_TRUE(engine.onArrival(now).ok);
        ASSERT_TRUE(engine.warm());
        count = engine.decisionLog().count;
        hash = engine.decisionLog().hash;
        depth = engine.queueDepth();
        rebuilds = engine.tableRebuilds();
    }

    void expectRejected(const ServeDecision &d, const char *error)
    {
        EXPECT_FALSE(d.ok);
        ASSERT_NE(d.error, nullptr);
        EXPECT_STREQ(d.error, error);
        EXPECT_EQ(engine.decisionLog().count, count);
        EXPECT_EQ(engine.decisionLog().hash, hash);
        EXPECT_EQ(engine.queueDepth(), depth);
        EXPECT_EQ(engine.tableRebuilds(), rebuilds);
    }

    const DvfsModel dvfs = DvfsModel::haswell();
    ServeEngine engine{dvfs, testConfig()};
    double now = 0.0;
    uint64_t count = 0, hash = 0, rebuilds = 0;
    std::size_t depth = 0;
};

TEST_F(ServeEngineInput, InfiniteTimeIsRejected)
{
    // `a inf` used to spin the periodic catch-up loop forever.
    const double inf = std::numeric_limits<double>::infinity();
    expectRejected(engine.onArrival(inf), "non-finite value");
    expectRejected(engine.onArrival(-inf), "non-finite value");
    expectRejected(engine.onCompletion(inf, 1e5, 1e-5), "non-finite value");
}

TEST_F(ServeEngineInput, NanIsRejected)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    expectRejected(engine.onArrival(nan), "non-finite value");
    expectRejected(engine.onArrival(now, nan), "non-finite value");
    expectRejected(engine.onCompletion(now, nan, 1e-5), "non-finite value");
    expectRejected(engine.onCompletion(now, 1e5, nan), "non-finite value");
}

TEST_F(ServeEngineInput, NegativeWorkIsRejected)
{
    expectRejected(engine.onArrival(now, -1.0), "negative cycles or time");
    expectRejected(engine.onCompletion(now, -1.0, 1e-5),
                   "negative cycles or time");
    expectRejected(engine.onCompletion(now, 1e5, -1e-6),
                   "negative cycles or time");
}

TEST_F(ServeEngineInput, TimestampGoingBackwardsIsRejected)
{
    expectRejected(engine.onArrival(now - 1e-6),
                   "timestamp before engine clock");
    expectRejected(engine.onCompletion(now - 1e-6, 1e5, 1e-5),
                   "timestamp before engine clock");
    // An equal timestamp is a valid non-decreasing stream.
    EXPECT_TRUE(engine.onArrival(now).ok);
    EXPECT_EQ(engine.decisionLog().count, count + 1);
}

TEST_F(ServeEngineInput, HugeTimestampGapIsRejected)
{
    // `a 1e12` used to run ~1e13 periodic catch-up iterations.
    const double period = testConfig().updatePeriod;
    const double past_limit =
        now + ServeEngine::kMaxGapPeriods * period * 1.01;
    expectRejected(engine.onArrival(1e12), "timestamp gap too large");
    expectRejected(engine.onArrival(past_limit), "timestamp gap too large");
    expectRejected(engine.onCompletion(past_limit, 1e5, 1e-5),
                   "timestamp gap too large");
    // A long idle gap inside the bound runs every update it crosses.
    EXPECT_TRUE(engine.onArrival(now + 1000.0 * period).ok);
    EXPECT_EQ(engine.decisionLog().count, count + 1);
    EXPECT_GT(engine.controller().nextPeriodicUpdate(),
              now + 1000.0 * period);
}

// ------------------------------------------------------------------
// Protocol numbers and decision replies

uint64_t
bitsOf(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

TEST(ServeProtocol, NumberGrammarPinsEachToken)
{
    struct Case
    {
        const char *token;
        bool accepted;
        uint64_t bits; ///< When accepted.
    };
    const Case cases[] = {
        {"1", true, 0x3ff0000000000000},
        {"-0", true, 0x8000000000000000},
        {".5", true, 0x3fe0000000000000},
        {"5.", true, 0x4014000000000000},
        {"1E5", true, 0x40f86a0000000000},
        // Parsed, then refused by the engine as non-finite.
        {"inf", true, 0x7ff0000000000000},
        {"nan", true, 0x7ff8000000000000},
        {"1e400", false, 0},  // overflows
        {"2e-324", false, 0}, // rounds to zero
        // A subnormal: strtod flagged ERANGE, from_chars accepts it.
        {"1e-310", true, 0x000012688b70e62b},
        {"+1", false, 0},
        {"0x10", false, 0},
        {"1e", false, 0},
        {"1_0", false, 0},
        {"", false, 0},
    };
    for (const Case &c : cases) {
        double v = 0.0;
        EXPECT_EQ(parseProtocolNumber(c.token, &v), c.accepted)
            << "'" << c.token << "'";
        if (c.accepted) {
            EXPECT_EQ(bitsOf(v), c.bits) << "'" << c.token << "'";
        }
    }
}

TEST(ServeProtocol, NumbersParseToTheBitsStrtodGives)
{
    // Random bit patterns cover every exponent, subnormals included;
    // the uniform draws look like the stream's timestamps and demands.
    Rng rng(20151205);
    const char *const formats[] = {"%.17g", "%.9g", "%g"};
    char text[64];
    for (int i = 0; i < 120000; ++i) {
        double v = 0.0;
        if (i % 2 == 0) {
            const uint64_t bits = rng.next();
            std::memcpy(&v, &bits, sizeof v);
            if (!std::isfinite(v))
                continue;
        } else {
            v = rng.uniform(0.0, 100.0) * std::pow(10.0, i % 13 - 6);
        }
        for (const char *format : formats) {
            std::snprintf(text, sizeof text, format, v);
            double got = 0.0;
            ASSERT_TRUE(parseProtocolNumber(text, &got)) << text;
            const double want = std::strtod(text, nullptr);
            ASSERT_EQ(bitsOf(got), bitsOf(want)) << text;
        }
    }
}

TEST(ServeProtocol, DecisionRepliesMatchSnprintf)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    const DecisionReplies replies(dvfs.frequencies());
    char want[64];
    std::vector<double> values = dvfs.frequencies();
    // Off the grid: formatted on the spot, the same way.
    values.insert(values.end(), {1.23456789e9, 2.05e9 + 1.0, 0.0});
    for (double hz : values) {
        std::snprintf(want, sizeof want, "f %.9g", hz);
        std::string out = "x";
        replies.append(hz, out);
        EXPECT_EQ(out, std::string("x") + want) << hz;
    }
}

// ------------------------------------------------------------------
// Daemon lifecycle (needs the built CLI)

struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/rubik_serve_test_XXXXXX";
        if (mkdtemp(tmpl))
            path = tmpl;
    }
    ~ScratchDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
    std::string path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

struct CommandResult
{
    int status = -1;
    std::string out;
    std::string err;
};

CommandResult
runCommand(const std::string &cmd, const std::string &dir,
           const std::string &tag)
{
    const std::string out = dir + "/" + tag + ".stdout";
    const std::string err = dir + "/" + tag + ".stderr";
    CommandResult r;
    r.status = waitCommand(spawnShellCommand(cmd, out, err));
    r.out = readFile(out);
    r.err = readFile(err);
    return r;
}

/**
 * Wait up to `seconds` for `pid` to exit, woken by the exit itself
 * (ExitWatch). On exit, stores the raw wait status and returns true;
 * past the deadline, SIGKILLs the child's group and returns false.
 * Either way the child is reaped.
 */
bool
waitExitOrKill(pid_t pid, double seconds, int *status)
{
    std::mutex mutex;
    std::condition_variable cv;
    ExitWatch watch(pid, mutex, cv);
    std::unique_lock<std::mutex> lock(mutex);
    const bool exited =
        cv.wait_for(lock, std::chrono::duration<double>(seconds),
                    [&] { return watch.exited(); });
    if (!exited)
        killCommandGroup(pid);
    cv.wait(lock, [&] { return watch.exited(); });
    *status = watch.status();
    return exited;
}

class ServeDaemonCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *env = std::getenv("RUBIK_CLI");
        if (!env || !*env || !std::filesystem::exists(env))
            GTEST_SKIP() << "RUBIK_CLI not set or missing";
        cli = env;
        ASSERT_FALSE(scratch.path.empty());
        socketPath = scratch.path + "/daemon.sock";
    }

    void TearDown() override
    {
        if (daemonPid > 0) {
            int status = 0;
            waitExitOrKill(daemonPid, 0.0, &status);
            daemonPid = -1;
        }
    }

    /// Start the daemon and block until it answers ping.
    void startDaemon(const std::string &extraFlags)
    {
        // "exec": the pid must be the daemon itself (not a lingering
        // sh wrapper) so ::kill(pid, SIGTERM) exercises its handler.
        daemonPid = spawnShellCommand(
            "exec " + cli + " serve --socket " + socketPath +
                " --bound-ms 2 " + extraFlags,
            scratch.path + "/daemon.stdout",
            scratch.path + "/daemon.stderr");
        ASSERT_GT(daemonPid, 0);
        for (int i = 0; i < 200; ++i) {
            try {
                if (serveQuery(socketPath, "ping", 2.0) == "ok")
                    return;
            } catch (const std::exception &) {
            }
            int status = 0;
            ASSERT_EQ(::waitpid(daemonPid, &status, WNOHANG), 0)
                << "daemon died during startup: "
                << describeWaitStatus(status) << "\n"
                << readFile(scratch.path + "/daemon.stderr");
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        FAIL() << "daemon never answered ping";
    }

    std::string cli;
    ScratchDir scratch;
    std::string socketPath;
    pid_t daemonPid = -1;
};

/// Pull `"key":"value"` out of a one-line JSON reply.
std::string
jsonStringField(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t start = at + needle.size();
    const std::size_t end = json.find('"', start);
    return end == std::string::npos ? "" : json.substr(start, end - start);
}

TEST_F(ServeDaemonCli, ReplayMatchesOneShotAndShutsDownOnSigterm)
{
    const std::string tracePath = scratch.path + "/t.rtrace";
    const std::string gen = " --app masstree --load 0.4 --requests 1500"
                            " --seed 42";

    // 1. A class-annotated trace, generated exactly like the one-shot
    //    run's.
    CommandResult r = runCommand(
        cli + " trace gen --out " + tracePath + gen, scratch.path, "gen");
    ASSERT_TRUE(commandSucceeded(r.status)) << r.err;

    // 2. The one-shot reference hash for the same workload and bound.
    r = runCommand(cli + gen +
                       " --bound-ms 2 --policy rubik --decision-hash"
                       " --csv",
                   scratch.path, "oneshot");
    ASSERT_TRUE(commandSucceeded(r.status)) << r.err;
    std::istringstream csv(r.out);
    std::string header, row;
    ASSERT_TRUE(std::getline(csv, header));
    ASSERT_TRUE(std::getline(csv, row));
    ASSERT_NE(header.find(",decisions,decision_hash"),
              std::string::npos)
        << header;
    const std::string wantHash = row.substr(row.rfind(',') + 1);
    ASSERT_EQ(wantHash.size(), 16u) << row;

    // 3. Daemon replay of the same trace must reproduce the decision
    //    stream byte for byte — same hash, via the same runPolicy path.
    startDaemon("");
    const std::string reply =
        serveQuery(socketPath, "replay " + tracePath + " rubik", 60.0);
    ASSERT_EQ(reply.compare(0, 1, "{"), 0) << reply;
    EXPECT_EQ(jsonStringField(reply, "decision_hash"), wantHash)
        << reply;

    // 4. Live events answer with frequencies; errors answer with err.
    EXPECT_EQ(serveQuery(socketPath, "a 0.001").compare(0, 2, "f "), 0);
    EXPECT_EQ(serveQuery(socketPath, "c 0.002 5e5 1e-4")
                  .compare(0, 2, "f "),
              0);
    EXPECT_EQ(serveQuery(socketPath, "c 0.003 5e5 1e-4")
                  .compare(0, 4, "err "),
              0);
    EXPECT_EQ(serveQuery(socketPath, "bogus").compare(0, 4, "err "), 0);

    // 5. --stats is one well-formed JSON line (python validates in CI;
    //    here: brace balance plus the keys the gate greps for).
    r = runCommand(cli + " serve --socket " + socketPath + " --stats",
                   scratch.path, "stats");
    ASSERT_TRUE(commandSucceeded(r.status)) << r.err;
    const std::string stats = r.out.substr(0, r.out.find('\n'));
    ASSERT_FALSE(stats.empty());
    EXPECT_EQ(stats.front(), '{');
    EXPECT_EQ(stats.back(), '}');
    EXPECT_NE(stats.find("\"decisions\":"), std::string::npos);
    EXPECT_NE(stats.find("\"decision_hash\":"), std::string::npos);

    // 6. SIGTERM: clean exit 0, socket removed.
    ASSERT_EQ(::kill(daemonPid, SIGTERM), 0);
    int status = 0;
    ASSERT_TRUE(waitExitOrKill(daemonPid, 30.0, &status))
        << "daemon ignored SIGTERM";
    daemonPid = -1;
    EXPECT_TRUE(commandSucceeded(status)) << describeWaitStatus(status);
    EXPECT_FALSE(std::filesystem::exists(socketPath));
}

TEST_F(ServeDaemonCli, BadNumericFlagsExitOneNamingTheFlag)
{
    // Each of these used to panic (SIGABRT) at startup or at the first
    // table build, or to run silently with a truncated or wrapped value.
    // The last two are positive in ms but underflow to 0 s.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"--bound-ms", "nan"},      {"--update-ms", "nan"},
        {"--transition-us", "nan"}, {"--transition-us", "-5"},
        {"--percentile", "1.5"},    {"--percentile", "nan"},
        {"--bound-ms", "2x"},       {"--percentile", "0.95x"},
        {"--max-queue", "abc"},     {"--max-queue", "-1"},
        {"--bound-ms", "5e-324"},   {"--update-ms", "5e-324"},
    };
    for (const auto &[flag, value] : cases) {
        SCOPED_TRACE(flag + " " + value);
        const std::string bound = flag == "--bound-ms" ? "" : " --bound-ms 2";
        const std::string err = scratch.path + "/badflag.stderr";
        // Bounded wait: a value that is wrongly accepted starts a
        // daemon that would otherwise never exit.
        const pid_t pid = spawnShellCommand(
            "exec " + cli + " serve --socket " + socketPath + bound + " " +
                flag + " " + value,
            scratch.path + "/badflag.stdout", err);
        ASSERT_GT(pid, 0);
        int status = 0;
        if (!waitExitOrKill(pid, 30.0, &status)) {
            ADD_FAILURE() << "daemon accepted the value and kept running";
            continue;
        }
        ASSERT_TRUE(WIFEXITED(status)) << describeWaitStatus(status);
        EXPECT_EQ(WEXITSTATUS(status), 1);
        const std::string text = readFile(err);
        EXPECT_NE(text.find(flag), std::string::npos) << text;
        EXPECT_FALSE(std::filesystem::exists(socketPath));
    }

    // In-range values at the edges still start a daemon.
    startDaemon("--percentile 0.5 --update-ms 1e-3 --transition-us 0"
                " --max-queue 1");
    EXPECT_EQ(serveQuery(socketPath, "shutdown"), "ok");
    int status = 0;
    ASSERT_TRUE(waitExitOrKill(daemonPid, 30.0, &status));
    daemonPid = -1;
    EXPECT_TRUE(commandSucceeded(status)) << describeWaitStatus(status);
}

TEST_F(ServeDaemonCli, ShutdownCommandExitsCleanly)
{
    startDaemon("");
    EXPECT_EQ(serveQuery(socketPath, "shutdown"), "ok");
    int status = 0;
    ASSERT_TRUE(waitExitOrKill(daemonPid, 30.0, &status));
    daemonPid = -1;
    EXPECT_TRUE(commandSucceeded(status)) << describeWaitStatus(status);
    EXPECT_FALSE(std::filesystem::exists(socketPath));
}

TEST_F(ServeDaemonCli, RefusesSecondDaemonOnLiveSocket)
{
    startDaemon("");
    const CommandResult r = runCommand(
        cli + " serve --socket " + socketPath + " --bound-ms 2",
        scratch.path, "second");
    EXPECT_FALSE(commandSucceeded(r.status));
    EXPECT_NE(r.err.find("already listening"), std::string::npos)
        << r.err;
    // The loser must not have unlinked the winner's socket.
    EXPECT_EQ(serveQuery(socketPath, "ping"), "ok");
    EXPECT_EQ(serveQuery(socketPath, "shutdown"), "ok");
    int status = 0;
    ASSERT_TRUE(waitExitOrKill(daemonPid, 30.0, &status));
    daemonPid = -1;
}

TEST_F(ServeDaemonCli, InfiniteArrivalIsRejectedAndDaemonKeepsServing)
{
    startDaemon("");
    EXPECT_EQ(serveQuery(socketPath, "a inf", 10.0),
              "err non-finite value");
    EXPECT_EQ(serveQuery(socketPath, "a nan", 10.0),
              "err non-finite value");
    // A huge finite t is answered at once instead of spinning the
    // periodic catch-up.
    EXPECT_EQ(serveQuery(socketPath, "a 1e12", 10.0),
              "err timestamp gap too large");
    // Other clients are still served, and the clock did not move.
    EXPECT_EQ(serveQuery(socketPath, "ping", 10.0), "ok");
    EXPECT_EQ(serveQuery(socketPath, "a 0.001", 10.0).compare(0, 2, "f "),
              0);
}

TEST_F(ServeDaemonCli, ClassHintOutsideIntRangeIsRejected)
{
    startDaemon("");
    // 1e20 used to reach a double -> int cast (undefined behavior).
    for (const char *hint : {"1e20", "-2", "0.5", "nan", "inf"}) {
        EXPECT_EQ(serveQuery(socketPath, std::string("a 0.001 0 ") + hint,
                             10.0),
                  "err class hint must be an integer in [-1, INT_MAX]")
            << hint;
    }
    EXPECT_EQ(serveQuery(socketPath, "a 0.001 0 1", 10.0).compare(0, 2, "f "),
              0);
    EXPECT_EQ(serveQuery(socketPath, "a 0.002 0 -1", 10.0).compare(0, 2, "f "),
              0);
}

/// A raw protocol connection: bytes go out exactly as given, replies
/// come back as lines. Every send and receive gives up after the
/// timeout.
class RawClient
{
  public:
    RawClient(const std::string &socketPath, timeval timeout = {10, 0})
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        for (int opt : {SO_RCVTIMEO, SO_SNDTIMEO})
            ::setsockopt(fd_, SOL_SOCKET, opt, &timeout, sizeof timeout);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr)) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~RawClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    RawClient(const RawClient &) = delete;
    RawClient &operator=(const RawClient &) = delete;

    bool connected() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /// Send all of `bytes`; false on an error or a timeout.
    bool send(const std::string &bytes)
    {
        for (std::size_t off = 0; off < bytes.size();) {
            const ssize_t n = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /// The next `n` reply lines (without their newlines); fewer if the
    /// daemon closes the connection or a receive times out.
    std::vector<std::string> readLines(std::size_t n)
    {
        std::vector<std::string> lines;
        std::size_t start = 0;
        while (lines.size() < n) {
            const std::size_t nl = buffer_.find('\n', start);
            if (nl != std::string::npos) {
                lines.push_back(buffer_.substr(start, nl - start));
                start = nl + 1;
            } else if (!receive()) {
                break;
            }
        }
        buffer_.erase(0, start);
        return lines;
    }

    /// Everything the daemon writes until it closes the connection (or
    /// a receive times out).
    std::string readToEof()
    {
        while (receive()) {
        }
        return std::exchange(buffer_, "");
    }

  private:
    bool receive()
    {
        char buf[65536];
        const ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n <= 0)
            return false;
        buffer_.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    int fd_ = -1;
    std::string buffer_;
};

/// Send `bytes` verbatim (no newline added) on a fresh connection and
/// return everything the daemon writes before it closes the connection
/// (or a 10 s receive timeout expires).
std::string
sendRaw(const std::string &socketPath, const std::string &bytes)
{
    RawClient client(socketPath);
    if (!client.connected())
        return "connect failed";
    client.send(bytes);
    return client.readToEof();
}

TEST_F(ServeDaemonCli, UnterminatedLongLineDropsTheClient)
{
    startDaemon("");
    const std::string cap(64 * 1024, 'x');
    // One byte past the 64 KiB cap, with no newline: the daemon answers
    // and closes instead of buffering without bound.
    EXPECT_EQ(sendRaw(socketPath, cap + "x"), "err line too long\n");
    // The cap is exact, and holds whether or not the newline has come:
    // 65 536 bytes, buffered unterminated for a while, then '\n' are
    // one line, answered, and the connection stays up.
    {
        RawClient client(socketPath);
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.send(cap));
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ASSERT_TRUE(client.send("\nping\n"));
        const std::vector<std::string> replies = client.readLines(2);
        ASSERT_EQ(replies.size(), 2u);
        EXPECT_EQ(replies[0], "err unknown command: " + cap);
        EXPECT_EQ(replies[1], "ok");
    }
    EXPECT_EQ(sendRaw(socketPath, "ping\n" + cap + "x\nping\n"),
              "ok\nerr line too long\n");
    EXPECT_EQ(serveQuery(socketPath, "ping", 10.0), "ok");
}

TEST_F(ServeDaemonCli, ShutdownMidBatchAnswersUpToShutdownOnly)
{
    startDaemon("");
    // Processing stops at `shutdown`: its ok and every earlier reply
    // go out, later lines are not answered, then EOF.
    EXPECT_EQ(sendRaw(socketPath, "ping\nshutdown\nping\n"), "ok\nok\n");
    int status = 0;
    ASSERT_TRUE(waitExitOrKill(daemonPid, 30.0, &status));
    daemonPid = -1;
    EXPECT_TRUE(commandSucceeded(status)) << describeWaitStatus(status);
    EXPECT_FALSE(std::filesystem::exists(socketPath));
}

TEST_F(ServeDaemonCli, PipelinedRepliesArePinnedByteForByte)
{
    startDaemon("");
    // One send, answered in order: usage errors count tokens exactly,
    // the number grammar refuses '+', hex and a leading tab, and a
    // subnormal t is a valid event on a fresh engine (decided at the
    // maximum frequency until the profile is warm).
    const std::pair<const char *, const char *> lines[] = {
        {"ping", "ok"},
        {"a 1 2 3 4 5", "err usage: a <t> [elapsed_cycles] [class_hint]"},
        {"c 1 2", "err usage: c <t> <compute_cycles> <memory_time>"},
        {"c 1 2 3 4 5", "err usage: c <t> <compute_cycles> <memory_time>"},
        {"replay", "err usage: replay <trace.rtrace> [policy]"},
        {"replay a b c", "err usage: replay <trace.rtrace> [policy]"},
        {"replay t.rtrace nope", "err unknown policy: nope"},
        {"", "err empty request"},
        {"   \r", "err empty request"},
        {"bogus 1", "err unknown command: bogus"},
        {"a +1", "err usage: a <t> [elapsed_cycles] [class_hint]"},
        {"a 0x10", "err usage: a <t> [elapsed_cycles] [class_hint]"},
        {"a \t1", "err usage: a <t> [elapsed_cycles] [class_hint]"},
        {"a 1 0 1e20",
         "err class hint must be an integer in [-1, INT_MAX]"},
        {"a inf", "err non-finite value"},
        {"a 1e-310", "f 3.4e+09"},
        {"c 2e-310 5e5 1e-4\r", "f 3.4e+09"},
        {"c 1 5e5 1e-4", "err completion with empty queue"},
        {"shutdown", "ok"},
        {"ping", nullptr}, // after shutdown: not answered
    };
    std::string request, want;
    for (const auto &[line, reply] : lines) {
        request += std::string(line) + "\n";
        if (reply)
            want += std::string(reply) + "\n";
    }
    EXPECT_EQ(sendRaw(socketPath, request), want);
    int status = 0;
    ASSERT_TRUE(waitExitOrKill(daemonPid, 30.0, &status));
    daemonPid = -1;
    EXPECT_TRUE(commandSucceeded(status)) << describeWaitStatus(status);
}

TEST_F(ServeDaemonCli, StalledClientDoesNotBlockOthers)
{
    startDaemon("");
    // Client A pipelines 4 MiB of pings and never reads a reply. A
    // daemon that blocks in write() stops serving everyone once A's
    // socket buffer fills.
    RawClient stalled(socketPath, {0, 200000});
    ASSERT_TRUE(stalled.connected());
    std::string flood;
    for (std::size_t i = 0; i < 4 * 1024 * 1024 / 5 + 1; ++i)
        flood += "ping\n";
    std::atomic<std::size_t> sent{0};
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        // Short send timeouts, so the writer notices `stop`.
        std::size_t off = 0;
        while (off < flood.size() && !stop) {
            const ssize_t n =
                ::send(stalled.fd(), flood.data() + off,
                       flood.size() - off, MSG_NOSIGNAL);
            if (n > 0)
                sent = off += static_cast<std::size_t>(n);
            else if (errno != EAGAIN && errno != EWOULDBLOCK)
                break;
        }
    });
    // Wait until A's writer stops making progress: the daemon no
    // longer reads from A.
    std::size_t last = 0;
    for (int i = 0; i < 100 && sent < flood.size(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (sent == last && sent > 0)
            break;
        last = sent;
    }

    // Client B is answered at once.
    const auto t0 = std::chrono::steady_clock::now();
    std::string reply;
    try {
        reply = serveQuery(socketPath, "ping", 5.0);
    } catch (const std::exception &e) {
        reply = e.what();
    }
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    EXPECT_EQ(reply, "ok");
    EXPECT_LT(waited, 5.0);
    // Backpressure: with 1 MiB of A's replies unwritten, the daemon
    // stopped reading A long before the whole flood.
    EXPECT_LT(sent.load(), flood.size());

    // A's unread replies hold up the exit for at most the 1 s drain.
    std::string ok;
    try {
        ok = serveQuery(socketPath, "shutdown", 5.0);
    } catch (const std::exception &e) {
        ok = e.what();
    }
    EXPECT_EQ(ok, "ok");
    int status = 0;
    const bool exited = waitExitOrKill(daemonPid, 10.0, &status);
    stop = true;
    writer.join();
    ASSERT_TRUE(exited) << "daemon stuck on a client that never reads";
    daemonPid = -1;
    EXPECT_TRUE(commandSucceeded(status)) << describeWaitStatus(status);
}

TEST_F(ServeDaemonCli, HalfClosedClientGetsEveryReply)
{
    startDaemon("");
    // 600 KB of replies: more than the socket buffer takes while the
    // client is still sending, so some wait in the daemon for POLLOUT
    // after it has seen EOF.
    const std::size_t pings = 200000;
    std::string flood;
    for (std::size_t i = 0; i < pings; ++i)
        flood += "ping\n";
    RawClient client(socketPath);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send(flood + "ping"));
    ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
    std::string want;
    for (std::size_t i = 0; i < pings; ++i)
        want += "ok\n";
    // The partial last line gets no reply. Not EXPECT_EQ on the
    // strings: a mismatch would make gtest diff 200 000 lines.
    const std::string got = client.readToEof();
    EXPECT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want);
    EXPECT_EQ(serveQuery(socketPath, "ping", 10.0), "ok");
}

/// The raw text of `"key":value` in a one-line JSON reply.
std::string
jsonRawField(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t start = at + needle.size();
    return json.substr(start, json.find_first_of(",}", start) - start);
}

/**
 * Request lines for the pipelined burst: the arrivals of `trace` and
 * its completions when served FIFO at `hz`, merged in time order
 * (layer_probe's stream format), mixed with ping, stats, an invalid
 * line and an unknown command; one event line ends in "\r".
 */
std::vector<std::string>
burstLines(const Trace &trace, double hz)
{
    std::vector<double> done(trace.size());
    double busyUntil = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord &r = trace[i];
        busyUntil = std::max(busyUntil, r.arrivalTime) +
                    r.computeCycles / hz + r.memoryTime;
        done[i] = busyUntil;
    }
    std::vector<std::string> lines;
    char line[256];
    std::size_t next = 0;
    auto complete = [&](std::size_t i) {
        std::snprintf(line, sizeof line, "c %.17g %.17g %.17g", done[i],
                      trace[i].computeCycles, trace[i].memoryTime);
        lines.push_back(line);
    };
    for (std::size_t i = 0; i < trace.size(); ++i) {
        while (next < i && done[next] <= trace[i].arrivalTime)
            complete(next++);
        std::snprintf(line, sizeof line, "a %.17g 0 %d",
                      trace[i].arrivalTime, trace[i].classHint);
        lines.push_back(line);
    }
    while (next < trace.size())
        complete(next++);

    std::vector<std::string> mixed;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i % 997 == 0)
            mixed.push_back("ping");
        if (i % 2003 == 1000)
            mixed.push_back("stats");
        if (i == 1500)
            mixed.push_back("a 1 2 3 4 5");
        if (i == 2500)
            mixed.push_back("bogus");
        mixed.push_back(i == 3000 ? lines[i] + "\r" : lines[i]);
    }
    mixed.push_back("stats");
    return mixed;
}

TEST_F(ServeDaemonCli, PipelinedBurstMatchesOneAtATime)
{
    const std::string tracePath = scratch.path + "/burst.rtrace";
    const CommandResult gen = runCommand(
        cli + " trace gen --out " + tracePath +
            " --app masstree --load 0.5 --requests 3000 --seed 7",
        scratch.path, "gen");
    ASSERT_TRUE(commandSucceeded(gen.status)) << gen.err;
    const DvfsModel dvfs = DvfsModel::haswell();
    const std::vector<std::string> lines =
        burstLines(loadTraceBinary(tracePath), dvfs.nominalFrequency());
    ASSERT_GE(lines.size(), 6000u);

    // Pipelined: every line on one connection from a writer thread,
    // the middle line split across two sends, while this thread reads.
    std::string head, tail;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::string &into = i < lines.size() / 2 ? head : tail;
        into += lines[i] + "\n";
    }
    const std::size_t split = 5; // inside the first line of `tail`
    startDaemon("");
    std::vector<std::string> pipelined;
    {
        RawClient client(socketPath);
        ASSERT_TRUE(client.connected());
        std::thread writer([&] {
            client.send(head + tail.substr(0, split));
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            client.send(tail.substr(split));
        });
        pipelined = client.readLines(lines.size());
        writer.join();
    }
    EXPECT_EQ(serveQuery(socketPath, "shutdown"), "ok");
    int status = 0;
    ASSERT_TRUE(waitExitOrKill(daemonPid, 30.0, &status));
    daemonPid = -1;

    // One at a time, against a fresh daemon.
    startDaemon("");
    std::vector<std::string> single;
    {
        RawClient client(socketPath);
        ASSERT_TRUE(client.connected());
        for (const std::string &line : lines) {
            ASSERT_TRUE(client.send(line + "\n"));
            const std::vector<std::string> reply = client.readLines(1);
            ASSERT_EQ(reply.size(), 1u) << line;
            single.push_back(reply[0]);
        }
    }

    ASSERT_EQ(pipelined.size(), single.size());
    std::size_t decisions = 0;
    for (std::size_t i = 0; i < single.size(); ++i) {
        SCOPED_TRACE(lines[i]);
        if (single[i].compare(0, 1, "{") == 0) {
            // stats carries timings: compare only the decision stream.
            for (const char *key : {"decisions", "decision_hash"})
                ASSERT_EQ(jsonRawField(pipelined[i], key),
                          jsonRawField(single[i], key))
                    << key;
        } else {
            ASSERT_EQ(pipelined[i], single[i]);
        }
        decisions += single[i].compare(0, 2, "f ") == 0;
    }
    EXPECT_EQ(decisions, 6000u); // every a/c event, the CRLF one too
    EXPECT_EQ(jsonRawField(single.back(), "decisions"), "6000");
}

} // namespace
} // namespace rubik
