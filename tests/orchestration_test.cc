/**
 * @file
 * Tests for the fault-tolerant sweep orchestration layer: the fault
 * spec grammar (runner/fault.h), the checksummed completed-cell
 * ledger (runner/ledger.h) including torn and corrupt tails, the
 * bounded trace-cache lock wait (workloads/file_lock.h), and the
 * work-stealing orchestrator (runner/orchestrator.h). When RUBIK_CLI
 * points at the built rubik_cli, the end-to-end gates run too: every
 * injected failure mode — crash, hang, kill-mid-write, corrupted
 * ledger or CSV tails, a real SIGKILL — must either recover to a
 * byte-identical CSV (retry / steal / --resume) or fail loudly naming
 * the batch, its cells, and the decoded child status.
 */

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "runner/fault.h"
#include "runner/ledger.h"
#include "runner/orchestrator.h"
#include "runner/subproc.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "workloads/file_lock.h"

namespace rubik {
namespace {

/// Scratch directory under /tmp, removed at scope exit.
struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/rubik_orch_test_XXXXXX";
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

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out && (out << text) && out.flush()) << path;
}

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.apps = {"masstree"};
    spec.loads = {0.3, 0.5};
    spec.policies = {"fixed", "static"};
    spec.seeds = {42};
    spec.requests = 300;
    spec.boundMs = 2.0; // explicit bound: no 50%-load bound traces
    return spec;
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

/// The unsharded legacy CSV — the byte-identity reference.
std::string
legacyCsv(const SweepSpec &spec)
{
    return captureOutput(
        [&](std::FILE *f) { runSweep(spec, 0, 1, 2, f); });
}

struct CommandResult
{
    int status = -1;
    std::string out;
    std::string err;
};

/// Run a shell command with captured stdout/stderr (via the same
/// subproc layer the orchestrator uses).
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

// --------------------------------------------------------------------
// Waiting for batch children

TEST(ExitWatch, WakesOnEachChildExit)
{
    // The coordinator's wait: sleep on a condition variable that the
    // watch's helper notifies when the child exits. A wait that slept
    // 20 ms between polls would need at least 0.5 s for 25 children.
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    std::mutex mutex;
    std::condition_variable cv;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 25; ++i) {
        const pid_t pid = spawnShellCommand("exit 3", dir.path + "/out",
                                            dir.path + "/err");
        ASSERT_GT(pid, 0);
        ExitWatch watch(pid, mutex, cv);
        std::unique_lock<std::mutex> lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return watch.exited(); }));
        EXPECT_EQ(describeWaitStatus(watch.status()),
                  "exited with status 3");
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed.count(), 0.25);
}

TEST(ExitWatch, KillSignalsAndTheWatchReaps)
{
    // The lease-kill path: the child is still running when the wait
    // gives up, killCommandGroup only signals, and the watch reaps.
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    std::mutex mutex;
    std::condition_variable cv;
    const pid_t pid = spawnShellCommand("exec sleep 30", dir.path + "/out",
                                        dir.path + "/err");
    ASSERT_GT(pid, 0);
    ExitWatch watch(pid, mutex, cv);
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_FALSE(cv.wait_for(lock, std::chrono::milliseconds(50),
                             [&] { return watch.exited(); }));
    killCommandGroup(pid);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return watch.exited(); }));
    EXPECT_EQ(describeWaitStatus(watch.status()), "killed by signal 9");
    // Reaped exactly once, by the watch.
    EXPECT_EQ(waitCommand(pid), -1);
}

TEST(ExitWatch, FailedSpawnReadsAsExited)
{
    std::mutex mutex;
    std::condition_variable cv;
    ExitWatch watch(-1, mutex, cv);
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_TRUE(watch.exited());
    EXPECT_EQ(watch.status(), -1);
}

// --------------------------------------------------------------------
// Fault spec grammar

TEST(FaultSpec, ParsesKindsAndParameters)
{
    const auto faults = parseFaultSpec(
        "crash,cell=3;hang,cell=~7,ms=250;delay-trace-io");
    ASSERT_EQ(faults.size(), 3u);
    EXPECT_EQ(faults[0].kind, FaultSpec::Kind::Crash);
    EXPECT_EQ(faults[0].cell, 3);
    EXPECT_FALSE(faults[0].seeded);
    EXPECT_EQ(faults[1].kind, FaultSpec::Kind::Hang);
    EXPECT_TRUE(faults[1].seeded);
    EXPECT_EQ(faults[1].seed, 7u);
    EXPECT_EQ(faults[1].ms, 250.0);
    EXPECT_EQ(faults[2].kind, FaultSpec::Kind::DelayTraceIo);
    EXPECT_EQ(faults[2].cell, -1);

    EXPECT_EQ(faults[0].describe(), "crash,cell=3");
    EXPECT_EQ(faults[1].describe(), "hang,cell=~7,ms=250");
    EXPECT_TRUE(parseFaultSpec("").empty());
}

TEST(FaultSpec, RejectsBadGrammar)
{
    EXPECT_THROW(parseFaultSpec("explode"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("crash,cell"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("crash,cell=-2"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("crash,where=3"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("hang,ms=abc"), std::runtime_error);
}

TEST(CellRange, ParsesHalfOpenRanges)
{
    std::size_t b = 0, e = 0;
    EXPECT_TRUE(parseCellRange("2-5", &b, &e));
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(e, 5u);
    EXPECT_FALSE(parseCellRange("5-2", &b, &e));
    EXPECT_FALSE(parseCellRange("3-3", &b, &e));
    EXPECT_FALSE(parseCellRange("3", &b, &e));
    EXPECT_FALSE(parseCellRange("-3", &b, &e));
    EXPECT_FALSE(parseCellRange("a-b", &b, &e));
    EXPECT_FALSE(parseCellRange("1-2x", &b, &e));
}

// --------------------------------------------------------------------
// Ledger

TEST(Ledger, RoundTripsRecords)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/run.ledger";
    const SweepSpec spec = tinySpec();

    SweepLedger ledger;
    ledger.open(path, spec, /*resume=*/false);
    ledger.append(0, "row-zero");
    ledger.append(2, "row,with,commas");
    ledger.close();

    const LedgerScan scan = scanLedger(path);
    EXPECT_TRUE(scan.exists);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_EQ(scan.specHash, sweepSpecHash(spec));
    EXPECT_EQ(scan.numCells, spec.numCells());
    ASSERT_EQ(scan.rows.size(), 2u);
    EXPECT_EQ(scan.rows.at(0), "row-zero");
    EXPECT_EQ(scan.rows.at(2), "row,with,commas");
    EXPECT_EQ(scan.droppedBytes, 0u);
}

TEST(Ledger, ScanDropsTornTail)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/torn.ledger";
    const SweepSpec spec = tinySpec();

    SweepLedger ledger;
    ledger.open(path, spec, false);
    ledger.append(0, "alpha");
    ledger.append(1, "beta");
    ledger.close();

    // Simulate a kill mid-append: chop the last record short.
    std::string bytes = readFile(path);
    writeFile(path, bytes.substr(0, bytes.size() - 4));

    const LedgerScan scan = scanLedger(path);
    EXPECT_TRUE(scan.headerOk);
    ASSERT_EQ(scan.rows.size(), 1u);
    EXPECT_EQ(scan.rows.at(0), "alpha");
    EXPECT_GT(scan.droppedBytes, 0u);
}

TEST(Ledger, ScanDropsCorruptChecksum)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/rot.ledger";
    const SweepSpec spec = tinySpec();

    SweepLedger ledger;
    ledger.open(path, spec, false);
    ledger.append(0, "alpha");
    ledger.append(1, "beta");
    ledger.close();

    // Flip one byte inside the second record's row.
    std::string bytes = readFile(path);
    bytes[bytes.size() - 2] ^= 0x20;
    writeFile(path, bytes);

    const LedgerScan scan = scanLedger(path);
    ASSERT_EQ(scan.rows.size(), 1u);
    EXPECT_EQ(scan.rows.at(0), "alpha");
    EXPECT_GT(scan.droppedBytes, 0u);
}

TEST(Ledger, ResumeTruncatesTailAndContinues)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/resume.ledger";
    const SweepSpec spec = tinySpec();

    {
        SweepLedger ledger;
        ledger.open(path, spec, false);
        ledger.append(0, "alpha");
        ledger.append(1, "beta");
    }
    std::string bytes = readFile(path);
    writeFile(path, bytes.substr(0, bytes.size() - 4));

    {
        LedgerScan scan;
        SweepLedger ledger;
        ledger.open(path, spec, /*resume=*/true, &scan);
        EXPECT_EQ(scan.rows.size(), 1u);
        ledger.append(1, "beta2");
        ledger.append(2, "gamma");
    }
    const LedgerScan scan = scanLedger(path);
    ASSERT_EQ(scan.rows.size(), 3u);
    EXPECT_EQ(scan.rows.at(0), "alpha");
    EXPECT_EQ(scan.rows.at(1), "beta2");
    EXPECT_EQ(scan.rows.at(2), "gamma");
    EXPECT_EQ(scan.droppedBytes, 0u);
}

TEST(Ledger, ResumeRejectsSpecMismatch)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/mismatch.ledger";
    {
        SweepLedger ledger;
        ledger.open(path, tinySpec(), false);
        ledger.append(0, "alpha");
    }
    SweepSpec other = tinySpec();
    other.seeds = {43};
    SweepLedger ledger;
    try {
        ledger.open(path, other, /*resume=*/true);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        // Splicing rows from a different experiment must fail loudly.
        EXPECT_NE(std::string(e.what()).find("spec"),
                  std::string::npos)
            << e.what();
    }
}

// --------------------------------------------------------------------
// Bounded trace-cache lock wait

TEST(FileLockBounded, TimesOutOnLiveHolder)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/entry.lock";
    FileLock holder(path);
    ASSERT_TRUE(holder.acquired());

    const auto start = std::chrono::steady_clock::now();
    FileLock waiter(path, /*blocking=*/true, /*timeout_sec=*/0.4);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(waiter.acquired());
    EXPECT_TRUE(waiter.timedOut());
    EXPECT_FALSE(waiter.staleHolder());
    EXPECT_GE(elapsed.count(), 0.35);
    EXPECT_LT(elapsed.count(), 5.0);
}

TEST(FileLockBounded, DetectsDeadHolderEarly)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string path = dir.path + "/stale.lock";

    // Hold the flock on a raw descriptor (flock treats separate opens
    // in one process as independent holders) but record the pid of an
    // already-reaped child — the "holder died, descriptor leaked into
    // a wedged process" shape.
    const int fd =
        ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(child, nullptr, 0), child);
    char pid_text[32];
    std::snprintf(pid_text, sizeof(pid_text), "%ld\n",
                  static_cast<long>(child));
    ASSERT_GT(::pwrite(fd, pid_text, std::strlen(pid_text), 0), 0);

    const auto start = std::chrono::steady_clock::now();
    FileLock waiter(path, /*blocking=*/true, /*timeout_sec=*/30.0);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(waiter.acquired());
    EXPECT_TRUE(waiter.staleHolder());
    EXPECT_FALSE(waiter.timedOut());
    // Far below the 30 s budget: the dead-pid probes end the wait.
    EXPECT_LT(elapsed.count(), 5.0);
    ::close(fd);
}

// --------------------------------------------------------------------
// Orchestrator, in-process

TEST(Orchestrator, LocalRunMatchesLegacyBytes)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const SweepSpec spec = tinySpec();
    OrchestratorOptions opt;
    opt.backend.jobs = 2;
    opt.outPath = dir.path + "/out.csv";
    runOrchestratedSweep(spec, opt);

    EXPECT_EQ(readFile(opt.outPath), legacyCsv(spec));
    const LedgerScan scan = scanLedger(opt.outPath + ".ledger");
    EXPECT_TRUE(scan.headerOk);
    EXPECT_EQ(scan.rows.size(), spec.numCells());
}

TEST(Orchestrator, ResumeSkipsLedgeredCells)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const SweepSpec spec = tinySpec();
    const std::string out = dir.path + "/out.csv";

    // A half-finished run: the first two cells are durable.
    {
        SweepLedger ledger;
        ledger.open(out + ".ledger", spec, false);
        sweepCellRows(spec, 0, 2, 2,
                      [&](std::size_t i, const std::string &row) {
                          std::string r = row;
                          r.pop_back(); // trailing newline
                          ledger.append(i, r);
                      });
    }
    OrchestratorOptions opt;
    opt.backend.jobs = 2;
    opt.outPath = out;
    opt.resume = true;
    runOrchestratedSweep(spec, opt);
    EXPECT_EQ(readFile(out), legacyCsv(spec));
}

TEST(Orchestrator, ResumeRequiresALedgerPath)
{
    OrchestratorOptions opt;
    opt.resume = true;
    EXPECT_THROW(runOrchestratedSweep(tinySpec(), opt),
                 std::runtime_error);
}

// --------------------------------------------------------------------
// End-to-end through rubik_cli (skipped when RUBIK_CLI is absent)

class OrchestrationCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *env = std::getenv("RUBIK_CLI");
        if (!env || !*env || !std::filesystem::exists(env))
            GTEST_SKIP() << "RUBIK_CLI not set or missing";
        cli = env;
        ASSERT_FALSE(dir.path.empty());
        spec = tinySpec();
        spec_path = dir.path + "/grid.spec";
        writeFile(spec_path, spec.serialize());
        baseline = legacyCsv(spec);
    }

    std::string sweepCmd(const std::string &extra) const
    {
        return shellQuote(cli) + " sweep --spec " +
               shellQuote(spec_path) + " --jobs 2 " + extra;
    }

    ScratchDir dir;
    std::string cli;
    SweepSpec spec;
    std::string spec_path;
    std::string baseline;
};

TEST_F(OrchestrationCli, CrashFaultThenResumeIsByteIdentical)
{
    const std::string out = dir.path + "/crash.csv";
    const CommandResult faulted = runCommand(
        sweepCmd("--out " + shellQuote(out) +
                 " --fault crash,cell=2"),
        dir.path, "crash");
    EXPECT_TRUE(WIFEXITED(faulted.status) &&
                WEXITSTATUS(faulted.status) == 70)
        << describeWaitStatus(faulted.status) << "\n"
        << faulted.err;
    EXPECT_NE(faulted.err.find("crash at cell 2"), std::string::npos)
        << faulted.err;
    // Never a partial CSV: the output appears only on success.
    EXPECT_FALSE(std::filesystem::exists(out));

    const CommandResult resumed = runCommand(
        sweepCmd("--out " + shellQuote(out) + " --resume"), dir.path,
        "crash-resume");
    ASSERT_EQ(resumed.status, 0) << resumed.err;
    EXPECT_NE(resumed.err.find("resuming"), std::string::npos)
        << resumed.err;
    EXPECT_EQ(readFile(out), baseline);
}

TEST_F(OrchestrationCli, DynamicSubprocessMatchesLocal)
{
    const std::string out = dir.path + "/dyn.csv";
    const CommandResult r = runCommand(
        sweepCmd("--backend subprocess --shards 2 --schedule dynamic "
                 "--trace-cache " + shellQuote(dir.path + "/tc") +
                 " --out " + shellQuote(out)),
        dir.path, "dyn");
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_EQ(readFile(out), baseline);
    // The queue mirror is left behind for post-mortems.
    EXPECT_TRUE(
        std::filesystem::exists(out + ".ledger.work"));
}

/// The cell ranges ("B-E") of the batch lines in a `.work` mirror.
std::vector<std::string>
batchPlan(const std::string &work_path)
{
    std::istringstream in(readFile(work_path));
    std::vector<std::string> plan;
    std::string line;
    while (std::getline(in, line)) {
        // "batch I cells B-E state S spawns N failures F"
        std::istringstream fields(line);
        std::string word, index, cells, range;
        if (fields >> word >> index >> cells >> range && word == "batch")
            plan.push_back(range);
    }
    return plan;
}

TEST_F(OrchestrationCli, DefaultBatchesKeepTraceRunsWhole)
{
    // 1 app x 3 loads x 3 policies: each run of 3 cells shares one
    // trace. One shard slot sizes batches at 9 / 4 = 2 cells, which a
    // one-seed grid rounds up to 3.
    SweepSpec grid = spec;
    grid.loads = {0.3, 0.5, 0.7};
    grid.policies = {"fixed", "static", "pegasus"};
    SweepSpec two_seeds = grid;
    two_seeds.seeds = {42, 43};
    struct Case
    {
        std::string name;
        SweepSpec spec;
        std::string flags;
        std::vector<std::string> plan;
    };
    const std::vector<Case> cases = {
        {"one seed", grid, "", {"0-3", "3-6", "6-9"}},
        // Two seeds: 18 / 4 = 4 cells, not rounded.
        {"two seeds", two_seeds, "",
         {"0-4", "4-8", "8-12", "12-16", "16-18"}},
        // An explicit size is honoured as given.
        {"explicit", grid, "--batch-cells 2 ",
         {"0-2", "2-4", "4-6", "6-8", "8-9"}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string grid_path = dir.path + "/plan.spec";
        writeFile(grid_path, c.spec.serialize());
        const std::string out = dir.path + "/plan.csv";
        std::filesystem::remove(out + ".ledger");
        const CommandResult r = runCommand(
            shellQuote(cli) + " sweep --spec " + shellQuote(grid_path) +
                " --jobs 1 --backend subprocess --shards 1 " + c.flags +
                "--out " + shellQuote(out),
            dir.path, "plan");
        ASSERT_EQ(r.status, 0) << r.err;
        EXPECT_EQ(readFile(out), legacyCsv(c.spec));
        EXPECT_EQ(batchPlan(out + ".ledger.work"), c.plan);
    }
}

TEST_F(OrchestrationCli, HungBatchIsStolenWithinBoundedTime)
{
    const std::string out = dir.path + "/hung.csv";
    const auto start = std::chrono::steady_clock::now();
    const CommandResult r = runCommand(
        sweepCmd("--backend subprocess --shards 2 --batch-cells 2 "
                 "--lease-timeout 1 --trace-cache " +
                 shellQuote(dir.path + "/tc") + " --out " +
                 shellQuote(out) + " --fault hang,cell=0"),
        dir.path, "hung");
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_EQ(readFile(out), baseline);
    // The injected hang sleeps an hour; a finish within the test's
    // runtime proves the lease expired and an idle worker stole the
    // batch (the straggler was killed at the hard deadline).
    EXPECT_LT(elapsed.count(), 120.0);
    EXPECT_NE(r.err.find("hang at cell 0"), std::string::npos)
        << r.err;
}

TEST_F(OrchestrationCli, TruncatedChildCsvIsCaughtAndRetried)
{
    const std::string out = dir.path + "/trunc.csv";
    const CommandResult r = runCommand(
        sweepCmd("--backend subprocess --shards 2 --trace-cache " +
                 shellQuote(dir.path + "/tc") + " --out " +
                 shellQuote(out) + " --fault corrupt-csv-tail"),
        dir.path, "trunc");
    // Every batch child's first attempt truncates its CSV and exits
    // 0 — the silent-corruption case. Row validation must catch it
    // and the clean retry must still converge.
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_EQ(readFile(out), baseline);
    EXPECT_NE(r.err.find("truncated CSV tail"), std::string::npos)
        << r.err;
}

TEST_F(OrchestrationCli, ExhaustedRetriesFailLoudly)
{
    const std::string out = dir.path + "/fatal.csv";
    const CommandResult r = runCommand(
        sweepCmd("--backend subprocess --shards 2 --retries 0 "
                 "--batch-cells 1 --trace-cache " +
                 shellQuote(dir.path + "/tc") + " --out " +
                 shellQuote(out) + " --fault crash,cell=1"),
        dir.path, "fatal");
    EXPECT_NE(r.status, 0);
    // The error names the batch, its cells, and the decoded status.
    EXPECT_NE(r.err.find("cells 1-2"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("exited with status 70"), std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("failed after 1 attempt"), std::string::npos)
        << r.err;
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST_F(OrchestrationCli, KillMidLedgerWriteThenResume)
{
    const std::string out = dir.path + "/midwrite.csv";
    const CommandResult faulted = runCommand(
        sweepCmd("--out " + shellQuote(out) +
                 " --fault kill-mid-write"),
        dir.path, "midwrite");
    EXPECT_TRUE(WIFEXITED(faulted.status) &&
                WEXITSTATUS(faulted.status) == 70)
        << describeWaitStatus(faulted.status) << "\n"
        << faulted.err;
    // The ledger holds a torn record the resume scan must drop.
    const LedgerScan scan = scanLedger(out + ".ledger");
    EXPECT_GT(scan.droppedBytes, 0u);

    const CommandResult resumed = runCommand(
        sweepCmd("--out " + shellQuote(out) + " --resume"), dir.path,
        "midwrite-resume");
    ASSERT_EQ(resumed.status, 0) << resumed.err;
    EXPECT_EQ(readFile(out), baseline);
}

TEST_F(OrchestrationCli, CorruptLedgerTailThenResume)
{
    const std::string out = dir.path + "/rotted.csv";
    const CommandResult faulted = runCommand(
        sweepCmd("--out " + shellQuote(out) +
                 " --fault corrupt-ledger-tail"),
        dir.path, "rotted");
    EXPECT_TRUE(WIFEXITED(faulted.status) &&
                WEXITSTATUS(faulted.status) == 70)
        << describeWaitStatus(faulted.status) << "\n"
        << faulted.err;

    const CommandResult resumed = runCommand(
        sweepCmd("--out " + shellQuote(out) + " --resume"), dir.path,
        "rotted-resume");
    ASSERT_EQ(resumed.status, 0) << resumed.err;
    EXPECT_EQ(readFile(out), baseline);
}

TEST_F(OrchestrationCli, SigkillMidSweepThenResume)
{
    const std::string out = dir.path + "/killed.csv";
    const std::string ledger = out + ".ledger";
    // Hang at the last cell keeps the sweep alive with every earlier
    // cell durable, making the SIGKILL point deterministic.
    const pid_t pid = spawnShellCommand(
        sweepCmd("--out " + shellQuote(out) + " --fault hang,cell=3"),
        dir.path + "/killed.stdout", dir.path + "/killed.stderr");
    ASSERT_GT(pid, 0);
    // Wait until cells 0-2 are journaled, then kill -9 the whole
    // process group mid-flight.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (scanLedger(ledger).rows.size() < 3) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << readFile(dir.path + "/killed.stderr");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    killCommandGroup(pid);
    EXPECT_FALSE(std::filesystem::exists(out));

    const CommandResult resumed = runCommand(
        sweepCmd("--out " + shellQuote(out) + " --resume"), dir.path,
        "killed-resume");
    ASSERT_EQ(resumed.status, 0) << resumed.err;
    EXPECT_EQ(readFile(out), baseline);
}

} // namespace
} // namespace rubik
