#include "runner/orchestrator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "runner/fault.h"
#include "runner/ledger.h"
#include "runner/subproc.h"
#include "runner/sweep_runner.h"

namespace rubik {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point
deadlineAfter(double s)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
}

/// mkdtemp-backed scratch directory for the spec file and per-attempt
/// child capture files, removed on scope exit.
class ScratchDir
{
  public:
    ScratchDir()
    {
        const char *base = std::getenv("TMPDIR");
        std::string tmpl = (base && *base) ? base : "/tmp";
        tmpl += "/rubik-orch-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!mkdtemp(buf.data())) {
            throw std::runtime_error(
                "orchestrator: cannot create temp directory under " +
                tmpl);
        }
        path_ = buf.data();
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
readFileText(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::string text;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

std::string
tailOf(std::string text)
{
    constexpr std::size_t kMax = 4096;
    if (text.size() > kMax)
        text = "..." + text.substr(text.size() - kMax);
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

std::string
writeSpec(const ScratchDir &dir, const SweepSpec &spec)
{
    const std::string path = dir.path() + "/sweep.spec";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("orchestrator: cannot write " + path);
    const std::string text = spec.serialize();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok)
        throw std::runtime_error("orchestrator: short write to " +
                                 path);
    return path;
}

/**
 * Shape check for a batch child's CSV: exactly `cells`
 * newline-terminated rows of 12 comma-separated fields. Returns ""
 * when valid, else a diagnosis. This is what turns a silently
 * truncated child CSV (even one with exit status 0) into a retryable
 * failure instead of a corrupt merge.
 */
std::string
diagnoseBatchCsv(const std::string &text, std::size_t cells)
{
    if (cells == 0)
        return text.empty() ? "" : "expected an empty batch";
    if (text.empty())
        return "child produced no output";
    if (text.back() != '\n')
        return "output is not newline-terminated (truncated write?)";
    std::size_t lines = 0;
    std::size_t commas = 0;
    std::size_t line_start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == ',') {
            ++commas;
        } else if (text[i] == '\n') {
            if (i == line_start)
                return "empty row at line " + std::to_string(lines + 1);
            if (commas != 11) {
                return "row " + std::to_string(lines + 1) + " has " +
                       std::to_string(commas + 1) +
                       " fields (want 12)";
            }
            ++lines;
            commas = 0;
            line_start = i + 1;
        }
    }
    if (lines != cells) {
        return "got " + std::to_string(lines) + " rows, want " +
               std::to_string(cells);
    }
    return "";
}

/// One leased unit of work: a contiguous cell range plus its
/// scheduling state.
struct Batch
{
    std::size_t begin = 0;
    std::size_t end = 0;
    int inflight = 0; ///< Attempts currently running.
    int spawns = 0;   ///< Attempts ever launched (incl. steals).
    int failures = 0; ///< Attempts that came back failed.
    bool done = false;
    Clock::time_point stealAt{};   ///< Newest attempt's lease expiry.
    Clock::time_point notBefore{}; ///< Retry backoff gate.
    std::string rows;              ///< Committed batch text.
    std::string lastError;

    std::size_t cells() const { return end - begin; }
};

/// Shared scheduler state for the dispatching path.
struct Coordinator
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Batch> batches;
    std::size_t doneCount = 0;
    std::string fatal;
    SweepLedger *ledger = nullptr;
    std::string workPath;
    std::string specPath;
    std::string scratchPath;
    const ExecutionBackend *backend = nullptr;
    double leaseTimeoutSec = 0.0;
    int maxAttempts = 3;

    bool allDone() const { return doneCount == batches.size(); }

    /// Mirror the queue to <ledger>.work so an in-flight sweep is
    /// inspectable from outside. Best effort; advisory only.
    void publishLocked()
    {
        if (workPath.empty())
            return;
        std::FILE *f = std::fopen(workPath.c_str(), "w");
        if (!f)
            return;
        std::fprintf(f, "# rubik sweep work queue: %zu/%zu batches "
                        "done\n",
                     doneCount, batches.size());
        for (std::size_t i = 0; i < batches.size(); ++i) {
            const Batch &b = batches[i];
            const char *state = b.done ? "done"
                                : b.inflight > 0 ? "leased"
                                                 : "pending";
            std::fprintf(f,
                         "batch %zu cells %zu-%zu state %s spawns %d "
                         "failures %d\n",
                         i, b.begin, b.end, state, b.spawns,
                         b.failures);
        }
        std::fclose(f);
    }
};

/// Append a committed batch's rows to the ledger, one record per
/// cell. Caller holds the coordinator mutex.
void
appendBatchToLedger(Coordinator &co, const Batch &batch,
                    const std::string &text)
{
    if (!co.ledger || !co.ledger->isOpen())
        return;
    std::size_t pos = 0;
    std::size_t index = batch.begin;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        co.ledger->append(index++, text.substr(pos, nl - pos));
        pos = nl + 1;
    }
}

/**
 * Run one attempt of one batch to completion (or abandonment) and
 * apply its outcome under the coordinator lock. The caller has
 * already incremented inflight/spawns and set the lease clock.
 */
void
runAttempt(Coordinator &co, std::size_t index, int attempt)
{
    Batch &batch = co.batches[index]; // begin/end are immutable
    const std::vector<std::string> argv = co.backend->cellsArgv(
        co.specPath, batch.begin, batch.end, static_cast<int>(index),
        static_cast<int>(co.batches.size()));
    const std::string cmd = commandLine(argv);
    const std::string base = co.scratchPath + "/batch" +
                             std::to_string(index) + ".attempt" +
                             std::to_string(attempt);
    const std::string csv_path = base + ".csv";
    const std::string err_path = base + ".err";

    // Injected faults fire on a batch's first dispatch only: retries
    // and steals run without RUBIK_FAULT, so recovery is possible by
    // construction.
    const pid_t pid = spawnCommand(argv, csv_path, err_path,
                                   attempt > 1 ? "RUBIK_FAULT" : "");
    // The lease doubles per attempt (exponential backoff for
    // stragglers); the hard kill gives a stealer one extra lease
    // period to win before the straggler is put down.
    const double lease =
        co.leaseTimeoutSec > 0.0
            ? co.leaseTimeoutSec *
                  static_cast<double>(1 << std::min(attempt - 1, 10))
            : 0.0;
    const auto kill_at = deadlineAfter(2.0 * lease);

    // Sleep on the coordinator's condition variable until one of three
    // things happens: the child exits (the watch's helper reaps it and
    // notifies), a stealer commits the batch or the sweep turns fatal
    // (the committer notifies), or the hard lease deadline passes.
    int status = -1;
    bool lease_killed = false;
    bool superseded = false;
    {
        ExitWatch watch(pid, co.mutex, co.cv);
        std::unique_lock<std::mutex> lock(co.mutex);
        const auto stop = [&] {
            return watch.exited() || co.batches[index].done ||
                   !co.fatal.empty();
        };
        if (lease > 0.0)
            co.cv.wait_until(lock, kill_at, stop);
        else
            co.cv.wait(lock, stop);
        if (watch.exited()) {
            status = watch.status();
        } else {
            superseded = co.batches[index].done || !co.fatal.empty();
            lease_killed = !superseded;
            // Signal only: the watch reaps the child, and it cannot
            // have done so yet, since it reaps under this lock.
            killCommandGroup(pid);
        }
        // Leaving the scope releases the lock, then joins the helper
        // once the killed child is reaped.
    }

    const std::string err_text = readFileText(err_path);
    std::string text;
    std::string failure;
    if (superseded) {
        // A stolen duplicate finished elsewhere (or the sweep is
        // aborting): discard this attempt's output entirely.
    } else if (lease_killed) {
        failure = "command `" + cmd + "` exceeded its lease (killed " +
                  "by the coordinator after " +
                  std::to_string(2.0 * lease) + " s)";
        if (!tailOf(err_text).empty())
            failure += "; stderr:\n" + tailOf(err_text);
    } else if (!commandSucceeded(status)) {
        failure = "command `" + cmd + "` " + describeWaitStatus(status);
        if (!tailOf(err_text).empty())
            failure += "; stderr:\n" + tailOf(err_text);
    } else {
        text = readFileText(csv_path);
        const std::string diag = diagnoseBatchCsv(text, batch.cells());
        if (!diag.empty()) {
            failure = "command `" + cmd + "` produced an invalid " +
                      "batch CSV: " + diag;
            if (!tailOf(err_text).empty())
                failure += "; stderr:\n" + tailOf(err_text);
        }
    }

    std::lock_guard<std::mutex> lock(co.mutex);
    // Replay the attempt's captured stderr whatever its outcome
    // (under the lock so attempts never interleave mid-line) — a
    // failure in one batch must not swallow another's diagnostics.
    if (!err_text.empty()) {
        std::fwrite(err_text.data(), 1, err_text.size(), stderr);
        if (err_text.back() != '\n')
            std::fputc('\n', stderr);
        std::fflush(stderr);
    }
    Batch &b = co.batches[index];
    --b.inflight;
    if (superseded) {
        co.cv.notify_all();
        return;
    }
    if (failure.empty()) {
        if (b.done) {
            // At-most-once merge: a duplicate commit must be
            // byte-identical to the winner; anything else means the
            // sweep is not deterministic and must not be published.
            if (b.rows != text) {
                co.fatal = "sweep batch " + std::to_string(index) +
                           "/" + std::to_string(co.batches.size()) +
                           " (cells " + std::to_string(b.begin) + "-" +
                           std::to_string(b.end) +
                           "): duplicate attempts disagree — "
                           "nondeterministic output, refusing to "
                           "merge";
            }
        } else {
            try {
                appendBatchToLedger(co, b, text);
                b.rows = std::move(text);
                b.done = true;
                ++co.doneCount;
            } catch (const std::exception &e) {
                co.fatal = e.what();
            }
        }
    } else {
        b.lastError = failure;
        if (!b.done) {
            ++b.failures;
            if (b.spawns >= co.maxAttempts && b.inflight == 0) {
                co.fatal =
                    "sweep batch " + std::to_string(index) + "/" +
                    std::to_string(co.batches.size()) + " (cells " +
                    std::to_string(b.begin) + "-" +
                    std::to_string(b.end) + ") failed after " +
                    std::to_string(b.spawns) + " attempt(s): " +
                    failure;
            } else {
                b.notBefore = deadlineAfter(
                    0.2 * static_cast<double>(
                              1 << std::min(b.failures, 6)));
            }
        }
    }
    co.publishLocked();
    co.cv.notify_all();
}

/// One coordinator worker: lease (or steal) batches until the sweep
/// is done or fatally failed.
void
workerLoop(Coordinator &co)
{
    std::unique_lock<std::mutex> lock(co.mutex);
    for (;;) {
        if (!co.fatal.empty() || co.allDone())
            return;
        std::size_t claim = co.batches.size();
        const auto now = Clock::now();
        for (std::size_t i = 0; i < co.batches.size(); ++i) {
            Batch &b = co.batches[i];
            if (b.done || b.spawns >= co.maxAttempts)
                continue;
            const bool fresh = b.inflight == 0 && now >= b.notBefore;
            const bool stale = b.inflight > 0 &&
                               co.leaseTimeoutSec > 0.0 &&
                               now >= b.stealAt;
            if (fresh || stale) {
                claim = i;
                break;
            }
        }
        if (claim == co.batches.size()) {
            co.cv.wait_for(lock, std::chrono::milliseconds(100));
            continue;
        }
        Batch &b = co.batches[claim];
        ++b.inflight;
        ++b.spawns;
        const int attempt = b.spawns;
        if (co.leaseTimeoutSec > 0.0) {
            b.stealAt = deadlineAfter(
                co.leaseTimeoutSec *
                static_cast<double>(1 << std::min(attempt - 1, 10)));
        }
        co.publishLocked();
        lock.unlock();
        runAttempt(co, claim, attempt);
        lock.lock();
    }
}

/**
 * Contiguous runs of not-yet-done cells, cut into batches. With
 * `batch_cells` > 0, each batch takes at most that many cells.
 * Otherwise batches are sized by guided self-scheduling (Polychronopoulos
 * & Kuck, 1987): each takes ceil(unplanned missing cells / slots),
 * rounded up to a whole number of `run`-cell runs, so the first
 * batches are big and later ones shrink to fill the tail. A batch
 * never spans a cell that is already done.
 */
std::vector<Batch>
planBatches(std::size_t num_cells,
            const std::map<std::size_t, std::string> &have,
            std::size_t batch_cells, std::size_t slots, std::size_t run)
{
    std::vector<Batch> batches;
    std::size_t unplanned = num_cells - have.size();
    std::size_t i = 0;
    while (i < num_cells) {
        if (have.count(i)) {
            ++i;
            continue;
        }
        std::size_t size = batch_cells;
        if (size == 0) {
            size = (unplanned + slots - 1) / slots;
            size = (size + run - 1) / run * run;
        }
        std::size_t j = i;
        while (j < num_cells && !have.count(j) && j - i < size)
            ++j;
        Batch b;
        b.begin = i;
        b.end = j;
        batches.push_back(b);
        unplanned -= j - i;
        i = j;
    }
    return batches;
}

} // anonymous namespace

void
runOrchestratedSweep(const SweepSpec &spec,
                     const OrchestratorOptions &options)
{
    spec.validate();
    const std::size_t num_cells = spec.numCells();
    FaultInjector::instance().armCellCount(num_cells);

    std::string ledger_path = options.ledgerPath;
    if (ledger_path.empty() && !options.outPath.empty())
        ledger_path = options.outPath + ".ledger";
    if (options.resume && ledger_path.empty())
        throw std::runtime_error(
            "sweep --resume needs --out or --ledger (nothing to "
            "resume from)");

    SweepLedger ledger;
    LedgerScan scan;
    if (!ledger_path.empty())
        ledger.open(ledger_path, spec, options.resume, &scan);
    if (!scan.rows.empty()) {
        std::fprintf(stderr,
                     "sweep: resuming — %zu/%zu cell(s) already in "
                     "the ledger\n",
                     scan.rows.size(), num_cells);
    }

    const ExecutionBackend backend =
        makeBackend(options.backendDesc, options.backend);

    // Batch sizing (planBatches): guided self-scheduling over the
    // missing cells. A batch child is a process of its own, and each
    // one spawns, faults in its working set and generates the latency
    // bounds' 50%-load traces afresh, so fewer, bigger batches cost
    // less; shrinking ones keep the slots busy to the end. With one
    // slot nothing runs beside a batch, so the plan is one batch
    // (--batch-cells gives a long single-slot sweep finer
    // checkpoints). A batch generates the traces its cells need and
    // frees them when it ends, so sizes round up to keep shared traces
    // in one batch. In process, batches run one after another, and
    // rounding to whole apps (each app's cells are adjacent and need
    // no other trace) generates every trace once. In a batch child
    // with one seed, the cells that share an (app, load) trace are a
    // run of one cell per policy, and rounding up to whole runs keeps
    // each run's trace in one child, not two.
    const std::size_t missing = num_cells - scan.rows.size();
    const std::size_t slots = static_cast<std::size_t>(
        std::max(1, options.backend.numShards));
    std::size_t run = 1;
    if (backend.inProcess())
        run = num_cells / spec.apps.size();
    else if (spec.seeds.size() == 1)
        run = spec.policies.size();

    std::map<std::size_t, std::string> rows = std::move(scan.rows);

    if (missing > 0 && backend.inProcess()) {
        // In-process: the ExperimentRunner pool already balances
        // cells across workers, so batches execute in order and the
        // ledger advances with each finished batch.
        const std::vector<Batch> batches = planBatches(
            num_cells, rows, options.batchCells, slots, run);
        for (const Batch &b : batches) {
            sweepCellRows(spec, b.begin, b.end, options.backend.jobs,
                          [&](std::size_t i, const std::string &row) {
                              std::string r = row;
                              if (!r.empty() && r.back() == '\n')
                                  r.pop_back();
                              if (ledger.isOpen())
                                  ledger.append(i, r);
                              rows.emplace(i, std::move(r));
                          });
        }
    } else if (missing > 0) {
        ScratchDir scratch;
        Coordinator co;
        co.batches =
            planBatches(num_cells, rows, options.batchCells, slots, run);
        co.ledger = &ledger;
        co.workPath =
            ledger_path.empty() ? "" : ledger_path + ".work";
        co.specPath = writeSpec(scratch, spec);
        co.scratchPath = scratch.path();
        co.backend = &backend;
        co.leaseTimeoutSec = options.leaseTimeoutSec;
        co.maxAttempts =
            options.maxAttempts > 0 ? options.maxAttempts : 3;

        const std::size_t workers =
            std::min(slots, co.batches.size());
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back([&co] { workerLoop(co); });
        for (std::thread &t : pool)
            t.join();
        if (!co.fatal.empty())
            throw std::runtime_error(co.fatal);

        for (const Batch &b : co.batches) {
            std::size_t pos = 0;
            std::size_t index = b.begin;
            while (pos < b.rows.size()) {
                const std::size_t nl = b.rows.find('\n', pos);
                rows.emplace(index++, b.rows.substr(pos, nl - pos));
                pos = nl + 1;
            }
        }
    }

    if (rows.size() != num_cells)
        throw std::runtime_error(
            "orchestrator: finished with " +
            std::to_string(rows.size()) + "/" +
            std::to_string(num_cells) + " cells — refusing to write "
            "a truncated CSV");

    std::string text = sweepCsvHeader();
    text += '\n';
    for (std::size_t i = 0; i < num_cells; ++i) {
        text += rows.at(i);
        text += '\n';
    }

    if (options.outPath.empty()) {
        if (std::fwrite(text.data(), 1, text.size(), stdout) !=
            text.size())
            throw std::runtime_error(
                "orchestrator: short write of merged CSV");
        std::fflush(stdout);
        return;
    }
    // Atomic publish: the output path either holds the complete
    // merged CSV or its previous content, never a partial write.
    const std::string tmp =
        options.outPath + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw std::runtime_error("orchestrator: cannot write " + tmp);
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
        std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    if (std::fclose(f) != 0 || !wrote) {
        std::remove(tmp.c_str());
        throw std::runtime_error("orchestrator: short write to " +
                                 tmp);
    }
    if (std::rename(tmp.c_str(), options.outPath.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("orchestrator: cannot rename " + tmp +
                                 " to " + options.outPath);
    }
}

} // namespace rubik
