#ifndef RUBIK_RUNNER_ORCHESTRATOR_H
#define RUBIK_RUNNER_ORCHESTRATOR_H

/**
 * @file
 * Fault-tolerant sweep orchestration: a dynamic work-stealing
 * scheduler over the SweepSpec cell list plus the completed-cell
 * ledger (runner/ledger.h), behind one entry point the CLI's
 * `sweep --out/--resume/--schedule dynamic` modes share.
 *
 * Instead of fixed contiguous `i/N` shards, the grid's missing cells
 * are split into batches that workers lease from a shared queue:
 *
 *  - in-process (local backend): batches run on this process's
 *    ExperimentRunner pool via sweepCellRows — the pool queue already
 *    load-balances, so "stealing" is free;
 *  - dispatching backends (subprocess / command): one coordinator
 *    worker per shard slot leases a batch, spawns its
 *    `sweep --cells B-E` child, and commits the validated rows. A
 *    batch whose lease expires (--lease-timeout) is re-dispatched by
 *    an idle worker with exponential backoff while the straggler
 *    keeps running — first valid commit wins, duplicates are verified
 *    byte-equal and discarded (at-most-once merge) — so one hung
 *    shard never gates the sweep.
 *
 * Every committed cell is appended to the checksummed, fsync'd ledger
 * before it counts as done, so `--resume` after any crash or SIGKILL
 * skips exactly the durable cells and the final CSV is byte-identical
 * to an uninterrupted run. Child output is validated (row count and
 * shape) before merging; a truncated or corrupt child CSV is retried,
 * and exhausted retries throw naming the batch, its cell range, the
 * decoded child status, and the captured stderr — never a silently
 * truncated merge.
 *
 * The queue's state is mirrored to `<ledger>.work` on every
 * transition (batch, cell range, state, attempts), making an
 * in-flight sweep inspectable the way `cache stats` made the trace
 * cache inspectable.
 */

#include <cstddef>
#include <string>

#include "runner/backend.h"
#include "runner/sweep_spec.h"

namespace rubik {

struct OrchestratorOptions
{
    /// Backend description ("local", "subprocess", "command:<tmpl>").
    std::string backendDesc = "local";
    /// Shard-slot count, jobs, trace cache, selfExe — as for
    /// makeBackend. numShards bounds concurrent batch children.
    BackendConfig backend;
    /// Merged CSV destination; "" writes to stdout. A non-empty path
    /// is written atomically (tmp + fsync + rename).
    std::string outPath;
    /// Ledger path; "" derives outPath + ".ledger" when outPath is
    /// set, else disables the ledger (stdout one-shot mode).
    std::string ledgerPath;
    /// Continue from an existing ledger instead of starting over.
    bool resume = false;
    /// Cells per leased batch; 0 sizes automatically (~4 batches per
    /// shard slot, at least one cell, and with one seed rounded up to
    /// a multiple of the policy count so no batch splits the cells
    /// that share a trace).
    std::size_t batchCells = 0;
    /// Seconds before a running batch's lease expires and an idle
    /// worker may re-dispatch it (doubled per attempt); 0 disables
    /// stealing and coordinator kills.
    double leaseTimeoutSec = 0.0;
    /// Total spawn budget per batch (first try + retries + steals);
    /// 0 = 3.
    int maxAttempts = 0;
};

/**
 * Run `spec` to a complete merged CSV under the options above.
 * Throws std::runtime_error on an invalid spec, a ledger/spec
 * mismatch, or a batch that exhausts its attempts — the error names
 * the batch, its cell range, and the decoded child status; the output
 * path is left untouched (no partial CSV is ever published).
 */
void runOrchestratedSweep(const SweepSpec &spec,
                          const OrchestratorOptions &options);

} // namespace rubik

#endif // RUBIK_RUNNER_ORCHESTRATOR_H
