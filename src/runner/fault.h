#ifndef RUBIK_RUNNER_FAULT_H
#define RUBIK_RUNNER_FAULT_H

/**
 * @file
 * Deterministic fault injection for the sweep orchestration layer.
 *
 * A fault spec (the RUBIK_FAULT environment variable or the --fault
 * flag, which sets it so dispatched children inherit the spec) arms
 * the process-wide FaultInjector with failures that fire at fixed,
 * reproducible points of a sweep — the machinery behind
 * tests/orchestration_test and the CI robustness gate, which prove
 * that every failure mode either recovers (retry / steal / resume) or
 * fails loudly naming the cells and the decoded status.
 *
 * Grammar (faults separated by ';', parameters by ','):
 *
 *     spec  := fault (';' fault)*
 *     fault := kind (',' key '=' value)*
 *     kind  := crash | hang | kill-mid-write | corrupt-ledger-tail
 *            | corrupt-csv-tail
 *     key   := cell | ms
 *
 * Kinds and their firing points:
 *
 *   crash,cell=K            _exit(70) when cell K's row is emitted,
 *                           before it reaches the ledger or the CSV.
 *   hang,cell=K[,ms=N]      sleep N ms (default 3600000) at cell K's
 *                           emission — the straggler/hung-batch case
 *                           the lease-timeout steal path must absorb.
 *   kill-mid-write,cell=K   append only half of cell K's ledger
 *                           record, fsync the torn tail, _exit(70).
 *   corrupt-ledger-tail[,cell=K]
 *                           after appending cell K's (default: the
 *                           first) ledger record, overwrite the last
 *                           bytes of the file with garbage, fsync,
 *                           _exit(70).
 *   corrupt-csv-tail        after a --cells batch child has written
 *                           every row, truncate its stdout by a few
 *                           bytes and _exit(0) — the silent-truncation
 *                           case the coordinator's row validation must
 *                           catch.
 *
 * `cell=~S` derives the cell deterministically from seed S and the
 * grid size (splitmix64(S) % cells, resolved by armCellCount), so a
 * CI loop can vary the fault point reproducibly without knowing the
 * grid. Cell-targeted faults fire in whichever process *executes*
 * the cell (the coordinator for the local backend, a batch child for
 * dispatching backends); ledger faults fire in the process writing
 * the ledger (always the coordinator). The scheduler strips
 * RUBIK_FAULT from re-dispatched attempts, so an injected fault hits
 * a batch's first attempt only — retry and steal run clean.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rubik {

/// One parsed fault clause.
struct FaultSpec
{
    enum class Kind
    {
        Crash,
        Hang,
        KillMidWrite,
        CorruptLedgerTail,
        CorruptCsvTail,
    };

    Kind kind = Kind::Crash;
    /// Target cell index; -1 = unresolved/any. Resolved from seedCell
    /// by FaultInjector::armCellCount when the ~S form was used.
    long long cell = -1;
    bool seeded = false;    ///< cell=~S form awaiting resolution.
    uint64_t seed = 0;      ///< S of cell=~S.
    double ms = -1.0;       ///< ms= parameter (-1: kind default).

    /// Human-readable rendering for error messages and logs.
    std::string describe() const;
};

/// Parse a fault spec; throws std::runtime_error naming the offending
/// clause on bad grammar. "" parses to an empty (inactive) list.
std::vector<FaultSpec> parseFaultSpec(const std::string &text);

/**
 * Process-wide injector. Inactive (every hook a no-op) unless
 * configured — from the RUBIK_FAULT environment variable on first use,
 * or explicitly via configure().
 */
class FaultInjector
{
  public:
    /// The process-wide instance; reads RUBIK_FAULT on first call.
    static FaultInjector &instance();

    /// Replace the armed faults ("" disarms). Throws on bad grammar.
    void configure(const std::string &spec);

    /// Resolve cell=~S clauses against the grid size.
    void armCellCount(std::size_t num_cells);

    bool active() const { return !faults_.empty(); }

    /// Fires crash/hang faults. Called as each cell's row is emitted,
    /// before the row reaches any ledger or output stream.
    void onCellEmit(std::size_t index);

    /// Ledger-append faults for this cell.
    enum class LedgerFault
    {
        None,
        KillMidWrite,
        CorruptTail,
    };
    LedgerFault ledgerFaultFor(std::size_t index) const;

    /// Fires corrupt-csv-tail: truncates `out` (a --cells batch
    /// child's redirected stdout) and exits 0. No-op otherwise.
    void onBatchEnd(std::FILE *out);

  private:
    FaultInjector() = default;

    std::vector<FaultSpec> faults_;
};

} // namespace rubik

#endif // RUBIK_RUNNER_FAULT_H
