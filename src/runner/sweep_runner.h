#ifndef RUBIK_RUNNER_SWEEP_RUNNER_H
#define RUBIK_RUNNER_SWEEP_RUNNER_H

/**
 * @file
 * Executes SweepSpec grids: one simulation per cell, fanned out on an
 * ExperimentRunner pool, with CSV output whose bytes depend only on the
 * spec — not on worker count or on how the orchestrator batches the
 * cells: the rows of cells [B, E) (runSweepCells) are exactly the
 * bytes the whole-grid run (runSweep) emits for those cells.
 *
 * Each (app, load, seed) trace lives only as long as its cells: the
 * first of them to start generates, class-annotates and
 * baseline-replays it, every policy cell of the triple shares it, and
 * the last to finish frees it. The auto latency bound's 50%-load trace
 * is generated once per (app, seed) and handed to that load's triple
 * when the range holds it, so no trace is generated twice. Cells start
 * longest trace span first; on one worker, where the order cannot
 * change the wall time, the handed-over triples start first instead,
 * so a one-worker batch child holds one trace at a time.
 *
 * runPolicy() is the single name -> scheme dispatch, shared with
 * rubik_cli so the CLI's one-shot mode and sweep cells cannot drift.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "policies/replay.h"
#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "runner/sweep_spec.h"
#include "sim/sim_options.h"
#include "sim/trace.h"

namespace rubik {

struct DecisionLog;

/// What one policy run reports (the sweep CSV row's numeric fields).
struct PolicyOutcome
{
    double tailLatency = 0.0;      ///< 95th percentile (s).
    double energyPerRequest = 0.0; ///< Core energy (J/request).
    double meanFrequency = 0.0;    ///< Busy-weighted (0 for replays).
    double meanPower = 0.0;        ///< Mean active core power (W).
    uint64_t transitions = 0;
    double fixedEnergyPerRequest = 0.0; ///< Fixed-nominal baseline.
    /// @name Thermal telemetry (zero unless SimOptions::thermal ran)
    /// @{
    double maxCoreTemp = 0.0;          ///< Peak die temperature (C).
    double extraLeakagePerRequest = 0.0; ///< T-driven leakage (J/req).
    /// @}
    /// Per-request latencies (s), filled only when the request asked
    /// for them (PolicyRunRequest::collectLatencies); the fleet layer
    /// pools them across core groups for fleet-wide percentiles.
    std::vector<double> latencies;
};

/// Policy names runPolicy dispatches on.
const std::vector<std::string> &knownPolicyNames();
bool isKnownPolicy(const std::string &name);

/**
 * Everything one policy run needs — the single call shape shared by
 * sweep cells, the fleet coordinator, and rubik_cli's one-shot mode,
 * grown by field instead of by overload.
 */
struct PolicyRunRequest
{
    /// Request trace, already class-annotated (sim/trace.h
    /// annotateClasses) for the hint-driven schemes. Required.
    const Trace *trace = nullptr;
    /// Tail latency bound L in seconds. Required (> 0).
    double bound = 0.0;
    const DvfsModel *dvfs = nullptr;   ///< Required.
    const PowerModel *power = nullptr; ///< Required.
    /// Fixed-nominal baseline replay shared across the cells of one
    /// trace; null makes runPolicy replay it internally.
    const ReplayResult *fixedBaseline = nullptr;
    /**
     * Per-core power cap in watts (<= 0: uncapped). The online
     * schemes enforce it through DvfsPolicy::setPowerCap; `fixed`
     * replays at the cap's frequency ceiling when that is below
     * nominal. The offline oracles (static, dynamic, adrenaline)
     * optimize with bound-only knowledge and reject a cap with
     * std::runtime_error rather than silently exceeding a budget.
     */
    double powerCapWatts = 0.0;
    /// Fill PolicyOutcome::latencies with the per-request latencies.
    bool collectLatencies = false;
    /**
     * When non-null, the run's ordered decision stream is recorded
     * here (count + chained hash, optional latency histogram — see
     * sim/decision_log.h). The serve daemon's replay mode and the
     * one-shot CLI's --decision-hash both go through this field, which
     * is what makes their decision streams comparable byte for byte.
     * Only the simulated online policies produce a decision stream;
     * the replay-based ones (fixed, static, dynamic, adrenaline)
     * reject a decision log with std::runtime_error.
     */
    DecisionLog *decisionLog = nullptr;
    /**
     * Simulation options (engine behavior, table shape, numerics
     * opt-ins); validated at the top of runPolicy. Defaults reproduce
     * the exact reference path the golden CSVs pin. Note that
     * options.numerics.simd is process-global and applied by entry
     * points (see SimOptions::applySimdMode), not per run.
     */
    SimOptions options;
};

/**
 * Run one policy over one trace. Throws std::runtime_error on an
 * unknown policy name, a missing required field, or a power cap with a
 * policy that cannot honor one.
 */
PolicyOutcome runPolicy(const std::string &policy,
                        const PolicyRunRequest &request);

/// The sweep CSV header (no trailing newline).
const char *sweepCsvHeader();

/// One cell's CSV row (with trailing newline).
std::string sweepCsvRow(const SweepCell &cell, double bound,
                        const PolicyOutcome &outcome);

/**
 * Execute cells [begin, end) of the spec's grid on `jobs` workers
 * (0 = hardware default), delivering each cell's finished CSV row to
 * `sink(index, row)` in strictly increasing index order (rows carry
 * their trailing newline). This is the one execution core every sweep
 * entry point — runSweep, `--cells` batch children, and the
 * orchestrator's in-process path — shares, so their bytes cannot
 * drift. The fault-injection hook (runner/fault.h) fires per cell in
 * the emission loop, before the row reaches the sink. Throws
 * std::runtime_error on an invalid spec, unknown app or policy, or a
 * range outside the grid.
 */
void sweepCellRows(
    const SweepSpec &spec, std::size_t begin, std::size_t end,
    int jobs,
    const std::function<void(std::size_t, const std::string &)>
        &sink);

/**
 * Trace accounting of every sweep this process ran (rubik_cli
 * `--trace-stats`). A sweep holds a trace from its generation until
 * its last cell finishes. Besides the 50%-load traces the latency
 * bounds hand over, each worker holds at most one, so a sweep on
 * `jobs` workers holds at most jobs + apps x seeds traces at once.
 */
struct SweepTraceStats
{
    uint64_t generated = 0; ///< Traces generated.
    uint64_t held = 0;      ///< Traces alive now.
    uint64_t heldPeak = 0;  ///< Most traces alive at once.
};

SweepTraceStats sweepTraceStats();

/**
 * Execute the whole grid on `jobs` workers (0 = hardware default) and
 * write the CSV, header first, to `out`. Throws std::runtime_error on
 * an invalid spec or an unknown app or policy; nothing is written to
 * `out` in that case.
 */
void runSweep(const SweepSpec &spec, int jobs, std::FILE *out);

/**
 * Rows-only execution of cells [begin, end) for `rubik_cli sweep
 * --cells B-E` — the unit a dynamic scheduler leases out. Never emits
 * the CSV header: the coordinator that merges batches owns it.
 */
void runSweepCells(const SweepSpec &spec, std::size_t begin,
                   std::size_t end, int jobs, std::FILE *out);

/**
 * List the grid's cells without running anything: a
 * `cell,app,load,policy,seed` header, then one line per cell in index
 * order. Backs `rubik_cli sweep --dry-run`. Throws like runSweep on an
 * invalid spec.
 */
void printSweepCells(const SweepSpec &spec, std::FILE *out);

} // namespace rubik

#endif // RUBIK_RUNNER_SWEEP_RUNNER_H
