#ifndef RUBIK_SIM_SIM_OPTIONS_H
#define RUBIK_SIM_SIM_OPTIONS_H

/**
 * @file
 * Unified simulation options.
 *
 * The simulator grew knobs in several places — engine behavior in
 * SimConfig/CoreEngineConfig, tail-table shape in TailTableConfig,
 * SIMD dispatch in the RUBIK_SIMD environment variable — and callers
 * (CLI one-shot, sweep cells, the fleet coordinator, benches) each
 * assembled their own subset. SimOptions collects them into one
 * validated hierarchy that PolicyRunRequest carries, so a new knob
 * lands in exactly one struct and flows to every entry point.
 *
 * Numerics policy: everything in SimOptions defaults to the exact
 * reference path — the one the golden CSVs pin byte-for-byte.
 * NumericsOptions is the single place that selects alternative
 * arithmetic implementations:
 *
 *   - `simd`: runtime kernel dispatch (util/simd.h). All vector kernels
 *     are pinned bitwise-identical to scalar, so this is a speed knob,
 *     not an accuracy knob.
 */

#include "core/target_tail_table.h"
#include "power/thermal_model.h"
#include "sim/simulation.h"
#include "util/simd.h"

namespace rubik {

/**
 * The single declaration point for numerics that select alternative
 * arithmetic paths. Defaults reproduce the exact scalar-pinned
 * reference behavior bit for bit.
 */
struct NumericsOptions
{
    /// Kernel dispatch (bitwise-pinned to scalar; Auto = best
    /// supported). Applied process-wide via applySimdMode().
    SimdMode simd = SimdMode::Auto;
};

/// All options for one policy run, grouped by subsystem.
struct SimOptions
{
    /// Event-engine behavior (initial frequency, transition handling,
    /// wake latency, timeline recording).
    SimConfig engine;
    /// Tail-table shape (rows, positions, percentile, buckets,
    /// conservative row bounds).
    TailTableConfig table;
    /// Kernel dispatch; see NumericsOptions.
    NumericsOptions numerics;
    /// Opt-in thermal RC network + temperature-dependent leakage
    /// (power/thermal_model.h). Disabled by default; a disabled run is
    /// byte-identical to the legacy fixed-leakage path (CI-gated).
    ThermalOptions thermal;

    /**
     * Check every field is in range (throws std::runtime_error with
     * the offending knob named). Entry points validate once at the
     * boundary so the hot path can trust the values.
     */
    void validate() const;

    /// Table config for policy constructors.
    TailTableConfig tableConfig() const { return table; }

    /**
     * Apply `numerics.simd` process-wide (util/simd.h setSimdMode).
     * Returns false if the host does not support the requested mode
     * (the active mode is left unchanged). Intended for startup —
     * dispatch is global, not per-run.
     */
    bool applySimdMode() const;
};

} // namespace rubik

#endif // RUBIK_SIM_SIM_OPTIONS_H
