#ifndef RUBIK_RUNNER_SWEEP_SPEC_H
#define RUBIK_RUNNER_SWEEP_SPEC_H

/**
 * @file
 * Serializable sweep descriptions.
 *
 * A SweepSpec names an (app x load x policy x seed) experiment grid plus
 * its sizing — the unit of work `rubik_cli sweep` executes and the
 * file the orchestrator hands to its batch children. The grid
 * enumerates cells in a fixed nested order (apps outermost, then loads,
 * policies, seeds), so a cell index fully identifies one experiment,
 * and a contiguous cell range `B-E` (`sweep --cells`) is a batch whose
 * rows concatenate in order with its neighbours'.
 *
 * The text format is line-based `key = value` with `#` comments:
 *
 *     apps = masstree,xapian
 *     loads = 0.2,0.4,0.6
 *     policies = rubik,static
 *     seeds = 42,43
 *     requests = 9000
 *     fast = false
 *     bound_ms = 0
 *     transition_us = 4
 *
 * parse() and serialize() round-trip; parse errors throw
 * std::runtime_error (not fatal()) so library users and tests can
 * handle them.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rubik {

/// One grid cell, identified by its flat index.
struct SweepCell
{
    std::size_t index = 0;
    std::string app;
    double load = 0.0;
    std::string policy;
    uint64_t seed = 0;
};

struct SweepSpec
{
    std::vector<std::string> apps;
    std::vector<double> loads;
    std::vector<std::string> policies;
    std::vector<uint64_t> seeds = {42};
    int requests = 9000;     ///< Per-cell trace length.
    bool fast = false;       ///< Quarter the trace (smoke sizing).
    double boundMs = 0.0;    ///< 0: auto per app (fixed tail @50%).
    double transitionUs = 4.0;

    /// Grid size: apps * loads * policies * seeds.
    std::size_t numCells() const;

    /// Decode a flat index (apps outermost, seeds innermost).
    SweepCell cell(std::size_t index) const;

    /// Trace length after `fast` sizing (quartered, floor 200).
    int effectiveRequests() const;

    /// Structural validation; throws std::runtime_error on empty
    /// lists, out-of-range loads, or a non-positive request count.
    void validate() const;

    /// Canonical text form; parse(serialize()) == *this.
    std::string serialize() const;

    /// Parse the text format; throws std::runtime_error with a
    /// line-numbered message on malformed input.
    static SweepSpec parse(const std::string &text);

    /// Parse a spec file; throws std::runtime_error if unreadable.
    static SweepSpec parseFile(const std::string &path);
};

/**
 * Parse a "B-E" half-open cell range (e.g. "0-6": cells 0..5), the
 * `sweep --cells` argument a dynamic scheduler leases to batch
 * children. Returns false on malformed text or begin >= end; the
 * grid-size bound is checked later against the spec.
 */
bool parseCellRange(const std::string &text, std::size_t *begin,
                    std::size_t *end);

} // namespace rubik

#endif // RUBIK_RUNNER_SWEEP_SPEC_H
