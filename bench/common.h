#ifndef RUBIK_BENCH_COMMON_H
#define RUBIK_BENCH_COMMON_H

/**
 * @file
 * Shared infrastructure for the experiment binaries in bench/.
 *
 * Each bench binary regenerates one table or figure from the paper as an
 * aligned text table (default) or CSV (--csv). --requests N scales the
 * per-simulation request count; --fast quarters it for smoke runs. Seeds
 * are fixed, so every run of a binary reproduces identical numbers.
 */

#include <string>
#include <vector>

#include "power/dvfs_model.h"
#include "power/power_model.h"
#include "sim/sim_options.h"
#include "workloads/apps.h"

namespace rubik::bench {

/// Parsed command-line options shared by all bench binaries.
struct Options
{
    bool csv = false;
    int requests = 0;    ///< 0: per-bench default.
    bool fast = false;   ///< Quarter the workload for smoke runs.
    uint64_t seed = 42;
    int jobs = 0;        ///< Worker threads; 0: hardware default.
    /// Simulation options for PolicyRunRequest::options; --simd lands
    /// in sim.numerics.simd and is applied process-wide by
    /// parseOptions when given (defaults leave RUBIK_SIMD in charge).
    SimOptions sim;

    /// Effective request count given a bench default.
    int numRequests(int bench_default) const;
};

/// Parse argv; prints usage and exits on unknown flags.
Options parseOptions(int argc, char **argv);

/**
 * Aligned-column table printer with optional CSV mode.
 */
class TablePrinter
{
  public:
    TablePrinter(std::vector<std::string> headers, bool csv);

    void addRow(std::vector<std::string> cells);

    /// Render everything to stdout.
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    bool csv_;
};

/// printf-style float formatting into std::string.
std::string fmt(const char *format, double value);

/// Print a section heading (suppressed in CSV mode prints a comment).
void heading(const Options &opts, const std::string &title);

/// The simulated CMP (Table 2): Haswell-like DVFS + calibrated power.
struct Platform
{
    DvfsModel dvfs;
    PowerModel power;

    explicit Platform(double transition_latency = 4e-6)
        : dvfs(DvfsModel::haswell(transition_latency)), power(dvfs)
    {
    }
};

} // namespace rubik::bench

#endif // RUBIK_BENCH_COMMON_H
