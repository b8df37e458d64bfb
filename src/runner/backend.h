#ifndef RUBIK_RUNNER_BACKEND_H
#define RUBIK_RUNNER_BACKEND_H

/**
 * @file
 * Execution backends: where the orchestrator's cell batches run.
 *
 * The orchestrator (runner/orchestrator.h) splits a sweep's grid into
 * batches of contiguous cells and leases them to workers. A backend
 * decides where one batch executes:
 *
 *  - local       — in this process, on the ExperimentRunner pool (the
 *    default).
 *  - subprocess  — as a `rubik_cli sweep --spec F --cells B-E` child
 *    on this machine, exec'd directly (no shell).
 *  - command:<template> — as a user-supplied shell command, e.g.
 *    `ssh host {argv}` or a job-queue submit wrapper, run through
 *    `/bin/sh -c`. The command's stdout is the batch's rows.
 *
 * Command template contract: the template is a POSIX shell command in
 * which these placeholders are substituted per batch:
 *
 *   {argv}     the canonical local batch command, quoted (e.g.
 *              `.../rubik_cli sweep --spec F --cells 4-8`);
 *              templates like `ssh host {argv}` wrap it verbatim
 *   {cells}    the batch's cell range "B-E" (for `sweep --cells`)
 *   {spec}     path to the serialized spec file
 *   {index}    the batch index "i"     {nshards} the batch count "N"
 *   {shard}    "i/N"
 *   {jobs}     the per-batch --jobs value (0 = hardware default)
 *
 * A template must reference {argv} or {cells}; otherwise a batch child
 * could not know which cells to run.
 */

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace rubik {

/// Dispatch parameters shared by every backend.
struct BackendConfig
{
    int numShards = 1;       ///< Concurrent batch children.
    int jobs = 0;            ///< Worker threads per batch (0 = hardware).
    bool traceStats = false; ///< Forward --trace-stats to children.
    std::string selfExe;     ///< rubik_cli binary that {argv} runs.
};

class ExecutionBackend
{
  public:
    /// "local", "subprocess" or "command".
    const char *name() const { return name_; }

    /// True for the local backend: batches run in this process.
    bool inProcess() const { return !dispatches_; }

    /**
     * The argv that runs cells [begin, end) of the spec at `spec_path`
     * as one `sweep --cells` batch child — the unit the orchestrator
     * leases, re-dispatches and steals. `subprocess` gives rubik_cli's
     * own argv; `command:` gives `/bin/sh -c` and the instantiated
     * template. `batch` and `num_batches` fill the
     * {index}/{shard}/{nshards} placeholders. Throws std::logic_error
     * for the local backend.
     */
    std::vector<std::string> cellsArgv(const std::string &spec_path,
                                       std::size_t begin,
                                       std::size_t end, int batch,
                                       int num_batches) const;

  private:
    friend ExecutionBackend makeBackend(const std::string &desc,
                                        const BackendConfig &config);

    const char *name_ = "local";
    bool dispatches_ = false; ///< Batches run as child processes.
    std::string template_;    ///< The command: template, else empty.
    BackendConfig config_;
};

/**
 * Build a backend from its command-line description:
 * "local", "subprocess", or "command:<template>". Throws
 * std::runtime_error on an unknown description, an invalid template,
 * or numShards < 1.
 */
ExecutionBackend makeBackend(const std::string &desc,
                             const BackendConfig &config);

/// POSIX shell single-quote `arg` (embedded quotes escaped).
std::string shellQuote(const std::string &arg);

/// `argv` as one line for messages: `/bin/sh -c C` reads as C, any
/// other argv as its shell-quoted words.
std::string commandLine(const std::vector<std::string> &argv);

/// Replace every `{key}` from `fields` in `tmpl` (unknown braces kept).
std::string
instantiateCommandTemplate(const std::string &tmpl,
                           const std::map<std::string, std::string>
                               &fields);

/// This executable's path (/proc/self/exe when available, else argv0).
std::string selfExePath(const char *argv0);

} // namespace rubik

#endif // RUBIK_RUNNER_BACKEND_H
