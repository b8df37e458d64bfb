#ifndef RUBIK_RUNNER_SUBPROC_H
#define RUBIK_RUNNER_SUBPROC_H

/**
 * @file
 * Child-process plumbing for the dispatch backends and the
 * orchestrator: spawn a shell command with redirected stdio, wait for
 * it (blocking, or woken on a condition variable by an ExitWatch), and
 * signal a straggler's whole process group.
 *
 * Unlike std::system("( cmd ) > out 2> err"), spawnShellCommand
 * redirects in the forked child *before* exec'ing `sh -c cmd`, so for
 * a simple command the shell execs it directly and the pid we hold is
 * the command itself — a child killed by SIGKILL surfaces as
 * WIFSIGNALED (decoded "killed by signal 9"), not as a subshell's
 * exit 137. That decoded status is what backend/orchestrator error
 * messages report, so a signal death is never mistaken for an
 * application exit code.
 *
 * Children are placed in their own process group, so
 * killCommandGroup() takes down a hung `sh -c 'a; b'` tree as a unit.
 */

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include <sys/types.h>

namespace rubik {

/**
 * Fork and exec `/bin/sh -c command` with stdout/stderr redirected
 * (O_TRUNC-created) to the given paths, in a fresh process group.
 * Returns the child pid, or -1 when the fork fails (errno set).
 */
pid_t spawnShellCommand(const std::string &command,
                        const std::string &stdout_path,
                        const std::string &stderr_path);

/**
 * Block until `pid` exits and return its raw wait status (decode with
 * describeWaitStatus / commandSucceeded). Returns -1 if `pid` is -1
 * or waitpid fails.
 */
int waitCommand(pid_t pid);

/**
 * Waits for one spawned child without polling. A helper thread blocks
 * until the child exits, then takes `mutex`, reaps the child (the one
 * place it is reaped), stores its raw wait status and notifies `cv`.
 * A caller that waits on `cv` for this exit and for anything else (a
 * deadline, another thread's progress) therefore wakes the moment the
 * child exits. While exited() reads false under `mutex`, the child is
 * not yet reaped, so its pid is still safe to signal.
 */
class ExitWatch
{
  public:
    /// Start watching `pid`; -1 (a failed spawn) reads as exited with
    /// status -1 at once. `mutex` and `cv` must outlive the watch.
    ExitWatch(pid_t pid, std::mutex &mutex, std::condition_variable &cv);

    /// Joins the helper, so the child must have exited or been
    /// signalled (killCommandGroup) first, and `mutex` must be free.
    ~ExitWatch();

    ExitWatch(const ExitWatch &) = delete;
    ExitWatch &operator=(const ExitWatch &) = delete;

    /// Whether the child has exited and been reaped. Hold `mutex`.
    bool exited() const { return exited_; }

    /// The raw wait status once exited(). Hold `mutex`.
    int status() const { return status_; }

  private:
    bool exited_ = false;
    int status_ = -1;
    std::thread helper_;
};

/**
 * SIGKILL `pid`'s process group (and the pid itself, in case it
 * escaped the group). Only signals: whoever waits on the child
 * (waitCommand or an ExitWatch) reaps it. Safe on exited but unreaped
 * children.
 */
void killCommandGroup(pid_t pid);

/// Human-readable decode of a waitpid status ("exited with status 3",
/// "killed by signal 9", ...). -1 decodes as a spawn failure.
std::string describeWaitStatus(int status);

/// True when the status is a clean exit 0.
bool commandSucceeded(int status);

} // namespace rubik

#endif // RUBIK_RUNNER_SUBPROC_H
