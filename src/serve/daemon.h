#ifndef RUBIK_SERVE_DAEMON_H
#define RUBIK_SERVE_DAEMON_H

/**
 * @file
 * Unix-domain-socket front-end over ServeEngine.
 *
 * Protocol: newline-delimited text, one request per line, one reply
 * line per request (every reply ends in '\n'):
 *
 *   a <t> [elapsed_cycles] [class_hint]  ->  f <freq_hz>
 *   c <t> <compute_cycles> <memory_time> ->  f <freq_hz>
 *   stats                                ->  one-line JSON snapshot
 *   replay <trace.rtrace> [policy]       ->  one-line JSON: decisions,
 *                                            chained decision hash,
 *                                            tail — the same runPolicy
 *                                            path as the one-shot CLI,
 *                                            so hashes are comparable
 *                                            byte for byte
 *   ping                                 ->  ok
 *   shutdown                             ->  ok (then exits cleanly)
 *
 * Errors reply "err <message>": among them a non-finite or negative
 * value, a timestamp before the engine clock, and a class hint that is
 * not an integer in [-1, INT_MAX]. A client whose unterminated line
 * passes 64 KiB gets "err line too long" and is dropped. SIGTERM/SIGINT
 * stop the poll loop,
 * close every client, and unlink the socket file. A stale socket left
 * by a killed daemon is detected with a connect() probe and replaced;
 * a live one refuses startup.
 */

#include <string>

#include "serve/serve_engine.h"

namespace rubik {

/// Daemon configuration: engine config + transport.
struct DaemonConfig
{
    std::string socketPath; ///< Required.
    ServeConfig serve;
};

/**
 * Run the daemon until SIGTERM/SIGINT or a `shutdown` command.
 * Returns 0 on clean shutdown, 1 on setup failure (message on
 * stderr). Blocks; single-threaded.
 */
int runServeDaemon(const DvfsModel &dvfs, const DaemonConfig &config);

/**
 * Client helper: connect to `socketPath`, send `line` (newline
 * appended if missing), return the one reply line (without the
 * trailing newline). Throws std::runtime_error on connect/IO failure.
 */
std::string serveQuery(const std::string &socketPath,
                       const std::string &line,
                       double timeoutSeconds = 30.0);

} // namespace rubik

#endif // RUBIK_SERVE_DAEMON_H
