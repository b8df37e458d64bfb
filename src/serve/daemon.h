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
 * Numbers follow parseProtocolNumber's grammar. Errors reply
 * "err <message>": among them a non-finite or negative value, a
 * timestamp before the engine clock, and a class hint that is not an
 * integer in [-1, INT_MAX]. A line longer than 64 KiB, terminated or
 * not, gets "err line too long" and the client is dropped.
 *
 * I/O is non-blocking: each poll round reads up to 64 KiB from every
 * ready client, answers every complete line into that client's output
 * buffer, and sends the batch with one write; what does not fit waits
 * for POLLOUT. A client with 1 MiB of unwritten replies is not read
 * from until it drains, so a client that stops reading never holds up
 * another. Processing stops at a `shutdown` line; SIGTERM/SIGINT stop
 * the poll loop. Either way the replies already answered get up to 1 s
 * to be written, then every client is closed and the socket file is
 * unlinked. A stale socket left by a killed daemon is detected with a
 * connect() probe and replaced; a live one refuses startup.
 */

#include <string>
#include <string_view>
#include <vector>

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

/**
 * Parse one protocol number: the whole token, read by std::from_chars
 * in general format. Accepted: an optional '-', decimal digits with an
 * optional '.' and an optional exponent (`1`, `-0`, `.5`, `5.`, `1E5`,
 * `1e-5`), and `inf`/`infinity`/`nan`/`nan(chars)` in any case, which
 * the engine then refuses as non-finite. Rejected: a leading '+' or
 * blank, hex (`0x10`), an empty or partial token (`1e`, `1_0`), and a
 * magnitude outside the double range (`1e400`, or `2e-324`, which
 * rounds to zero). Subnormals (`1e-310`) are accepted. Each accepted
 * token gives the correctly rounded double, the same bits strtod
 * gives. On a rejected token *out is unspecified.
 */
bool parseProtocolNumber(std::string_view token, double *out);

/**
 * Decision replies ("f <hz>") formatted once per grid frequency with
 * the protocol's snprintf("f %.9g"), so answering a decision is a
 * lookup. A frequency off the grid (the controller only decides on
 * it) is formatted on the spot, the same way.
 */
class DecisionReplies
{
  public:
    explicit DecisionReplies(const std::vector<double> &grid);

    /// Append the reply for `hz` to `out` (no newline).
    void append(double hz, std::string &out) const;

  private:
    std::vector<double> grid_;
    std::vector<std::string> text_;
};

} // namespace rubik

#endif // RUBIK_SERVE_DAEMON_H
