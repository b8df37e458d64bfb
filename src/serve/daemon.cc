#include "serve/daemon.h"

#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "power/power_model.h"
#include "runner/sweep_runner.h"
#include "sim/trace.h"

namespace rubik {

namespace {

/// Longest unterminated request a client may buffer; past it the
/// client gets `err line too long` and is dropped.
constexpr std::size_t kMaxLineBytes = 64 * 1024;

volatile sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

bool
fillSockaddr(const std::string &path, sockaddr_un *addr)
{
    if (path.empty() || path.size() >= sizeof(addr->sun_path))
        return false;
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return true;
}

/// Write all of `s` (blocking socket); false on error/peer close.
bool
writeAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/// Parse a double token; false on trailing garbage.
bool
parseDouble(const std::string &tok, double *out)
{
    char *end = nullptr;
    errno = 0;
    *out = std::strtod(tok.c_str(), &end);
    return end && *end == '\0' && end != tok.c_str() && errno == 0;
}

std::vector<std::string>
splitTokens(const std::string &line)
{
    std::vector<std::string> toks;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && line[i] == ' ')
            ++i;
        std::size_t j = i;
        while (j < line.size() && line[j] != ' ')
            ++j;
        if (j > i)
            toks.push_back(line.substr(i, j - i));
        i = j;
    }
    return toks;
}

std::string
replayJson(const DvfsModel &dvfs, const DaemonConfig &cfg,
           const std::string &path, const std::string &policy)
{
    const Trace trace = loadTraceBinary(path);
    const PowerModel pm(dvfs);
    DecisionLog log;
    LatencyHistogram latency;
    log.latency = &latency;
    PolicyRunRequest req;
    req.trace = &trace;
    req.bound = cfg.serve.latencyBound;
    req.dvfs = &dvfs;
    req.power = &pm;
    req.decisionLog = &log;
    const PolicyOutcome out = runPolicy(policy, req);

    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"policy\":\"%s\",\"requests\":%zu,\"decisions\":%" PRIu64
        ",\"decision_hash\":\"%016" PRIx64 "\",\"tail_ms\":%.6g,"
        "\"energy_mj_per_req\":%.6g,"
        "\"latency_ns\":{\"p50\":%.6g,\"p99\":%.6g,\"max\":%" PRIu64
        "}}",
        policy.c_str(), trace.size(), log.count, log.hash,
        out.tailLatency * 1e3, out.energyPerRequest * 1e3,
        latency.percentileNs(0.5), latency.percentileNs(0.99),
        latency.maxNs());
    return buf;
}

/// One request line -> one reply line (no trailing newline). Sets
/// *shutdown when the client asked the daemon to exit.
std::string
handleLine(ServeEngine &engine, const DvfsModel &dvfs,
           const DaemonConfig &cfg, const std::string &line,
           bool *shutdown)
{
    const std::vector<std::string> toks = splitTokens(line);
    if (toks.empty())
        return "err empty request";
    const std::string &cmd = toks[0];

    if (cmd == "ping")
        return "ok";
    if (cmd == "stats")
        return engine.statsJson();
    if (cmd == "shutdown") {
        *shutdown = true;
        return "ok";
    }
    if (cmd == "a") {
        double t = 0.0, elapsed = 0.0, hint = -1.0;
        if (toks.size() < 2 || toks.size() > 4 ||
            !parseDouble(toks[1], &t) ||
            (toks.size() > 2 && !parseDouble(toks[2], &elapsed)) ||
            (toks.size() > 3 && !parseDouble(toks[3], &hint)))
            return "err usage: a <t> [elapsed_cycles] [class_hint]";
        // Range-check before the int cast (out of range is UB); NaN
        // fails every comparison.
        if (!(hint >= -1.0 && hint <= INT_MAX && hint == std::floor(hint)))
            return "err class hint must be an integer in [-1, INT_MAX]";
        const ServeDecision d =
            engine.onArrival(t, elapsed, static_cast<int>(hint));
        if (!d.ok)
            return std::string("err ") + d.error;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "f %.9g", d.frequency);
        return buf;
    }
    if (cmd == "c") {
        double t = 0.0, cycles = 0.0, mem = 0.0;
        if (toks.size() != 4 || !parseDouble(toks[1], &t) ||
            !parseDouble(toks[2], &cycles) ||
            !parseDouble(toks[3], &mem))
            return "err usage: c <t> <compute_cycles> <memory_time>";
        const ServeDecision d = engine.onCompletion(t, cycles, mem);
        if (!d.ok)
            return std::string("err ") + d.error;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "f %.9g", d.frequency);
        return buf;
    }
    if (cmd == "replay") {
        if (toks.size() < 2 || toks.size() > 3)
            return "err usage: replay <trace.rtrace> [policy]";
        const std::string policy = toks.size() > 2 ? toks[2] : "rubik";
        if (!isKnownPolicy(policy))
            return "err unknown policy: " + policy;
        try {
            return replayJson(dvfs, cfg, toks[1], policy);
        } catch (const std::exception &e) {
            return std::string("err replay: ") + e.what();
        }
    }
    return "err unknown command: " + cmd;
}

struct Client
{
    int fd = -1;
    std::string inbuf;
};

} // anonymous namespace

int
runServeDaemon(const DvfsModel &dvfs, const DaemonConfig &config)
{
    sockaddr_un addr;
    if (!fillSockaddr(config.socketPath, &addr)) {
        std::fprintf(stderr, "serve: bad socket path '%s'\n",
                     config.socketPath.c_str());
        return 1;
    }

    // Stale-socket handling: probe with connect(). A live daemon
    // accepts (refuse startup); a dead one's leftover file refuses
    // (safe to unlink and rebind).
    {
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (probe >= 0) {
            if (::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0) {
                ::close(probe);
                std::fprintf(stderr,
                             "serve: daemon already listening on %s\n",
                             config.socketPath.c_str());
                return 1;
            }
            ::close(probe);
            if (errno == ECONNREFUSED)
                ::unlink(config.socketPath.c_str());
        }
    }

    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 16) != 0) {
        std::fprintf(stderr, "serve: cannot listen on %s: %s\n",
                     config.socketPath.c_str(), std::strerror(errno));
        if (listener >= 0)
            ::close(listener);
        return 1;
    }

    g_stop = 0;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    ServeEngine engine(dvfs, config.serve);
    std::vector<Client> clients;
    bool shutdownRequested = false;

    std::fprintf(stderr, "serve: listening on %s\n",
                 config.socketPath.c_str());

    while (!g_stop && !shutdownRequested) {
        std::vector<pollfd> fds;
        fds.push_back({listener, POLLIN, 0});
        for (const Client &c : clients)
            fds.push_back({c.fd, POLLIN, 0});
        const int ready =
            ::poll(fds.data(), fds.size(), /*timeout_ms=*/500);
        if (ready < 0) {
            if (errno == EINTR)
                continue; // signal: loop re-checks g_stop
            std::fprintf(stderr, "serve: poll: %s\n",
                         std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;

        for (std::size_t i = 0; i < clients.size();) {
            Client &c = clients[i];
            const short revents = fds[i + 1].revents;
            bool drop = false;
            if (revents & (POLLIN | POLLHUP | POLLERR)) {
                char buf[4096];
                const ssize_t n = ::read(c.fd, buf, sizeof buf);
                if (n <= 0 && !(n < 0 && errno == EINTR)) {
                    drop = true;
                } else if (n > 0) {
                    c.inbuf.append(buf, static_cast<std::size_t>(n));
                    std::size_t nl;
                    while (!drop && (nl = c.inbuf.find('\n')) !=
                                        std::string::npos) {
                        std::string line = c.inbuf.substr(0, nl);
                        if (!line.empty() && line.back() == '\r')
                            line.pop_back();
                        c.inbuf.erase(0, nl + 1);
                        const std::string reply =
                            handleLine(engine, dvfs, config, line,
                                       &shutdownRequested) +
                            "\n";
                        if (!writeAll(c.fd, reply))
                            drop = true;
                    }
                    if (!drop && c.inbuf.size() > kMaxLineBytes) {
                        writeAll(c.fd, "err line too long\n");
                        drop = true;
                    }
                }
            }
            if (drop) {
                ::close(c.fd);
                clients.erase(clients.begin() +
                              static_cast<std::ptrdiff_t>(i));
                // fds snapshot is stale after erase; finish remaining
                // clients on the next poll round.
                break;
            }
            ++i;
        }

        // Accept only after servicing: a client pushed into `clients`
        // mid-round would have no pollfd, desyncing fds[i + 1] above.
        if (fds[0].revents & POLLIN) {
            const int fd = ::accept(listener, nullptr, nullptr);
            if (fd >= 0)
                clients.push_back(Client{fd, {}});
        }
    }

    for (const Client &c : clients)
        ::close(c.fd);
    ::close(listener);
    ::unlink(config.socketPath.c_str());
    std::fprintf(stderr, "serve: shut down cleanly\n");
    return 0;
}

std::string
serveQuery(const std::string &socketPath, const std::string &line,
           double timeoutSeconds)
{
    sockaddr_un addr;
    if (!fillSockaddr(socketPath, &addr))
        throw std::runtime_error("serve: bad socket path " + socketPath);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("serve: socket: " +
                                 std::string(std::strerror(errno)));
    struct timeval tv;
    tv.tv_sec = static_cast<time_t>(timeoutSeconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeoutSeconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("serve: cannot connect to " +
                                 socketPath + ": " + err);
    }
    std::string out = line;
    if (out.empty() || out.back() != '\n')
        out += '\n';
    if (!writeAll(fd, out)) {
        ::close(fd);
        throw std::runtime_error("serve: write failed");
    }
    std::string reply;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
        if (reply.find('\n') != std::string::npos)
            break;
    }
    ::close(fd);
    const std::size_t nl = reply.find('\n');
    if (nl == std::string::npos)
        throw std::runtime_error("serve: no reply (timeout?)");
    return reply.substr(0, nl);
}

} // namespace rubik
