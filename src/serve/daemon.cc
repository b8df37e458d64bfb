#include "serve/daemon.h"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
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

/// Longest request line, terminated or not; past it the client gets
/// `err line too long` and is dropped.
constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Most bytes one read() takes from a client in a poll round.
constexpr std::size_t kReadBytes = 64 * 1024;

/// A client with this many unwritten reply bytes is not read from
/// until it drains below it.
constexpr std::size_t kMaxUnsentBytes = 1024 * 1024;

/// How long the replies still unwritten at exit may take to go out.
constexpr int kExitDrainMs = 1000;

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

/// Append a decision's reply text, "f <hz>", to `out`.
void
appendFormatted(double hz, std::string &out)
{
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "f %.9g", hz);
    out.append(buf, static_cast<std::size_t>(n));
}

/// A request line split at spaces. No command takes more than kMax
/// tokens; a line with more has count == kMax + 1 (the extra tokens
/// are not kept), so usage errors stay exact.
struct Tokens
{
    static constexpr std::size_t kMax = 4;
    std::string_view at[kMax];
    std::size_t count = 0;
};

Tokens
splitTokens(std::string_view line)
{
    Tokens toks;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && line[i] == ' ')
            ++i;
        std::size_t j = i;
        while (j < line.size() && line[j] != ' ')
            ++j;
        if (j > i) {
            if (toks.count == Tokens::kMax) {
                ++toks.count;
                break;
            }
            toks.at[toks.count++] = line.substr(i, j - i);
        }
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

/// One connected client.
struct Client
{
    int fd = -1;
    /// Unconsumed input: [0, inLen) of a buffer that holds one capped
    /// unterminated line plus one read.
    std::unique_ptr<char[]> in;
    std::size_t inLen = 0;
    /// Replies not yet written.
    std::string out;
    /// No more input is read; the client is closed once `out` drains.
    bool closing = false;
};

/// After a failed read or write on a non-blocking socket: whether the
/// call only has to be retried later.
bool
transientError()
{
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

/// Write as much of c.out as the socket takes now, in one call; false
/// when the peer is gone.
bool
flush(Client &c)
{
    if (c.out.empty())
        return true;
    const ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
    if (n < 0)
        return transientError();
    c.out.erase(0, static_cast<std::size_t>(n));
    return true;
}

/// The engine and everything a request line needs to be answered.
struct Responder
{
    Responder(const DvfsModel &dvfs, const DaemonConfig &cfg)
        : dvfs(dvfs), cfg(cfg), engine(dvfs, cfg.serve),
          replies(dvfs.frequencies())
    {
    }

    /// Append the reply to one request line (without its newline) to
    /// `out`. Sets `shutdown` when the client asked the daemon to exit.
    void answer(std::string_view line, std::string &out)
    {
        const Tokens toks = splitTokens(line);
        if (toks.count == 0) {
            out += "err empty request";
            return;
        }
        const std::string_view cmd = toks.at[0];
        if (cmd == "a") {
            double t = 0.0, elapsed = 0.0, hint = -1.0;
            if (toks.count < 2 || toks.count > 4 ||
                !parseProtocolNumber(toks.at[1], &t) ||
                (toks.count > 2 &&
                 !parseProtocolNumber(toks.at[2], &elapsed)) ||
                (toks.count > 3 &&
                 !parseProtocolNumber(toks.at[3], &hint))) {
                out += "err usage: a <t> [elapsed_cycles] [class_hint]";
                return;
            }
            // Range-check before the int cast (out of range is UB); NaN
            // fails every comparison.
            if (!(hint >= -1.0 && hint <= INT_MAX &&
                  hint == std::floor(hint))) {
                out += "err class hint must be an integer in [-1, INT_MAX]";
                return;
            }
            decision(engine.onArrival(t, elapsed, static_cast<int>(hint)),
                     out);
        } else if (cmd == "c") {
            double t = 0.0, cycles = 0.0, mem = 0.0;
            if (toks.count != 4 || !parseProtocolNumber(toks.at[1], &t) ||
                !parseProtocolNumber(toks.at[2], &cycles) ||
                !parseProtocolNumber(toks.at[3], &mem)) {
                out += "err usage: c <t> <compute_cycles> <memory_time>";
                return;
            }
            decision(engine.onCompletion(t, cycles, mem), out);
        } else if (cmd == "ping") {
            out += "ok";
        } else if (cmd == "stats") {
            out += engine.statsJson();
        } else if (cmd == "shutdown") {
            shutdown = true;
            out += "ok";
        } else if (cmd == "replay") {
            if (toks.count < 2 || toks.count > 3) {
                out += "err usage: replay <trace.rtrace> [policy]";
                return;
            }
            const std::string policy(toks.count > 2 ? toks.at[2] : "rubik");
            if (!isKnownPolicy(policy)) {
                out += "err unknown policy: " + policy;
                return;
            }
            try {
                out += replayJson(dvfs, cfg, std::string(toks.at[1]),
                                  policy);
            } catch (const std::exception &e) {
                out += std::string("err replay: ") + e.what();
            }
        } else {
            out += "err unknown command: ";
            out += cmd;
        }
    }

    /// Append an event's reply: its decision, or its error.
    void decision(const ServeDecision &d, std::string &out) const
    {
        if (d.ok) {
            replies.append(d.frequency, out);
        } else {
            out += "err ";
            out += d.error;
        }
    }

    /**
     * Read what a ready client sent, straight into its input buffer,
     * and answer every complete line into its output buffer; stops at
     * a `shutdown` line. False when the client must be dropped now.
     */
    bool readAndAnswer(Client &c)
    {
        char *const buf = c.in.get();
        const ssize_t n = ::read(c.fd, buf + c.inLen, kReadBytes);
        if (n < 0)
            return transientError();
        if (n == 0) {
            // EOF: the replies already answered still go out.
            c.closing = true;
            return true;
        }
        c.inLen += static_cast<std::size_t>(n);
        std::size_t start = 0;
        while (!shutdown) {
            const char *nl = static_cast<const char *>(
                std::memchr(buf + start, '\n', c.inLen - start));
            const std::size_t end =
                nl ? static_cast<std::size_t>(nl - buf) : c.inLen;
            if (end - start > kMaxLineBytes) {
                c.out += "err line too long\n";
                c.closing = true;
                c.inLen = 0;
                return true;
            }
            if (!nl)
                break;
            std::string_view line(buf + start, end - start);
            if (!line.empty() && line.back() == '\r')
                line.remove_suffix(1);
            answer(line, c.out);
            c.out += '\n';
            start = end + 1;
        }
        c.inLen -= start;
        std::memmove(buf, buf + start, c.inLen);
        return true;
    }

    const DvfsModel &dvfs;
    const DaemonConfig &cfg;
    ServeEngine engine;
    const DecisionReplies replies;
    bool shutdown = false;
};

/// Give the replies still unwritten up to kExitDrainMs to go out.
void
drainReplies(std::vector<Client> &clients, std::vector<pollfd> &fds)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(kExitDrainMs);
    for (;;) {
        fds.clear();
        bool pending = false;
        for (const Client &c : clients) {
            // poll skips a negative fd: nothing to wait for there.
            fds.push_back({c.out.empty() ? -1 : c.fd, POLLOUT, 0});
            pending = pending || !c.out.empty();
        }
        const auto left =
            (deadline - Clock::now()) / std::chrono::milliseconds(1);
        if (!pending || left <= 0)
            return;
        if (::poll(fds.data(), fds.size(), static_cast<int>(left)) < 0 &&
            errno != EINTR)
            return;
        for (std::size_t i = 0; i < clients.size(); ++i) {
            if (fds[i].revents && !flush(clients[i]))
                clients[i].out.clear(); // peer gone
        }
    }
}

} // anonymous namespace

bool
parseProtocolNumber(std::string_view token, double *out)
{
    const char *const end = token.data() + token.size();
    const std::from_chars_result r =
        std::from_chars(token.data(), end, *out);
    return r.ec == std::errc() && r.ptr == end;
}

DecisionReplies::DecisionReplies(const std::vector<double> &grid)
    : grid_(grid), text_(grid.size())
{
    for (std::size_t i = 0; i < grid_.size(); ++i)
        appendFormatted(grid_[i], text_[i]);
}

void
DecisionReplies::append(double hz, std::string &out) const
{
    for (std::size_t i = 0; i < grid_.size(); ++i) {
        if (grid_[i] == hz) {
            out += text_[i];
            return;
        }
    }
    appendFormatted(hz, out);
}

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

    const int listener =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
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

    Responder responder(dvfs, config);
    std::vector<Client> clients;
    std::vector<pollfd> fds;

    std::fprintf(stderr, "serve: listening on %s\n",
                 config.socketPath.c_str());

    while (!g_stop && !responder.shutdown) {
        fds.clear();
        fds.push_back({listener, POLLIN, 0});
        for (const Client &c : clients) {
            short events = c.out.empty() ? 0 : POLLOUT;
            if (!c.closing && c.out.size() < kMaxUnsentBytes)
                events |= POLLIN;
            fds.push_back({c.fd, events, 0});
        }
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

        for (std::size_t i = 0; i < clients.size() && !responder.shutdown;
             ++i) {
            Client &c = clients[i];
            const pollfd &p = fds[i + 1];
            bool keep = true;
            if ((p.events & POLLIN) &&
                (p.revents & (POLLIN | POLLHUP | POLLERR)))
                keep = responder.readAndAnswer(c) && flush(c);
            else if (p.revents & (POLLOUT | POLLHUP | POLLERR))
                keep = flush(c); // a peer that hung up fails the write
            if (!keep || (c.closing && c.out.empty())) {
                ::close(c.fd);
                c.fd = -1;
            }
        }
        std::erase_if(clients, [](const Client &c) { return c.fd < 0; });

        // Accept only after servicing: a client pushed into `clients`
        // mid-round would have no pollfd, desyncing fds[i + 1] above.
        if (!responder.shutdown && (fds[0].revents & POLLIN)) {
            int fd;
            while ((fd = ::accept4(listener, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0) {
                Client c;
                c.fd = fd;
                c.in = std::make_unique_for_overwrite<char[]>(
                    kMaxLineBytes + kReadBytes);
                clients.push_back(std::move(c));
            }
        }
    }

    drainReplies(clients, fds);
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
