#include "runner/fault.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>

#include <unistd.h>

namespace rubik {

namespace {

/// splitmix64: the standard 64-bit mix, here deriving a fault cell
/// from a user seed so CI can vary the fault point reproducibly.
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

const char *
kindName(FaultSpec::Kind kind)
{
    switch (kind) {
    case FaultSpec::Kind::Crash:
        return "crash";
    case FaultSpec::Kind::Hang:
        return "hang";
    case FaultSpec::Kind::KillMidWrite:
        return "kill-mid-write";
    case FaultSpec::Kind::CorruptLedgerTail:
        return "corrupt-ledger-tail";
    case FaultSpec::Kind::CorruptCsvTail:
        return "corrupt-csv-tail";
    }
    return "?";
}

bool
kindFromName(const std::string &name, FaultSpec::Kind *kind)
{
    static const std::pair<const char *, FaultSpec::Kind> kKinds[] = {
        {"crash", FaultSpec::Kind::Crash},
        {"hang", FaultSpec::Kind::Hang},
        {"kill-mid-write", FaultSpec::Kind::KillMidWrite},
        {"corrupt-ledger-tail", FaultSpec::Kind::CorruptLedgerTail},
        {"corrupt-csv-tail", FaultSpec::Kind::CorruptCsvTail},
    };
    for (const auto &[text, value] : kKinds) {
        if (name == text) {
            *kind = value;
            return true;
        }
    }
    return false;
}

[[noreturn]] void
badSpec(const std::string &clause, const std::string &why)
{
    throw std::runtime_error("fault spec clause '" + clause + "': " +
                             why);
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t next = text.find(sep, pos);
        if (next == std::string::npos)
            next = text.size();
        parts.push_back(text.substr(pos, next - pos));
        pos = next + 1;
    }
    return parts;
}

uint64_t
parseU64(const std::string &s, const std::string &clause)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || s[0] == '-' || errno != 0 ||
        end != s.c_str() + s.size())
        badSpec(clause, "'" + s + "' is not a non-negative integer");
    return static_cast<uint64_t>(v);
}

void
sleepMs(double ms)
{
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ms));
}

} // anonymous namespace

std::string
FaultSpec::describe() const
{
    std::string out = kindName(kind);
    if (seeded)
        out += ",cell=~" + std::to_string(seed);
    else if (cell >= 0)
        out += ",cell=" + std::to_string(cell);
    if (ms >= 0.0)
        out += ",ms=" + std::to_string(static_cast<long long>(ms));
    return out;
}

std::vector<FaultSpec>
parseFaultSpec(const std::string &text)
{
    std::vector<FaultSpec> faults;
    for (const std::string &clause : splitOn(text, ';')) {
        if (clause.empty())
            continue;
        const std::vector<std::string> parts = splitOn(clause, ',');
        FaultSpec fault;
        if (!kindFromName(parts[0], &fault.kind))
            badSpec(clause, "unknown fault kind '" + parts[0] + "'");
        for (std::size_t i = 1; i < parts.size(); ++i) {
            const std::string &part = parts[i];
            const std::size_t eq = part.find('=');
            if (eq == std::string::npos)
                badSpec(clause, "expected key=value, got '" + part +
                                    "'");
            const std::string key = part.substr(0, eq);
            const std::string value = part.substr(eq + 1);
            if (key == "cell") {
                if (!value.empty() && value[0] == '~') {
                    fault.seeded = true;
                    fault.seed = parseU64(value.substr(1), clause);
                } else {
                    fault.cell = static_cast<long long>(
                        parseU64(value, clause));
                }
            } else if (key == "ms") {
                fault.ms = static_cast<double>(parseU64(value, clause));
            } else {
                badSpec(clause, "unknown key '" + key + "'");
            }
        }
        faults.push_back(fault);
    }
    return faults;
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    static const bool env_applied = [] {
        const char *spec = std::getenv("RUBIK_FAULT");
        if (spec && *spec)
            injector.configure(spec);
        return true;
    }();
    (void)env_applied;
    return injector;
}

void
FaultInjector::configure(const std::string &spec)
{
    faults_ = parseFaultSpec(spec);
}

void
FaultInjector::armCellCount(std::size_t num_cells)
{
    if (num_cells == 0)
        return;
    for (FaultSpec &fault : faults_) {
        if (fault.seeded) {
            fault.cell = static_cast<long long>(splitmix64(fault.seed) %
                                                num_cells);
            fault.seeded = false;
        }
    }
}

void
FaultInjector::onCellEmit(std::size_t index)
{
    for (const FaultSpec &fault : faults_) {
        if (fault.cell != static_cast<long long>(index))
            continue;
        if (fault.kind == FaultSpec::Kind::Crash) {
            // stderr (captured by the coordinator) names the cell, so
            // the failure is attributable even without the ledger.
            std::fprintf(stderr,
                         "rubik: injected fault: crash at cell %zu\n",
                         index);
            std::fflush(stderr);
            ::_exit(70);
        }
        if (fault.kind == FaultSpec::Kind::Hang) {
            const double ms = fault.ms >= 0.0 ? fault.ms : 3600000.0;
            std::fprintf(stderr,
                         "rubik: injected fault: hang at cell %zu "
                         "(%.0f ms)\n",
                         index, ms);
            std::fflush(stderr);
            sleepMs(ms);
        }
    }
}

FaultInjector::LedgerFault
FaultInjector::ledgerFaultFor(std::size_t index) const
{
    for (const FaultSpec &fault : faults_) {
        // An unset cell fires on the first append (the process exits
        // inside the fault, so "any" and "first" coincide).
        const bool match =
            fault.cell < 0 ||
            fault.cell == static_cast<long long>(index);
        if (!match)
            continue;
        if (fault.kind == FaultSpec::Kind::KillMidWrite)
            return LedgerFault::KillMidWrite;
        if (fault.kind == FaultSpec::Kind::CorruptLedgerTail)
            return LedgerFault::CorruptTail;
    }
    return LedgerFault::None;
}

void
FaultInjector::onBatchEnd(std::FILE *out)
{
    for (const FaultSpec &fault : faults_) {
        if (fault.kind != FaultSpec::Kind::CorruptCsvTail)
            continue;
        // The sneakiest child failure: full-looking output, truncated
        // a few bytes short, and a *successful* exit. Only the
        // coordinator's row validation can catch this one.
        std::fflush(out);
        const long size = std::ftell(out);
        if (size > 5)
            (void)!::ftruncate(::fileno(out), size - 5);
        std::fprintf(stderr,
                     "rubik: injected fault: truncated CSV tail\n");
        std::fflush(stderr);
        ::_exit(0);
    }
}

} // namespace rubik
