#include "runner/sweep_spec.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rubik {

namespace {

std::string
trim(const std::string &s)
{
    const std::size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const std::size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> items;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string item = trim(s.substr(pos, comma - pos));
        if (!item.empty())
            items.push_back(item);
        pos = comma + 1;
    }
    return items;
}

[[noreturn]] void
parseError(int line, const std::string &msg)
{
    throw std::runtime_error("sweep spec line " + std::to_string(line) +
                             ": " + msg);
}

double
parseDouble(const std::string &s, int line)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size() || s.empty() ||
        !std::isfinite(v))
        parseError(line, "'" + s + "' is not a finite number");
    return v;
}

int
parseInt(const std::string &s, int line)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size() || s.empty() ||
        v < INT_MIN || v > INT_MAX)
        parseError(line, "'" + s + "' is not an integer");
    return static_cast<int>(v);
}

uint64_t
parseSeed(const std::string &s, int line)
{
    // strtoull silently wraps negative input; reject it up front.
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size() || s.empty() ||
        s[0] == '-')
        parseError(line, "'" + s + "' is not a seed");
    return static_cast<uint64_t>(v);
}

bool
parseBool(const std::string &s, int line)
{
    if (s == "true" || s == "1")
        return true;
    if (s == "false" || s == "0")
        return false;
    parseError(line, "'" + s + "' is not a boolean");
}

/// Shortest decimal form that parses back to exactly `v`.
std::string
formatDouble(double v)
{
    char buf[64];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

template <typename T, typename Fmt>
std::string
joinList(const std::vector<T> &items, Fmt format)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ",";
        out += format(items[i]);
    }
    return out;
}

} // anonymous namespace

std::size_t
SweepSpec::numCells() const
{
    return apps.size() * loads.size() * policies.size() * seeds.size();
}

SweepCell
SweepSpec::cell(std::size_t index) const
{
    if (index >= numCells())
        throw std::runtime_error("sweep cell index out of range");
    SweepCell c;
    c.index = index;
    c.seed = seeds[index % seeds.size()];
    index /= seeds.size();
    c.policy = policies[index % policies.size()];
    index /= policies.size();
    c.load = loads[index % loads.size()];
    index /= loads.size();
    c.app = apps[index];
    return c;
}

int
SweepSpec::effectiveRequests() const
{
    // Mirrors bench::Options::numRequests so a fast spec matches a
    // --fast bench run.
    return fast ? std::max(200, requests / 4) : requests;
}

void
SweepSpec::validate() const
{
    if (apps.empty())
        throw std::runtime_error("sweep spec: no apps");
    if (loads.empty())
        throw std::runtime_error("sweep spec: no loads");
    if (policies.empty())
        throw std::runtime_error("sweep spec: no policies");
    if (seeds.empty())
        throw std::runtime_error("sweep spec: no seeds");
    for (double load : loads) {
        // The negated comparison keeps NaN from sneaking through.
        if (!(load > 0.0 && load < 1.5))
            throw std::runtime_error(
                "sweep spec: load " + formatDouble(load) +
                " outside (0, 1.5)");
    }
    if (requests <= 0)
        throw std::runtime_error("sweep spec: requests must be > 0");
    if (!(boundMs >= 0.0) || !std::isfinite(boundMs))
        throw std::runtime_error(
            "sweep spec: bound_ms must be finite and >= 0");
    if (!(transitionUs >= 0.0) || !std::isfinite(transitionUs))
        throw std::runtime_error(
            "sweep spec: transition_us must be finite and >= 0");
}

std::string
SweepSpec::serialize() const
{
    std::string out;
    out += "apps = " +
           joinList(apps, [](const std::string &s) { return s; }) + "\n";
    out += "loads = " + joinList(loads, formatDouble) + "\n";
    out += "policies = " +
           joinList(policies, [](const std::string &s) { return s; }) +
           "\n";
    out += "seeds = " +
           joinList(seeds,
                    [](uint64_t s) { return std::to_string(s); }) +
           "\n";
    out += "requests = " + std::to_string(requests) + "\n";
    out += std::string("fast = ") + (fast ? "true" : "false") + "\n";
    out += "bound_ms = " + formatDouble(boundMs) + "\n";
    out += "transition_us = " + formatDouble(transitionUs) + "\n";
    return out;
}

SweepSpec
SweepSpec::parse(const std::string &text)
{
    SweepSpec spec;
    std::istringstream in(text);
    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        const std::size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        const std::string line = trim(raw);
        if (line.empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            parseError(line_no, "expected 'key = value'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));

        if (key == "apps") {
            spec.apps = splitList(value);
        } else if (key == "loads") {
            spec.loads.clear();
            for (const auto &item : splitList(value))
                spec.loads.push_back(parseDouble(item, line_no));
        } else if (key == "policies") {
            spec.policies = splitList(value);
        } else if (key == "seeds") {
            spec.seeds.clear();
            for (const auto &item : splitList(value))
                spec.seeds.push_back(parseSeed(item, line_no));
        } else if (key == "requests") {
            spec.requests = parseInt(value, line_no);
        } else if (key == "fast") {
            spec.fast = parseBool(value, line_no);
        } else if (key == "bound_ms") {
            spec.boundMs = parseDouble(value, line_no);
        } else if (key == "transition_us") {
            spec.transitionUs = parseDouble(value, line_no);
        } else {
            parseError(line_no, "unknown key '" + key + "'");
        }
    }
    spec.validate();
    return spec;
}

SweepSpec
SweepSpec::parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read sweep spec: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str());
}

bool
parseCellRange(const std::string &text, std::size_t *begin,
               std::size_t *end)
{
    const std::size_t dash = text.find('-');
    if (dash == std::string::npos || dash == 0 ||
        dash + 1 >= text.size())
        return false;
    errno = 0;
    char *stop = nullptr;
    const unsigned long long b = std::strtoull(text.c_str(), &stop, 10);
    if (errno != 0 || stop != text.c_str() + dash)
        return false;
    const unsigned long long e =
        std::strtoull(text.c_str() + dash + 1, &stop, 10);
    if (errno != 0 || stop != text.c_str() + text.size())
        return false;
    if (b >= e)
        return false;
    *begin = static_cast<std::size_t>(b);
    *end = static_cast<std::size_t>(e);
    return true;
}

} // namespace rubik
