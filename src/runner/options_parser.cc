#include "runner/options_parser.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "runner/sweep_spec.h"

namespace rubik {

NumberRange
NumberRange::above(double lo)
{
    NumberRange r;
    r.lo = lo;
    return r;
}

NumberRange
NumberRange::atLeast(double lo)
{
    NumberRange r;
    r.lo = lo;
    r.loOpen = false;
    return r;
}

NumberRange
NumberRange::open(double lo, double hi)
{
    NumberRange r;
    r.lo = lo;
    r.hi = hi;
    return r;
}

bool
NumberRange::contains(double v) const
{
    const bool above_lo = loOpen ? v > lo : v >= lo;
    const bool below_hi = hiOpen ? v < hi : v <= hi;
    return above_lo && below_hi;
}

std::string
NumberRange::describe() const
{
    auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        return std::string(buf);
    };
    const bool has_lo = std::isfinite(lo), has_hi = std::isfinite(hi);
    if (has_lo && has_hi)
        return std::string("in ") + (loOpen ? "(" : "[") + num(lo) + ", " +
               num(hi) + (hiOpen ? ")" : "]");
    if (has_lo)
        return (loOpen ? "> " : ">= ") + num(lo);
    if (has_hi)
        return (hiOpen ? "< " : "<= ") + num(hi);
    return "";
}

std::optional<double>
parseNumber(const char *text, const NumberRange &range)
{
    // strtod skips leading blanks and would accept "2x" as 2 when the
    // end pointer is ignored; demand the whole token.
    if (!text || !*text || std::isspace(static_cast<unsigned char>(*text)))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(v) || !range.contains(v))
        return std::nullopt;
    return v;
}

std::optional<uint64_t>
parseCount(const char *text, uint64_t min, uint64_t max)
{
    // Digits only: strtoull would wrap "-1" to SIZE_MAX.
    if (!text || !*text)
        return std::nullopt;
    for (const char *c = text; *c; ++c) {
        if (!std::isdigit(static_cast<unsigned char>(*c)))
            return std::nullopt;
    }
    errno = 0;
    const unsigned long long v = std::strtoull(text, nullptr, 10);
    if (errno == ERANGE || v < min || v > max)
        return std::nullopt;
    return static_cast<uint64_t>(v);
}

OptionsParser::OptionsParser(int argc, char **argv, int start)
    : argc_(argc), argv_(argv), start_(start)
{
    unknown_ = [](const char *token) {
        std::fprintf(stderr, "unknown flag: %s (try --help)\n", token);
        std::exit(1);
    };
}

void
OptionsParser::rejectDuplicate(const std::string &name) const
{
    // A silently shadowed flag (second registration never dispatched,
    // find() returns the first) is a programming error at the entry
    // point — fail loudly at registration time instead.
    if (find(name.c_str()))
        throw std::logic_error("OptionsParser: flag registered twice: " +
                               name);
}

void
OptionsParser::flag(const std::string &name, std::function<void()> fn)
{
    rejectDuplicate(name);
    Handler h;
    h.name = name;
    h.takesValue = false;
    h.fn = [fn = std::move(fn)](const char *) { fn(); };
    handlers_.push_back(std::move(h));
}

void
OptionsParser::value(const std::string &name,
                     std::function<void(const char *)> fn)
{
    rejectDuplicate(name);
    Handler h;
    h.name = name;
    h.takesValue = true;
    h.fn = std::move(fn);
    handlers_.push_back(std::move(h));
}

void
OptionsParser::number(const std::string &name, double *out,
                      const NumberRange &range)
{
    number(name, range, [out](double v) { *out = v; });
}

void
OptionsParser::number(const std::string &name, const NumberRange &range,
                      std::function<void(double)> store)
{
    value(name, [name, range, store = std::move(store)](const char *v) {
        const auto parsed = parseNumber(v, range);
        if (!parsed) {
            const std::string within = range.describe();
            std::fprintf(stderr, "%s wants a finite number%s%s, got '%s'\n",
                         name.c_str(), within.empty() ? "" : " ",
                         within.c_str(), v);
            std::exit(1);
        }
        store(*parsed);
    });
}

void
OptionsParser::numberList(const std::string &name, std::vector<double> *out,
                          const NumberRange &range)
{
    value(name, [name, out, range](const char *v) {
        out->clear();
        const std::string list = v;
        std::size_t pos = 0;
        do {
            std::size_t comma = list.find(',', pos);
            if (comma == std::string::npos)
                comma = list.size();
            const std::string item = list.substr(pos, comma - pos);
            const auto parsed = parseNumber(item.c_str(), range);
            if (!parsed) {
                const std::string within = range.describe();
                std::fprintf(stderr,
                             "%s wants a comma list of finite numbers%s%s, "
                             "got '%s'\n",
                             name.c_str(), within.empty() ? "" : " ",
                             within.c_str(), item.c_str());
                std::exit(1);
            }
            out->push_back(*parsed);
            pos = comma + 1;
        } while (pos <= list.size());
    });
}

void
OptionsParser::countValue(const std::string &name, uint64_t min,
                          uint64_t max, std::function<void(uint64_t)> store)
{
    value(name, [name, min, max, store = std::move(store)](const char *v) {
        const auto parsed = parseCount(v, min, max);
        if (!parsed) {
            if (max == UINT64_MAX)
                std::fprintf(stderr,
                             "%s wants an integer >= %" PRIu64
                             ", got '%s'\n",
                             name.c_str(), min, v);
            else
                std::fprintf(stderr,
                             "%s wants an integer in [%" PRIu64
                             ", %" PRIu64 "], got '%s'\n",
                             name.c_str(), min, max, v);
            std::exit(1);
        }
        store(*parsed);
    });
}

void
OptionsParser::onUnknown(std::function<void(const char *)> fn)
{
    unknown_ = std::move(fn);
}

const OptionsParser::Handler *
OptionsParser::find(const char *token) const
{
    for (const Handler &h : handlers_) {
        if (h.name == token)
            return &h;
    }
    return nullptr;
}

void
OptionsParser::run()
{
    for (int i = start_; i < argc_; ++i) {
        const char *token = argv_[i];

        // --flag=value form: split at the first '='.
        if (const char *eq = std::strchr(token, '=')) {
            const std::string name(token, eq - token);
            if (const Handler *h = find(name.c_str());
                h && h->takesValue) {
                h->fn(eq + 1);
                continue;
            }
        }

        const Handler *h = find(token);
        if (!h) {
            unknown_(token);
            continue;
        }
        if (!h->takesValue) {
            h->fn(nullptr);
            continue;
        }
        if (i + 1 >= argc_) {
            std::fprintf(stderr, "%s needs a value\n", token);
            std::exit(1);
        }
        h->fn(argv_[++i]);
    }
}

void
addRunFlags(OptionsParser &parser, CommonRunOptions *opts)
{
    parser.count("--seed", &opts->seed, 0);
    parser.count("--requests", &opts->requests, 1);
    parser.count("--jobs", &opts->jobs, 0);
}

void
addSimdFlag(OptionsParser &parser, CommonRunOptions *opts)
{
    parser.value("--simd", [opts](const char *v) {
        const auto mode = simdModeFromString(v);
        if (!mode) {
            std::fprintf(stderr,
                         "--simd wants auto|scalar|avx2|neon, got "
                         "'%s'\n",
                         v);
            std::exit(1);
        }
        opts->sim.numerics.simd = *mode;
        opts->simdGiven = true;
    });
}

void
addShardFlag(OptionsParser &parser, ShardOption *shard)
{
    parser.value("--shard", [shard](const char *v) {
        if (!parseShardArg(v, &shard->shard, &shard->numShards)) {
            std::fprintf(stderr,
                         "--shard wants I/N with 0 <= I < N\n");
            std::exit(1);
        }
        shard->given = true;
    });
}

void
applySimdSelection(const CommonRunOptions &opts)
{
    if (!opts.sim.applySimdMode()) {
        std::fprintf(stderr, "--simd: %s is not supported on this "
                             "host\n",
                     simdModeName(opts.sim.numerics.simd));
        std::exit(1);
    }
}

} // namespace rubik
