#ifndef RUBIK_RUNNER_OPTIONS_PARSER_H
#define RUBIK_RUNNER_OPTIONS_PARSER_H

/**
 * @file
 * Shared command-line option parsing.
 *
 * rubik_cli's one-shot, sweep, and fleet modes and every bench binary
 * used to walk argv with their own strcmp ladders, so a knob like
 * --seed was parsed four times with four error-handling styles — and a
 * new shared knob meant touching every ladder. OptionsParser is the
 * one argv walker: entry points register exactly the flags they
 * support (strictness per entry point is preserved; unregistered flags
 * still error) and the canonical shared flags — --seed/--requests/
 * --jobs and --simd — come from the add*Flags helpers below
 * so they are declared, documented, and error-messaged in one file.
 *
 * Values are accepted both space-separated (`--simd avx2`) and
 * equals-joined (`--simd=avx2`).
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/sim_options.h"

namespace rubik {

/// The values a numeric flag accepts: an interval, each end open or
/// closed (an infinite end admits every finite value on its side).
struct NumberRange
{
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool loOpen = true;
    bool hiOpen = true;

    /// (lo, inf): e.g. a positive period.
    static NumberRange above(double lo);
    /// [lo, inf): e.g. a non-negative latency.
    static NumberRange atLeast(double lo);
    /// (lo, hi): e.g. a percentile strictly inside (0, 1).
    static NumberRange open(double lo, double hi);

    bool contains(double v) const;
    /// "> 0", ">= 0", "in (0, 1)", ... for error messages.
    std::string describe() const;
};

/**
 * The whole token as a finite number inside `range`, or nullopt:
 * trailing garbage ("2x"), leading blanks, an empty token, NaN, an
 * infinity and out-of-range values are all rejected.
 */
std::optional<double> parseNumber(const char *text,
                                  const NumberRange &range);

/// The whole token as a decimal count in [min, max], or nullopt
/// (signs, garbage and values past `max` are rejected).
std::optional<uint64_t> parseCount(const char *text, uint64_t min,
                                   uint64_t max = UINT64_MAX);

/**
 * Registration-based argv walker. A missing value prints
 * "FLAG needs a value" to stderr and exits 1; an unregistered token
 * goes to the onUnknown handler (default: "unknown flag: %s (try
 * --help)", exit 1).
 */
class OptionsParser
{
  public:
    /// Parse argv[start..argc). rubik_cli subcommands pass start = 2
    /// to skip the subcommand token.
    OptionsParser(int argc, char **argv, int start = 1);

    /// Register a boolean flag. Throws std::logic_error if `name` is
    /// already registered (silent shadowing hid real CLI bugs).
    void flag(const std::string &name, std::function<void()> fn);

    /// Register a valued flag; fn receives the value token. Throws
    /// std::logic_error on a duplicate name, like flag().
    void value(const std::string &name,
               std::function<void(const char *)> fn);

    /**
     * Register a numeric flag stored into *out. A value that
     * parseNumber rejects prints "FLAG wants a finite number RANGE,
     * got 'V'" to stderr and exits 1 at parse time.
     */
    void number(const std::string &name, double *out,
                const NumberRange &range);

    /// As above, handing each parsed value to `store`.
    void number(const std::string &name, const NumberRange &range,
                std::function<void(double)> store);

    /**
     * Register a comma-list flag of numbers, each inside `range`,
     * stored into *out (replacing its contents). An empty list, an
     * empty item or an item parseNumber rejects prints "FLAG wants a
     * comma list of finite numbers RANGE, got 'ITEM'" and exits 1.
     */
    void numberList(const std::string &name, std::vector<double> *out,
                    const NumberRange &range);

    /**
     * Register a count flag stored into *out, accepting [min, max]
     * (max defaults to the largest value *out holds). A value
     * parseCount rejects prints "FLAG wants an integer >= MIN, got
     * 'V'" (or "in [MIN, MAX]" when max is below UINT64_MAX) and exits
     * 1.
     */
    template <typename Int>
    void count(const std::string &name, Int *out, uint64_t min,
               uint64_t max = std::numeric_limits<Int>::max())
    {
        static_assert(std::is_integral_v<Int>);
        countValue(name, min, max,
                   [out](uint64_t v) { *out = static_cast<Int>(v); });
    }

    /**
     * Register a comma-list flag of counts, each in [min, max], stored
     * into *out (replacing its contents). An empty list, an empty item
     * or an item parseCount rejects prints "FLAG wants a comma list of
     * integers RANGE, got 'ITEM'" and exits 1.
     */
    template <typename Int>
    void countList(const std::string &name, std::vector<Int> *out,
                   uint64_t min,
                   uint64_t max = std::numeric_limits<Int>::max())
    {
        static_assert(std::is_integral_v<Int>);
        countListValue(name, min, max, [out](std::vector<uint64_t> v) {
            out->assign(v.begin(), v.end());
        });
    }

    /// Replace the unknown-token handler.
    void onUnknown(std::function<void(const char *)> fn);

    /// Walk the argument vector, dispatching to handlers in order.
    void run();

  private:
    struct Handler
    {
        std::string name;
        bool takesValue = false;
        std::function<void(const char *)> fn;
    };

    const Handler *find(const char *token) const;
    void rejectDuplicate(const std::string &name) const;
    void countValue(const std::string &name, uint64_t min, uint64_t max,
                    std::function<void(uint64_t)> store);
    void countListValue(const std::string &name, uint64_t min,
                        uint64_t max,
                        std::function<void(std::vector<uint64_t>)> store);

    int argc_;
    char **argv_;
    int start_;
    std::vector<Handler> handlers_;
    std::function<void(const char *)> unknown_;
};

/**
 * The run knobs shared by every simulation entry point, mapped onto
 * SimOptions (and from there onto PolicyRunRequest::options). Callers
 * seed the fields with their own defaults before parsing.
 */
struct CommonRunOptions
{
    uint64_t seed = 42;
    int requests = 0; ///< 0: entry point's default.
    int jobs = 0;     ///< Worker threads; 0: hardware default.
    /// Simulation options; --simd lands in sim.numerics.simd.
    SimOptions sim;
    bool simdGiven = false;
};

/**
 * Register --seed S (an integer in [0, 2^64-1]), --requests N (in
 * [1, INT_MAX]) and --jobs N (in [0, INT_MAX]). A bad value exits 1
 * naming the flag.
 */
void addRunFlags(OptionsParser &parser, CommonRunOptions *opts);

/**
 * Register --simd auto|scalar|avx2|neon (also --simd=MODE). A bad
 * mode name errors at parse time; host support is checked by
 * applySimdSelection.
 */
void addSimdFlag(OptionsParser &parser, CommonRunOptions *opts);

/**
 * Apply opts.sim.numerics.simd process-wide (util/simd.h). Exits 1
 * with a message naming the mode if the host cannot provide it. Call
 * once after parsing, before any simulation work.
 */
void applySimdSelection(const CommonRunOptions &opts);

} // namespace rubik

#endif // RUBIK_RUNNER_OPTIONS_PARSER_H
