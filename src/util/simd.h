#ifndef RUBIK_UTIL_SIMD_H
#define RUBIK_UTIL_SIMD_H

/**
 * @file
 * Runtime-dispatched SIMD kernels for the convolution/quantile hot path.
 *
 * Every kernel is pinned bitwise-identical to the scalar reference
 * implementation: vector lanes perform the exact same IEEE-754
 * multiplies, adds, and divides, in an order whose per-element rounding
 * matches the scalar loop (the only reorderings used are commutative
 * single additions, a - b == a + (-b), and per-lane operations — never
 * reassociated reductions or fused multiply-adds). fft_plan_test pins
 * the dispatched kernels against forced-scalar output, and CI runs the
 * figure benches under both dispatch modes and diffs the CSVs.
 *
 * Dispatch is resolved once, lazily: setSimdMode() (or the RUBIK_SIMD
 * environment variable: auto|scalar|avx2|neon) selects an
 * implementation; Auto picks the best the host supports. AVX2 kernels
 * live in a separate translation unit compiled with -mavx2 and are only
 * selected after a cpuid check; NEON kernels are compiled on aarch64
 * where they are baseline. Anything unavailable falls back to scalar.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace rubik {

enum class SimdMode {
    Auto,   ///< Best supported: AVX2, then NEON, then scalar.
    Scalar, ///< Portable reference loops.
    Avx2,   ///< 4-wide double kernels (x86 with AVX2).
    Neon,   ///< 2-wide double kernels (aarch64).
};

/**
 * The kernel table one dispatch mode provides. All array arguments may
 * be unaligned; complex data is interleaved (re, im) pairs as laid out
 * by std::complex<double>.
 */
struct SimdKernels
{
    SimdMode mode;

    /**
     * All radix-2 butterfly stages of an in-place complex FFT over n
     * complex values at d (2n doubles; n a power of two >= 2), after
     * bit reversal. `tw` is the stage-concatenated twiddle table of
     * FftPlan (stage with half-length h owns entries [h-1, 2h-1)),
     * and every butterfly computes the classic u +/- c*w with
     * v = (cr*wr - ci*wi, cr*wi + ci*wr). `final_scale` multiplies
     * every output of the last stage (pass 1.0 for none); the multiply
     * happens after the butterfly add/sub, so it rounds identically to
     * a separate scaling pass.
     */
    void (*fftPasses)(double *d, const double *tw, std::size_t n,
                      double final_scale);

    /**
     * Pointwise complex product a[i] *= b[i] over n interleaved
     * complex values: (ar*br - ai*bi, ar*bi + ai*br).
     */
    void (*complexMulAll)(double *a, const double *b, std::size_t n);

    /// out[i] = max(0.0, a[2i]): clamped real parts of an interleaved
    /// complex array (max with +0.0 second, matching std::max(0.0, x)).
    void (*clampRealAll)(const double *a, double *out, std::size_t count);

    /// conv[k] = 0.5*raw[k-1] + 0.5*raw[k] for k in [1, len); the
    /// caller writes the two boundary buckets.
    void (*edgeSplitAll)(const double *raw, double *conv,
                         std::size_t len);

    /// p[i] /= denom for i in [0, count).
    void (*divideAll)(double *p, std::size_t count, double denom);

    /**
     * The per-source-bucket work of DiscreteDistribution::rebinMasses.
     * For source bucket i in [0, count), with
     * lo_f = (i*src_width)/new_width,
     * hi_f = (i*src_width + src_width)/new_width,
     * lo = min(size_t(lo_f), last) and hi = min(size_t(hi_f), last):
     * target[i] = lo, and
     *  - hi == lo: w_lo[i] = 1 and w_hi[i] = 0 (the mass stays in lo);
     *  - hi == lo + 1: the straddle weights, with span = hi_f - lo_f,
     *    w_lo[i] = max(0, min(hi_f, hi) - lo_f) / span and
     *    w_hi[i] = max(0, min(hi_f, hi + 1) - hi) / span;
     *  - hi > lo + 1 (the source spans more than two targets):
     *    w_hi[i] = -1, and the caller splits it itself.
     * `last` (the top target bucket) must be below 2^31.
     */
    void (*rebinSplitAll)(std::uint32_t *target, double *w_lo,
                          double *w_hi, std::size_t count,
                          double src_width, double new_width,
                          std::size_t last);

    /**
     * Length of the leading run of x[0..count) strictly below
     * `threshold`. For sorted (non-decreasing) input — a CDF — this is
     * the std::lower_bound index; the quantile scans dispatch through
     * it.
     */
    std::size_t (*countBelow)(const double *x, std::size_t count,
                              double threshold);
};

/// The active kernel table (resolving RUBIK_SIMD on first use).
const SimdKernels &simdKernels();

/**
 * Select a dispatch mode. Returns false (leaving the active mode
 * unchanged) if the host does not support the requested mode. Not
 * thread-safe against in-flight kernel calls; intended for startup and
 * tests.
 */
bool setSimdMode(SimdMode mode);

/// The resolved mode in use (never Auto).
SimdMode activeSimdMode();

/// Parse auto|scalar|avx2|neon (as used by --simd and RUBIK_SIMD).
std::optional<SimdMode> simdModeFromString(std::string_view s);

const char *simdModeName(SimdMode mode);

namespace detail {

/// Defined in simd_avx2.cc: the AVX2 table, or nullptr when the build
/// target or the running CPU lacks AVX2.
const SimdKernels *avx2Kernels();

/// The NEON table on aarch64 builds, nullptr elsewhere.
const SimdKernels *neonKernels();

} // namespace detail

} // namespace rubik

#endif // RUBIK_UTIL_SIMD_H
