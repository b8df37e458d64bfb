#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace rubik {

namespace {

// ---------------------------------------------------------------------
// Scalar reference kernels. These are the loops the vector kernels are
// pinned against; they replicate the exact expressions the pre-SIMD
// code used, so forcing SimdMode::Scalar reproduces historical bits.
// ---------------------------------------------------------------------

void
scalarFftStage(double *d, const double *w, std::size_t n, std::size_t len,
               double scale)
{
    const std::size_t half = len >> 1;
    for (std::size_t i = 0; i < n; i += len) {
        double *lo = d + 2 * i;
        double *hi = lo + 2 * half;
        for (std::size_t k = 0; k < half; ++k) {
            const double ur = lo[2 * k];
            const double ui = lo[2 * k + 1];
            const double cr = hi[2 * k];
            const double ci = hi[2 * k + 1];
            const double wr = w[2 * k];
            const double wi = w[2 * k + 1];
            const double vr = cr * wr - ci * wi;
            const double vi = cr * wi + ci * wr;
            if (scale == 1.0) {
                lo[2 * k] = ur + vr;
                lo[2 * k + 1] = ui + vi;
                hi[2 * k] = ur - vr;
                hi[2 * k + 1] = ui - vi;
            } else {
                // Scale after the butterfly add/sub: the same multiply
                // a separate normalization pass would perform.
                lo[2 * k] = (ur + vr) * scale;
                lo[2 * k + 1] = (ui + vi) * scale;
                hi[2 * k] = (ur - vr) * scale;
                hi[2 * k + 1] = (ui - vi) * scale;
            }
        }
    }
}

void
scalarFftPasses(double *d, const double *tw, std::size_t n,
                double final_scale)
{
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len >> 1;
        // The stage with half-length h owns table entries [h-1, 2h-1).
        scalarFftStage(d, tw + 2 * (half - 1), n, len,
                       len == n ? final_scale : 1.0);
    }
}

void
scalarComplexMulAll(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double ar = a[2 * i];
        const double ai = a[2 * i + 1];
        const double br = b[2 * i];
        const double bi = b[2 * i + 1];
        a[2 * i] = ar * br - ai * bi;
        a[2 * i + 1] = ar * bi + ai * br;
    }
}

void
scalarClampRealAll(const double *a, double *out, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = std::max(0.0, a[2 * i]);
}

void
scalarEdgeSplitAll(const double *raw, double *conv, std::size_t len)
{
    for (std::size_t k = 1; k < len; ++k)
        conv[k] = 0.5 * raw[k - 1] + 0.5 * raw[k];
}

void
scalarDivideAll(double *p, std::size_t count, double denom)
{
    for (std::size_t i = 0; i < count; ++i)
        p[i] /= denom;
}

void
scalarRebinSplitAll(std::uint32_t *target, double *w_lo, double *w_hi,
                    std::size_t count, double src_width, double new_width,
                    std::size_t last)
{
    for (std::size_t i = 0; i < count; ++i) {
        const double a = static_cast<double>(i) * src_width;
        const double b = a + src_width;
        const double lo_f = a / new_width;
        const double hi_f = b / new_width;
        const std::size_t lo =
            std::min(static_cast<std::size_t>(lo_f), last);
        const std::size_t hi =
            std::min(static_cast<std::size_t>(hi_f), last);
        target[i] = static_cast<std::uint32_t>(lo);
        if (lo == hi) {
            w_lo[i] = 1.0;
            w_hi[i] = 0.0;
        } else if (hi == lo + 1) {
            // lo is unclamped here (clamping forces lo == hi); hi may
            // be clamped, and the weights use the clamped bound.
            const double span = hi_f - lo_f;
            const double bound = static_cast<double>(hi);
            w_lo[i] = std::max(0.0, std::min(hi_f, bound) - lo_f) / span;
            w_hi[i] =
                std::max(0.0, std::min(hi_f, bound + 1.0) - bound) / span;
        } else {
            w_lo[i] = 0.0;
            w_hi[i] = -1.0;
        }
    }
}

std::size_t
scalarCountBelow(const double *x, std::size_t count, double threshold)
{
    std::size_t c = 0;
    while (c < count && x[c] < threshold)
        ++c;
    return c;
}

constexpr SimdKernels kScalarKernels = {
    SimdMode::Scalar,   scalarFftPasses,     scalarComplexMulAll,
    scalarClampRealAll, scalarEdgeSplitAll,  scalarDivideAll,
    scalarRebinSplitAll, scalarCountBelow,
};

// ---------------------------------------------------------------------
// NEON kernels (aarch64, where 128-bit SIMD is baseline). Two double
// lanes per vector; each lane performs the scalar expression exactly.
// The complex multiply builds (cr*wr - ci*wi, ci*wr + cr*wi) by
// negating the even lane of the cross term and adding — a - b and
// a + (-b) are the same IEEE operation, and the odd lane relies on
// single-addition commutativity, so bits match the scalar kernel.
// ---------------------------------------------------------------------

#if defined(__aarch64__)

const float64x2_t kNeonNegEven = {-1.0, 1.0};

inline float64x2_t
neonComplexMul(float64x2_t c, float64x2_t w)
{
    const float64x2_t wr = vdupq_laneq_f64(w, 0);
    const float64x2_t wi = vdupq_laneq_f64(w, 1);
    const float64x2_t cswap = vextq_f64(c, c, 1); // (ci, cr)
    const float64x2_t t1 = vmulq_f64(c, wr);      // (cr*wr, ci*wr)
    const float64x2_t t2 = vmulq_f64(cswap, wi);  // (ci*wi, cr*wi)
    return vaddq_f64(t1, vmulq_f64(t2, kNeonNegEven));
}

void
neonFftPasses(double *d, const double *tw, std::size_t n,
              double final_scale)
{
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len >> 1;
        const double *w = tw + 2 * (half - 1);
        // Fuse the inverse transform's 1/n scaling into the last
        // stage's stores: the same multiply a separate pass performs.
        const bool scaled = len == n && final_scale != 1.0;
        const float64x2_t sv = vdupq_n_f64(final_scale);
        for (std::size_t i = 0; i < n; i += len) {
            double *lo = d + 2 * i;
            double *hi = lo + 2 * half;
            for (std::size_t k = 0; k < half; ++k) {
                const float64x2_t u = vld1q_f64(lo + 2 * k);
                const float64x2_t c = vld1q_f64(hi + 2 * k);
                const float64x2_t wv = vld1q_f64(w + 2 * k);
                const float64x2_t v = neonComplexMul(c, wv);
                float64x2_t a = vaddq_f64(u, v);
                float64x2_t b = vsubq_f64(u, v);
                if (scaled) {
                    a = vmulq_f64(a, sv);
                    b = vmulq_f64(b, sv);
                }
                vst1q_f64(lo + 2 * k, a);
                vst1q_f64(hi + 2 * k, b);
            }
        }
    }
}

void
neonComplexMulAll(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float64x2_t av = vld1q_f64(a + 2 * i);
        const float64x2_t bv = vld1q_f64(b + 2 * i);
        vst1q_f64(a + 2 * i, neonComplexMul(av, bv));
    }
}

void
neonClampRealAll(const double *a, double *out, std::size_t count)
{
    const float64x2_t zero = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        const float64x2_t v0 = vld1q_f64(a + 2 * i);
        const float64x2_t v1 = vld1q_f64(a + 2 * i + 2);
        const float64x2_t re = vuzp1q_f64(v0, v1);
        vst1q_f64(out + i, vmaxq_f64(re, zero));
    }
    for (; i < count; ++i)
        out[i] = std::max(0.0, a[2 * i]);
}

void
neonEdgeSplitAll(const double *raw, double *conv, std::size_t len)
{
    const float64x2_t halfv = vdupq_n_f64(0.5);
    std::size_t k = 1;
    for (; k + 2 <= len; k += 2) {
        const float64x2_t prev = vld1q_f64(raw + k - 1);
        const float64x2_t cur = vld1q_f64(raw + k);
        vst1q_f64(conv + k, vaddq_f64(vmulq_f64(halfv, prev),
                                      vmulq_f64(halfv, cur)));
    }
    for (; k < len; ++k)
        conv[k] = 0.5 * raw[k - 1] + 0.5 * raw[k];
}

void
neonDivideAll(double *p, std::size_t count, double denom)
{
    const float64x2_t dv = vdupq_n_f64(denom);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2)
        vst1q_f64(p + i, vdivq_f64(vld1q_f64(p + i), dv));
    for (; i < count; ++i)
        p[i] /= denom;
}

std::size_t
neonCountBelow(const double *x, std::size_t count, double threshold)
{
    const float64x2_t tv = vdupq_n_f64(threshold);
    std::size_t c = 0;
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
        const uint64x2_t lt = vcltq_f64(vld1q_f64(x + i), tv);
        c += (vgetq_lane_u64(lt, 0) & 1) + (vgetq_lane_u64(lt, 1) & 1);
        // Sorted input: once a lane fails the comparison nothing later
        // can pass, so the scan may stop at the first non-full block.
        if (vgetq_lane_u64(lt, 1) == 0)
            return c;
    }
    for (; i < count; ++i)
        c += x[i] < threshold ? 1 : 0;
    return c;
}

// No NEON rebin split: the table uses the scalar kernel.
constexpr SimdKernels kNeonKernels = {
    SimdMode::Neon,   neonFftPasses,     neonComplexMulAll,
    neonClampRealAll, neonEdgeSplitAll,  neonDivideAll,
    scalarRebinSplitAll, neonCountBelow,
};

#endif // __aarch64__

const SimdKernels *
kernelsFor(SimdMode mode)
{
    switch (mode) {
    case SimdMode::Scalar:
        return &kScalarKernels;
    case SimdMode::Avx2:
        return detail::avx2Kernels();
    case SimdMode::Neon:
        return detail::neonKernels();
    case SimdMode::Auto:
        if (const SimdKernels *k = detail::avx2Kernels())
            return k;
        if (const SimdKernels *k = detail::neonKernels())
            return k;
        return &kScalarKernels;
    }
    return &kScalarKernels;
}

SimdMode
envMode()
{
    const char *env = std::getenv("RUBIK_SIMD");
    if (env == nullptr)
        return SimdMode::Auto;
    return simdModeFromString(env).value_or(SimdMode::Auto);
}

std::atomic<const SimdKernels *> g_active{nullptr};

} // anonymous namespace

namespace detail {

const SimdKernels *
neonKernels()
{
#if defined(__aarch64__)
    return &kNeonKernels;
#else
    return nullptr;
#endif
}

} // namespace detail

const SimdKernels &
simdKernels()
{
    const SimdKernels *k = g_active.load(std::memory_order_acquire);
    if (k == nullptr) {
        // Benign race: concurrent first calls resolve the same table.
        const SimdKernels *resolved = kernelsFor(envMode());
        if (resolved == nullptr)
            resolved = &kScalarKernels;
        g_active.store(resolved, std::memory_order_release);
        k = resolved;
    }
    return *k;
}

bool
setSimdMode(SimdMode mode)
{
    const SimdKernels *k = kernelsFor(mode);
    if (k == nullptr)
        return false;
    g_active.store(k, std::memory_order_release);
    return true;
}

SimdMode
activeSimdMode()
{
    return simdKernels().mode;
}

std::optional<SimdMode>
simdModeFromString(std::string_view s)
{
    if (s == "auto")
        return SimdMode::Auto;
    if (s == "scalar")
        return SimdMode::Scalar;
    if (s == "avx2")
        return SimdMode::Avx2;
    if (s == "neon")
        return SimdMode::Neon;
    return std::nullopt;
}

const char *
simdModeName(SimdMode mode)
{
    switch (mode) {
    case SimdMode::Auto:
        return "auto";
    case SimdMode::Scalar:
        return "scalar";
    case SimdMode::Avx2:
        return "avx2";
    case SimdMode::Neon:
        return "neon";
    }
    return "scalar";
}

} // namespace rubik
