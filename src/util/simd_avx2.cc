/**
 * @file
 * AVX2 kernel table. This translation unit is the only one compiled
 * with -mavx2 (plus -ffp-contract=off so no multiply-add fusion can
 * alter rounding); everything else in the library stays at the
 * baseline ISA, and these kernels are only selected after a runtime
 * cpuid check. See util/simd.h for the bitwise-identity contract.
 */

#include "util/simd.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>

namespace rubik {

namespace {

/**
 * Two complex products per vector. With c = (cr0, ci0, cr1, ci1) and
 * w = (wr0, wi0, wr1, wi1):
 *   t1 = c * (wr, wr)          = (cr*wr, ci*wr)
 *   t2 = swap(c) * (wi, wi)    = (ci*wi, cr*wi)
 *   addsub(t1, t2)             = (cr*wr - ci*wi, ci*wr + cr*wi)
 * The even lane is the scalar expression verbatim; the odd lane is the
 * scalar cr*wi + ci*wr with the single addition commuted, which rounds
 * identically. No FMA, no reassociation.
 */
inline __m256d
complexMul(__m256d c, __m256d w)
{
    const __m256d wr = _mm256_movedup_pd(w);
    const __m256d wi = _mm256_permute_pd(w, 0xF);
    const __m256d cswap = _mm256_permute_pd(c, 0x5);
    const __m256d t1 = _mm256_mul_pd(c, wr);
    const __m256d t2 = _mm256_mul_pd(cswap, wi);
    return _mm256_addsub_pd(t1, t2);
}

void
avx2FftPasses(double *d, const double *tw, std::size_t n,
              double final_scale)
{
    if (n == 2) {
        // Single scalar butterfly (w = 1 + 0i), scale fused.
        const double ur = d[0];
        const double ui = d[1];
        const double cr = d[2];
        const double ci = d[3];
        const double vr = cr * tw[0] - ci * tw[1];
        const double vi = cr * tw[1] + ci * tw[0];
        if (final_scale == 1.0) {
            d[0] = ur + vr;
            d[1] = ui + vi;
            d[2] = ur - vr;
            d[3] = ui - vi;
        } else {
            d[0] = (ur + vr) * final_scale;
            d[1] = (ui + vi) * final_scale;
            d[2] = (ur - vr) * final_scale;
            d[3] = (ui - vi) * final_scale;
        }
        return;
    }

    // Fused len == 2 and len == 4 stages: each group of four complex
    // values stays in registers across both butterflies. Cross-lane
    // permutes regroup (u, c) operand pairs; the arithmetic is the
    // generic butterfly with the stage's own twiddles, so the len == 2
    // multiplies by 1 + 0i happen exactly as in the scalar loop.
    {
        const __m256d w1 =
            _mm256_broadcast_pd(reinterpret_cast<const __m128d *>(tw));
        const __m256d w2 = _mm256_loadu_pd(tw + 2);
        const bool scaled = n == 4 && final_scale != 1.0;
        const __m256d sv = _mm256_set1_pd(final_scale);
        for (std::size_t b = 0; b < 2 * n; b += 8) {
            const __m256d v0 = _mm256_loadu_pd(d + b);
            const __m256d v1 = _mm256_loadu_pd(d + b + 4);
            const __m256d u = _mm256_permute2f128_pd(v0, v1, 0x20);
            const __m256d c = _mm256_permute2f128_pd(v0, v1, 0x31);
            const __m256d v = complexMul(c, w1);
            const __m256d lo = _mm256_add_pd(u, v);
            const __m256d hi = _mm256_sub_pd(u, v);
            const __m256d u2 = _mm256_permute2f128_pd(lo, hi, 0x20);
            const __m256d c2 = _mm256_permute2f128_pd(lo, hi, 0x31);
            const __m256d v2 = complexMul(c2, w2);
            __m256d outlo = _mm256_add_pd(u2, v2);
            __m256d outhi = _mm256_sub_pd(u2, v2);
            if (scaled) {
                outlo = _mm256_mul_pd(outlo, sv);
                outhi = _mm256_mul_pd(outhi, sv);
            }
            _mm256_storeu_pd(d + b, outlo);
            _mm256_storeu_pd(d + b + 4, outhi);
        }
        if (n == 4)
            return;
    }

    // Remaining stages: half >= 4, so the inner loop moves two whole
    // vectors (four complex lanes) per iteration. The inverse
    // transform's 1/n scaling rides the last stage's stores (the same
    // multiply a separate pass would perform).
    for (std::size_t len = 8; len <= n; len <<= 1) {
        const std::size_t half = len >> 1;
        const double *w = tw + 2 * (half - 1);
        const bool scaled = len == n && final_scale != 1.0;
        const __m256d sv = _mm256_set1_pd(final_scale);
        for (std::size_t i = 0; i < n; i += len) {
            double *lo = d + 2 * i;
            double *hi = lo + 2 * half;
            for (std::size_t k = 0; k < half; k += 4) {
                const __m256d u0 = _mm256_loadu_pd(lo + 2 * k);
                const __m256d u1 = _mm256_loadu_pd(lo + 2 * k + 4);
                const __m256d c0 = _mm256_loadu_pd(hi + 2 * k);
                const __m256d c1 = _mm256_loadu_pd(hi + 2 * k + 4);
                const __m256d wv0 = _mm256_loadu_pd(w + 2 * k);
                const __m256d wv1 = _mm256_loadu_pd(w + 2 * k + 4);
                const __m256d vv0 = complexMul(c0, wv0);
                const __m256d vv1 = complexMul(c1, wv1);
                __m256d l0 = _mm256_add_pd(u0, vv0);
                __m256d l1 = _mm256_add_pd(u1, vv1);
                __m256d h0 = _mm256_sub_pd(u0, vv0);
                __m256d h1 = _mm256_sub_pd(u1, vv1);
                if (scaled) {
                    l0 = _mm256_mul_pd(l0, sv);
                    l1 = _mm256_mul_pd(l1, sv);
                    h0 = _mm256_mul_pd(h0, sv);
                    h1 = _mm256_mul_pd(h1, sv);
                }
                _mm256_storeu_pd(lo + 2 * k, l0);
                _mm256_storeu_pd(lo + 2 * k + 4, l1);
                _mm256_storeu_pd(hi + 2 * k, h0);
                _mm256_storeu_pd(hi + 2 * k + 4, h1);
            }
        }
    }
}

void
avx2ComplexMulAll(double *a, const double *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m256d av = _mm256_loadu_pd(a + 2 * i);
        const __m256d bv = _mm256_loadu_pd(b + 2 * i);
        _mm256_storeu_pd(a + 2 * i, complexMul(av, bv));
    }
    for (; i < n; ++i) {
        const double ar = a[2 * i];
        const double ai = a[2 * i + 1];
        const double br = b[2 * i];
        const double bi = b[2 * i + 1];
        a[2 * i] = ar * br - ai * bi;
        a[2 * i + 1] = ar * bi + ai * br;
    }
}

void
avx2ClampRealAll(const double *a, double *out, std::size_t count)
{
    const __m256d zero = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256d v0 = _mm256_loadu_pd(a + 2 * i);
        const __m256d v1 = _mm256_loadu_pd(a + 2 * i + 4);
        // unpacklo gives (r0, r2, r1, r3); restore index order.
        const __m256d re = _mm256_permute4x64_pd(
            _mm256_unpacklo_pd(v0, v1), 0xD8);
        // max(x, +0.0) with x as the first operand: vmaxpd returns the
        // second operand on equality (and NaN), matching
        // std::max(0.0, x)'s +0.0 result for x == -0.0.
        _mm256_storeu_pd(out + i, _mm256_max_pd(re, zero));
    }
    for (; i < count; ++i)
        out[i] = std::max(0.0, a[2 * i]);
}

void
avx2EdgeSplitAll(const double *raw, double *conv, std::size_t len)
{
    const __m256d halfv = _mm256_set1_pd(0.5);
    std::size_t k = 1;
    for (; k + 4 <= len; k += 4) {
        const __m256d prev = _mm256_loadu_pd(raw + k - 1);
        const __m256d cur = _mm256_loadu_pd(raw + k);
        _mm256_storeu_pd(conv + k,
                         _mm256_add_pd(_mm256_mul_pd(halfv, prev),
                                       _mm256_mul_pd(halfv, cur)));
    }
    for (; k < len; ++k)
        conv[k] = 0.5 * raw[k - 1] + 0.5 * raw[k];
}

void
avx2DivideAll(double *p, std::size_t count, double denom)
{
    const __m256d dv = _mm256_set1_pd(denom);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4)
        _mm256_storeu_pd(p + i,
                         _mm256_div_pd(_mm256_loadu_pd(p + i), dv));
    for (; i < count; ++i)
        p[i] /= denom;
}

void
avx2RebinSplitAll(std::uint32_t *target, double *w_lo, double *w_hi,
                  std::size_t count, double src_width, double new_width,
                  std::size_t last)
{
    // Per lane, the scalar kernel's expressions: truncation then the
    // clamp at `last` (both exact on the integral doubles), and
    // std::min(x, y) == _mm256_min_pd(y, x), std::max(0.0, x) ==
    // _mm256_max_pd(x, 0.0). Lanes of the other cases compute unused
    // weights (possibly 0/0), which the blends discard.
    const __m256d sw = _mm256_set1_pd(src_width);
    const __m256d nw = _mm256_set1_pd(new_width);
    const __m256d top = _mm256_set1_pd(static_cast<double>(last));
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d wide = _mm256_set1_pd(-1.0);
    const __m256d step = _mm256_set1_pd(4.0);
    __m256d idx = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    constexpr int kTrunc = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256d a = _mm256_mul_pd(idx, sw);
        const __m256d b = _mm256_add_pd(a, sw);
        const __m256d lo_f = _mm256_div_pd(a, nw);
        const __m256d hi_f = _mm256_div_pd(b, nw);
        const __m256d lo =
            _mm256_min_pd(_mm256_round_pd(lo_f, kTrunc), top);
        const __m256d hi =
            _mm256_min_pd(_mm256_round_pd(hi_f, kTrunc), top);
        const __m256d span = _mm256_sub_pd(hi_f, lo_f);
        const __m256d next = _mm256_add_pd(hi, one);
        const __m256d w1 = _mm256_div_pd(
            _mm256_max_pd(_mm256_sub_pd(_mm256_min_pd(hi, hi_f), lo_f),
                          zero),
            span);
        const __m256d w2 = _mm256_div_pd(
            _mm256_max_pd(_mm256_sub_pd(_mm256_min_pd(next, hi_f), hi),
                          zero),
            span);
        const __m256d same = _mm256_cmp_pd(lo, hi, _CMP_EQ_OQ);
        const __m256d spread =
            _mm256_cmp_pd(_mm256_add_pd(lo, one), hi, _CMP_LT_OQ);
        _mm256_storeu_pd(
            w_lo + i,
            _mm256_blendv_pd(_mm256_blendv_pd(w1, one, same), zero,
                             spread));
        _mm256_storeu_pd(
            w_hi + i,
            _mm256_blendv_pd(_mm256_blendv_pd(w2, zero, same), wide,
                             spread));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(target + i),
                         _mm256_cvttpd_epi32(lo));
        idx = _mm256_add_pd(idx, step);
    }
    for (; i < count; ++i) {
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
avx2CountBelow(const double *x, std::size_t count, double threshold)
{
    const __m256d tv = _mm256_set1_pd(threshold);
    std::size_t c = 0;
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const int mask = _mm256_movemask_pd(
            _mm256_cmp_pd(_mm256_loadu_pd(x + i), tv, _CMP_LT_OQ));
        c += static_cast<std::size_t>(__builtin_popcount(
            static_cast<unsigned>(mask)));
        // Sorted input: a block with any failing lane ends the run.
        if (mask != 0xF)
            return c;
    }
    for (; i < count; ++i) {
        if (!(x[i] < threshold))
            break;
        ++c;
    }
    return c;
}

constexpr SimdKernels kAvx2Kernels = {
    SimdMode::Avx2,   avx2FftPasses,     avx2ComplexMulAll,
    avx2ClampRealAll, avx2EdgeSplitAll,  avx2DivideAll,
    avx2RebinSplitAll, avx2CountBelow,
};

} // anonymous namespace

namespace detail {

const SimdKernels *
avx2Kernels()
{
    static const bool supported = __builtin_cpu_supports("avx2");
    return supported ? &kAvx2Kernels : nullptr;
}

} // namespace detail

} // namespace rubik

#else // !(__AVX2__ && x86)

namespace rubik {
namespace detail {

const SimdKernels *
avx2Kernels()
{
    return nullptr;
}

} // namespace detail
} // namespace rubik

#endif
