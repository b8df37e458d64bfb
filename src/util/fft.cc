#include "util/fft.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <shared_mutex>
#include <unordered_map>

#include "util/error.h"
#include "util/simd.h"

namespace rubik {

void
fft(std::vector<std::complex<double>> &a, bool invert)
{
    const std::size_t n = a.size();
    RUBIK_ASSERT((n & (n - 1)) == 0, "FFT size must be a power of two");
    if (n <= 1)
        return;

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(a[i], a[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang =
            2.0 * std::numbers::pi / static_cast<double>(len) *
            (invert ? -1.0 : 1.0);
        const std::complex<double> wlen(std::cos(ang), std::sin(ang));
        for (std::size_t i = 0; i < n; i += len) {
            std::complex<double> w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const std::complex<double> u = a[i + k];
                const std::complex<double> v = a[i + k + len / 2] * w;
                a[i + k] = u + v;
                a[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }

    if (invert) {
        for (auto &x : a)
            x /= static_cast<double>(n);
    }
}

std::size_t
fftConvolveSize(std::size_t out_size)
{
    std::size_t n = 1;
    while (n < out_size)
        n <<= 1;
    return n;
}

FftPlan::FftPlan(std::size_t n)
    : n_(n), invN_(1.0 / static_cast<double>(n)), rev_(n, 0)
{
    // The permutation the unplanned bit-reversal's swaps apply: the
    // same j recurrence, with rev_[i] = j (and rev_[j] = i).
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        rev_[i] = static_cast<std::uint32_t>(j);
        if (i < j)
            swaps_.emplace_back(static_cast<std::uint32_t>(i),
                                static_cast<std::uint32_t>(j));
    }

    // Per-stage twiddles, generated by the exact w *= wlen recurrence of
    // the unplanned transform so planned results are bitwise identical.
    if (n >= 2) {
        fwd_.reserve(n - 1);
        inv_.reserve(n - 1);
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
        for (int dir = 0; dir < 2; ++dir) {
            const bool invert = dir == 1;
            const double ang =
                2.0 * std::numbers::pi / static_cast<double>(len) *
                (invert ? -1.0 : 1.0);
            const std::complex<double> wlen(std::cos(ang), std::sin(ang));
            std::vector<std::complex<double>> &tw = invert ? inv_ : fwd_;
            std::complex<double> w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                tw.push_back(w);
                w *= wlen;
            }
        }
    }
}

const FftPlan &
FftPlan::forSize(std::size_t n)
{
    RUBIK_ASSERT(n >= 1 && (n & (n - 1)) == 0,
                 "FFT size must be a power of two");
    static std::shared_mutex mu;
    static std::unordered_map<std::size_t, std::unique_ptr<FftPlan>> cache;
    {
        std::shared_lock<std::shared_mutex> lock(mu);
        const auto it = cache.find(n);
        if (it != cache.end())
            return *it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu);
    std::unique_ptr<FftPlan> &slot = cache[n];
    if (!slot)
        slot.reset(new FftPlan(n));
    return *slot;
}

void
FftPlan::run(std::complex<double> *a, bool invert) const
{
    if (n_ <= 1)
        return;

    for (const auto &[i, j] : swaps_)
        std::swap(a[i], a[j]);

    // Butterflies on raw doubles, through the dispatched SIMD kernels:
    // the same products and sums, with per-element rounding identical
    // to the std::complex arithmetic of the unplanned transform —
    // identical bits for (non-NaN) probability data — but without the
    // Annex-G NaN-recovery checks GCC folds into every __complex__
    // multiply. std::complex<double> is array-compatible with
    // double[2] ([complex.numbers.general]).
    // The inverse transform folds its 1/n normalization into the last
    // stage's stores: n is a power of two, so x * (1/n) rounds exactly
    // like x / n — bitwise identical to the unplanned transform,
    // without a separate 2n-element pass.
    double *d = reinterpret_cast<double *>(a);
    const std::vector<std::complex<double>> &tws = invert ? inv_ : fwd_;
    const double *tw = reinterpret_cast<const double *>(tws.data());
    simdKernels().fftPasses(d, tw, n_, invert ? invN_ : 1.0);
}

void
FftPlan::run(std::vector<std::complex<double>> &a, bool invert) const
{
    RUBIK_ASSERT(a.size() == n_, "data size does not match plan");
    run(a.data(), invert);
}

void
FftPlan::forwardReal(const double *x, std::size_t len,
                     std::complex<double> *out) const
{
    RUBIK_ASSERT(len <= n_, "input longer than the plan");
    // Slot i of the bit-reversed input holds element rev_[i]: exactly
    // what the swap pass would leave in a zero-padded copy of x.
    double *d = reinterpret_cast<double *>(out);
    for (std::size_t i = 0; i < n_; ++i) {
        const std::size_t j = rev_[i];
        d[2 * i] = j < len ? x[j] : 0.0;
        d[2 * i + 1] = 0.0;
    }
    if (n_ > 1)
        simdKernels().fftPasses(d, reinterpret_cast<const double *>(
                                       fwd_.data()),
                                n_, 1.0);
}

std::vector<double>
fftConvolve(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.empty() || b.empty())
        return {};
    const std::size_t out_size = a.size() + b.size() - 1;
    const std::size_t n = fftConvolveSize(out_size);

    std::vector<std::complex<double>> fa(n), fb(n);
    for (std::size_t i = 0; i < a.size(); ++i)
        fa[i] = a[i];
    for (std::size_t i = 0; i < b.size(); ++i)
        fb[i] = b[i];

    fft(fa, false);
    fft(fb, false);
    for (std::size_t i = 0; i < n; ++i)
        fa[i] *= fb[i];
    fft(fa, true);

    std::vector<double> result(out_size);
    for (std::size_t i = 0; i < out_size; ++i) {
        // Probability masses are nonnegative; clamp tiny negative FFT noise.
        result[i] = std::max(0.0, fa[i].real());
    }
    return result;
}

void
fftConvolvePlanned(const std::vector<double> &a,
                   const std::vector<double> &b, FftScratch &scratch,
                   std::vector<double> &out)
{
    if (a.empty() || b.empty()) {
        out.clear();
        return;
    }
    const std::size_t out_size = a.size() + b.size() - 1;
    const std::size_t n = fftConvolveSize(out_size);
    const FftPlan &plan = FftPlan::forSize(n);

    scratch.fa.resize(n);
    scratch.fb.resize(n);
    plan.forwardReal(a.data(), a.size(), scratch.fa.data());
    plan.forwardReal(b.data(), b.size(), scratch.fb.data());
    fftConvolveSpectra(plan, scratch.fa.data(), scratch.fb.data(),
                       out_size, out);
}

void
fftConvolveSpectra(const FftPlan &plan, std::complex<double> *fa,
                   const std::complex<double> *fb, std::size_t out_size,
                   std::vector<double> &out)
{
    // Pointwise product on raw doubles: same ops (rounded identically)
    // as the std::complex multiply, minus the NaN-recovery checks.
    const SimdKernels &kern = simdKernels();
    double *a = reinterpret_cast<double *>(fa);
    kern.complexMulAll(a, reinterpret_cast<const double *>(fb),
                       plan.size());
    plan.run(fa, true);

    out.resize(out_size);
    kern.clampRealAll(a, out.data(), out_size);
}

std::vector<double>
directConvolve(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.empty() || b.empty())
        return {};
    std::vector<double> result(a.size() + b.size() - 1, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] == 0.0)
            continue;
        for (std::size_t j = 0; j < b.size(); ++j)
            result[i + j] += a[i] * b[j];
    }
    return result;
}

} // namespace rubik
