#include "core/distribution.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/error.h"
#include "util/fft.h"
#include "util/simd.h"

namespace rubik {

DiscreteDistribution
DiscreteDistribution::pointMass(double value, std::size_t buckets)
{
    RUBIK_ASSERT(buckets >= 2, "need at least 2 buckets");
    value = std::max(value, 0.0);
    // Pick the width so the value lands in the middle of the range. For
    // value 0 the support must be negligible in any unit system the
    // caller uses (seconds ~1e-4, cycles ~1e6): quantileUpper() of a
    // zero point mass returns one bucket width, and that must not eat
    // into Eq. 2's slack.
    const double width =
        value > 0.0 ? 2.0 * value / static_cast<double>(buckets) : 1e-12;
    std::vector<double> masses(buckets, 0.0);
    auto idx = static_cast<std::size_t>(value / width);
    masses[std::min(idx, buckets - 1)] = 1.0;
    return DiscreteDistribution(std::move(masses), width);
}

DiscreteDistribution
DiscreteDistribution::fromHistogram(const Histogram &hist,
                                    std::size_t buckets)
{
    return fromCounts(hist.counts(), hist.totalWeight(), hist.max(),
                      buckets);
}

DiscreteDistribution
DiscreteDistribution::fromCounts(const std::vector<double> &bins,
                                 double total, double upper,
                                 std::size_t buckets)
{
    if (total == 0.0)
        return pointMass(0.0, buckets);

    DiscreteDistribution d;
    d.width_ = upper / static_cast<double>(bins.size());
    d.p_.resize(bins.size());
    for (std::size_t i = 0; i < bins.size(); ++i)
        d.p_[i] = bins[i] / total;
    if (d.p_.size() != buckets)
        return d.rebin(upper / static_cast<double>(buckets), buckets);
    d.rebuildCdf();
    return d;
}

DiscreteDistribution::DiscreteDistribution(std::vector<double> masses,
                                           double bucket_width)
    : p_(std::move(masses)), width_(bucket_width)
{
    RUBIK_ASSERT(!p_.empty(), "empty distribution");
    RUBIK_ASSERT(bucket_width > 0, "bucket width must be positive");
    normalize();
}

void
DiscreteDistribution::normalize()
{
    // One validation+sum pass, then one fused divide+CDF pass;
    // totalMass() reads the cached CDF instead of re-scanning.
    double total = 0.0;
    for (double m : p_) {
        RUBIK_ASSERT(m >= 0.0, "negative probability mass");
        total += m;
    }
    if (total <= 0.0) {
        // Degenerate: make it a point mass at 0.
        p_.assign(p_.size(), 0.0);
        p_[0] = 1.0;
        rebuildCdf();
        return;
    }
    // The divides vectorize exactly (per-lane IEEE division); the CDF
    // accumulation stays a sequential prefix sum over the identical
    // quotients, so the bits match the old fused loop.
    simdKernels().divideAll(p_.data(), p_.size(), total);
    rebuildCdf();
}

void
DiscreteDistribution::rebuildCdf()
{
    cdf_.resize(p_.size());
    double cum = 0.0;
    for (std::size_t i = 0; i < p_.size(); ++i) {
        cum += p_[i];
        cdf_[i] = cum;
    }
}

double
DiscreteDistribution::mean() const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < p_.size(); ++i)
        sum += p_[i] * bucketMid(i);
    return sum;
}

double
DiscreteDistribution::variance() const
{
    const double m = mean();
    double sum = 0.0;
    for (std::size_t i = 0; i < p_.size(); ++i) {
        const double d = bucketMid(i) - m;
        sum += p_[i] * d * d;
    }
    return sum;
}

double
DiscreteDistribution::quantile(double q) const
{
    q = std::clamp(q, 0.0, 1.0);
    // First bucket whose inclusive CDF reaches q. The CDF entries are
    // the same sums the old linear scan compared against, and the
    // dispatched countBelow kernel returns the lower_bound index on
    // the sorted CDF, so the scan picks the same bucket and returns
    // the same bits.
    const std::size_t i =
        simdKernels().countBelow(cdf_.data(), cdf_.size(), q);
    if (i == cdf_.size())
        return max();
    const double below = i == 0 ? 0.0 : cdf_[i - 1];
    const double frac = p_[i] > 0.0 ? (q - below) / p_[i] : 0.0;
    return (static_cast<double>(i) + frac) * width_;
}

double
DiscreteDistribution::quantileUpper(double q) const
{
    q = std::clamp(q, 0.0, 1.0);
    const std::size_t i =
        simdKernels().countBelow(cdf_.data(), cdf_.size(), q - 1e-12);
    if (i == cdf_.size())
        return max();
    return (static_cast<double>(i) + 1.0) * width_;
}

DiscreteDistribution
DiscreteDistribution::conditionalOnElapsed(double omega) const
{
    if (omega <= 0.0)
        return *this;

    // Shift left by omega with linear splitting of the fractional bucket,
    // then renormalize over the surviving mass: P[S = c + w | S > w].
    const double shift = omega / width_;
    const auto k = static_cast<std::size_t>(shift);
    const double frac = shift - static_cast<double>(k);

    const std::size_t n = p_.size();
    std::vector<double> shifted(n, 0.0);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        double m = 0.0;
        const std::size_t lo = j + k;
        if (lo < n)
            m += (1.0 - frac) * p_[lo];
        if (lo + 1 < n)
            m += frac * p_[lo + 1];
        shifted[j] = m;
        total += m;
    }

    if (total <= 1e-12) {
        // ω beyond all profiled service times: predict imminent completion.
        return pointMass(width_ * 0.5, n);
    }
    return DiscreteDistribution(std::move(shifted), width_);
}

std::vector<double>
DiscreteDistribution::rebinMasses(const double *src, std::size_t src_len,
                                  double src_width, double new_width,
                                  std::size_t new_buckets)
{
    // Source bucket [a, b) spreads its mass uniformly over the target
    // buckets it covers. The dispatched kernel gives each source its
    // first target and its two-target weights (1 and 0 when it lies in
    // one bucket); a source spanning more targets gets the general
    // segment loop below.
    static thread_local std::vector<std::uint32_t> target;
    static thread_local std::vector<double> w_lo, w_hi;
    target.resize(src_len);
    w_lo.resize(src_len);
    w_hi.resize(src_len);
    simdKernels().rebinSplitAll(target.data(), w_lo.data(), w_hi.data(),
                                src_len, src_width, new_width,
                                new_buckets - 1);

    // out[j] and out[j + 1] live in registers while the sources map
    // there. Targets never decrease with the source index, so each
    // bucket still receives its shares in source order, and the sums
    // round exactly as adding into memory did: a source inside one
    // bucket adds mass * 1 (its mass) and mass * 0 (+0.0, which leaves
    // a nonnegative sum unchanged). The slot past the top bucket only
    // ever holds those zeros.
    std::vector<double> out(new_buckets + 1, 0.0);
    std::size_t j = 0;
    double acc0 = 0.0, acc1 = 0.0;
    for (std::size_t i = 0; i < src_len; ++i) {
        const std::size_t lo = target[i];
        if (lo != j) {
            out[j] = acc0;
            if (lo == j + 1) {
                acc0 = acc1;
            } else {
                out[j + 1] = acc1;
                acc0 = out[lo];
            }
            acc1 = out[lo + 1];
            j = lo;
        }
        if (w_hi[i] >= 0.0) {
            acc0 += src[i] * w_lo[i];
            acc1 += src[i] * w_hi[i];
            continue;
        }
        if (src[i] == 0.0)
            continue;
        out[j] = acc0;
        out[j + 1] = acc1;
        // The kernel's edge expressions, then the segment loop.
        const double a = static_cast<double>(i) * src_width;
        const double lo_f = a / new_width;
        const double hi_f = (a + src_width) / new_width;
        const double span = hi_f - lo_f;
        const std::size_t hi =
            std::min(static_cast<std::size_t>(hi_f), new_buckets - 1);
        for (std::size_t k = lo; k <= hi; ++k) {
            const double seg_lo = std::max(lo_f, static_cast<double>(k));
            const double seg_hi =
                std::min(hi_f, static_cast<double>(k + 1));
            const double w = std::max(0.0, seg_hi - seg_lo) / span;
            out[k] += src[i] * w;
        }
        acc0 = out[j];
        acc1 = out[j + 1];
    }
    out[j] = acc0;
    out[j + 1] = acc1;
    out.pop_back();
    return out;
}

DiscreteDistribution
DiscreteDistribution::rebin(double new_width, std::size_t new_buckets) const
{
    RUBIK_ASSERT(new_width > 0 && new_buckets >= 2, "invalid rebin target");
    return DiscreteDistribution(
        rebinMasses(p_.data(), p_.size(), width_, new_width, new_buckets),
        new_width);
}

DiscreteDistribution
DiscreteDistribution::convolveWith(const DiscreteDistribution &other,
                                   const ConvolveOptions &opts) const
{
    return convolve(other, opts.useFft, nullptr);
}

DiscreteDistribution
DiscreteDistribution::convolveWith(const DiscreteDistribution &other,
                                   OperandSpectrum &other_spectrum) const
{
    return convolve(other, true, &other_spectrum);
}

DiscreteDistribution
DiscreteDistribution::convolve(const DiscreteDistribution &other,
                               bool use_fft,
                               OperandSpectrum *other_spectrum) const
{
    // Scratch reused across calls: the FFT buffers, the raw convolution
    // and the edge-split arena. Thread-local so ExperimentRunner jobs
    // never share mutable state.
    struct Scratch
    {
        FftScratch fft;
        std::vector<double> raw, conv;
    };
    static thread_local Scratch ws;

    // Bring both operands to a common bucket width. Crucially, rebin the
    // narrower operand into only as many buckets as its support needs:
    // zero-padding it to a full bucket count would double the result's
    // support on every convolution and blow up a 16-deep chain. Operands
    // already at the common width are used in place (no copies).
    const double common = std::max(width_, other.width_);
    const auto compact_len = [common](const DiscreteDistribution &d) {
        const auto k =
            static_cast<std::size_t>(std::ceil(d.max() / common));
        return std::max<std::size_t>(k, 2);
    };

    const DiscreteDistribution *lhs = this;
    DiscreteDistribution lhs_storage;
    if (width_ != common) {
        lhs_storage = rebin(common, compact_len(*this));
        lhs = &lhs_storage;
    }
    const DiscreteDistribution *rhs = &other;
    DiscreteDistribution rhs_storage;
    if (other.width_ != common) {
        rhs_storage = other.rebin(common, compact_len(other));
        rhs = &rhs_storage;
    }

    std::vector<double> &raw = ws.raw;
    if (!use_fft) {
        raw = directConvolve(lhs->p_, rhs->p_);
    } else if (!other_spectrum) {
        fftConvolvePlanned(lhs->p_, rhs->p_, ws.fft, raw);
    } else {
        // fftConvolvePlanned with the right operand's transform taken
        // from the caller's spectrum: the rebinned operand depends only
        // on the common width, so (width, transform size) identify it.
        const std::size_t out_size = lhs->p_.size() + rhs->p_.size() - 1;
        const std::size_t n = fftConvolveSize(out_size);
        const FftPlan &plan = FftPlan::forSize(n);
        OperandSpectrum &spec = *other_spectrum;
        if (spec.width != common || spec.data.size() != n) {
            spec.width = common;
            spec.data.resize(n);
            plan.forwardReal(rhs->p_.data(), rhs->p_.size(),
                             spec.data.data());
        }
        ws.fft.fa.resize(n);
        if (lhs == rhs) {
            // A self product: the left transform is the same spectrum.
            std::copy(spec.data.begin(), spec.data.end(),
                      ws.fft.fa.begin());
        } else {
            plan.forwardReal(lhs->p_.data(), lhs->p_.size(),
                             ws.fft.fa.data());
        }
        fftConvolveSpectra(plan, ws.fft.fa.data(), spec.data.data(),
                           out_size, raw);
    }

    // Index-domain convolution places the sum of two bucket midpoints,
    // (i+0.5)w + (j+0.5)w = (i+j+1)w, exactly on the edge between output
    // buckets i+j and i+j+1. Split the mass across both so means add
    // exactly (no half-bucket drift across chained convolutions).
    // conv[k] = 0.5*raw[k-1] + 0.5*raw[k], added low-index-first — the
    // same sums, in the same order, as the old accumulate-in-place loop.
    std::vector<double> &conv = ws.conv;
    conv.resize(raw.size() + 1);
    conv[0] = 0.5 * raw[0];
    simdKernels().edgeSplitAll(raw.data(), conv.data(), raw.size());
    conv[raw.size()] = 0.5 * raw[raw.size() - 1];

    // Trim trailing (near-)zero mass so the support only reflects real
    // probability, keeping chained convolutions' resolution tight.
    std::size_t conv_len = conv.size();
    while (conv_len > 1 && conv[conv_len - 1] < 1e-15)
        --conv_len;

    // Rebin the widened result back to this bucket count.
    const std::size_t n = p_.size();
    const double support = common * static_cast<double>(conv_len);
    const double new_width = support / static_cast<double>(n);
    return DiscreteDistribution(
        rebinMasses(conv.data(), conv_len, common, new_width, n), new_width);
}

} // namespace rubik
