/**
 * @file
 * Tests for Rubik's core machinery: discrete distributions (conditioning,
 * convolution, quantiles), target tail tables (including the Gaussian CLT
 * extension, and on-demand entries pinned bitwise against an eager
 * reference build), the online profiler, and the PI controller.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/distribution.h"
#include "core/pi_controller.h"
#include "core/profiler.h"
#include "core/rubik_boost.h"
#include "core/rubik_controller.h"
#include "core/target_tail_table.h"
#include "power/power_model.h"
#include "sim/trace.h"
#include "stats/percentile.h"
#include "util/rng.h"
#include "util/units.h"
#include "workloads/apps.h"
#include "workloads/trace_gen.h"

namespace rubik {
namespace {

/// Distribution from explicit samples.
DiscreteDistribution
fromSamples(const std::vector<double> &samples, std::size_t buckets = 128)
{
    double max_val = 0.0;
    for (double s : samples)
        max_val = std::max(max_val, s);
    Histogram h(buckets, std::max(max_val * 1.0001, 1e-9));
    for (double s : samples)
        h.add(s);
    return DiscreteDistribution::fromHistogram(h, buckets);
}

TEST(DiscreteDistribution, PointMassBasics)
{
    const auto d = DiscreteDistribution::pointMass(10.0);
    EXPECT_NEAR(d.mean(), 10.0, d.bucketWidth());
    EXPECT_NEAR(d.variance(), 0.0, d.bucketWidth() * d.bucketWidth());
    EXPECT_NEAR(d.totalMass(), 1.0, 1e-12);
    EXPECT_NEAR(d.quantile(0.5), 10.0, d.bucketWidth());
}

TEST(DiscreteDistribution, FromHistogramPreservesMoments)
{
    Rng rng(1);
    std::vector<double> samples;
    for (int i = 0; i < 50000; ++i)
        samples.push_back(rng.lognormal(0.0, 0.5));
    const auto d = fromSamples(samples);
    EXPECT_NEAR(d.mean(), mean(samples), mean(samples) * 0.02);
    EXPECT_NEAR(d.variance(), variance(samples), variance(samples) * 0.05);
}

TEST(DiscreteDistribution, QuantileMatchesSamples)
{
    Rng rng(2);
    std::vector<double> samples;
    for (int i = 0; i < 50000; ++i)
        samples.push_back(rng.exponential(1.0));
    const auto d = fromSamples(samples, 256);
    for (double q : {0.5, 0.9, 0.95}) {
        EXPECT_NEAR(d.quantile(q), percentile(samples, q),
                    percentile(samples, q) * 0.05 + 2 * d.bucketWidth());
    }
}

TEST(DiscreteDistribution, QuantileUpperIsConservative)
{
    Rng rng(3);
    std::vector<double> samples;
    for (int i = 0; i < 10000; ++i)
        samples.push_back(rng.uniform(0.0, 100.0));
    const auto d = fromSamples(samples);
    for (double q : {0.25, 0.5, 0.75, 0.95})
        EXPECT_GE(d.quantileUpper(q), d.quantile(q));
}

TEST(DiscreteDistribution, QuantileBinarySearchMatchesLinearScan)
{
    // quantile()/quantileUpper() are binary searches over the cached
    // CDF; they must return exactly what the original linear scans
    // returned, including on zero-mass runs and at exact CDF values.
    const auto scan_quantile = [](const DiscreteDistribution &d,
                                  double q) {
        q = std::clamp(q, 0.0, 1.0);
        double cum = 0.0;
        for (std::size_t i = 0; i < d.numBuckets(); ++i) {
            if (cum + d.mass(i) >= q) {
                const double frac =
                    d.mass(i) > 0.0 ? (q - cum) / d.mass(i) : 0.0;
                return (static_cast<double>(i) + frac) * d.bucketWidth();
            }
            cum += d.mass(i);
        }
        return d.max();
    };
    const auto scan_upper = [](const DiscreteDistribution &d, double q) {
        q = std::clamp(q, 0.0, 1.0);
        double cum = 0.0;
        for (std::size_t i = 0; i < d.numBuckets(); ++i) {
            cum += d.mass(i);
            if (cum >= q - 1e-12)
                return (static_cast<double>(i) + 1.0) * d.bucketWidth();
        }
        return d.max();
    };

    Rng rng(17);
    std::vector<DiscreteDistribution> dists;
    dists.push_back(DiscreteDistribution::pointMass(42.0));
    {
        // Zero-mass runs: only a few occupied buckets.
        std::vector<double> masses(128, 0.0);
        masses[0] = 0.25;
        masses[63] = 0.5;
        masses[127] = 0.25;
        dists.emplace_back(std::move(masses), 2.0);
    }
    {
        // Long 4096-bucket distribution.
        std::vector<double> samples;
        for (int i = 0; i < 20000; ++i)
            samples.push_back(rng.lognormal(1.0, 0.8));
        dists.push_back(fromSamples(samples, 4096));
    }

    for (const auto &d : dists) {
        std::vector<double> qs = {0.0,  1e-15, 0.1, 0.25, 0.5,
                                  0.75, 0.95,  0.999, 1.0};
        // Exact cumulative values stress the >= boundaries.
        double cum = 0.0;
        for (std::size_t i = 0; i < d.numBuckets(); i += 17) {
            cum += d.mass(i);
            qs.push_back(cum);
        }
        for (double q : qs) {
            EXPECT_EQ(d.quantile(q), scan_quantile(d, q)) << "q=" << q;
            EXPECT_EQ(d.quantileUpper(q), scan_upper(d, q)) << "q=" << q;
        }
    }
}

TEST(DiscreteDistribution, NormalizeSumAccuracyOnLongDistributions)
{
    // normalize() uses a plain running sum. On a 4096-bucket
    // distribution with ~7 decades of dynamic range the result must
    // still agree with a Kahan-compensated reference at ~1 ulp, and
    // totalMass() (the cached CDF tail) must report the same sum a
    // fresh scan would.
    std::vector<double> masses(4096);
    Rng rng(18);
    for (std::size_t i = 0; i < masses.size(); ++i)
        masses[i] = std::exp(-static_cast<double>(i % 1000) / 60.0) *
                    rng.uniform(0.5, 1.5);
    const DiscreteDistribution d(std::move(masses), 0.5);

    double kahan = 0.0, comp = 0.0;
    double plain = 0.0;
    for (std::size_t i = 0; i < d.numBuckets(); ++i) {
        const double m = d.mass(i);
        plain += m;
        const double y = m - comp;
        const double t = kahan + y;
        comp = (t - kahan) - y;
        kahan = t;
    }
    EXPECT_NEAR(kahan, 1.0, 1e-12);
    EXPECT_NEAR(d.totalMass(), kahan, 1e-14);
    EXPECT_EQ(d.totalMass(), plain);
}

TEST(DiscreteDistribution, ConditionalShiftsSupport)
{
    // Uniform on [0, 100): conditioning on 50 elapsed leaves a uniform
    // remainder on [0, 50).
    std::vector<double> masses(100, 1.0);
    const DiscreteDistribution d(std::move(masses), 1.0);
    const auto cond = d.conditionalOnElapsed(50.0);
    EXPECT_NEAR(cond.mean(), 25.0, 1.0);
    EXPECT_NEAR(cond.totalMass(), 1.0, 1e-9);
    EXPECT_NEAR(cond.quantile(0.99), 50.0, 2.0);
}

TEST(DiscreteDistribution, ConditionalZeroElapsedIsIdentity)
{
    Rng rng(4);
    std::vector<double> samples;
    for (int i = 0; i < 10000; ++i)
        samples.push_back(rng.lognormal(1.0, 0.3));
    const auto d = fromSamples(samples);
    const auto cond = d.conditionalOnElapsed(0.0);
    EXPECT_DOUBLE_EQ(cond.mean(), d.mean());
}

TEST(DiscreteDistribution, ConditionalBeyondSupportPredictsCompletion)
{
    const auto d = DiscreteDistribution::pointMass(10.0);
    const auto cond = d.conditionalOnElapsed(1000.0);
    // Degenerates to "about to finish".
    EXPECT_LT(cond.quantile(0.99), d.bucketWidth() * 2.0);
}

TEST(DiscreteDistribution, ConditionalMeanDecreasesForLightTails)
{
    Rng rng(5);
    std::vector<double> samples;
    for (int i = 0; i < 50000; ++i)
        samples.push_back(rng.lognormal(0.0, 0.25));
    const auto d = fromSamples(samples);
    double prev = d.mean();
    for (double w : {0.3, 0.6, 0.9}) {
        const double omega = d.quantile(w);
        const double m = d.conditionalOnElapsed(omega).mean();
        EXPECT_LT(m, prev + d.bucketWidth());
        prev = m;
    }
}

TEST(DiscreteDistribution, ConvolutionAddsMeans)
{
    const auto a = DiscreteDistribution::pointMass(5.0);
    const auto b = DiscreteDistribution::pointMass(7.0);
    const auto c = a.convolveWith(b);
    EXPECT_NEAR(c.mean(), 12.0, c.bucketWidth() * 2.0);
}

TEST(DiscreteDistribution, ConvolutionAddsVariances)
{
    Rng rng(6);
    std::vector<double> s1, s2;
    for (int i = 0; i < 50000; ++i) {
        s1.push_back(rng.lognormal(0.0, 0.4));
        s2.push_back(rng.lognormal(0.5, 0.3));
    }
    const auto a = fromSamples(s1);
    const auto b = fromSamples(s2);
    const auto c = a.convolveWith(b);
    EXPECT_NEAR(c.mean(), a.mean() + b.mean(),
                (a.mean() + b.mean()) * 0.02);
    EXPECT_NEAR(c.variance(), a.variance() + b.variance(),
                (a.variance() + b.variance()) * 0.10);
}

TEST(DiscreteDistribution, FftAndDirectConvolutionAgree)
{
    Rng rng(7);
    std::vector<double> s1, s2;
    for (int i = 0; i < 20000; ++i) {
        s1.push_back(rng.exponential(2.0));
        s2.push_back(rng.uniform(0.0, 5.0));
    }
    const auto a = fromSamples(s1);
    const auto b = fromSamples(s2);
    ConvolveOptions fft_opts, direct_opts;
    fft_opts.useFft = true;
    direct_opts.useFft = false;
    const auto f = a.convolveWith(b, fft_opts);
    const auto d = a.convolveWith(b, direct_opts);
    ASSERT_EQ(f.numBuckets(), d.numBuckets());
    EXPECT_NEAR(f.bucketWidth(), d.bucketWidth(), 1e-12);
    for (std::size_t i = 0; i < f.numBuckets(); ++i)
        EXPECT_NEAR(f.mass(i), d.mass(i), 1e-9);
}

/// Same bucket width and bit-for-bit the same masses.
bool
sameBits(const DiscreteDistribution &a, const DiscreteDistribution &b)
{
    if (a.numBuckets() != b.numBuckets() ||
        a.bucketWidth() != b.bucketWidth())
        return false;
    for (std::size_t i = 0; i < a.numBuckets(); ++i) {
        const double x = a.mass(i), y = b.mass(i);
        if (std::memcmp(&x, &y, sizeof(double)) != 0)
            return false;
    }
    return true;
}

TEST(DiscreteDistribution, CachedSpectrumConvolutionMatchesPlain)
{
    // One spectrum shared by many left operands, as a tail table's
    // first steps share the mixture's: every conditional row, the self
    // product, a bitwise copy of the operand, a wider left operand (the
    // mixture is then rebinned: a miss, then hits at that width), a
    // point mass (a narrower left operand) and a longer one (a larger
    // transform). Each must equal plain convolveWith bit for bit.
    Rng rng(30);
    std::vector<double> mix_s, wide_s, long_s;
    for (int i = 0; i < 20000; ++i) {
        mix_s.push_back(rng.lognormal(13.0, 0.5));
        wide_s.push_back(rng.lognormal(14.0, 0.5));
        long_s.push_back(rng.lognormal(13.0, 0.5));
    }
    const auto mix = fromSamples(mix_s);
    const auto mix_copy = mix;
    std::vector<DiscreteDistribution> lefts;
    for (int r = 0; r < 8; ++r)
        lefts.push_back(mix.conditionalOnElapsed(mix.quantile(r / 8.0)));
    lefts.push_back(fromSamples(wide_s));
    lefts.push_back(fromSamples(wide_s).conditionalOnElapsed(1e6));
    lefts.push_back(mix.conditionalOnElapsed(2.0 * mix.max()));
    lefts.push_back(fromSamples(long_s, 256));

    OperandSpectrum spectrum;
    for (int round = 0; round < 2; ++round) {
        for (std::size_t k = 0; k < lefts.size(); ++k) {
            EXPECT_TRUE(sameBits(lefts[k].convolveWith(mix, spectrum),
                                 lefts[k].convolveWith(mix)))
                << "left " << k << " round " << round;
        }
        EXPECT_TRUE(sameBits(mix.convolveWith(mix, spectrum),
                             mix.convolveWith(mix)))
            << "self product, round " << round;
        EXPECT_TRUE(sameBits(mix_copy.convolveWith(mix, spectrum),
                             mix.convolveWith(mix)))
            << "copy, round " << round;
    }
}

TEST(DiscreteDistribution, ConvolutionChainStaysNormalized)
{
    Rng rng(8);
    std::vector<double> s;
    for (int i = 0; i < 10000; ++i)
        s.push_back(rng.lognormal(0.0, 0.5));
    auto acc = fromSamples(s);
    const auto base = fromSamples(s);
    for (int i = 0; i < 16; ++i) {
        acc = acc.convolveWith(base);
        EXPECT_NEAR(acc.totalMass(), 1.0, 1e-9);
        EXPECT_EQ(acc.numBuckets(), 128u);
    }
    EXPECT_NEAR(acc.mean(), 17.0 * base.mean(), 17.0 * base.mean() * 0.05);
}

TEST(DiscreteDistribution, RebinPreservesMassAndMean)
{
    Rng rng(9);
    std::vector<double> s;
    for (int i = 0; i < 20000; ++i)
        s.push_back(rng.uniform(0.0, 10.0));
    const auto d = fromSamples(s);
    const auto r = d.rebin(d.bucketWidth() * 3.7, 64);
    EXPECT_NEAR(r.totalMass(), 1.0, 1e-9);
    EXPECT_NEAR(r.mean(), d.mean(), d.mean() * 0.02);
}

TEST(TargetTailTable, TailsIncreaseWithQueuePosition)
{
    Rng rng(10);
    std::vector<double> cycles, mems;
    for (int i = 0; i < 20000; ++i) {
        cycles.push_back(rng.lognormal(13.0, 0.3)); // ~ 500K cycles
        mems.push_back(rng.lognormal(-9.0, 0.3));   // ~ 0.1 ms
    }
    TailTableConfig cfg;
    const auto table = TargetTailTable::build(fromSamples(cycles),
                                              fromSamples(mems), cfg);
    for (std::size_t row = 0; row < cfg.rows; ++row) {
        for (std::size_t i = 1; i < cfg.positions + 8; ++i) {
            EXPECT_GT(table.tailCycles(row, i),
                      table.tailCycles(row, i - 1))
                << "row " << row << " position " << i;
        }
    }
}

TEST(TargetTailTable, GaussianExtensionContinuous)
{
    // The CLT extension at position `positions` should be close to the
    // exact convolution value just before it.
    Rng rng(11);
    std::vector<double> cycles;
    for (int i = 0; i < 50000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.4));
    TailTableConfig cfg;
    cfg.positions = 16;
    const auto table = TargetTailTable::build(
        fromSamples(cycles), DiscreteDistribution::pointMass(0.0), cfg);
    const double exact15 = table.tailCycles(0, 15);
    const double gauss16 = table.tailCycles(0, 16);
    EXPECT_GT(gauss16, exact15);
    EXPECT_LT(gauss16, exact15 * 1.25);
}

TEST(TargetTailTable, RowSelection)
{
    Rng rng(12);
    std::vector<double> cycles;
    for (int i = 0; i < 20000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.3));
    TailTableConfig cfg;
    const auto table = TargetTailTable::build(
        fromSamples(cycles), DiscreteDistribution::pointMass(0.0), cfg);
    EXPECT_EQ(table.rowForElapsed(0.0), 0u);
    // Far beyond any observed service: the last row.
    EXPECT_EQ(table.rowForElapsed(1e12), cfg.rows - 1);
    // Monotone in omega.
    std::size_t prev = 0;
    for (double w = 0.0; w < 2e6; w += 1e5) {
        const std::size_t r = table.rowForElapsed(w);
        EXPECT_GE(r, prev);
        prev = r;
    }
}

/// Reference implementation: the linear scan rowForElapsed replaced.
std::size_t
scanRowForBounds(const std::vector<double> &bounds, double omega)
{
    std::size_t row = 0;
    for (std::size_t r = 1; r < bounds.size(); ++r) {
        if (omega >= bounds[r])
            row = r;
        else
            break;
    }
    return row;
}

TEST(TargetTailTable, RowForElapsedMatchesLinearScanOnRealTable)
{
    // Equivalence at and around every real row boundary, probed one ulp
    // to each side.
    Rng rng(19);
    std::vector<double> cycles;
    for (int i = 0; i < 20000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.4));
    TailTableConfig cfg;
    cfg.positions = 4;
    const auto table = TargetTailTable::build(
        fromSamples(cycles), DiscreteDistribution::pointMass(0.0), cfg);
    const std::vector<double> &bounds = table.rowBounds();

    std::vector<double> omegas = {-1.0, 0.0, 1e-9, 1e12};
    for (double b : bounds) {
        omegas.push_back(b);
        omegas.push_back(std::nextafter(b, 0.0));
        omegas.push_back(std::nextafter(b, 1e18));
    }
    for (double w : omegas) {
        EXPECT_EQ(table.rowForElapsed(w), scanRowForBounds(bounds, w))
            << "omega " << w;
    }
}

TEST(TargetTailTable, RowForBoundsHandlesDuplicateBounds)
{
    // Row quantiles are strictly increasing, so duplicate bounds cannot
    // come out of build(); pin the scan-equivalent semantics (a tie
    // selects the LAST row of the duplicate run) on handcrafted vectors
    // through the same search rowForElapsed uses.
    const std::vector<std::vector<double>> cases = {
        {0.0, 5.0, 5.0, 7.0},
        {0.0, 5.0, 5.0, 5.0, 7.0, 7.0},
        {0.0, 0.0, 0.0},
        {0.0},
        {0.0, 1.0, 2.0, 3.0},
    };
    for (const auto &bounds : cases) {
        std::vector<double> omegas = {-1.0, 0.0, 4.999, 5.0, 5.001,
                                      6.999, 7.0, 7.5, 1e12};
        for (double b : bounds) {
            omegas.push_back(std::nextafter(b, -1e18));
            omegas.push_back(b);
            omegas.push_back(std::nextafter(b, 1e18));
        }
        for (double w : omegas) {
            EXPECT_EQ(TargetTailTable::rowForBounds(bounds, w),
                      scanRowForBounds(bounds, w))
                << "omega " << w;
        }
    }
    // The duplicate-run tie lands on the last duplicate, as the old
    // linear scan did.
    EXPECT_EQ(TargetTailTable::rowForBounds({0.0, 5.0, 5.0, 7.0}, 5.0),
              2u);
}

TEST(TargetTailTable, ElapsedWorkShortensRemainingTail)
{
    // For a tight (low-variance) service distribution, a request that has
    // already executed most of its work has a much smaller remaining
    // tail: c_0[last row] << c_0[row 0].
    Rng rng(13);
    std::vector<double> cycles;
    for (int i = 0; i < 50000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.15));
    TailTableConfig cfg;
    const auto table = TargetTailTable::build(
        fromSamples(cycles), DiscreteDistribution::pointMass(0.0), cfg);
    EXPECT_LT(table.tailCycles(cfg.rows - 1, 0),
              table.tailCycles(0, 0) * 0.6);
}

TEST(TargetTailTable, PercentileRaisesTails)
{
    Rng rng(14);
    std::vector<double> cycles;
    for (int i = 0; i < 20000; ++i)
        cycles.push_back(rng.lognormal(13.0, 0.5));
    const auto dist = fromSamples(cycles);
    TailTableConfig p95, p99;
    p95.percentile = 0.95;
    p99.percentile = 0.99;
    const auto t95 = TargetTailTable::build(
        dist, DiscreteDistribution::pointMass(0.0), p95);
    const auto t99 = TargetTailTable::build(
        dist, DiscreteDistribution::pointMass(0.0), p99);
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_GE(t99.tailCycles(0, i), t95.tailCycles(0, i));
}

TEST(TargetTailTable, MemoryTailsTrackMemoryDistribution)
{
    Rng rng(15);
    std::vector<double> cycles, mems;
    for (int i = 0; i < 20000; ++i) {
        cycles.push_back(rng.lognormal(13.0, 0.3));
        mems.push_back(rng.lognormal(-8.0, 0.4));
    }
    TailTableConfig cfg;
    const auto table = TargetTailTable::build(fromSamples(cycles),
                                              fromSamples(mems), cfg);
    const auto mem_dist = fromSamples(mems);
    // m_0 at row 0 ~ 95th percentile of the memory distribution.
    EXPECT_NEAR(table.tailMemTime(0, 0), mem_dist.quantileUpper(0.95),
                mem_dist.quantileUpper(0.95) * 0.1);
}

/**
 * Eager reference: every exact entry of a table computed up front, the
 * way tables were built before on-demand evaluation — one full chain per
 * row boundary, then each row's max over its boundaries.
 */
struct EagerTable
{
    std::vector<std::vector<double>> cycles, mem; // [row][position]
    std::vector<double> meanC0, varC0, meanM0, varM0;
    double meanC = 0.0, varC = 0.0, meanM = 0.0, varM = 0.0, zp = 0.0;

    static double extend(const std::vector<std::vector<double>> &exact,
                         std::size_t row, std::size_t position,
                         double mean0, double var0, double mean,
                         double var, double zp)
    {
        if (position < exact[row].size())
            return exact[row][position];
        const double i = static_cast<double>(position);
        const double m = mean0 + i * mean;
        const double v = var0 + i * var;
        return std::max(m + zp * std::sqrt(std::max(0.0, v)),
                        exact[row].back());
    }
    double tailCycles(std::size_t row, std::size_t position) const
    {
        return extend(cycles, row, position, meanC0[row], varC0[row], meanC,
                      varC, zp);
    }
    double tailMemTime(std::size_t row, std::size_t position) const
    {
        return extend(mem, row, position, meanM0[row], varM0[row], meanM,
                      varM, zp);
    }
};

std::vector<double>
eagerChain(const DiscreteDistribution &s0, const DiscreteDistribution &s,
           const TailTableConfig &cfg)
{
    ConvolveOptions opts;
    opts.useFft = cfg.useFft;
    std::vector<double> tails;
    DiscreteDistribution cur = s0;
    for (std::size_t i = 0; i < cfg.positions; ++i) {
        double tail = cur.quantileUpper(cfg.percentile);
        if (i > 0)
            tail = std::max(tail, tails.back());
        tails.push_back(tail);
        if (i + 1 < cfg.positions)
            cur = cur.convolveWith(s, opts);
    }
    return tails;
}

EagerTable
eagerBuild(const DiscreteDistribution &s0_compute,
           const DiscreteDistribution &s0_memory,
           const DiscreteDistribution &mix_compute,
           const DiscreteDistribution &mix_memory,
           const TailTableConfig &cfg)
{
    EagerTable t;
    t.zp = inverseNormalCdf(cfg.percentile);
    t.meanC = mix_compute.mean();
    t.varC = mix_compute.variance();
    t.meanM = mix_memory.mean();
    t.varM = mix_memory.variance();

    struct Boundary
    {
        std::vector<double> cyc, mem;
        double meanC, varC, meanM, varM;
    };
    const double n_rows = static_cast<double>(cfg.rows);
    const std::size_t n_bounds =
        cfg.conservativeRowBounds ? cfg.rows + 1 : cfg.rows;
    std::vector<Boundary> bounds(n_bounds);
    for (std::size_t b = 0; b < n_bounds; ++b) {
        const double q = static_cast<double>(b) / n_rows;
        const double w = b == 0 ? 0.0 : s0_compute.quantile(q);
        const double m = b == 0 ? 0.0 : s0_memory.quantile(q);
        const auto s0 = s0_compute.conditionalOnElapsed(w);
        const auto m0 = s0_memory.conditionalOnElapsed(m);
        bounds[b].cyc = eagerChain(s0, mix_compute, cfg);
        bounds[b].mem = eagerChain(m0, mix_memory, cfg);
        bounds[b].meanC = s0.mean();
        bounds[b].varC = s0.variance();
        bounds[b].meanM = m0.mean();
        bounds[b].varM = m0.variance();
    }
    for (std::size_t r = 0; r < cfg.rows; ++r) {
        const Boundary &lo = bounds[r];
        const Boundary &hi = cfg.conservativeRowBounds ? bounds[r + 1] : lo;
        t.cycles.emplace_back();
        t.mem.emplace_back();
        for (std::size_t i = 0; i < cfg.positions; ++i) {
            t.cycles[r].push_back(std::max(lo.cyc[i], hi.cyc[i]));
            t.mem[r].push_back(std::max(lo.mem[i], hi.mem[i]));
        }
        t.meanC0.push_back(std::max(lo.meanC, hi.meanC));
        t.varC0.push_back(std::max(lo.varC, hi.varC));
        t.meanM0.push_back(std::max(lo.meanM, hi.meanM));
        t.varM0.push_back(std::max(lo.varM, hi.varM));
    }
    return t;
}

/// One table read: (row, position, memory side?).
struct TableQuery
{
    std::size_t row, position;
    bool memory;
};

/// Every (row, position < positions + 4) entry of both sides.
std::vector<TableQuery>
allQueries(const TailTableConfig &cfg)
{
    std::vector<TableQuery> q;
    for (std::size_t r = 0; r < cfg.rows; ++r) {
        for (std::size_t i = 0; i < cfg.positions + 4; ++i) {
            q.push_back({r, i, false});
            q.push_back({r, i, true});
        }
    }
    return q;
}

/// Read `queries` from `lazy` in order; each must equal the reference.
void
expectMatchesEager(const TargetTailTable &lazy, const EagerTable &eager,
                   const std::vector<TableQuery> &queries)
{
    for (const TableQuery &q : queries) {
        if (q.memory) {
            EXPECT_EQ(lazy.tailMemTime(q.row, q.position),
                      eager.tailMemTime(q.row, q.position))
                << "memory row " << q.row << " position " << q.position;
        } else {
            EXPECT_EQ(lazy.tailCycles(q.row, q.position),
                      eager.tailCycles(q.row, q.position))
                << "compute row " << q.row << " position " << q.position;
        }
    }
}

TEST(TargetTailTable, OnDemandEntriesEqualEagerBuild)
{
    Rng rng(20);
    std::vector<double> cycles, mems, short_cycles, short_mems;
    for (int i = 0; i < 20000; ++i) {
        cycles.push_back(rng.lognormal(13.0, 0.5));
        mems.push_back(rng.lognormal(-9.0, 0.4));
        short_cycles.push_back(rng.lognormal(12.0, 0.3));
        short_mems.push_back(rng.lognormal(-9.5, 0.3));
    }
    const auto mix_c = fromSamples(cycles);
    const auto mix_m = fromSamples(mems);
    const auto class_c = fromSamples(short_cycles);
    const auto class_m = fromSamples(short_mems);

    for (const bool conservative : {false, true}) {
        for (const bool per_class : {false, true}) {
            SCOPED_TRACE(conservative ? "both bounds" : "lower bound");
            SCOPED_TRACE(per_class ? "class S_0" : "mixture S_0");
            TailTableConfig cfg;
            cfg.positions = 6;
            cfg.conservativeRowBounds = conservative;
            const DiscreteDistribution &s0_c = per_class ? class_c : mix_c;
            const DiscreteDistribution &s0_m = per_class ? class_m : mix_m;
            const auto build = [&] {
                return TargetTailTable::build(s0_c, s0_m, mix_c, mix_m,
                                              cfg);
            };
            const EagerTable eager =
                eagerBuild(s0_c, s0_m, mix_c, mix_m, cfg);

            // Ascending, then position-descending (every row's first
            // read is a CLT position), then a seeded random interleaving.
            std::vector<TableQuery> ascending = allQueries(cfg);
            std::vector<TableQuery> descending = ascending;
            std::stable_sort(descending.begin(), descending.end(),
                             [](const TableQuery &a, const TableQuery &b) {
                                 return a.position > b.position;
                             });
            std::vector<TableQuery> shuffled = ascending;
            Rng order(21);
            for (std::size_t i = shuffled.size(); i > 1; --i)
                std::swap(shuffled[i - 1], shuffled[order.uniformInt(i)]);
            for (const auto *queries : {&ascending, &descending, &shuffled})
                expectMatchesEager(build(), eager, *queries);

            // A fresh table does no chain work; reading everything runs
            // each boundary chain exactly once, to its last position.
            const TargetTailTable full = build();
            EXPECT_EQ(full.convolutions(), 0u);
            expectMatchesEager(full, eager, ascending);
            const std::size_t n_bounds =
                conservative ? cfg.rows + 1 : cfg.rows;
            EXPECT_EQ(full.convolutions(),
                      2 * n_bounds * (cfg.positions - 1));

            // First read at a CLT position, on a single row.
            const TargetTailTable clt = build();
            EXPECT_EQ(clt.tailCycles(3, cfg.positions + 2),
                      eager.tailCycles(3, cfg.positions + 2));
            EXPECT_EQ(clt.tailMemTime(5, cfg.positions),
                      eager.tailMemTime(5, cfg.positions));

            // Copied and moved part-way through evaluation: each copy
            // carries the partial memo and finishes the table on its own.
            TargetTailTable partial = build();
            const std::vector<TableQuery> head(
                shuffled.begin(), shuffled.begin() + shuffled.size() / 3);
            expectMatchesEager(partial, eager, head);
            const TargetTailTable copy = partial;
            expectMatchesEager(copy, eager, descending);
            const TargetTailTable moved = std::move(partial);
            expectMatchesEager(moved, eager, ascending);
        }
    }
}

TEST(RubikController, DecisionsComputeOnlyTheEntriesTheyRead)
{
    // A warm controller deciding for a short queue pulls in one row to
    // the queue depth, not the whole table.
    const DvfsModel dvfs = DvfsModel::haswell();
    RubikConfig cfg;
    cfg.latencyBound = 10.0 * kMs;
    cfg.warmupSamples = 16;
    cfg.feedback = false;
    RubikController rubik(dvfs, cfg);
    Rng rng(22);
    CoreView idle;
    for (int i = 0; i < 64; ++i) {
        CompletedRequest done;
        done.computeCycles = rng.lognormal(13.0, 0.3);
        done.memoryTime = rng.lognormal(-9.0, 0.3);
        done.completionTime = i * 1e-4;
        rubik.onCompletion(done, idle);
    }
    rubik.periodicUpdate(idle);
    ASSERT_TRUE(rubik.warm());
    EXPECT_EQ(rubik.tableConvolutions(), 0u);

    const std::vector<double> arrivals = {0.0, 0.0, 0.0};
    CoreView view;
    view.busy = true;
    view.count = arrivals.size();
    view.arrivals = arrivals.data();
    view.dvfs = &dvfs;
    (void)rubik.selectFrequency(view);
    // Row 0, positions 0..2 of both sides: two steps per chain.
    EXPECT_EQ(rubik.tableConvolutions(), 4u);
    (void)rubik.selectFrequency(view);
    EXPECT_EQ(rubik.tableConvolutions(), 4u);

    // A rebuild starts a fresh table; the count carries across it.
    for (int i = 0; i < 64; ++i) {
        CompletedRequest done;
        done.computeCycles = rng.lognormal(13.0, 0.3);
        done.memoryTime = rng.lognormal(-9.0, 0.3);
        done.completionTime = 0.1 + i * 1e-4;
        rubik.onCompletion(done, idle);
    }
    idle.now = cfg.updatePeriod;
    rubik.periodicUpdate(idle);
    EXPECT_EQ(rubik.tableRebuilds(), 2u);
    EXPECT_EQ(rubik.tableConvolutions(), 4u);

    // Position 0 alone already needs twice f_max (reading its entries
    // runs no chain step): the decision stops there and is f_max. The
    // full walk would have read positions 1 and 2 too, four steps.
    const TargetTailTable &table = *rubik.table();
    const double f_max = dvfs.maxFrequency();
    const double slack = table.tailCycles(0, 0) / (2.0 * f_max);
    const double age = cfg.latencyBound - table.tailMemTime(0, 0) - slack;
    const std::vector<double> hot_arrivals = {0.0, age, age};
    CoreView hot = view;
    hot.now = age;
    hot.arrivals = hot_arrivals.data();
    EXPECT_EQ(rubik.selectFrequency(hot), f_max);
    EXPECT_EQ(rubik.tableConvolutions(), 4u);

    (void)rubik.selectFrequency(view);
    EXPECT_EQ(rubik.tableConvolutions(), 8u);
}

/// A decision over every request in the system.
struct Walk
{
    double frequency = 0.0;
    /// quantizeUp(needed) reached the ceiling before the last position,
    /// without saturating: a decision that stops at the ceiling stops
    /// early.
    bool crossed = false;
    /// It did so while `needed` itself was still below the ceiling:
    /// an early stop the unquantized test would not have taken.
    bool quantizedOnly = false;
};

/// Eq. 2 walked the way RubikController and RubikBoostController did
/// before they stopped at the ceiling.
Walk
fullWalk(const TargetTailTable &table, double target, const CoreView &core,
         double ceiling)
{
    const DvfsModel &dvfs = *core.dvfs;
    const std::size_t row = table.rowForElapsed(core.elapsedCycles);
    Walk walk;
    double needed = 0.0;
    std::size_t position = 0;
    bool saturated = false;
    for (std::size_t i = 0; i < core.count; ++i) {
        if (saturated)
            break;
        const double t_i = core.now - core.arrivals[i];
        const double m_i = table.tailMemTime(row, position);
        const double slack = target - t_i - m_i;
        if (slack <= 0.0) {
            saturated = true;
        } else {
            const double c_i = table.tailCycles(row, position);
            needed = std::max(needed, c_i / slack);
            if (!walk.crossed && dvfs.quantizeUp(needed) >= ceiling &&
                i + 1 < core.count) {
                walk.crossed = true;
                walk.quantizedOnly = needed < ceiling;
            }
        }
        ++position;
    }
    const double f_max = dvfs.maxFrequency();
    const double f = saturated ? f_max : dvfs.quantizeUp(needed);
    walk.frequency = std::min(f, ceiling);
    return walk;
}

TEST(RubikController, CeilingExitDecidesLikeTheFullWalk)
{
    // Warm controllers on each app's own demands, then seeded queues:
    // stopping at the ceiling must never change a decision, uncapped
    // (ceiling f_max) or under a cap whose ceiling is 2.0 GHz.
    const DvfsModel dvfs = DvfsModel::haswell();
    const PowerModel power(dvfs);
    const double nominal = dvfs.nominalFrequency();
    const double cap_watts = power.coreActivePower(2.0 * kGHz, 0.0);
    ASSERT_LT(capFrequencyCeiling(power, cap_watts), dvfs.maxFrequency());

    std::size_t crossed_count = 0, quantized_only = 0, at_ceiling = 0,
                below = 0;
    for (const AppId id : allApps()) {
        SCOPED_TRACE(appName(id));
        const AppProfile app = makeApp(id);
        Trace trace = generateLoadTrace(app, 0.5, 3000, nominal, 23);
        annotateClasses(trace, 0.85, nominal);
        double service = 0.0, cycles = 0.0;
        for (const TraceRecord &r : trace) {
            service += r.serviceTime(nominal);
            cycles += r.computeCycles;
        }
        const auto n = static_cast<double>(trace.size());
        const double bound = 6.0 * service / n;

        // No feedback: the internal target stays at the bound.
        RubikBoostConfig cfg;
        cfg.base.latencyBound = bound;
        cfg.base.feedback = false;
        RubikController rubik(dvfs, cfg.base);
        RubikBoostController boost(dvfs, cfg);
        CoreView idle;
        for (const TraceRecord &r : trace) {
            CompletedRequest done;
            done.computeCycles = r.computeCycles;
            done.memoryTime = r.memoryTime;
            done.classHint = r.classHint;
            done.completionTime = r.arrivalTime;
            rubik.onCompletion(done, idle);
            boost.onCompletion(done, idle);
        }
        rubik.periodicUpdate(idle);
        boost.periodicUpdate(idle);
        ASSERT_TRUE(rubik.warm());
        ASSERT_TRUE(boost.warm());
        const TargetTailTable &mix = *rubik.table();

        Rng rng(24);
        for (const double watts : {0.0, cap_watts}) {
            SCOPED_TRACE("cap " + std::to_string(watts) + " W");
            rubik.setPowerCap(watts);
            boost.setPowerCap(watts);
            const double ceiling = capFrequencyCeiling(power, watts);
            for (int q = 0; q < 200; ++q) {
                SCOPED_TRACE("queue " + std::to_string(q));
                CoreView view;
                view.now = 1.0;
                view.busy = true;
                view.count = 1 + rng.uniformInt(24);
                view.elapsedCycles = rng.uniform(0.0, 2.0 * cycles / n);
                view.dvfs = &dvfs;
                view.power = &power;
                const double span = rng.uniform(0.0, 1.5) * bound;
                std::vector<double> arrivals(view.count);
                std::vector<int> hints(view.count);
                for (std::size_t i = 0; i < view.count; ++i) {
                    arrivals[i] = view.now - rng.uniform(0.0, span);
                    hints[i] = static_cast<int>(rng.uniformInt(2));
                }
                std::sort(arrivals.begin(), arrivals.end());
                view.arrivals = arrivals.data();
                view.classHints = hints.data();

                const Walk walk = fullWalk(mix, bound, view, ceiling);
                const double f = rubik.selectFrequency(view);
                EXPECT_EQ(f, walk.frequency);
                crossed_count += walk.crossed;
                quantized_only += walk.quantizedOnly;
                ++(f == ceiling ? at_ceiling : below);
                const TargetTailTable &own = *boost.tableFor(hints[0]);
                const Walk want = fullWalk(own, bound, view, ceiling);
                EXPECT_EQ(boost.selectFrequency(view), want.frequency);
                crossed_count += want.crossed;
                quantized_only += want.quantizedOnly;
            }
        }
    }
    // The seeded queues stop early, some only on the quantized test,
    // and land both at and below the ceiling.
    EXPECT_GT(crossed_count, 0u);
    EXPECT_GT(quantized_only, 0u);
    EXPECT_GT(at_ceiling, 0u);
    EXPECT_GT(below, 0u);
}

class TableShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(TableShapeSweep, BuildsAndStaysMonotoneAcrossShapes)
{
    // Property sweep over (rows, positions, buckets): every shape must
    // build successfully and produce position-monotone tails.
    const auto [rows, positions, buckets] = GetParam();
    Rng rng(16);
    std::vector<double> cycles, mems;
    for (int i = 0; i < 10000; ++i) {
        cycles.push_back(rng.lognormal(13.0, 0.4));
        mems.push_back(rng.lognormal(-9.0, 0.4));
    }
    TailTableConfig cfg;
    cfg.rows = static_cast<std::size_t>(rows);
    cfg.positions = static_cast<std::size_t>(positions);
    cfg.buckets = static_cast<std::size_t>(buckets);
    const auto table = TargetTailTable::build(
        fromSamples(cycles, cfg.buckets), fromSamples(mems, cfg.buckets),
        cfg);
    for (std::size_t r = 0; r < cfg.rows; ++r) {
        for (std::size_t i = 1; i < cfg.positions + 4; ++i) {
            EXPECT_GE(table.tailCycles(r, i),
                      table.tailCycles(r, i - 1) * 0.999);
            EXPECT_GE(table.tailMemTime(r, i),
                      table.tailMemTime(r, i - 1) * 0.999);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TableShapeSweep,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(8, 16),
                       ::testing::Values(64, 128)));

TEST(Profiler, WindowEviction)
{
    Profiler prof(100, 64);
    for (int i = 0; i < 250; ++i)
        prof.record(1000.0, 1e-6);
    EXPECT_EQ(prof.numSamples(), 100u);
}

TEST(Profiler, DistributionsReflectSamples)
{
    Profiler prof(4096, 128);
    Rng rng(17);
    std::vector<double> cycles;
    for (int i = 0; i < 4000; ++i) {
        const double c = rng.lognormal(13.0, 0.3);
        cycles.push_back(c);
        prof.record(c, 0.5e-3);
    }
    const auto cd = prof.computeDistribution();
    EXPECT_NEAR(cd.mean(), mean(cycles), mean(cycles) * 0.03);
    const auto md = prof.memoryDistribution();
    EXPECT_NEAR(md.mean(), 0.5e-3, 0.5e-3 * 0.05);
}

TEST(Profiler, EmptyYieldsPointMassAtZero)
{
    Profiler prof(100, 64);
    const auto d = prof.computeDistribution();
    EXPECT_NEAR(d.mean(), 0.0, d.bucketWidth());
}

/// `got` must be bitwise the one-shot build the profiler used to make
/// at every rebuild: the window max, a Histogram sized to it holding
/// every window sample, normalized (a point mass at 0 when the window
/// is empty or all zero).
void
expectOneShotBuild(const DiscreteDistribution &got,
                   const std::deque<double> &window, std::size_t buckets)
{
    double max_val = 0.0;
    for (const double v : window)
        max_val = std::max(max_val, v);
    ASSERT_EQ(got.numBuckets(), buckets);
    std::vector<double> masses;
    double width = 0.0;
    std::optional<DiscreteDistribution> want;
    if (max_val <= 0.0) {
        want = DiscreteDistribution::pointMass(0.0, buckets);
        width = want->bucketWidth();
        for (std::size_t i = 0; i < buckets; ++i)
            masses.push_back(want->mass(i));
    } else {
        Histogram hist(buckets, max_val * 1.0001);
        for (const double v : window)
            hist.add(v);
        masses = hist.normalized();
        width = hist.bucketWidth();
        want = DiscreteDistribution::fromHistogram(hist, buckets);
    }
    EXPECT_EQ(got.bucketWidth(), width);
    for (std::size_t i = 0; i < buckets; ++i)
        EXPECT_EQ(got.mass(i), masses[i]) << "bucket " << i;
    for (const double q : {0.0, 0.05, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        SCOPED_TRACE("q " + std::to_string(q));
        EXPECT_EQ(got.quantile(q), want->quantile(q));
        EXPECT_EQ(got.quantileUpper(q), want->quantileUpper(q));
    }
}

/// A Profiler next to plain deques holding the same windows.
struct ProfilerMirror
{
    ProfilerMirror(std::size_t window, std::size_t buckets)
        : prof(window, buckets), window(window), buckets(buckets)
    {
    }

    void record(double c, double m)
    {
        prof.record(c, m);
        push(cycles, c);
        push(mems, m);
    }

    void push(std::deque<double> &samples, double v) const
    {
        samples.push_back(std::max(0.0, v));
        if (samples.size() > window)
            samples.pop_front();
    }

    void clear()
    {
        prof.clear();
        cycles.clear();
        mems.clear();
    }

    /// Materialize both sides and compare them with the one-shot build.
    void check()
    {
        SCOPED_TRACE(std::to_string(cycles.size()) + " in the window");
        expectOneShotBuild(prof.computeDistribution(), cycles, buckets);
        expectOneShotBuild(prof.memoryDistribution(), mems, buckets);
    }

    Profiler prof;
    std::size_t window, buckets;
    std::deque<double> cycles, mems;
};

TEST(Profiler, IncrementalHistogramsMatchOneShotBuild)
{
    // The paper's window at the rebuild cadence real runs see (every
    // 32 completions), across three window turnovers, with new maxima,
    // zeros and clamped negatives mixed in.
    ProfilerMirror big(4096, 128);
    Rng rng(25);
    std::size_t builds = 0;
    for (int i = 1; i <= 12288; ++i) {
        double c = rng.lognormal(13.0, 0.4);
        double m = rng.lognormal(-9.0, 0.4);
        if (i % 997 == 0)
            c *= 20.0; // a new max, evicted 4096 samples later
        if (i % 389 == 0)
            m = 0.0;
        if (i % 1499 == 0)
            c = -5.0;
        big.record(c, m);
        if (i % 32 == 0) {
            big.check();
            ++builds;
        }
    }
    // All but a few side builds reused the counts record() kept.
    EXPECT_LT(big.prof.rescans(), 2 * builds / 20);

    // The smallest window: every record evicts, and the max moves at
    // almost every step.
    ProfilerMirror two(2, 16);
    const auto step = [&two](double c, double m) {
        two.record(c, m);
        two.check();
    };
    step(3.0, 1.0);
    // A new compute max; a tie at the memory max.
    step(5.0, 1.0);
    // Evicts the compute non-max, then the compute max.
    step(1.0, 1.0);
    step(1.0, 0.0);
    // All-zero windows, then a new max over one.
    step(0.0, 0.0);
    step(0.0, 0.0);
    step(2.0, 2.0);
    // A tie at the max, then one of the pair evicted.
    step(2.0, 2.0);
    step(-1.0, 7.0);
    two.clear();
    two.check();
    step(4.0, 4.0);
}

TEST(Profiler, RecountsOnlyWhenTheMaxMayMove)
{
    ProfilerMirror mirror(4, 8);
    for (const double c : {9.0, 9.0, 1.0, 1.0})
        mirror.record(c, 1e-3);
    mirror.check();
    EXPECT_EQ(mirror.prof.rescans(), 2u); // each side's first build

    // Evicting one of two samples at the max leaves the max in place:
    // both sides move one count in and one out.
    mirror.record(1.0, 1e-3);
    mirror.check();
    EXPECT_EQ(mirror.prof.rescans(), 2u);

    // The last sample at the compute max leaves: that side recounts.
    mirror.record(1.0, 1e-3);
    mirror.check();
    EXPECT_EQ(mirror.prof.rescans(), 3u);

    // A new compute max recounts; a sample below it does not.
    mirror.record(20.0, 1e-3);
    mirror.check();
    EXPECT_EQ(mirror.prof.rescans(), 4u);
    mirror.record(5.0, 1e-3);
    mirror.check();
    EXPECT_EQ(mirror.prof.rescans(), 4u);

    // Records between builds cost nothing extra.
    for (int i = 0; i < 2; ++i)
        mirror.record(2.0, 1e-3);
    mirror.check();
    EXPECT_EQ(mirror.prof.rescans(), 4u);

    mirror.clear();
    EXPECT_EQ(mirror.prof.rescans(), 0u);
}

TEST(PiController, ConvergesToStep)
{
    // Track a constant positive error: the integral term must push the
    // output upward until the clamp.
    PiController pi(0.5, 1.0, 0.0, 10.0, 1.0);
    double out = 1.0;
    for (int i = 0; i < 200; ++i)
        out = pi.update(0.5, 0.1);
    EXPECT_GT(out, 9.0);
}

TEST(PiController, ClampsOutput)
{
    PiController pi(1.0, 10.0, 0.5, 2.0, 1.0);
    for (int i = 0; i < 100; ++i)
        pi.update(10.0, 1.0);
    EXPECT_LE(pi.output(), 2.0);
    for (int i = 0; i < 100; ++i)
        pi.update(-10.0, 1.0);
    EXPECT_GE(pi.output(), 0.5);
}

TEST(PiController, ZeroErrorHoldsOutput)
{
    PiController pi(0.5, 0.5, 0.0, 10.0, 3.0);
    pi.update(0.0, 0.1);
    pi.update(0.0, 0.1);
    EXPECT_DOUBLE_EQ(pi.output(), 3.0);
}

TEST(PiController, ResetRestoresInitial)
{
    PiController pi(0.5, 0.5, 0.0, 10.0, 3.0);
    pi.update(1.0, 1.0);
    EXPECT_NE(pi.output(), 3.0);
    pi.reset(3.0);
    EXPECT_DOUBLE_EQ(pi.output(), 3.0);
}

TEST(RubikController, RequiresLatencyBound)
{
    const DvfsModel dvfs = DvfsModel::haswell();
    RubikConfig cfg;
    cfg.latencyBound = 1.0 * kMs;
    RubikController rubik(dvfs, cfg);
    EXPECT_FALSE(rubik.warm());
    EXPECT_DOUBLE_EQ(rubik.internalTarget(), 1.0 * kMs);
}

} // namespace
} // namespace rubik
