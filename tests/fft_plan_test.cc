/**
 * @file
 * FFT plan-cache tests: bitwise identity of planned transforms and
 * planned convolutions against the unplanned reference, edge sizes,
 * reuse of the per-thread convolution scratch, and thread safety of the
 * global plan table (sweeps run convolutions from many ExperimentRunner
 * jobs concurrently).
 */

#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distribution.h"
#include "core/target_tail_table.h"
#include "stats/histogram.h"
#include "util/fft.h"
#include "util/rng.h"
#include "util/simd.h"

namespace rubik {
namespace {

std::vector<std::complex<double>>
randomComplex(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::complex<double>> v(n);
    for (auto &x : v)
        x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    return v;
}

std::vector<double>
randomReal(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (auto &x : v)
        x = rng.uniform();
    return v;
}

/// Bitwise equality of two double sequences (stricter than ==: also
/// distinguishes -0.0 from +0.0 and would catch NaNs).
template <typename T>
bool
bitwiseEqual(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(FftPlan, BitwiseIdenticalToUnplannedAllSizes)
{
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                          std::size_t{8}, std::size_t{64},
                          std::size_t{128}, std::size_t{256},
                          std::size_t{4096}}) {
        const auto data = randomComplex(n, 100 + n);
        for (bool invert : {false, true}) {
            auto unplanned = data;
            fft(unplanned, invert);
            auto planned = data;
            FftPlan::forSize(n).run(planned, invert);
            EXPECT_TRUE(bitwiseEqual(unplanned, planned))
                << "size " << n << " invert " << invert;
        }
    }
}

TEST(FftPlan, RoundTripRestoresInput)
{
    const auto data = randomComplex(512, 7);
    auto copy = data;
    const FftPlan &plan = FftPlan::forSize(512);
    plan.run(copy, false);
    plan.run(copy, true);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(copy[i].real(), data[i].real(), 1e-9);
        EXPECT_NEAR(copy[i].imag(), data[i].imag(), 1e-9);
    }
}

TEST(FftPlan, ConvolvePlannedBitwiseIdentical)
{
    FftScratch scratch;
    std::vector<double> out;
    // Sizes chosen so out_size hits 1, powers of two, and
    // non-powers-of-two (forcing zero-padding up to the next plan size).
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 1}, {1, 2}, {2, 2}, {3, 5}, {128, 128},
        {128, 37}, {100, 29}, {4096, 4096}, {4096, 3}};
    for (const auto &[na, nb] : shapes) {
        const auto a = randomReal(na, na * 7 + 1);
        const auto b = randomReal(nb, nb * 13 + 2);
        const auto reference = fftConvolve(a, b);
        fftConvolvePlanned(a, b, scratch, out);
        EXPECT_TRUE(bitwiseEqual(reference, out))
            << "sizes " << na << "x" << nb;
    }
}

TEST(FftPlan, PointMassConvolution)
{
    // delta * delta = delta, at the summed offset.
    FftScratch scratch;
    std::vector<double> out;
    std::vector<double> da(5, 0.0), db(9, 0.0);
    da[3] = 1.0;
    db[6] = 1.0;
    fftConvolvePlanned(da, db, scratch, out);
    ASSERT_EQ(out.size(), da.size() + db.size() - 1);
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i == 9)
            EXPECT_NEAR(out[i], 1.0, 1e-12);
        else
            EXPECT_NEAR(out[i], 0.0, 1e-12);
    }
}

TEST(FftPlan, ConcurrentForSizeAndRunAreSafeAndExact)
{
    // Precompute serial references.
    const std::size_t sizes[] = {2, 8, 64, 256, 1024, 4096};
    std::vector<std::vector<std::complex<double>>> inputs, expected;
    for (std::size_t n : sizes) {
        inputs.push_back(randomComplex(n, 1000 + n));
        auto ref = inputs.back();
        fft(ref, false);
        expected.push_back(std::move(ref));
    }

    constexpr int kThreads = 8;
    constexpr int kIters = 50;
    std::vector<int> mismatches(kThreads, 0);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int it = 0; it < kIters; ++it) {
                    for (std::size_t s = 0; s < std::size(sizes); ++s) {
                        auto data = inputs[s];
                        FftPlan::forSize(sizes[s]).run(data, false);
                        if (!bitwiseEqual(data, expected[s]))
                            ++mismatches[t];
                    }
                }
            });
        }
        for (auto &th : threads)
            th.join();
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

DiscreteDistribution
lognormalDist(double mu, double sigma, uint64_t seed)
{
    Rng rng(seed);
    Histogram h(128, 1.0);
    for (int i = 0; i < 2048; ++i)
        h.add(rng.lognormal(mu, sigma));
    return DiscreteDistribution::fromHistogram(h, 128);
}

/// Bitwise equality of two distributions' widths and masses.
bool
sameDistribution(const DiscreteDistribution &a,
                 const DiscreteDistribution &b)
{
    if (a.numBuckets() != b.numBuckets() ||
        a.bucketWidth() != b.bucketWidth())
        return false;
    for (std::size_t i = 0; i < a.numBuckets(); ++i) {
        if (a.mass(i) != b.mass(i))
            return false;
    }
    return true;
}

/// Every tail of a table, row by row, including the Gaussian extension.
std::vector<double>
tableTails(const TargetTailTable &t, const TailTableConfig &cfg)
{
    std::vector<double> out;
    for (std::size_t r = 0; r < cfg.rows; ++r) {
        for (std::size_t i = 0; i < cfg.positions + 4; ++i) {
            out.push_back(t.tailCycles(r, i));
            out.push_back(t.tailMemTime(r, i));
        }
    }
    return out;
}

// convolveWith keeps its FFT buffers and arenas in per-thread scratch;
// reusing that scratch must not leak state from one call into the next.
TEST(ConvolveScratch, RepeatedConvolveWithIsBitwiseStable)
{
    const auto a = lognormalDist(13.0, 0.3, 1);
    const auto b = lognormalDist(13.0, 0.4, 2);
    const auto first = a.convolveWith(b);
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_TRUE(sameDistribution(first, a.convolveWith(b)))
            << "rep " << rep;
}

TEST(ConvolveScratch, RepeatedChainIsBitwiseStable)
{
    // The common bucket width grows along a chain, so consecutive
    // steps reuse the same scratch at different operand geometries.
    const auto s0 = lognormalDist(13.0, 0.3, 3);
    const auto s = lognormalDist(13.0, 0.35, 4);
    auto chain = [&] {
        std::vector<DiscreteDistribution> steps{s0};
        for (int i = 0; i < 8; ++i)
            steps.push_back(steps.back().convolveWith(s));
        return steps;
    };
    const auto first = chain();
    const auto again = chain();
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(sameDistribution(first[i], again[i])) << "step " << i;
}

TEST(ConvolveScratch, RepeatedTableBuildsAreBitwiseStable)
{
    const auto compute = lognormalDist(13.0, 0.3, 5);
    const auto memory = lognormalDist(-9.0, 0.3, 6);
    TailTableConfig cfg;
    cfg.rows = 4;
    cfg.positions = 8;

    const auto first =
        tableTails(TargetTailTable::build(compute, memory, cfg), cfg);
    for (int rep = 0; rep < 2; ++rep) {
        EXPECT_TRUE(bitwiseEqual(
            first,
            tableTails(TargetTailTable::build(compute, memory, cfg), cfg)))
            << "rep " << rep;
    }
}

TEST(ConvolveScratch, ConcurrentTableBuildsMatchSerial)
{
    const auto compute = lognormalDist(13.0, 0.3, 9);
    const auto memory = lognormalDist(-9.0, 0.3, 10);
    TailTableConfig cfg;
    cfg.rows = 4;
    cfg.positions = 8;
    // Tables compute entries on first read, so each thread queries only
    // the tables it built; the reference is read out before they start.
    const std::vector<double> reference =
        tableTails(TargetTailTable::build(compute, memory, cfg), cfg);

    constexpr int kThreads = 8;
    std::vector<int> mismatches(kThreads, 0);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int rep = 0; rep < 3; ++rep) {
                    const auto table =
                        TargetTailTable::build(compute, memory, cfg);
                    if (!bitwiseEqual(reference, tableTails(table, cfg)))
                        ++mismatches[t];
                }
            });
        }
        for (auto &th : threads)
            th.join();
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------------
// SIMD dispatch pins: everything the vector kernels touch must be
// bitwise identical to the forced-scalar reference. On hosts without a
// vector unit the dispatched mode resolves to Scalar and these compare
// scalar against itself — still a valid (if vacuous) pin, so no skips.
// ---------------------------------------------------------------------------

/// Evaluate fn() under `mode`, restoring the previous mode after.
template <typename Fn>
auto
underSimdMode(SimdMode mode, Fn &&fn)
{
    const SimdMode prev = activeSimdMode();
    EXPECT_TRUE(setSimdMode(mode));
    auto result = fn();
    EXPECT_TRUE(setSimdMode(prev));
    return result;
}

TEST(SimdDispatch, FftBitwiseMatchesScalarAllSizes)
{
    for (std::size_t n : {std::size_t{2}, std::size_t{8}, std::size_t{64},
                          std::size_t{256}, std::size_t{1024},
                          std::size_t{4096}}) {
        const auto data = randomComplex(n, 500 + n);
        for (bool invert : {false, true}) {
            auto run = [&] {
                auto d = data;
                FftPlan::forSize(n).run(d, invert);
                return d;
            };
            const auto scalar = underSimdMode(SimdMode::Scalar, run);
            const auto dispatched = underSimdMode(SimdMode::Auto, run);
            EXPECT_TRUE(bitwiseEqual(scalar, dispatched))
                << "size " << n << " invert " << invert << " mode "
                << simdModeName(activeSimdMode());
        }
    }
}

TEST(SimdDispatch, ConvolvePlannedBitwiseMatchesScalar)
{
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 1}, {2, 2}, {3, 5}, {128, 128}, {128, 37},
        {100, 29}, {4096, 4096}, {4096, 3}};
    for (const auto &[na, nb] : shapes) {
        const auto a = randomReal(na, na * 3 + 21);
        const auto b = randomReal(nb, nb * 5 + 22);
        auto run = [&] {
            FftScratch scratch;
            std::vector<double> out;
            fftConvolvePlanned(a, b, scratch, out);
            return out;
        };
        const auto scalar = underSimdMode(SimdMode::Scalar, run);
        const auto dispatched = underSimdMode(SimdMode::Auto, run);
        EXPECT_TRUE(bitwiseEqual(scalar, dispatched))
            << "sizes " << na << "x" << nb;
    }
}

TEST(SimdDispatch, DistributionConvolveAndQuantilesMatchScalar)
{
    // End-to-end through DiscreteDistribution: convolution (clamp,
    // edge-split, normalize, rebin kernels) and the CDF quantile scans
    // (countBelow kernel) that the tail-table build leans on.
    const auto a = lognormalDist(13.0, 0.3, 21);
    const auto b = lognormalDist(13.0, 0.4, 22);
    auto run = [&] {
        const auto c = a.convolveWith(b);
        std::vector<double> out;
        out.reserve(c.numBuckets() + 4);
        for (std::size_t i = 0; i < c.numBuckets(); ++i)
            out.push_back(c.mass(i));
        for (double q : {0.5, 0.9, 0.95, 0.99})
            out.push_back(c.quantileUpper(q));
        return out;
    };
    const auto scalar = underSimdMode(SimdMode::Scalar, run);
    const auto dispatched = underSimdMode(SimdMode::Auto, run);
    EXPECT_TRUE(bitwiseEqual(scalar, dispatched));
}

TEST(SimdDispatch, TableBuildBitwiseMatchesScalar)
{
    const auto compute = lognormalDist(13.0, 0.3, 23);
    const auto memory = lognormalDist(-9.0, 0.3, 24);
    TailTableConfig cfg;
    cfg.rows = 4;
    cfg.positions = 8;
    auto run = [&] {
        return tableTails(TargetTailTable::build(compute, memory, cfg), cfg);
    };
    const auto scalar = underSimdMode(SimdMode::Scalar, run);
    const auto dispatched = underSimdMode(SimdMode::Auto, run);
    EXPECT_TRUE(bitwiseEqual(scalar, dispatched));
}

} // namespace
} // namespace rubik
