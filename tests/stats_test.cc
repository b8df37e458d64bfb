/**
 * @file
 * Unit tests for src/stats: histograms, percentiles, rolling windows,
 * correlation, streaming summaries, inverse normal CDF.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "stats/correlation.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "stats/rolling_tail.h"
#include "stats/summary.h"
#include "util/rng.h"

namespace rubik {
namespace {

TEST(Histogram, EmptyReportsZeros)
{
    Histogram h(16, 1.0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.variance(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, SingleValueQuantiles)
{
    Histogram h(128, 10.0);
    h.add(5.0);
    // All quantiles land inside the bucket containing 5.0.
    EXPECT_NEAR(h.quantile(0.01), 5.0, h.bucketWidth());
    EXPECT_NEAR(h.quantile(0.99), 5.0, h.bucketWidth());
}

TEST(Histogram, MeanAndVarianceOfUniformSamples)
{
    Histogram h(256, 1.0);
    Rng rng(1);
    for (int i = 0; i < 100000; ++i)
        h.add(rng.uniform());
    EXPECT_NEAR(h.mean(), 0.5, 0.01);
    EXPECT_NEAR(h.variance(), 1.0 / 12.0, 0.005);
}

TEST(Histogram, GrowthPreservesTotalWeight)
{
    Histogram h(32, 1.0);
    for (int i = 0; i < 100; ++i)
        h.add(0.5);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 100.0);
    h.add(1000.0); // forces growth + rebinning
    EXPECT_DOUBLE_EQ(h.totalWeight(), 101.0);
    EXPECT_GE(h.max(), 1000.0);
}

TEST(Histogram, GrowthKeepsMeanApproximately)
{
    Histogram h(128, 1.0);
    Rng rng(2);
    std::vector<double> vals;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform() * 0.9;
        vals.push_back(v);
        h.add(v);
    }
    h.add(500.0); // grow by ~9 doublings
    vals.push_back(500.0);
    // After growth the bucket width is coarse; the binned mean can only
    // be accurate to about one (new) bucket width.
    EXPECT_NEAR(h.mean(), mean(vals), h.bucketWidth() * 1.5);
}

TEST(Histogram, QuantileMonotonicInQ)
{
    Histogram h(64, 10.0);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        h.add(rng.exponential(1.0));
    double prev = 0.0;
    for (double q = 0.05; q <= 0.99; q += 0.05) {
        const double v = h.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(Histogram, NormalizedSumsToOne)
{
    Histogram h(64, 4.0);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i)
        h.add(rng.uniform() * 3.0);
    double total = 0.0;
    for (double p : h.normalized())
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(16, 2.0);
    h.addWeighted(1.0, 2.5);
    h.addWeighted(1.0, 0.5);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 3.0);
    // Zero or negative weights are ignored.
    h.addWeighted(1.0, 0.0);
    h.addWeighted(1.0, -1.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 3.0);
}

TEST(Histogram, NegativeValuesClampToZero)
{
    Histogram h(16, 2.0);
    h.add(-5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), h.bucketWidth());
}

TEST(Percentile, NearestRankSmallVectors)
{
    std::vector<double> v = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.34), 2.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.67), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 3.0);
}

TEST(Percentile, SelectionMatchesSortedReference)
{
    // percentile() selects in place; it must return exactly the element
    // a sorted copy puts at the nearest rank. Values repeat, and some
    // q*n products are integers (0.05*20, 0.5*20, 0.5*1000, ...).
    Rng rng(2024);
    for (std::size_t n : {1u, 2u, 19u, 20u, 21u, 1000u}) {
        std::vector<double> v(n);
        for (double &x : v)
            x = 0.25 * static_cast<double>(rng.uniformInt(n / 3 + 2));
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        for (double q : {-0.1, 0.0, 0.05, 0.5, 0.95, 1.0, 1.5}) {
            const double tail = percentile(v, q);
            EXPECT_EQ(tail, percentileSorted(sorted, q))
                << "n=" << n << " q=" << q;
            // The counting rule the oracles' probe relies on: the
            // quantile is <= x iff at most n-1-rank samples exceed x.
            const std::size_t budget = n - 1 - nearestRankIndex(n, q);
            for (double x : sorted) {
                for (double probe : {x, std::nextafter(x, -1.0)}) {
                    const auto over = static_cast<std::size_t>(
                        std::count_if(sorted.begin(), sorted.end(),
                                      [&](double s) { return s > probe; }));
                    EXPECT_EQ(tail <= probe, over <= budget)
                        << "n=" << n << " q=" << q << " x=" << probe;
                }
            }
        }
    }
}

TEST(Percentile, NearestRankIndex)
{
    EXPECT_EQ(nearestRankIndex(1, 0.95), 0u);
    EXPECT_EQ(nearestRankIndex(20, -0.1), 0u);
    EXPECT_EQ(nearestRankIndex(20, 0.0), 0u);
    EXPECT_EQ(nearestRankIndex(20, 0.05), 0u); // ceil(1) - 1
    EXPECT_EQ(nearestRankIndex(20, 0.5), 9u);
    EXPECT_EQ(nearestRankIndex(21, 0.5), 10u);
    EXPECT_EQ(nearestRankIndex(100, 0.95), 94u);
    EXPECT_EQ(nearestRankIndex(20, 1.0), 19u);
    EXPECT_EQ(nearestRankIndex(20, 1.5), 19u);
}

TEST(Percentile, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(percentile({}, 0.95), 0.0);
}

TEST(Percentile, NinetyFifthOfHundred)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(percentile(v, 0.95), 95.0);
}

TEST(Percentile, MeanAndVariance)
{
    std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(v), 5.0);
    EXPECT_DOUBLE_EQ(variance(v), 4.0);
}

TEST(Percentile, EmpiricalCdf)
{
    std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(empiricalCdf(v, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(empiricalCdf(v, 2.0), 0.5);
    EXPECT_DOUBLE_EQ(empiricalCdf(v, 10.0), 1.0);
}

TEST(InverseNormalCdf, KnownValues)
{
    EXPECT_NEAR(inverseNormalCdf(0.5), 0.0, 1e-8);
    EXPECT_NEAR(inverseNormalCdf(0.95), 1.6448536, 1e-6);
    EXPECT_NEAR(inverseNormalCdf(0.99), 2.3263479, 1e-6);
    EXPECT_NEAR(inverseNormalCdf(0.05), -1.6448536, 1e-6);
}

TEST(InverseNormalCdf, Symmetry)
{
    for (double p = 0.01; p < 0.5; p += 0.03)
        EXPECT_NEAR(inverseNormalCdf(p), -inverseNormalCdf(1.0 - p), 1e-7);
}

TEST(RollingTail, ExpiresOldSamples)
{
    RollingTail rt(1.0);
    rt.add(0.0, 10.0);
    rt.add(0.5, 20.0);
    rt.add(1.8, 30.0);
    // Samples at t=0 and t=0.5 are both outside [0.8, 1.8].
    EXPECT_EQ(rt.size(), 1u);
}

TEST(RollingTail, TailOfWindow)
{
    RollingTail rt(10.0);
    for (int i = 1; i <= 100; ++i)
        rt.add(static_cast<double>(i) * 0.01, static_cast<double>(i));
    EXPECT_DOUBLE_EQ(rt.tail(0.95), 95.0);
    EXPECT_DOUBLE_EQ(rt.tail(1.0), 100.0);
}

TEST(RollingTail, EmptyTailIsZero)
{
    RollingTail rt(1.0);
    EXPECT_DOUBLE_EQ(rt.tail(0.95), 0.0);
    rt.add(0.0, 5.0);
    rt.expire(100.0);
    EXPECT_TRUE(rt.empty());
    EXPECT_DOUBLE_EQ(rt.tail(0.95), 0.0);
}

TEST(Correlation, PerfectPositive)
{
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(Correlation, PerfectNegative)
{
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(Correlation, IndependentNearZero)
{
    Rng rng(5);
    std::vector<double> x, y;
    for (int i = 0; i < 50000; ++i) {
        x.push_back(rng.uniform());
        y.push_back(rng.uniform());
    }
    EXPECT_NEAR(pearsonCorrelation(x, y), 0.0, 0.02);
}

TEST(Correlation, ZeroVarianceIsZero)
{
    std::vector<double> x = {1, 1, 1};
    std::vector<double> y = {1, 2, 3};
    EXPECT_DOUBLE_EQ(pearsonCorrelation(x, y), 0.0);
}

TEST(Summary, WelfordMatchesBatch)
{
    Rng rng(6);
    Summary s;
    std::vector<double> vals;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.normal(3.0, 2.0);
        s.add(v);
        vals.push_back(v);
    }
    EXPECT_NEAR(s.mean(), mean(vals), 1e-9);
    EXPECT_NEAR(s.variance(), variance(vals), 1e-6);
}

TEST(Summary, MinMaxTracking)
{
    Summary s;
    s.add(5.0);
    s.add(-2.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.min(), -2.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
}

} // namespace
} // namespace rubik
