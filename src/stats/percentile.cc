#include "stats/percentile.h"

#include <algorithm>
#include <cmath>

namespace rubik {

std::size_t
nearestRankIndex(std::size_t n, double q)
{
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank: smallest value with at least ceil(q*n) samples <= it.
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    return std::min(rank - 1, n - 1);
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    const auto nth = samples.begin() +
                     static_cast<std::ptrdiff_t>(
                         nearestRankIndex(samples.size(), q));
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRankIndex(sorted.size(), q)];
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    return sum / static_cast<double>(samples.size());
}

double
variance(const std::vector<double> &samples)
{
    if (samples.size() < 2)
        return 0.0;
    const double m = mean(samples);
    double sum = 0.0;
    for (double s : samples)
        sum += (s - m) * (s - m);
    return sum / static_cast<double>(samples.size());
}

double
empiricalCdf(const std::vector<double> &sorted, double x)
{
    if (sorted.empty())
        return 0.0;
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
    return static_cast<double>(it - sorted.begin()) /
           static_cast<double>(sorted.size());
}

double
inverseNormalCdf(double p)
{
    // Acklam's rational approximation (2003).
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    const double p_low = 0.02425;
    const double p_high = 1.0 - p_low;

    p = std::clamp(p, 1e-12, 1.0 - 1e-12);
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
                c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p <= p_high) {
        const double q = p - 0.5;
        const double r = q * q;
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
                a[5]) *
               q /
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
                1.0);
    }
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

} // namespace rubik
