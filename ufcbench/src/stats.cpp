#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ufcbench {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** 1-based nearest rank of percentile p among n samples.  The epsilon
 *  keeps 99.9% of 10000 at rank 9990 despite p/100*n rounding up. */
double
nearestRank(double p, double n)
{
    return std::max(1.0, std::ceil(p / 100.0 * n - 1e-9));
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return kNaN;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        return {kNaN, kNaN};
    std::sort(v.begin(), v.end());
    // Transcription of CPython's statistics.quantiles, method
    // "exclusive", n=4 -- including its linear extrapolation when the
    // position falls outside [1, len] for tiny samples.
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    const auto at = [&](long i) {
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        return (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
    };
    return {at(1), at(3)};
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return kNaN;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const auto rank = static_cast<std::size_t>(nearestRank(p, n));
    return v[std::min(rank, v.size()) - 1];
}

Tail
tailPercentile(const std::vector<double> &v, std::size_t minBeyond)
{
    Tail best{0.0, kNaN};
    const double n = static_cast<double>(v.size());
    for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        const double rank = nearestRank(p, n);
        if (v.empty() || n - rank < static_cast<double>(minBeyond))
            break;
        best = {p, percentile(v, p)};
    }
    return best;
}

std::vector<double>
dueLatenciesMs(const std::vector<Arrival> &a)
{
    std::vector<double> out;
    out.reserve(a.size());
    for (const Arrival &r : a)
        out.push_back(r.ok ? (r.doneS - r.dueS) * 1e3
                           : std::numeric_limits<double>::infinity());
    return out;
}

std::vector<double>
latenessMs(const std::vector<Arrival> &a)
{
    std::vector<double> out;
    out.reserve(a.size());
    for (const Arrival &r : a)
        out.push_back(std::max(0.0, (r.sentS - r.dueS) * 1e3));
    return out;
}

} // namespace ufcbench
