/**
 * @file
 * Sample statistics of the benchmark: medians, quartiles, the tail
 * percentile rule, and the accounting of an open-loop request stream.
 */

#ifndef UFCBENCH_STATS_H
#define UFCBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace ufcbench {

/** Median (mean of the two middle values for an even count); NaN when
 *  `v` is empty. */
double median(std::vector<double> v);

/** First and third quartiles by the same rule as Python's
 *  statistics.quantiles(v, n=4) (the "exclusive" method): quartile k
 *  sits at 1-based position k*(n+1)/4, interpolated.  NaN when fewer
 *  than two values. */
struct Quartiles
{
    double q1 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/** Nearest-rank percentile p in (0, 100]; NaN when `v` is empty. */
double percentile(std::vector<double> v, double p);

/** A tail percentile together with the percentile it is. */
struct Tail
{
    double pct = 0.0;   ///< 0 when the sample is too small for any
    double value = 0.0; ///< NaN when pct == 0
};

/**
 * The highest percentile of the ladder {50, 90, 95, 99, 99.9} that
 * leaves at least `minBeyond` samples strictly above its rank, so the
 * reported tail rests on enough observations to repeat.  With n
 * samples, percentile p qualifies when n - ceil(p/100 * n) >= minBeyond.
 */
Tail tailPercentile(const std::vector<double> &v,
                    std::size_t minBeyond = 10);

/** One request of an open-loop stream, times in seconds from the
 *  stream's start. */
struct Arrival
{
    double dueS = 0.0;  ///< when the schedule said to send it
    double sentS = 0.0; ///< when the generator actually sent it
    double doneS = 0.0; ///< when its terminal result was observed
    bool ok = false;    ///< admitted, finished and correct
};

/**
 * Per-request latency in ms timed from the due time, so a stall also
 * charges the requests queued behind it.  A request that was refused,
 * failed or wrong counts as +infinity: it missed every latency limit.
 */
std::vector<double> dueLatenciesMs(const std::vector<Arrival> &a);

/** How late the generator sent each request, in ms (sent - due,
 *  floored at 0). */
std::vector<double> latenessMs(const std::vector<Arrival> &a);

} // namespace ufcbench

#endif // UFCBENCH_STATS_H
