/**
 * @file
 * What one benchmark process reports: named metrics with units, the
 * operation tally behind fail_frac, refusals by reason, and the golden
 * digests simulated results are checked against.
 */

#ifndef UFCBENCH_REPORT_H
#define UFCBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "host_speed.h"
#include "sim/stats.h"

namespace ufcbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything a workload run hands back to main(). */
struct Outcome
{
    std::vector<Metric> metrics;
    /// Quartiles and tail percentile behind each end-to-end median,
    /// and the median as measured before scaling to reference speed
    /// (reported, not bounded: on a shared host tails do not repeat
    /// run to run).
    struct Spread
    {
        std::string name;
        double q1 = 0.0, q3 = 0.0;
        double tailPct = 0.0, tail = 0.0;
        std::size_t samples = 0;
        double rawMedian = 0.0;
    };
    std::vector<Spread> spreads;
    unsigned long long attempted = 0;
    unsigned long long failed = 0;
    /// Refused serve requests by protocol error code.
    std::map<std::string, unsigned long long> refusals;
    /// One line per failed operation (first few only), for stderr.
    std::vector<std::string> failures;
    /// Set-up time at reference speed, and as measured.
    double setupS = 0.0;
    double setupRawS = 0.0;

    /** Record set-up as ending now: take its time, then probe the
     *  host speed on every CPU to scale it. */
    void endSetup(std::chrono::steady_clock::time_point processStart);

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Add the median of `t` at reference speed as an end-to-end
     *  metric and record its spread. */
    void addTimed(const std::string &name, const Timings &t);
    /** Count one checked operation; `what` describes a failure. */
    void check(bool ok, const std::string &what);
};

/** Command-line settings every workload receives. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    /// Directory holding golden/*.txt (the benchmark's own files).
    std::string goldenDir;
    /// Rewrite the golden digests instead of checking them.
    bool writeGolden = false;
    /// Scratch directory inside the checkout (the serve socket).
    std::string workDir;
};

/** FNV-1a 64 of `s`. */
std::uint64_t fnv1a64(const std::string &s);

/** Digest of a simulated result: FNV-1a 64 of RunResult::toJson() with
 *  the host-time field zeroed, so it covers every simulated number. */
std::uint64_t resultDigest(ufc::sim::RunResult r);

/** Golden digests keyed by label, one "label hex" line each. */
using Golden = std::map<std::string, std::uint64_t>;
Golden loadGolden(const std::string &path);
void saveGolden(const Golden &g, const std::string &path);

/** Emit the process result as one JSON line. */
void writeOutcome(std::ostream &os, const Outcome &o);

} // namespace ufcbench

#endif // UFCBENCH_REPORT_H
