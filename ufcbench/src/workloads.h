/**
 * @file
 * The benchmark's workloads.  Each runs its set-up, then measures for
 * RunArgs::seconds, checks every output, and returns its metrics:
 * the end-to-end set when untraced, the per-layer set when traced.
 */

#ifndef UFCBENCH_WORKLOADS_H
#define UFCBENCH_WORKLOADS_H

#include <chrono>

#include "host_speed.h"
#include "report.h"

namespace ufcbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** Names of the per-layer metrics, in report order.  Every traced run
 *  reports all of them; a layer the workload does not exercise reads 0. */
const std::vector<Metric> &perLayerMetrics();

/** Set a per-layer metric declared in perLayerMetrics(). */
void setLayer(Outcome &o, const std::string &name, double value);

/** `processStart` is taken first thing in main(); set-up time runs from
 *  there to the first timed operation. */
Outcome runSweep(const RunArgs &a, Clock::time_point processStart);

/** The serve stream, traced, for its per-layer metrics (trace,
 *  analysis, serve, loadgen) inside another workload's traced run. */
void tracedServeLayers(const RunArgs &a, Outcome &o);

/** Write the golden digests of the serve stream's warm specs. */
void writeServeGolden(const RunArgs &a);

Outcome runFheOps(const RunArgs &a, Clock::time_point processStart);

} // namespace ufcbench

#endif // UFCBENCH_WORKLOADS_H
