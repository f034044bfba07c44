/**
 * @file
 * Host-speed gauge.  On a shared host the speed of a vCPU drifts by
 * tens of percent over minutes (neighbours' load, turbo), far longer
 * than one run, so a plain median moves with the host.  Every timed
 * sample is therefore bracketed by probes of a fixed kernel that lives
 * here, outside libufc, on the same CPU(s), and reported scaled to
 * the reference speed at which the probe takes kGaugeRefMs.  A change
 * to the program moves the sample and not the probe, so it shows in
 * full; a slow spell of the host moves both and cancels.
 */

#ifndef UFCBENCH_HOST_SPEED_H
#define UFCBENCH_HOST_SPEED_H

#include <sched.h>

#include <vector>

namespace ufcbench {

/**
 * Pins the calling thread to the (k mod n)-th of the n CPUs it may run
 * on, restoring the previous mask on destruction.  Single-threaded
 * measurements rotate k per repetition, so a run samples every vCPU.
 */
class CpuPin
{
  public:
    explicit CpuPin(unsigned k);
    ~CpuPin();
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t prev_;
    bool pinned_ = false;
};

/// Probe time, in ms, that defines the reference speed.  It is the
/// probe's time on an idle 4-vCPU Xeon VM; only its constancy matters.
constexpr double kGaugeRefMs = 13.0;

/** One probe on the calling thread: a dependent chain of 128-bit
 *  modular multiplications, latency-bound and memory-free.  ms. */
double gaugeMs();

/** One probe on every CPU the caller may run on, all at once, each
 *  thread pinned to its CPU; the harmonic mean of their times, in ms.
 *  The reference for work spread over the whole machine. */
double gaugeMsAllCpus();

/** Factor from the host speed around a sample to the reference speed,
 *  given the probes before and after it.  The faster probe is taken:
 *  a probe that a stall hit says nothing about the sample beside it. */
double speedFactor(double gaugeBeforeMs, double gaugeAfterMs);

/** Samples of one timed metric: as measured, and at reference speed. */
struct Timings
{
    std::vector<double> rawMs;
    std::vector<double> scaledMs;

    void
    add(double ms, double factor)
    {
        rawMs.push_back(ms);
        scaledMs.push_back(ms * factor);
    }
};

} // namespace ufcbench

#endif // UFCBENCH_HOST_SPEED_H
