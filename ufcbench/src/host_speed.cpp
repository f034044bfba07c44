#include "host_speed.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace ufcbench {

namespace {

/// Chain length of one probe: ~13 ms on the reference host.
constexpr int kGaugeSteps = 2'000'000;
/// The modulus is read through a volatile so the division stays a real
/// 128-by-64-bit one whatever the optimizer knows.
volatile std::uint64_t gaugeModulus = (1ULL << 58) - 27;
std::atomic<std::uint64_t> gaugeSink{0};

} // namespace

CpuPin::CpuPin(unsigned k)
{
    if (sched_getaffinity(0, sizeof(prev_), &prev_) != 0)
        return;
    const int n = CPU_COUNT(&prev_);
    int want = static_cast<int>(k % static_cast<unsigned>(n));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &prev_) || want-- > 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
        return;
    }
}

CpuPin::~CpuPin()
{
    if (pinned_)
        sched_setaffinity(0, sizeof(prev_), &prev_);
}

double
gaugeMs()
{
    const std::uint64_t q = gaugeModulus;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 1;
    for (int i = 0; i < kGaugeSteps; ++i)
        x = static_cast<std::uint64_t>(static_cast<unsigned __int128>(x) *
                                       0x9E3779B97F4A7C15ULL % q);
    const auto t1 = std::chrono::steady_clock::now();
    gaugeSink.store(x, std::memory_order_relaxed);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
gaugeMsAllCpus()
{
    cpu_set_t mask;
    unsigned n = 1;
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
        n = static_cast<unsigned>(CPU_COUNT(&mask));
    std::vector<double> ms(n, 0.0);
    std::vector<std::thread> threads;
    for (unsigned k = 0; k < n; ++k)
        threads.emplace_back([k, &ms] {
            const CpuPin pin(k);
            ms[k] = gaugeMs();
        });
    for (std::thread &t : threads)
        t.join();
    // Harmonic mean: the machine's throughput is the sum of the CPUs'
    // speeds, and a probe's time is inverse to its CPU's speed.
    double rate = 0.0;
    for (const double m : ms)
        rate += 1.0 / m;
    return n / rate;
}

double
speedFactor(double gaugeBeforeMs, double gaugeAfterMs)
{
    return kGaugeRefMs / std::min(gaugeBeforeMs, gaugeAfterMs);
}

} // namespace ufcbench
