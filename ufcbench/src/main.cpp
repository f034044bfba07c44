/**
 * @file
 * ufcbench: one workload of the UFC benchmark per process.
 *
 *   ufcbench --workload sweep|fhe_ops --seed N --seconds S
 *            --trace 0|1 [--setup-only] [--write-golden]
 *            [--golden-dir DIR] [--work-dir DIR]
 *
 * Prints a host/build fingerprint line, then one JSON result line
 * (see report.h).  run.py builds this binary, repeats the set-up, and
 * turns the result into the benchmark's final line.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "common/error.h"
#include "fingerprint.h"
#include "workloads.h"

namespace ufcbench {

const std::vector<Metric> &
perLayerMetrics()
{
    static const std::vector<Metric> kMetrics = {
        {"workloads.gen_ms", 0, "ms"},
        {"compiler.compile_ms", 0, "ms"},
        {"compiler.compile_ms.dse", 0, "ms"},
        {"compiler.calls", 0, "count"},
        {"compiler.records", 0, "count"},
        {"sim.execute_ms", 0, "ms"},
        {"sim.execute_ms.tfhe", 0, "ms"},
        {"sim.insts", 0, "count"},
        {"sim.ns_per_inst", 0, "ns"},
        {"runner.self_ms", 0, "ms"},
        {"runner.report_ms", 0, "ms"},
        {"runner.program_cache.hits", 0, "count"},
        {"runner.program_cache.misses", 0, "count"},
        {"runner.parallel_speedup", 0, "x"},
        {"pool.busy_frac", 0, "fraction"},
        {"pool.tasks", 0, "count"},
        {"trace.parse_ms", 0, "ms"},
        {"trace.parse_mb_per_s", 0, "MB/s"},
        {"analysis.lint_ms", 0, "ms"},
        {"serve.queue_ms.p50", 0, "ms"},
        {"serve.queue_ms.p99", 0, "ms"},
        {"serve.service_ms.p50", 0, "ms"},
        {"serve.service_ms.p99", 0, "ms"},
        {"serve.submit_rtt_ms.p50", 0, "ms"},
        {"serve.program_cache.hit_ratio", 0, "fraction"},
        {"serve.phase_cache.hit_ratio", 0, "fraction"},
        {"serve.rejected", 0, "count"},
        {"math.ntt_fwd_us", 0, "us"},
        {"math.ntt_inv_us", 0, "us"},
        {"math.rns_roundtrip_us", 0, "us"},
        {"ckks.mult_relin_ms", 0, "ms"},
        {"ckks.rescale_ms", 0, "ms"},
        {"ckks.rotate_ms", 0, "ms"},
        {"tfhe.external_product_us", 0, "us"},
        {"loadgen.late_ms.p99", 0, "ms"},
        {"tracing.overhead_frac", 0, "fraction"},
    };
    return kMetrics;
}

void
setLayer(Outcome &o, const std::string &name, double value)
{
    for (Metric &m : o.metrics) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    throw std::logic_error("undeclared per-layer metric " + name);
}

} // namespace ufcbench

namespace {

using namespace ufcbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ufcbench: %s\nusage: ufcbench --workload "
                 "sweep|fhe_ops --seed N --seconds S "
                 "--trace 0|1 [--setup-only] [--write-golden] "
                 "[--golden-dir DIR] [--work-dir DIR]\n",
                 why);
    std::exit(2);
}

RunArgs
parseArgs(int argc, char **argv)
{
    RunArgs a;
    a.goldenDir = "ufcbench/golden";
    a.workDir = ".bench_build";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                a.workload = value();
            else if (arg == "--seed")
                a.seed = std::stoull(value());
            else if (arg == "--seconds")
                a.seconds = std::stod(value());
            else if (arg == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (arg == "--setup-only")
                a.setupOnly = true;
            else if (arg == "--write-golden")
                a.writeGolden = true;
            else if (arg == "--golden-dir")
                a.goldenDir = value();
            else if (arg == "--work-dir")
                a.workDir = value();
            else
                usage(("unknown argument " + arg).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (a.seconds <= 0.0 || a.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    return a;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point processStart = Clock::now();
    const RunArgs a = parseArgs(argc, argv);
    const std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr, "ufcbench: refusing to run a %s\n",
                     refusal.c_str());
        return 3;
    }
    std::cout << "{\"fingerprint\": " << fingerprintJson() << "}"
              << std::endl;

    Outcome o;
    try {
        if (a.workload == "sweep")
            o = runSweep(a, processStart);
        else if (a.workload == "fhe_ops")
            o = runFheOps(a, processStart);
        else
            usage(("unknown workload '" + a.workload + "'").c_str());
    } catch (const ufc::Error &e) {
        std::fprintf(stderr, "ufcbench: error: %s: %s\n", e.kind().c_str(),
                     e.what());
        return 1;
    }
    if (!a.trace && !a.setupOnly && !a.writeGolden)
        o.add("peak_rss_mb", peakRssMb(), "MB");
    for (const std::string &f : o.failures)
        std::fprintf(stderr, "ufcbench: failed: %s\n", f.c_str());
    for (const auto &[code, n] : o.refusals)
        std::fprintf(stderr, "ufcbench: refused %s: %llu\n", code.c_str(),
                     n);
    writeOutcome(std::cout, o);
    return 0;
}
