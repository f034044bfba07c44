/**
 * @file
 * Workload `sweep`: the 130 jobs of runner::paperSweeps() through
 * ExperimentRunner::runAll, one pass on 1 thread and two on nproc
 * threads, then the NN-T4 job (tfheNn at T4 on UfcModel) alone through
 * compile+execute.  The job list is fixed; the seed is not used.
 *
 * Untraced metrics: primary_ms = serial pass, secondary_ms = parallel
 * pass, tertiary_ms = NN-T4 (medians over the rounds of the run, each
 * sample scaled to reference host speed).
 * The traced run wraps every model in a TimedModel and turns the
 * metrics registry on.
 */

#include <map>
#include <memory>
#include <sstream>

#include "metrics/metrics.h"
#include "runner/report.h"
#include "runner/sweeps.h"
#include "stats.h"
#include "timed_model.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace ufcbench {

namespace {

using ufc::runner::BatchResult;
using ufc::runner::ExperimentRunner;
using ufc::runner::Job;
using ufc::runner::RunnerConfig;

const char *const kNnLabel = "nn_t4/T4/NN/UFC";
/// NN-T4 jobs per round: one varies by a third run to run on a shared
/// host, so the round takes several for a steadier median.
constexpr int kNnPerRound = 3;
/// Parallel passes per round: a pass is short and waits for its slowest
/// job, so the round takes two for a steadier median.
constexpr int kParallelPerRound = 2;
/// RunnerConfig::threads value for one worker per hardware thread.
constexpr int kNproc = 0;

ExperimentRunner
makeRunner(int threads)
{
    RunnerConfig cfg;
    cfg.threads = threads;
    return ExperimentRunner(cfg);
}

/** Check every job of a pass against the golden digests (and, when
 *  given, against the serial pass's digests); one operation per job. */
std::vector<std::uint64_t>
checkPass(const BatchResult &b, const std::vector<Job> &jobs,
          const Golden &golden, const std::vector<std::uint64_t> *serial,
          const char *pass, Outcome &o)
{
    std::vector<std::uint64_t> digests(jobs.size(), 0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string &label = jobs[i].label;
        if (!b.outcomes[i].ok()) {
            o.check(false, std::string(pass) + " " + label + ": " +
                               b.outcomes[i].message);
            continue;
        }
        digests[i] = resultDigest(b.results[i]);
        const auto g = golden.find(label);
        bool ok = g != golden.end() && g->second == digests[i];
        std::string why = "golden digest mismatch";
        if (ok && serial != nullptr && (*serial)[i] != digests[i]) {
            ok = false;
            why = "parallel result differs from serial";
        }
        o.check(ok, std::string(pass) + " " + label + ": " + why);
    }
    return digests;
}

ufc::u64
counterValue(const char *name)
{
    return ufc::metrics::counter(name).value();
}

/** The traced run: per-layer numbers of the sweep's layers. */
void
tracedSweep(const RunArgs &a, std::vector<Job> jobs, const Golden &golden,
            double genMs, Outcome &o)
{
    const ExperimentRunner serial = makeRunner(1);
    const ExperimentRunner parallel = makeRunner(kNproc);

    const std::vector<Job> plainJobs = jobs;
    // One wrapper per distinct model; its group is the sweep that owns
    // the model (every paper sweep builds its own model instances).
    std::map<const ufc::sim::AcceleratorModel *,
             std::shared_ptr<const TimedModel>>
        wrappers;
    std::map<const TimedModel *, std::string> group;
    for (Job &j : jobs) {
        auto &w = wrappers[j.model.get()];
        if (!w)
            w = std::make_shared<const TimedModel>(j.model);
        group[w.get()] = j.label.substr(0, j.label.find('/'));
        j.model = w;
    }
    const auto totals = [&](const std::string &only) {
        LayerTotals sum;
        for (const auto &[inner, w] : wrappers)
            if (only.empty() || group[w.get()] == only ||
                (only == "dse" && (group[w.get()] == "fig13" ||
                                   group[w.get()] == "fig14")))
                sum += w->totals();
        return sum;
    };

    std::vector<double> untracedMs, serialMs, parallelMs, compileMs, dseMs,
        execMs, tfheMs, selfMs, reportMs, nsPerInst, busyFrac;
    LayerTotals perPass;
    ufc::u64 hits = 0, misses = 0, tasks = 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.seconds));
    do {
        // Each round starts with an untraced serial pass of the bare
        // models: the tracing-overhead reference.
        auto t = Clock::now();
        checkPass(serial.runAll(plainJobs), plainJobs, golden, nullptr,
                  "serial", o);
        untracedMs.push_back(msSince(t));

        ufc::metrics::setEnabled(true);
        const LayerTotals all0 = totals(""), dse0 = totals("dse"),
                          tfhe0 = totals("fig10b");
        const ufc::u64 h0 = counterValue("ufc_program_cache_hits_total");
        const ufc::u64 m0 = counterValue("ufc_program_cache_misses_total");
        t = Clock::now();
        const BatchResult b = serial.runAll(jobs);
        const double passMs = msSince(t);
        const LayerTotals all = totals("") - all0;
        serialMs.push_back(passMs);
        compileMs.push_back(all.compileNs / 1e6);
        dseMs.push_back((totals("dse") - dse0).compileNs / 1e6);
        execMs.push_back(all.executeNs / 1e6);
        tfheMs.push_back((totals("fig10b") - tfhe0).executeNs / 1e6);
        selfMs.push_back(passMs - (all.compileNs + all.executeNs) / 1e6);
        nsPerInst.push_back(static_cast<double>(all.executeNs) /
                            static_cast<double>(all.insts));
        perPass = all;
        hits = counterValue("ufc_program_cache_hits_total") - h0;
        misses = counterValue("ufc_program_cache_misses_total") - m0;
        const auto serialDigests =
            checkPass(b, jobs, golden, nullptr, "serial", o);

        t = Clock::now();
        std::ostringstream sink;
        ufc::runner::writeJsonReport(b, sink);
        reportMs.push_back(msSince(t));

        const ufc::u64 task0 = counterValue("ufc_pool_tasks_total");
        const ufc::u64 busy0 = counterValue("ufc_pool_task_busy_ns_total");
        t = Clock::now();
        const BatchResult p = parallel.runAll(jobs);
        const double parMs = msSince(t);
        parallelMs.push_back(parMs);
        tasks = counterValue("ufc_pool_tasks_total") - task0;
        busyFrac.push_back(
            (counterValue("ufc_pool_task_busy_ns_total") - busy0) / 1e6 /
            (parMs * parallel.effectiveThreads(jobs.size())));
        ufc::metrics::setEnabled(false);
        checkPass(p, jobs, golden, &serialDigests, "parallel", o);
    } while (Clock::now() < deadline);

    setLayer(o, "workloads.gen_ms", genMs);
    setLayer(o, "compiler.compile_ms", median(compileMs));
    setLayer(o, "compiler.compile_ms.dse", median(dseMs));
    setLayer(o, "compiler.calls", static_cast<double>(perPass.compileCalls));
    setLayer(o, "compiler.records", static_cast<double>(perPass.records));
    setLayer(o, "sim.execute_ms", median(execMs));
    setLayer(o, "sim.execute_ms.tfhe", median(tfheMs));
    setLayer(o, "sim.insts", static_cast<double>(perPass.insts));
    setLayer(o, "sim.ns_per_inst", median(nsPerInst));
    setLayer(o, "runner.self_ms", median(selfMs));
    setLayer(o, "runner.report_ms", median(reportMs));
    setLayer(o, "runner.program_cache.hits", static_cast<double>(hits));
    setLayer(o, "runner.program_cache.misses", static_cast<double>(misses));
    setLayer(o, "runner.parallel_speedup",
             median(serialMs) / median(parallelMs));
    setLayer(o, "pool.busy_frac", median(busyFrac));
    setLayer(o, "pool.tasks", static_cast<double>(tasks));
    setLayer(o, "tracing.overhead_frac",
             median(serialMs) / median(untracedMs) - 1);
}

} // namespace

Outcome
runSweep(const RunArgs &a, Clock::time_point processStart)
{
    Outcome o;
    if (a.trace)
        o.metrics = perLayerMetrics();

    const auto tGen = Clock::now();
    const std::vector<Job> jobs =
        ufc::runner::allJobs(ufc::runner::paperSweeps());
    const ufc::trace::Trace nnTrace =
        ufc::workloads::tfheNn(ufc::tfhe::TfheParams::t4());
    const double genMs = msSince(tGen);
    const auto nnModel = std::make_shared<const ufc::sim::UfcModel>();
    const std::string goldenPath = a.goldenDir + "/sweep.txt";
    const Golden golden = a.writeGolden ? Golden{} : loadGolden(goldenPath);

    if (a.writeGolden) {
        Golden g;
        const BatchResult b = makeRunner(1).runAll(jobs);
        b.throwFirstFailure();
        for (std::size_t i = 0; i < jobs.size(); ++i)
            g[jobs[i].label] = resultDigest(b.results[i]);
        g[kNnLabel] = resultDigest(nnModel->execute(nnModel->compile(nnTrace)));
        saveGolden(g, goldenPath);
        writeServeGolden(a);
        return o;
    }
    o.endSetup(processStart);
    if (a.setupOnly)
        return o;
    if (a.trace) {
        // Half the run traces the sweep's layers, half the serve
        // stream's (wl_serve.cpp).
        RunArgs half = a;
        half.seconds = a.seconds / 2;
        tracedSweep(half, jobs, golden, genMs, o);
        tracedServeLayers(half, o);
        return o;
    }

    const ExperimentRunner serial = makeRunner(1);
    const ExperimentRunner parallel = makeRunner(kNproc);
    Timings serialMs, parallelMs, nnMs;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.seconds));
    unsigned round = 0;
    do {
        // Every sample is bracketed by host-speed probes on the CPUs it
        // ran on (host_speed.h).
        const BatchResult b = [&] {
            const CpuPin pin(round);
            const double g0 = gaugeMs();
            const auto t = Clock::now();
            BatchResult r = serial.runAll(jobs);
            const double ms = msSince(t);
            serialMs.add(ms, speedFactor(g0, gaugeMs()));
            return r;
        }();
        const auto serialDigests =
            checkPass(b, jobs, golden, nullptr, "serial", o);

        for (int k = 0; k < kParallelPerRound; ++k) {
            const double g0 = gaugeMsAllCpus();
            const auto t = Clock::now();
            const BatchResult p = parallel.runAll(jobs);
            const double ms = msSince(t);
            parallelMs.add(ms, speedFactor(g0, gaugeMsAllCpus()));
            checkPass(p, jobs, golden, &serialDigests, "parallel", o);
        }

        for (int k = 0; k < kNnPerRound; ++k) {
            const CpuPin pin(round * kNnPerRound + k);
            const double n0 = gaugeMs();
            const auto tn = Clock::now();
            const ufc::sim::RunResult r =
                nnModel->execute(nnModel->compile(nnTrace));
            const double nms = msSince(tn);
            nnMs.add(nms, speedFactor(n0, gaugeMs()));
            const auto g = golden.find(kNnLabel);
            o.check(g != golden.end() && g->second == resultDigest(r),
                    std::string(kNnLabel) + ": golden digest mismatch");
        }
        ++round;
    } while (Clock::now() < deadline);

    o.addTimed("primary_ms", serialMs);
    o.addTimed("secondary_ms", parallelMs);
    o.addTimed("tertiary_ms", nnMs);
    return o;
}

} // namespace ufcbench
