/**
 * @file
 * Tests for the parallel experiment runner: bit-exact determinism of a
 * parallel sweep versus the serial path, RunOptions plumbing, and the
 * structured JSON/CSV export.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "metrics/metrics.h"
#include "runner/report.h"
#include "runner/sweeps.h"
#include "same_simulation.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using runner::ExperimentRunner;
using runner::Job;
using runner::ResultSet;
using runner::RunnerConfig;
using sim::RunOptions;
using sim::RunResult;
using testutil::sameSimulation;

/** A mixed sweep: 4 workloads across all 4 accelerator models (scheme
 *  constraints permitting) — the shape the determinism guarantee must
 *  hold for. */
std::vector<Job>
mixedJobs()
{
    const auto cp = ckks::CkksParams::c2();
    const auto tp = tfhe::TfheParams::t2();

    const auto helr =
        std::make_shared<trace::Trace>(workloads::helr(cp, 2));
    const auto boot =
        std::make_shared<trace::Trace>(workloads::ckksBootstrapping(cp));
    const auto pbs =
        std::make_shared<trace::Trace>(workloads::pbsThroughput(tp, 256));
    const auto knn = std::make_shared<trace::Trace>(
        workloads::hybridKnn(cp, tp, 1024, 64, 4));

    const auto ufcm = std::make_shared<sim::UfcModel>();
    const auto sharp = std::make_shared<sim::SharpModel>();
    const auto strix = std::make_shared<sim::StrixModel>();
    const auto composed = std::make_shared<sim::ComposedModel>();

    std::vector<Job> jobs;
    auto add = [&](const std::string &label,
                   std::shared_ptr<const sim::AcceleratorModel> model,
                   std::shared_ptr<const trace::Trace> tr) {
        jobs.push_back(Job{label, std::move(model), std::move(tr),
                           RunOptions{}, ""});
    };
    add("helr/UFC", ufcm, helr);
    add("helr/SHARP", sharp, helr);
    add("helr/SHARP+Strix", composed, helr);
    add("boot/UFC", ufcm, boot);
    add("boot/SHARP", sharp, boot);
    add("boot/SHARP+Strix", composed, boot);
    add("pbs/UFC", ufcm, pbs);
    add("pbs/Strix", strix, pbs);
    add("pbs/SHARP+Strix", composed, pbs);
    add("knn/UFC", ufcm, knn);
    add("knn/SHARP+Strix", composed, knn);
    return jobs;
}

TEST(Runner, ParallelSweepMatchesSerialBitExactly)
{
    const auto jobs = mixedJobs();

    RunnerConfig serialCfg;
    serialCfg.threads = 1;
    const auto serial = ExperimentRunner(serialCfg).run(jobs);

    RunnerConfig parCfg;
    parCfg.threads = 4;
    const auto parallel = ExperimentRunner(parCfg).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(sameSimulation(serial[i], parallel[i])) << i;

    // And a second parallel run reproduces the first.
    const auto again = ExperimentRunner(parCfg).run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(sameSimulation(parallel[i], again[i])) << i;
}

TEST(Runner, ResultsComeBackInJobOrderWithLabels)
{
    const auto jobs = mixedJobs();
    RunnerConfig cfg;
    cfg.threads = 4;
    const auto results = ExperimentRunner(cfg).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].label, jobs[i].label);
        EXPECT_EQ(results[i].machine, jobs[i].model->name());
        EXPECT_EQ(results[i].workload, jobs[i].trace->name);
        EXPECT_GE(results[i].hostSeconds, 0.0);
        EXPECT_GT(results[i].seconds, 0.0);
    }

    const ResultSet set(results);
    EXPECT_EQ(set.size(), jobs.size());
    EXPECT_TRUE(set.contains("boot/SHARP"));
    EXPECT_FALSE(set.contains("boot/Strix"));
    EXPECT_EQ(set.at("pbs/Strix").machine, "Strix");
}

TEST(Runner, EffectiveThreadsClampsToJobCount)
{
    RunnerConfig cfg;
    cfg.threads = 64;
    const ExperimentRunner exec(cfg);
    EXPECT_EQ(exec.effectiveThreads(3), 3);
    EXPECT_EQ(exec.effectiveThreads(1000), 64);
    cfg.threads = 0; // auto: at least one
    EXPECT_GE(ExperimentRunner(cfg).effectiveThreads(1000), 1);
}

TEST(Runner, RunOptionsPrefetchWindowChangesSchedule)
{
    const auto cp = ckks::CkksParams::c2();
    const auto tr = workloads::ckksBootstrapping(cp);
    const sim::UfcModel model;

    const auto def = model.run(tr);
    RunOptions tight;
    tight.prefetchWindow = 1;
    const auto narrow = model.run(tr, tight);

    // A 1-deep memory window serializes fetch behind compute more often,
    // so the run can only get slower — and on this memory-heavy workload
    // it measurably does.
    EXPECT_GT(narrow.stats.totalCycles, def.stats.totalCycles);
    // The work performed is identical either way.
    EXPECT_EQ(narrow.stats.instCount, def.stats.instCount);
    EXPECT_EQ(narrow.stats.hbmBytes, def.stats.hbmBytes);
}

TEST(Runner, RunOptionsLabelIsPropagatedAndCompactOmitsCounters)
{
    const auto tp = tfhe::TfheParams::t1();
    const auto tr = workloads::pbsThroughput(tp, 16);
    const sim::UfcModel model;

    RunOptions opts;
    opts.label = "my-run";
    const auto full = model.run(tr, opts);
    EXPECT_EQ(full.label, "my-run");
    EXPECT_NE(full.toJson().find("\"stats\""), std::string::npos);
    EXPECT_NE(full.toJson().find("\"utilization\""), std::string::npos);

    // Compact results omit the raw-counter block from both formats.
    RunResult compact = full;
    compact.verbosity = sim::StatsVerbosity::Compact;
    EXPECT_EQ(compact.toJson().find("\"stats\""), std::string::npos);
}

TEST(RunnerReport, CsvRowsMatchHeaderArity)
{
    const auto tp = tfhe::TfheParams::t1();
    const auto tr = workloads::pbsThroughput(tp, 16);
    const sim::UfcModel model;
    const auto full = model.run(tr);
    RunResult compact = full;
    compact.verbosity = sim::StatsVerbosity::Compact;

    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    const auto header = sim::RunResult::csvHeader();
    EXPECT_EQ(commas(full.toCsvRow()), commas(header));
    EXPECT_EQ(commas(compact.toCsvRow()), commas(header));
}

TEST(RunnerReport, SimulatedDigestCoversEveryFieldButHostSeconds)
{
    RunResult r = sim::UfcModel().run(
        workloads::pbsThroughput(tfhe::TfheParams::t1(), 16));
    const u64 digest = r.simulatedDigest();
    r.hostSeconds += 1.0;
    EXPECT_EQ(r.simulatedDigest(), digest);

    // One changed bit in any other field changes the digest.
    std::vector<double *> reals = {
        &r.seconds, &r.energyJ, &r.powerW, &r.areaMm2, &r.energyStaticJ,
        &r.energyHbmJ, &r.stats.totalCycles, &r.stats.hbmBytes,
        &r.stats.hbmBusyCycles, &r.stats.spadHitBytes,
        &r.stats.stalls.hbmBound, &r.stats.stalls.dependency,
        &r.stats.stalls.pipelineFill, &r.stats.stalls.spadSpillCycles,
        &r.stats.stalls.spadWritebackBytes};
    std::vector<u64 *> counts = {&r.stats.instCount,
                                 &r.stats.stalls.spadEvictions};
    for (double &v : r.stats.busyCycles)
        reals.push_back(&v);
    for (sim::OpStats &o : r.stats.opStats) {
        reals.insert(reals.end(), {&o.cycles, &o.computeCycles,
                                   &o.stallCycles, &o.fillCycles,
                                   &o.hbmBytes});
        counts.push_back(&o.count);
    }
    for (std::size_t i = 0; i < reals.size(); ++i) {
        const double saved = *reals[i];
        *reals[i] = std::nextafter(saved, saved + 1.0);
        EXPECT_NE(r.simulatedDigest(), digest) << "real #" << i;
        *reals[i] = saved;
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
        ++*counts[i];
        EXPECT_NE(r.simulatedDigest(), digest) << "count #" << i;
        --*counts[i];
    }
    for (std::string *s : {&r.label, &r.machine, &r.workload}) {
        s->push_back('x');
        EXPECT_NE(r.simulatedDigest(), digest) << *s;
        s->pop_back();
    }
    r.verbosity = sim::StatsVerbosity::Compact;
    EXPECT_NE(r.simulatedDigest(), digest);
}

TEST(RunnerReport, JsonReportCarriesSchemaAndAllRuns)
{
    const auto tp = tfhe::TfheParams::t1();
    const auto pbs =
        std::make_shared<trace::Trace>(workloads::pbsThroughput(tp, 16));
    const auto ufcm = std::make_shared<sim::UfcModel>();
    const auto strix = std::make_shared<sim::StrixModel>();

    std::vector<Job> jobs;
    jobs.push_back(Job{"r/UFC", ufcm, pbs, RunOptions{}, ""});
    jobs.push_back(Job{"r/Strix", strix, pbs, RunOptions{}, ""});
    const auto results = ExperimentRunner().run(jobs);

    std::ostringstream json;
    runner::ReportMeta meta;
    meta.threads = 2;
    runner::writeJsonReport(results, json, meta);
    const auto doc = json.str();
    EXPECT_NE(doc.find("\"schema\":\"ufc.report/v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"schema\":\"ufc.runresult/v2\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"run_count\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"label\":\"r/UFC\""), std::string::npos);
    EXPECT_NE(doc.find("\"label\":\"r/Strix\""), std::string::npos);

    std::ostringstream csv;
    runner::writeCsvReport(results, csv);
    const std::string csvDoc = csv.str();
    EXPECT_EQ(std::count(csvDoc.begin(), csvDoc.end(), '\n'), 3);
    // header + 2 rows
}

TEST(RunnerReport, RoundTripPrecisionSurvivesJson)
{
    // %.17g must reproduce doubles exactly; spot-check through a parse.
    const auto tp = tfhe::TfheParams::t1();
    const auto tr = workloads::pbsThroughput(tp, 16);
    const auto r = sim::UfcModel().run(tr);
    const auto doc = r.toJson();
    const auto key = doc.find("\"seconds\":");
    ASSERT_NE(key, std::string::npos);
    const double parsed =
        std::strtod(doc.c_str() + key + 10, nullptr);
    EXPECT_EQ(parsed, r.seconds);
}

TEST(RunnerSweeps, PaperSweepsCoverAllFiguresWithUniqueLabels)
{
    const auto sweeps = runner::paperSweeps();
    ASSERT_EQ(sweeps.size(), 5u);
    EXPECT_EQ(sweeps[0].name, "fig10a");
    EXPECT_EQ(sweeps[4].name, "fig14");

    const auto jobs = runner::allJobs(sweeps);
    std::vector<std::string> labels;
    for (const auto &job : jobs) {
        ASSERT_NE(job.model, nullptr) << job.label;
        ASSERT_NE(job.trace, nullptr) << job.label;
        labels.push_back(job.label);
    }
    std::sort(labels.begin(), labels.end());
    EXPECT_TRUE(std::adjacent_find(labels.begin(), labels.end()) ==
                labels.end())
        << "duplicate job labels in the paper sweep";

    // Figure 13: 3 network counts x 3 scratchpads x 4 CKKS workloads.
    EXPECT_EQ(sweeps[3].jobs.size(), 36u);
    // Figure 14: 4 lane counts x 3 scratchpads x 4 CKKS workloads.
    EXPECT_EQ(sweeps[4].jobs.size(), 48u);
}

TEST(RunnerSweeps, SharedLoweringsMatchPrivateCompilesBitExactly)
{
    // The paper sweep lowers each (trace, lowering key) pair once: the
    // fig13/fig14 DSE points and the Table II machines share lowerings
    // and bind their own costs.  Every shared-lowering result must equal
    // a private compile() of the same job, bit for bit.
    const auto jobs = runner::allJobs(runner::paperSweeps());
    std::set<std::pair<std::string, u64>> keys;
    for (const Job &job : jobs)
        keys.insert({job.model->loweringKey(),
                     trace::contentHash(*job.trace)});
    EXPECT_EQ(keys.size(), 52u) << "paper sweep lowering keys changed";

    const bool metricsWere = metrics::enabled();
    metrics::setEnabled(true);
    const metrics::Counter &lowerings =
        metrics::counter("ufc_compiler_lowerings_total");
    const u64 before = lowerings.value();
    RunnerConfig cfg;
    cfg.threads = 2;
    const auto batch = ExperimentRunner(cfg).runAll(jobs);
    const u64 performed = lowerings.value() - before;
    metrics::setEnabled(metricsWere);
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(performed, keys.size());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job &job = jobs[i];
        RunOptions opts = job.options;
        opts.label = job.label;
        const RunResult priv =
            job.model->execute(job.model->compile(*job.trace), opts);
        EXPECT_TRUE(sameSimulation(batch.results[i], priv)) << job.label;
    }
}

} // namespace
} // namespace ufc
