/**
 * @file
 * Tests of the benchmark's own code: the forwarding TimedModel must not
 * change a single simulated number, and the statistics and the scaling
 * to reference host speed must follow the rules the benchmark
 * documents.
 *
 *   cmake --build .bench_build/ufcbench --target ufcbench_tests
 *   .bench_build/ufcbench/ufcbench_tests
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "host_speed.h"
#include "report.h"
#include "runner/runner.h"
#include "runner/sweeps.h"
#include "stats.h"
#include "timed_model.h"
#include "workloads/workloads.h"

using namespace ufcbench;

namespace {

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(TimedModel, CompileExecuteBitIdenticalAndCounted)
{
    const auto inner = std::make_shared<const ufc::sim::UfcModel>();
    const TimedModel timed(inner);
    const auto tr = ufc::workloads::pbsThroughput(
        ufc::tfhe::TfheParams::t1(), 16);

    const auto plain = inner->execute(inner->compile(tr));
    const auto program = timed.compile(tr);
    const auto wrapped = timed.execute(program);
    EXPECT_EQ(plain.toJson(), wrapped.toJson());
    EXPECT_EQ(resultDigest(plain), resultDigest(wrapped));

    const LayerTotals t = timed.totals();
    EXPECT_EQ(t.compileCalls, 1u);
    EXPECT_EQ(t.executeCalls, 1u);
    EXPECT_EQ(t.records, program.code.size());
    EXPECT_EQ(t.insts, wrapped.stats.instCount);
    EXPECT_EQ(timed.name(), inner->name());
    EXPECT_EQ(timed.areaMm2(), inner->areaMm2());
}

TEST(TimedModel, RunnerBatchBitIdenticalThroughWrapper)
{
    // Two paper sweeps through the runner: one with the models as built,
    // one with each model wrapped -- every result must digest the same,
    // serially and on a pool.
    std::vector<ufc::runner::Job> jobs =
        ufc::runner::fig12Sweep().jobs;
    std::vector<ufc::runner::Job> wrapped = jobs;
    std::map<const ufc::sim::AcceleratorModel *,
             std::shared_ptr<const TimedModel>>
        wrappers;
    for (auto &j : wrapped) {
        auto &w = wrappers[j.model.get()];
        if (!w)
            w = std::make_shared<const TimedModel>(j.model);
        j.model = w;
    }
    for (const int threads : {1, 3}) {
        ufc::runner::RunnerConfig cfg;
        cfg.threads = threads;
        const ufc::runner::ExperimentRunner runner(cfg);
        const auto a = runner.runAll(jobs);
        const auto b = runner.runAll(wrapped);
        ASSERT_TRUE(a.allOk());
        ASSERT_TRUE(b.allOk());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(resultDigest(a.results[i]),
                      resultDigest(b.results[i]))
                << jobs[i].label;
    }
    LayerTotals sum;
    for (const auto &[inner, w] : wrappers)
        sum += w->totals();
    EXPECT_EQ(sum.executeCalls, 2 * jobs.size());
}

TEST(ResultDigest, IgnoresHostTimeOnly)
{
    ufc::sim::RunResult r;
    r.label = "x";
    r.seconds = 1.5;
    ufc::sim::RunResult s = r;
    s.hostSeconds = 42.0;
    EXPECT_EQ(resultDigest(r), resultDigest(s));
    s.seconds = 1.25;
    EXPECT_NE(resultDigest(r), resultDigest(s));
}

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_TRUE(std::isnan(median({})));
}

TEST(Stats, QuartilesMatchPythonExclusive)
{
    // Values from Python: statistics.quantiles(range(1, n+1), n=4).
    Quartiles q = quartiles(iota(10));
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    q = quartiles(iota(4));
    EXPECT_DOUBLE_EQ(q.q1, 1.25);
    EXPECT_DOUBLE_EQ(q.q3, 3.75);
    // Tiny samples extrapolate as CPython does: quantiles([1, 2]).
    q = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);
    EXPECT_TRUE(std::isnan(quartiles({1}).q1));
}

TEST(Stats, NearestRankPercentile)
{
    const auto v = iota(100);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
    EXPECT_DOUBLE_EQ(percentile(v, 99), 99);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
    EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
}

TEST(Stats, TailPercentileLeavesTenSamplesBeyond)
{
    // Too few samples for even the median to have 10 beyond it.
    EXPECT_EQ(tailPercentile(iota(19)).pct, 0.0);
    EXPECT_TRUE(std::isnan(tailPercentile(iota(19)).value));
    // 20 samples: p50 (rank 10) leaves exactly 10 beyond.
    EXPECT_EQ(tailPercentile(iota(20)).pct, 50.0);
    // 100 samples: p90 (rank 90) leaves 10; p95 would leave 5.
    Tail t = tailPercentile(iota(100));
    EXPECT_EQ(t.pct, 90.0);
    EXPECT_DOUBLE_EQ(t.value, 90.0);
    EXPECT_EQ(tailPercentile(iota(199)).pct, 90.0);
    EXPECT_EQ(tailPercentile(iota(200)).pct, 95.0);
    EXPECT_EQ(tailPercentile(iota(1000)).pct, 99.0);
    EXPECT_EQ(tailPercentile(iota(10000)).pct, 99.9);
    // A stricter minimum moves the tail inward.
    EXPECT_EQ(tailPercentile(iota(1000), 11).pct, 95.0);
}

TEST(Stats, OpenLoopAccounting)
{
    std::vector<Arrival> a(3);
    a[0] = {1.0, 1.002, 1.010, true};  // on time, 10 ms from due
    a[1] = {2.0, 2.050, 2.060, true};  // sent 50 ms late: 60 ms from due
    a[2] = {3.0, 2.999, 0.0, false};   // refused
    const auto lat = dueLatenciesMs(a);
    EXPECT_NEAR(lat[0], 10.0, 1e-9);
    EXPECT_NEAR(lat[1], 60.0, 1e-9);
    EXPECT_TRUE(std::isinf(lat[2]));
    // A refusal counts as a miss: it lands above every finite latency.
    EXPECT_TRUE(std::isinf(percentile(lat, 100)));
    EXPECT_NEAR(median(lat), 60.0, 1e-9);

    const auto late = latenessMs(a);
    EXPECT_NEAR(late[0], 2.0, 1e-9);
    EXPECT_NEAR(late[1], 50.0, 1e-9);
    EXPECT_EQ(late[2], 0.0); // early sends are not negative lateness
}

TEST(Outcome, CountsFailures)
{
    Outcome o;
    o.check(true, "fine");
    o.check(false, "broken");
    EXPECT_EQ(o.attempted, 2u);
    EXPECT_EQ(o.failed, 1u);
    ASSERT_EQ(o.failures.size(), 1u);
    EXPECT_EQ(o.failures[0], "broken");
}

TEST(HostSpeed, ScalesByTheFasterProbe)
{
    // Probes of twice the reference time: the host ran at half speed.
    EXPECT_DOUBLE_EQ(speedFactor(2 * kGaugeRefMs, 3 * kGaugeRefMs), 0.5);
    EXPECT_DOUBLE_EQ(speedFactor(3 * kGaugeRefMs, 2 * kGaugeRefMs), 0.5);
    Timings t;
    t.add(10.0, 0.5);
    t.add(4.0, 2.0);
    EXPECT_EQ(t.rawMs, (std::vector<double>{10.0, 4.0}));
    EXPECT_EQ(t.scaledMs, (std::vector<double>{5.0, 8.0}));

    Outcome o;
    o.addTimed("x_ms", t);
    ASSERT_EQ(o.metrics.size(), 1u);
    EXPECT_DOUBLE_EQ(o.metrics[0].value, 6.5);     // median of 5 and 8
    EXPECT_DOUBLE_EQ(o.spreads[0].rawMedian, 7.0); // median of 10 and 4
}

TEST(HostSpeed, ProbesTakeTime)
{
    EXPECT_GT(gaugeMs(), 0.0);
    EXPECT_GT(gaugeMsAllCpus(), 0.0);
}
