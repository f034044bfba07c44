/**
 * @file
 * Coverage for the batch ProgramCache: single-use jobs must release
 * their compiled Program at job end instead of retaining it for the
 * whole batch (asserted via the live-Program instance counter), a
 * concurrent shared_future get() of one key must lower exactly once,
 * shared lowerings must bind bit-identically to private compiles across
 * the whole paper sweep, BcLoop repeat folding at trip-count edge
 * values must execute identically to the unrolled stream, and the
 * result memo must hand back exactly what a fresh run computes.
 */

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "compiler/bytecode.h"
#include "metrics/metrics.h"
#include "program_edit.h"
#include "runner/runner.h"
#include "runner/sweeps.h"
#include "same_simulation.h"
#include "sim/accelerator.h"
#include "sim/timeline.h"
#include "sim/ufc_perf.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using runner::ExperimentRunner;
using runner::Job;
using runner::ProgramCache;
using runner::RunnerConfig;
using sim::UfcModel;
using testutil::sameSimulation;

TEST(ProgramCacheGaps, ConcurrentGetCompilesExactlyOnce)
{
    // Many threads race get() on one key: the first requester installs
    // a shared future and lowers outside the map lock, the rest must
    // block on it — exactly one lowering, one shared instance.  Run
    // under -DUFC_SANITIZE=thread to certify the synchronization, not
    // just the counters.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1()));

    constexpr int kThreads = 8;
    ProgramCache cache;
    std::vector<compiler::Program> got(kThreads);
    {
        std::vector<std::thread> pool;
        pool.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t)
            pool.emplace_back(
                [&, t] { got[t] = cache.get(*model, *tr); });
        for (auto &th : pool)
            th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(got[t].code.size(), got[0].code.size()) << t;
        EXPECT_EQ(got[t].lowered.get(), got[0].lowered.get()) << t;
    }
    EXPECT_EQ(cache.lowerings(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<u64>(kThreads - 1));
}

TEST(ProgramCacheGaps, CompileErrorCachedAndRethrownToAll)
{
    // A model that refuses the trace refuses it on every request,
    // before any lowering is looked up or made.
    const auto sharp = std::make_shared<sim::SharpModel>();
    const auto tr = std::make_shared<trace::Trace>(
        workloads::pbsThroughput(tfhe::TfheParams::t4(), 16));
    ProgramCache cache;
    for (int attempt = 0; attempt < 3; ++attempt)
        EXPECT_THROW((void)cache.get(*sharp, *tr), ConfigError)
            << attempt;
    EXPECT_EQ(cache.lowerings(), 0u);

    // A deterministic lowering failure is cached: every requester gets
    // the same typed error and the lowering runs once.
    struct FailingLowering final : UfcModel
    {
        mutable int calls = 0;
        compiler::Program
        compileShared(const trace::Trace &,
                      const compiler::LoweringLookup &lookup)
            const override
        {
            return bind(
                lookup([this]() -> std::shared_ptr<
                                    const compiler::LoweredProgram> {
                    ++calls;
                    throw TraceError("lowering failed");
                }));
        }
    };
    const FailingLowering failing;
    for (int attempt = 0; attempt < 3; ++attempt)
        EXPECT_THROW((void)cache.get(failing, *tr), TraceError) << attempt;
    EXPECT_EQ(failing.calls, 1);
    EXPECT_EQ(cache.lowerings(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(ProgramCacheGaps, ForeignTraceRefusedAfterAnotherModelLoweredIt)
{
    // SHARP's admission runs before the cache is consulted, so a TFHE
    // trace the UFC jobs of the same batch lowered and shared is still
    // refused on SHARP — and only that job fails.
    const auto tr = std::make_shared<trace::Trace>(
        workloads::pbsThroughput(tfhe::TfheParams::t1(), 16));
    std::vector<Job> jobs(3);
    jobs[0] = {"ufc/a", std::make_shared<UfcModel>(), tr, {}, ""};
    jobs[1] = {"ufc/b", std::make_shared<UfcModel>(), tr, {}, ""};
    jobs[2] = {"sharp", std::make_shared<sim::SharpModel>(), tr, {}, ""};
    RunnerConfig cfg;
    cfg.threads = 1;
    const auto batch = ExperimentRunner(cfg).runAll(jobs);
    EXPECT_TRUE(batch.outcomes[0].ok());
    EXPECT_TRUE(batch.outcomes[1].ok());
    EXPECT_EQ(batch.outcomes[2].status, runner::JobStatus::Failed);
    EXPECT_EQ(batch.outcomes[2].errorKind, "ConfigError");
}

TEST(ProgramCacheGaps, SingleUseJobsReleaseTheirPrograms)
{
    // A batch of all-distinct (model, trace) pairs gains nothing from
    // retention: each job must compile, run and free its Program before
    // the batch ends, so the allocator can recycle those pages.  With
    // retention the peak live count would grow by ~one Program per job;
    // single-use jobs must keep it flat (composed models make several
    // Program instances per compile, hence the loose bound).
    const auto cp = ckks::CkksParams::c1();
    const auto tp = tfhe::TfheParams::t4();
    std::vector<Job> jobs;
    const auto add = [&](const trace::Trace &tr) {
        Job job;
        job.label = "single/" + tr.name;
        job.model = std::make_shared<UfcModel>();
        job.trace = std::make_shared<trace::Trace>(tr);
        jobs.push_back(std::move(job));
    };
    add(workloads::helr(cp, 2));
    add(workloads::ckksBootstrapping(cp));
    add(workloads::sorting(cp, 256));
    add(workloads::pbsThroughput(tp, 16));
    add(workloads::hybridKnn(cp, tp, 64));
    add(workloads::resnet20(cp));

    const u64 liveBefore = compiler::livePrograms();
    compiler::resetPeakLivePrograms();
    RunnerConfig cfg;
    cfg.threads = 1; // deterministic peak: one job in flight at a time
    const auto batch = ExperimentRunner(cfg).runAll(jobs);
    EXPECT_TRUE(batch.allOk());

    // Nothing may survive the batch...
    EXPECT_EQ(compiler::livePrograms(), liveBefore);
    // ...and the in-flight peak must stay near one job's worth of
    // Programs, far below the sum a retaining cache would accumulate
    // (each job's compile makes >= 1 Program; retention across these 6
    // jobs would push the peak past liveBefore + 6).
    EXPECT_LE(compiler::peakLivePrograms(), liveBefore + 3);
}

TEST(ProgramCacheGaps, SharedPairsRetainUntilBatchEnd)
{
    // Counter-case: two jobs sharing one (model, trace) pair go through
    // the cache, which holds the lowering until the last of them binds
    // it; every Program must still be freed once the batch is gone.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1()));
    std::vector<Job> jobs(2);
    jobs[0].label = "shared/a";
    jobs[0].model = model;
    jobs[0].trace = tr;
    jobs[1].label = "shared/b";
    jobs[1].model = model;
    jobs[1].trace = tr;
    jobs[1].options.prefetchWindow = 0; // distinct options, same Program

    const u64 liveBefore = compiler::livePrograms();
    RunnerConfig cfg;
    cfg.threads = 2;
    const auto batch = ExperimentRunner(cfg).runAll(jobs);
    EXPECT_TRUE(batch.allOk());
    EXPECT_EQ(compiler::livePrograms(), liveBefore);
    // Shared options must not leak across jobs: window 0 degrades
    // overlap, so the two results must differ.
    EXPECT_NE(batch.results[0].toJson(), batch.results[1].toJson());
}

TEST(ProgramCacheGaps, SharedLoweringReleasedAfterLastAnnouncedUse)
{
    // runAll announces each shared key's job count: the entry goes at
    // the last request, so the lowering lives exactly as long as the
    // Programs bound to it.  An unannounced key stays cached.
    const UfcModel model;
    const trace::Trace tr =
        workloads::ckksBootstrapping(ckks::CkksParams::c1());
    ProgramCache cache;
    cache.expectUses(model.loweringKey(), trace::contentHash(tr), 2);
    std::weak_ptr<const compiler::LoweredProgram> shared;
    {
        const compiler::Program a = cache.get(model, tr);
        const compiler::Program b = cache.get(model, tr);
        EXPECT_EQ(a.lowered.get(), b.lowered.get());
        shared = a.lowered;
    }
    EXPECT_TRUE(shared.expired());
    EXPECT_EQ(cache.lowerings(), 1u);

    std::weak_ptr<const compiler::LoweredProgram> kept;
    kept = cache.get(model, tr).lowered; // a fresh, unannounced entry
    EXPECT_FALSE(kept.expired());
    EXPECT_EQ(cache.lowerings(), 2u);
}

// ---------------------------------------------------------------------
// BcLoop repeat folding at trip-count edge values.

/** Expand every folded loop of `p` back into a flat stream, shifting
 *  the downstream events like the builder would have emitted them
 *  unrolled. */
compiler::Program
unrolled(const compiler::Program &p)
{
    const compiler::LoweredProgram &in = *p.lowered;
    return testutil::editLowering(p, [&](compiler::LoweredProgram &out) {
        out.code.clear();
        out.loops.clear();
        out.phaseEvents.clear();

        std::size_t li = 0;
        std::size_t ev = 0;
        for (std::size_t i = 0; i <= in.code.size(); ++i) {
            while (ev < in.phaseEvents.size() &&
                   in.phaseEvents[ev].inst == i) {
                out.phaseEvents.push_back(
                    {out.code.size(), in.phaseEvents[ev].name});
                ++ev;
            }
            if (li < in.loops.size() && in.loops[li].end == i) {
                const auto &lp = in.loops[li];
                const std::size_t bodyBegin = i - lp.bodyLen;
                for (u64 t = 1; t < lp.trips; ++t)
                    for (std::size_t k = bodyBegin; k < i; ++k)
                        out.code.push_back(in.code[k]);
                ++li;
            }
            if (i < in.code.size())
                out.code.push_back(in.code[i]);
        }
    });
}

TEST(ProgramCacheGaps, FoldedLoopExecutesIdenticallyToUnrolled)
{
    const UfcModel model;
    const compiler::Program folded = model.compile(
        workloads::pbsThroughput(tfhe::TfheParams::t4(), 64));
    ASSERT_FALSE(folded.lowered->loops.empty());
    const compiler::Program flat = unrolled(folded);
    ASSERT_GT(flat.code.size(), folded.code.size());
    EXPECT_EQ(flat.totalInsts(), folded.totalInsts());
    EXPECT_EQ(model.execute(flat).toJson(),
              model.execute(folded).toJson());
}

TEST(ProgramCacheGaps, RepeatOfferEdgeTripCounts)
{
    // Drive ProgramBuilder's beginRepeat directly at the edge values:
    // trips < 2 must be refused (the producer then unrolls itself), and
    // an accepted fold at any trip count must execute identically to
    // the same stream emitted flat.
    isa::HwInst inst;
    inst.op = isa::HwOp::Ewma;
    inst.logDegree = 16;
    inst.batch = 1;
    inst.words = 1u << 16;
    inst.work = 1u << 16;
    isa::BufferRef ref;
    ref.id = 1;
    ref.bytes = u64(8) << 16;
    ref.streaming = true; // pure Stream body: foldable
    inst.buffers.push_back(ref);

    const auto build = [&](u64 trips,
                           bool &accepted) -> compiler::Program {
        compiler::LoweredProgram lp;
        compiler::ProgramBuilder builder(&lp);
        accepted = builder.beginRepeat(trips);
        builder.issue(inst);
        if (accepted)
            builder.endRepeat();
        else // refused: the producer must emit every trip itself
            for (u64 t = 1; t < trips; ++t)
                builder.issue(inst);
        builder.finish();
        lp.workload = "edge";
        return testutil::bindUfc(std::move(lp));
    };
    const auto flat = [&](u64 trips) -> compiler::Program {
        compiler::LoweredProgram lp;
        compiler::ProgramBuilder builder(&lp);
        for (u64 t = 0; t < trips; ++t)
            builder.issue(inst);
        builder.finish();
        lp.workload = "edge";
        return testutil::bindUfc(std::move(lp));
    };

    const UfcModel model;
    bool accepted = false;

    // trips = 0: refused; "repeat zero times" still means the producer
    // emitted the body once up front (the offer wraps the first
    // emission), so it must equal a single flat instruction.
    compiler::Program p0 = build(0, accepted);
    EXPECT_FALSE(accepted);
    EXPECT_TRUE(p0.lowered->loops.empty());
    EXPECT_EQ(p0.totalInsts(), 1u);

    // trips = 1: refused, single emission, no loop row.
    compiler::Program p1 = build(1, accepted);
    EXPECT_FALSE(accepted);
    EXPECT_TRUE(p1.lowered->loops.empty());
    EXPECT_EQ(model.execute(p1).toJson(),
              model.execute(flat(1)).toJson());

    // trips = 2 (smallest legal fold) and a large trip count near the
    // practical max: folded == unrolled, bit for bit.
    for (const u64 trips : {u64(2), u64(7), u64(100000)}) {
        compiler::Program folded = build(trips, accepted);
        EXPECT_TRUE(accepted) << trips;
        ASSERT_EQ(folded.lowered->loops.size(), 1u) << trips;
        EXPECT_EQ(folded.lowered->loops[0].trips, trips);
        EXPECT_EQ(folded.totalInsts(), trips);
        EXPECT_EQ(model.execute(folded).toJson(),
                  model.execute(flat(trips)).toJson())
            << trips;
    }
}

// ---------------------------------------------------------------------
// Result memo: a hit is a copy of what a fresh run computes, relabelled.

/** One job through runJob on `cache`. */
struct MemoRun
{
    sim::RunResult result;
    runner::JobOutcome outcome;
};

MemoRun
runMemo(const Job &job, ProgramCache &cache)
{
    MemoRun out;
    ExperimentRunner().runJob(job, 0, out.result, out.outcome, &cache);
    return out;
}

/** An uncached run of `job`. */
sim::RunResult
fresh(const Job &job)
{
    sim::RunOptions opts = job.options;
    opts.label = job.label;
    return job.model->run(*job.trace, opts);
}

TEST(ResultMemo, BuiltinsBitIdentical)
{
    // One cache across every builtin, run twice each: the first run
    // misses and stores, the second is served from the memo, and both
    // are the same simulation as an uncached run.
    const auto cp = ckks::CkksParams::c1();
    const auto tp = tfhe::TfheParams::t4();
    const auto ufc = std::make_shared<UfcModel>();
    std::vector<Job> jobs;
    for (trace::Trace tr :
         {workloads::helr(cp, 2), workloads::ckksBootstrapping(cp, 2),
          workloads::sorting(cp, 256), workloads::pbsThroughput(tp, 16),
          workloads::hybridKnn(cp, tp, 64)})
        jobs.push_back({"memo/" + tr.name, ufc,
                        std::make_shared<trace::Trace>(std::move(tr)),
                        {}, ""});
    jobs.push_back({"memo/composed", std::make_shared<sim::ComposedModel>(),
                    jobs.back().trace, {}, ""});

    ProgramCache cache;
    for (const Job &job : jobs) {
        const sim::RunResult uncached = fresh(job);
        const MemoRun cold = runMemo(job, cache);
        EXPECT_STREQ(cold.outcome.memo, "miss") << job.label;
        EXPECT_TRUE(sameSimulation(cold.result, uncached)) << job.label;
        const MemoRun warm = runMemo(job, cache);
        EXPECT_STREQ(warm.outcome.memo, "hit") << job.label;
        EXPECT_TRUE(sameSimulation(warm.result, uncached)) << job.label;
    }
    EXPECT_EQ(cache.resultHits(), jobs.size());
    EXPECT_EQ(cache.resultMisses(), jobs.size());
}

TEST(ResultMemo, RunParametersKeyTheMemo)
{
    // A different prefetch window, watchdog budget or model instance is
    // a different run: each misses, and each result equals
    // its own uncached run, never a neighbour's.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<const trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2));
    std::vector<Job> jobs;
    for (int window : {-1, 0, 1, 4, 64}) {
        Job job{"w" + std::to_string(window), model, tr, {}, ""};
        job.options.prefetchWindow = window;
        jobs.push_back(job);
    }
    jobs.push_back({"watchdog", model, tr, {}, ""});
    jobs.back().options.maxCycles = u64(1) << 40; // armed, never trips
    jobs.push_back({"twin", std::make_shared<UfcModel>(), tr, {}, ""});

    ProgramCache cache;
    for (const Job &job : jobs) {
        const MemoRun cold = runMemo(job, cache);
        EXPECT_STREQ(cold.outcome.memo, "miss") << job.label;
        EXPECT_TRUE(sameSimulation(cold.result, fresh(job))) << job.label;
    }
    EXPECT_EQ(cache.resultHits(), 0u);
    for (const Job &job : jobs) {
        const MemoRun warm = runMemo(job, cache);
        EXPECT_STREQ(warm.outcome.memo, "hit") << job.label;
        EXPECT_TRUE(sameSimulation(warm.result, fresh(job))) << job.label;
    }
}

TEST(ResultMemo, WatchdogTripNotStored)
{
    // A tripped run stores nothing, so a rerun trips again with the same
    // bytes as an uncached run.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<const trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2));
    Job job{"tripped", model, tr, {}, ""};
    job.options.maxCycles = 500000;
    std::string uncached;
    try {
        model->run(*tr, job.options);
        FAIL() << "uncached watchdog did not trip";
    } catch (const TimeoutError &e) {
        uncached = e.what();
    }
    ProgramCache cache;
    for (int attempt = 0; attempt < 2; ++attempt) {
        const MemoRun run = runMemo(job, cache);
        EXPECT_EQ(run.outcome.status, runner::JobStatus::TimedOut);
        EXPECT_EQ(run.outcome.message, uncached) << "attempt " << attempt;
        EXPECT_STREQ(run.outcome.memo, "miss") << "attempt " << attempt;
    }
    EXPECT_EQ(cache.resultHits(), 0u);
}

TEST(ResultMemo, TimelineRunsBypassAndMatch)
{
    // A timeline run must record its slices, so it neither reads nor
    // fills the memo, and its slices equal an uncached timeline run's.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<const trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2));
    sim::Timeline plain;
    sim::RunOptions plainOpts;
    plainOpts.timeline = &plain;
    model->run(*tr, plainOpts);

    ProgramCache cache;
    const Job plainJob{"plain", model, tr, {}, ""};
    runMemo(plainJob, cache);

    sim::Timeline recorded;
    Job timed{"timed", model, tr, {}, ""};
    timed.options.timeline = &recorded;
    const MemoRun run = runMemo(timed, cache);
    EXPECT_STREQ(run.outcome.memo, "off");
    EXPECT_EQ(cache.resultHits() + cache.resultMisses(), 1u);
    EXPECT_STREQ(runMemo(plainJob, cache).outcome.memo, "hit");

    ASSERT_EQ(recorded.slices().size(), plain.slices().size());
    for (std::size_t i = 0; i < plain.slices().size(); ++i) {
        const auto &a = plain.slices()[i];
        const auto &b = recorded.slices()[i];
        EXPECT_EQ(a.track, b.track) << i;
        EXPECT_EQ(a.depth, b.depth) << i;
        EXPECT_EQ(a.name, b.name) << i;
        EXPECT_EQ(a.beginCycle, b.beginCycle) << i;
        EXPECT_EQ(a.endCycle, b.endCycle) << i;
        EXPECT_EQ(a.bytes, b.bytes) << i;
    }
}

TEST(ResultMemo, FifoBoundEvicts)
{
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<const trace::Trace>(
        workloads::pbsThroughput(tfhe::TfheParams::t1(), 16));
    std::vector<Job> jobs;
    for (int window : {1, 2, 3}) {
        jobs.push_back({"w" + std::to_string(window), model, tr, {}, ""});
        jobs.back().options.prefetchWindow = window;
    }
    ProgramCache cache(2);
    for (const Job &job : jobs)
        runMemo(job, cache);
    // The oldest result went first; the newest is still held.
    EXPECT_STREQ(runMemo(jobs[2], cache).outcome.memo, "hit");
    const MemoRun evicted = runMemo(jobs[0], cache);
    EXPECT_STREQ(evicted.outcome.memo, "miss");
    EXPECT_TRUE(sameSimulation(evicted.result, fresh(jobs[0])));
    // Storing it again pushed out the next oldest.
    EXPECT_STREQ(runMemo(jobs[1], cache).outcome.memo, "miss");
}

TEST(ResultMemo, HitCarriesRequestingLabel)
{
    // The stored run was labelled by the job that computed it; a hit
    // answers for the job that asked, and the bound gate still checks
    // the copy it returns.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<const trace::Trace>(
        workloads::sorting(ckks::CkksParams::c1(), 256));
    ProgramCache cache;
    runMemo({"first", model, tr, {}, ""}, cache);
    Job second{"second", model, tr, {}, ""};
    second.options.boundsCheck = true;
    const MemoRun hit = runMemo(second, cache);
    EXPECT_STREQ(hit.outcome.memo, "hit");
    EXPECT_EQ(hit.result.label, "second");
    EXPECT_TRUE(sameSimulation(hit.result, fresh(second)));
    EXPECT_TRUE(hit.outcome.ok());
    EXPECT_TRUE(hit.outcome.boundsChecked);
    EXPECT_GE(hit.result.stats.totalCycles, hit.outcome.cyclesLower);
    EXPECT_LE(hit.result.stats.totalCycles, hit.outcome.cyclesUpper);
}

TEST(ResultMemo, RacingIdenticalJobsAgree)
{
    // Racing identical jobs may all miss and all store; the first store
    // wins and every caller gets the same simulation.  Run under
    // -DUFC_SANITIZE=thread to certify the locking.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<const trace::Trace>(
        workloads::pbsThroughput(tfhe::TfheParams::t1(), 16));
    const Job job{"race", model, tr, {}, ""};
    constexpr int kThreads = 4;
    ProgramCache cache;
    std::vector<sim::RunResult> got(kThreads);
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < kThreads; ++t)
            pool.emplace_back(
                [&, t] { got[t] = runMemo(job, cache).result; });
        for (auto &th : pool)
            th.join();
    }
    const sim::RunResult uncached = fresh(job);
    for (const sim::RunResult &r : got)
        EXPECT_TRUE(sameSimulation(r, uncached));
    EXPECT_EQ(cache.resultHits() + cache.resultMisses(), u64(kThreads));
    EXPECT_STREQ(runMemo(job, cache).outcome.memo, "hit");
}

TEST(ResultMemo, IrModeBypassesMemo)
{
    // The trace-IR interpreter builds no Program, so it never consults
    // the memo.
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<const trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1(), 2));
    Job job{"ir", model, tr, {}, ""};
    job.options.execMode = sim::ExecMode::TraceIr;
    ProgramCache cache;
    for (int attempt = 0; attempt < 2; ++attempt) {
        const MemoRun run = runMemo(job, cache);
        EXPECT_STREQ(run.outcome.memo, "off");
        EXPECT_TRUE(sameSimulation(run.result, fresh(job)));
    }
    EXPECT_EQ(cache.resultHits() + cache.resultMisses(), 0u);
}

} // namespace
} // namespace ufc
