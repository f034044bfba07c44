/**
 * @file
 * Differential gate for the trace-to-bytecode JIT: the compiled-Program
 * path (compile + execute on sim::BytecodeEngine) must be bit-identical
 * to the legacy trace-IR interpreter (compiler::Lowering feeding
 * sim::CycleEngine) on every observable — cycles, energy, per-opcode
 * attribution, stall causes, timeline slices, and typed-error
 * diagnostics — across the builtin workloads, the malformed/lint
 * fixture corpora, and fuzzed trace text.
 *
 * Comparison discipline: two results agree when their
 * RunResult::simulatedDigest()s do (the bit pattern of every field but
 * host time, raw busy-cycle counters included); a mismatch prints both
 * results' JSON.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "analysis/analyzer.h"
#include "common/error.h"
#include "common/fault.h"
#include "compiler/bytecode.h"
#include "metrics/metrics.h"
#include "program_edit.h"
#include "runner/runner.h"
#include "same_simulation.h"
#include "sim/accelerator.h"
#include "sim/timeline.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace ufc {
namespace sim {
namespace {

RunOptions
irOptions(const RunOptions &base = RunOptions{})
{
    RunOptions opts = base;
    opts.execMode = ExecMode::TraceIr;
    return opts;
}

using testutil::sameSimulation;

/** Both engines on one (model, trace, options) point must give the same
 *  simulation. */
void
expectEnginesAgree(const AcceleratorModel &model, const trace::Trace &tr,
                   const RunOptions &opts = RunOptions{})
{
    EXPECT_TRUE(sameSimulation(model.run(tr, opts),
                               model.run(tr, irOptions(opts))))
        << model.name() << " on " << tr.name;
}

/** The builtin workload x machine grid the paper sweeps. */
std::vector<trace::Trace>
ckksTraces()
{
    const auto cp = ckks::CkksParams::c1();
    return {workloads::ckksBootstrapping(cp),
            workloads::sorting(cp, 1024),
            workloads::helr(cp, 2)};
}

std::vector<trace::Trace>
tfheTraces()
{
    const auto tp = tfhe::TfheParams::t4();
    return {workloads::pbsThroughput(tp, 64),
            workloads::tfheNn(tp, 2)};
}

trace::Trace
hybridTrace()
{
    return workloads::hybridKnn(ckks::CkksParams::c1(),
                                tfhe::TfheParams::t4(), 256);
}

TEST(BytecodeDifferential, UfcMatchesIrOnAllBuiltins)
{
    const UfcModel model;
    for (const auto &tr : ckksTraces())
        expectEnginesAgree(model, tr);
    for (const auto &tr : tfheTraces())
        expectEnginesAgree(model, tr);
    expectEnginesAgree(model, hybridTrace());
}

TEST(BytecodeDifferential, BaselinesMatchIrOnTheirSchemes)
{
    const SharpModel sharp;
    for (const auto &tr : ckksTraces())
        expectEnginesAgree(sharp, tr);
    const StrixModel strix;
    for (const auto &tr : tfheTraces())
        expectEnginesAgree(strix, tr);
}

TEST(BytecodeDifferential, ComposedMatchesIrIncludingPartitioning)
{
    const ComposedModel composed;
    expectEnginesAgree(composed, hybridTrace());
    // Degenerate partitions: all-CKKS (idle Strix) and all-TFHE (idle
    // SHARP) still agree, including the idle chip's static-energy term.
    expectEnginesAgree(composed, ckksTraces().front());
    expectEnginesAgree(composed, tfheTraces().front());
}

TEST(BytecodeDifferential, PrefetchWindowSweepMatchesIr)
{
    const UfcModel model;
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c1());
    for (int window : {0, 1, 4, 64}) {
        RunOptions opts;
        opts.prefetchWindow = window;
        expectEnginesAgree(model, tr, opts);
    }
}

TEST(BytecodeDifferential, TimelineSlicesMatchIrBitExact)
{
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c1());
    const UfcModel ufc;
    const SharpModel sharp;
    for (const AcceleratorModel *model :
         std::initializer_list<const AcceleratorModel *>{&ufc, &sharp}) {
        Timeline bcTl;
        RunOptions bcOpts;
        bcOpts.timeline = &bcTl;
        const RunResult bc = model->run(tr, bcOpts);

        Timeline irTl;
        RunOptions irOpts;
        irOpts.timeline = &irTl;
        irOpts.execMode = ExecMode::TraceIr;
        const RunResult ir = model->run(tr, irOpts);

        EXPECT_TRUE(sameSimulation(bc, ir)) << model->name();
        ASSERT_EQ(bcTl.slices().size(), irTl.slices().size())
            << model->name();
        for (size_t i = 0; i < bcTl.slices().size(); ++i) {
            const TimelineSlice &a = bcTl.slices()[i];
            const TimelineSlice &b = irTl.slices()[i];
            EXPECT_EQ(a.track, b.track) << i;
            EXPECT_EQ(a.depth, b.depth) << i;
            EXPECT_EQ(a.name, b.name) << i;
            EXPECT_EQ(a.beginCycle, b.beginCycle) << i;
            EXPECT_EQ(a.endCycle, b.endCycle) << i;
            EXPECT_EQ(a.bytes, b.bytes) << i;
        }
        // Observation changes nothing: with the timeline detached the
        // result is still the same (this also exercises the fused fast
        // path, which only runs without a timeline).
        EXPECT_EQ(model->run(tr).stats.totalCycles, bc.stats.totalCycles);
    }
}

TEST(BytecodeDifferential, MaxCyclesTripsIdenticallyMidProgram)
{
    const UfcModel model;
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c1());
    RunOptions opts;
    opts.maxCycles = 50000; // trips well inside the program

    std::string bcWhat;
    try {
        model.run(tr, opts);
        FAIL() << "bytecode watchdog did not trip";
    } catch (const TimeoutError &e) {
        bcWhat = e.what();
    }
    std::string irWhat;
    try {
        model.run(tr, irOptions(opts));
        FAIL() << "IR watchdog did not trip";
    } catch (const TimeoutError &e) {
        irWhat = e.what();
    }
    // Same instruction, same simulated clock, same message bytes.
    EXPECT_EQ(bcWhat, irWhat);
    EXPECT_NE(bcWhat.find("maxCycles watchdog"), std::string::npos);
}

TEST(BytecodeDifferential, RunOptionsValidationParity)
{
    const UfcModel model;
    const auto tr = workloads::sorting(ckks::CkksParams::c1(), 256);
    RunOptions bad;
    bad.prefetchWindow = -5;
    EXPECT_THROW(model.run(tr, bad), ConfigError);
    EXPECT_THROW(model.run(tr, irOptions(bad)), ConfigError);
    EXPECT_THROW(model.execute(model.compile(tr), bad), ConfigError);
}

TEST(BytecodeDifferential, SchemeRejectionParity)
{
    const auto tfhe = tfheTraces().front();
    const SharpModel sharp;
    EXPECT_THROW(sharp.run(tfhe), ConfigError);
    EXPECT_THROW(sharp.run(tfhe, irOptions()), ConfigError);
    EXPECT_THROW(sharp.compile(tfhe), ConfigError);
}

/** Run both modes on a parsed trace; returns true when the outcomes
 *  (success JSON or typed-error kind+message) are identical.  A
 *  maxCycles net bounds hostile inputs — tripping it identically on
 *  both paths is itself the parity being asserted. */
testing::AssertionResult
outcomesMatch(const AcceleratorModel &model, const trace::Trace &tr)
{
    RunOptions base;
    base.maxCycles = 100000000; // hostile-input safety net
    std::string bcOut;
    std::string irOut;
    auto runMode = [&](const RunOptions &opts, std::string &out) {
        try {
            const RunResult r = model.run(tr, opts);
            out = "ok:" + std::to_string(r.simulatedDigest()) + ":" +
                  r.toJson();
        } catch (const Error &e) {
            out = std::string("error:") + e.kind() + ":" + e.what();
        }
    };
    runMode(base, bcOut);
    runMode(irOptions(base), irOut);
    if (bcOut == irOut)
        return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << "trace '" << tr.name << "' diverged:\n  bytecode: "
           << bcOut.substr(0, 200) << "\n  trace-ir: "
           << irOut.substr(0, 200);
}

/** Trace-level lint gate, as the runner's lintTraces pre-flight: a
 *  trace with Error-severity findings feeds garbage geometry (division
 *  by zero decomposition levels, log2 of a non-power-of-two) into any
 *  lowering, so neither engine path may legally simulate it. */
bool
simulatable(const trace::Trace &tr)
{
    static const analysis::Analyzer linter;
    return linter.analyze(tr).errorCount() == 0;
}

TEST(BytecodeDifferential, FixtureCorporaParity)
{
    const UfcModel model;
    int compared = 0;
    for (const auto &entry : std::filesystem::recursive_directory_iterator(
             UFC_FIXTURE_DIR)) {
        if (entry.path().extension() != ".ufctrace")
            continue;
        trace::Trace tr;
        try {
            tr = trace::loadTrace(entry.path().string());
        } catch (const TraceError &) {
            continue; // unparseable: no simulation on either path
        }
        if (!simulatable(tr))
            continue; // runner pre-flight rejects before either engine
        EXPECT_TRUE(outcomesMatch(model, tr)) << entry.path();
        ++compared;
    }
    // The corpus must actually exercise the comparison (valid_small
    // plus the warning-severity lint fixtures).
    EXPECT_GE(compared, 3);
}

TEST(BytecodeDifferential, FuzzedTracesParity)
{
    std::ostringstream os;
    trace::writeTrace(workloads::sorting(ckks::CkksParams::c1(), 256),
                      os);
    const std::string good = os.str();
    const FaultInjector faults(2026, 0.0);
    const UfcModel model;
    int compared = 0;
    for (u64 salt = 0; salt < 64; ++salt) {
        const std::string hostile = faults.corruptTraceText(good, salt);
        std::stringstream ss(hostile);
        trace::Trace tr;
        try {
            tr = trace::readTrace(ss);
        } catch (const TraceError &) {
            continue; // rejected at parse: no simulation on either path
        }
        if (!simulatable(tr))
            continue;
        EXPECT_TRUE(outcomesMatch(model, tr)) << "salt " << salt;
        ++compared;
    }
    EXPECT_GT(compared, 0);
}

// ---------------------------------------------------------------------
// Compile/execute API surface.

TEST(BytecodeProgram, RunShimEqualsCompileThenExecute)
{
    const UfcModel model;
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c1());
    const compiler::Program program = model.compile(tr);
    EXPECT_EQ(model.run(tr).toJson(), model.execute(program).toJson());
    // A Program is immutable: executing it again gives the same bytes.
    EXPECT_EQ(model.execute(program).toJson(),
              model.execute(program).toJson());
}

TEST(BytecodeProgram, StampsWorkloadMachineAndHash)
{
    const UfcModel model;
    const auto tr = workloads::sorting(ckks::CkksParams::c1(), 512);
    const compiler::Program program = model.compile(tr);
    EXPECT_EQ(program.workload, tr.name);
    EXPECT_EQ(program.machine, model.name());
    EXPECT_EQ(program.traceHash, trace::contentHash(tr));
    EXPECT_FALSE(program.code.empty());
    EXPECT_FALSE(program.composed());
}

TEST(BytecodeProgram, RejectsForeignAndComposedPrograms)
{
    const auto tr = ckksTraces().front();
    const UfcModel ufc;
    const SharpModel sharp;
    // Compiled-for-UFC executed on SHARP: machine mismatch.
    EXPECT_THROW(sharp.execute(ufc.compile(tr)), ConfigError);
    // A composed Program cannot run on a single-chip model...
    const ComposedModel composed;
    const compiler::Program hybrid = composed.compile(hybridTrace());
    EXPECT_TRUE(hybrid.composed());
    EXPECT_THROW(ufc.execute(hybrid), ConfigError);
    // ...and a single-chip Program cannot run on the composed system.
    EXPECT_THROW(composed.execute(ufc.compile(tr)), ConfigError);
}

TEST(BytecodeProgram, ContentHashTracksContent)
{
    const auto cp = ckks::CkksParams::c1();
    auto a = workloads::sorting(cp, 512);
    auto b = workloads::sorting(cp, 512);
    EXPECT_EQ(trace::contentHash(a), trace::contentHash(b));
    b.name = "renamed";
    EXPECT_NE(trace::contentHash(a), trace::contentHash(b));
    auto c = workloads::sorting(cp, 512);
    c.ops.back().count += 1;
    EXPECT_NE(trace::contentHash(a), trace::contentHash(c));
}

TEST(BytecodeProgram, ProgramCacheLowersOncePerLoweringKey)
{
    runner::ProgramCache cache;
    const auto model = std::make_shared<UfcModel>();
    const auto tr = workloads::sorting(ckks::CkksParams::c1(), 512);

    const auto p1 = cache.get(*model, tr);
    const auto p2 = cache.get(*model, tr);
    EXPECT_EQ(p1.lowered.get(), p2.lowered.get()); // one shared lowering
    EXPECT_EQ(cache.lowerings(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // Another instance of the same config, and a DSE point that only
    // changes machine costs (CG networks, scratchpad), lower the trace
    // identically: they share the lowering and bind their own costs.
    UfcConfig dse;
    dse.cgNetworks = 4;
    dse.scratchpadMb = 64;
    const auto other = std::make_shared<UfcModel>();
    const auto costOnly = std::make_shared<UfcModel>(dse);
    const auto p3 = cache.get(*other, tr);
    const auto p4 = cache.get(*costOnly, tr);
    EXPECT_EQ(p1.lowered.get(), p3.lowered.get());
    EXPECT_EQ(p1.lowered.get(), p4.lowered.get());
    EXPECT_EQ(cache.lowerings(), 1u);
    EXPECT_EQ(costOnly->execute(p4).toJson(), costOnly->run(tr).toJson());

    // Lane count feeds the packing decision: a different lowering key.
    UfcConfig lanes;
    lanes.lanesPerPe = 64;
    const auto narrow = std::make_shared<UfcModel>(lanes);
    EXPECT_NE(narrow->loweringKey(), model->loweringKey());
    const auto p5 = cache.get(*narrow, tr);
    EXPECT_NE(p1.lowered.get(), p5.lowered.get());
    EXPECT_EQ(cache.lowerings(), 2u);

    // Cached Programs execute identically to a fresh run.
    EXPECT_EQ(model->execute(p1).toJson(), model->run(tr).toJson());
}

TEST(BytecodeProgram, ExecuteRejectsProgramBoundForAnotherConfig)
{
    // Every UfcConfig is named "UFC": the config digest, not the name,
    // must stop a fig14 Program from running on the Table II machine.
    const auto tr = workloads::sorting(ckks::CkksParams::c1(), 512);
    UfcConfig lanes64;
    lanes64.lanesPerPe = 64;
    const UfcModel dse(lanes64);
    const UfcModel table2(UfcConfig::tableII());
    ASSERT_EQ(dse.name(), table2.name());
    const compiler::Program p = dse.compile(tr);
    EXPECT_THROW(table2.execute(p), ConfigError);

    // Scratchpad size only matters at execution, yet it is part of the
    // bound machine: a differently sized scratchpad is refused too.
    UfcConfig smallSpad;
    smallSpad.scratchpadMb = 32;
    EXPECT_THROW(UfcModel(smallSpad).execute(table2.compile(tr)),
                 ConfigError);

    // The same config on two model instances still executes.
    const UfcModel twin(lanes64);
    EXPECT_EQ(twin.execute(p).toJson(), dse.execute(p).toJson());
}

TEST(BytecodeProgram, RunnerBatchMatchesIrBatch)
{
    const auto model = std::make_shared<UfcModel>();
    const auto tr = std::make_shared<const trace::Trace>(
        workloads::ckksBootstrapping(ckks::CkksParams::c1()));
    std::vector<runner::Job> jobs;
    for (int window : {0, 4, 64}) {
        runner::Job job;
        job.label = "bc/w" + std::to_string(window);
        job.model = model;
        job.trace = tr;
        job.options.prefetchWindow = window;
        jobs.push_back(job);
        job.label = "ir/w" + std::to_string(window);
        job.options.execMode = ExecMode::TraceIr;
        jobs.push_back(job);
    }
    const auto batch = runner::ExperimentRunner().runAll(jobs);
    ASSERT_TRUE(batch.allOk());
    for (size_t i = 0; i < jobs.size(); i += 2) {
        const auto &bc = batch.results[i];
        auto ir = batch.results[i + 1];
        // The label is the one per-job field that legitimately differs.
        ir.label = bc.label;
        EXPECT_TRUE(sameSimulation(bc, ir)) << jobs[i].label;
    }
}

// ---------------------------------------------------------------------
// Fusion legality and the bytecode verifier.

TEST(BytecodeFusion, BootstrapProgramContainsLegalFusedRuns)
{
    const UfcModel model;
    const compiler::Program program =
        model.compile(workloads::ckksBootstrapping(ckks::CkksParams::c1()));
    EXPECT_GT(program.lowered->fusedRuns, 0u);
    EXPECT_GT(program.lowered->fusedInsts, program.lowered->fusedRuns);

    analysis::DiagnosticReport rep;
    compiler::verifyProgram(program, rep);
    EXPECT_TRUE(rep.clean()) << rep.toText();

    // Every fused member must be a Stream instruction; at least one run
    // should carry a key-switch classification on a bootstrap workload.
    bool sawKeySwitch = false;
    for (size_t i = 0; i < program.code.size();) {
        const compiler::BcInst &head = program.code[i];
        if (head.runLen > 1) {
            for (u32 k = 0; k < head.runLen; ++k)
                EXPECT_EQ(program.code[i + k].kind,
                          compiler::BcKind::Stream);
            if (head.fuse == compiler::FuseKind::KeySwitch)
                sawKeySwitch = true;
            i += head.runLen;
        } else {
            ++i;
        }
    }
    EXPECT_TRUE(sawKeySwitch);
}

compiler::Program
programWithRun(size_t *headOut)
{
    const UfcModel model;
    compiler::Program program =
        model.compile(workloads::ckksBootstrapping(ckks::CkksParams::c1()));
    for (size_t i = 0; i < program.code.size(); ++i)
        if (program.code[i].runLen > 1) {
            *headOut = i;
            return program;
        }
    ADD_FAILURE() << "no fused run in bootstrap program";
    *headOut = 0;
    return program;
}

TEST(BytecodeFusion, VerifierFlagsRunOverrun)
{
    size_t head = 0;
    const compiler::Program program = testutil::editLowering(
        programWithRun(&head), [&](compiler::LoweredProgram &lp) {
            lp.code[head].runLen =
                static_cast<u16>(lp.code.size() - head + 1);
        });
    analysis::DiagnosticReport rep;
    compiler::verifyProgram(program, rep);
    ASSERT_GT(rep.errorCount(), 0u);
    EXPECT_EQ(rep.firstError()->rule, "bc-fuse-phase-span");
}

TEST(BytecodeFusion, VerifierFlagsCachedOperandInsideRun)
{
    size_t head = 0;
    const compiler::Program program = testutil::editLowering(
        programWithRun(&head), [&](compiler::LoweredProgram &lp) {
            lp.code[head + 1].kind = compiler::BcKind::Mem;
        });
    analysis::DiagnosticReport rep;
    compiler::verifyProgram(program, rep);
    ASSERT_GT(rep.errorCount(), 0u);
    EXPECT_EQ(rep.firstError()->rule, "bc-fuse-cached-operand");
}

TEST(BytecodeFusion, VerifierFlagsPhaseMarkerInsideRun)
{
    size_t head = 0;
    const compiler::Program program = testutil::editLowering(
        programWithRun(&head), [&](compiler::LoweredProgram &lp) {
            lp.phaseEvents.push_back(compiler::PhaseEvent{
                static_cast<u64>(head) + 1, compiler::PhaseEvent::kEnd});
            std::sort(lp.phaseEvents.begin(), lp.phaseEvents.end(),
                      [](const compiler::PhaseEvent &a,
                         const compiler::PhaseEvent &b) {
                          return a.inst < b.inst;
                      });
        });
    analysis::DiagnosticReport rep;
    compiler::verifyProgram(program, rep);
    ASSERT_GT(rep.errorCount(), 0u);
    EXPECT_EQ(rep.firstError()->rule, "bc-fuse-phase-span");
}

/** what() of the ConfigError executing `program` throws ("" if none). */
std::string
executeRefusal(const UfcModel &model, const compiler::Program &program)
{
    try {
        model.execute(program);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

TEST(BytecodeFusion, EngineRejectsMalformedRun)
{
    // The Stream kernel trusts a run's length and its members' kinds, so
    // a mutated run must be refused, not walked off the end of `code` or
    // streamed past a scratchpad access.
    const UfcModel model;
    size_t head = 0;
    const compiler::Program good = programWithRun(&head);
    ASSERT_EQ(executeRefusal(model, good), "");

    // The last run head, so an overrunning length still fits in u16.
    size_t last = head;
    for (size_t i = 0; i < good.code.size(); ++i)
        if (good.code[i].runLen > 1)
            last = i;
    ASSERT_LT(good.code.size() - last, size_t{0xffff});
    const compiler::Program overrun = testutil::editLowering(
        good, [&](compiler::LoweredProgram &lp) {
            lp.code[last].runLen =
                static_cast<u16>(lp.code.size() - last + 1);
        });
    EXPECT_NE(executeRefusal(model, overrun).find("bc-fuse-phase-span"),
              std::string::npos);

    const compiler::Program mem = testutil::editLowering(
        good, [&](compiler::LoweredProgram &lp) {
            lp.code[head + 1].kind = compiler::BcKind::Mem;
        });
    EXPECT_NE(executeRefusal(model, mem).find("bc-fuse-cached-operand"),
              std::string::npos);
}

TEST(BytecodeFusion, LintRulesAreRegistered)
{
    bool sawCached = false;
    bool sawSpan = false;
    for (const auto &rule : analysis::ruleRegistry()) {
        if (std::string_view(rule.id) == "bc-fuse-cached-operand")
            sawCached = true;
        if (std::string_view(rule.id) == "bc-fuse-phase-span")
            sawSpan = true;
    }
    EXPECT_TRUE(sawCached);
    EXPECT_TRUE(sawSpan);
}

TEST(BytecodeFusion, OnePassAnalyzeLoweredStaysCleanOnBuiltins)
{
    // analyzeLowered now verifies through the same one-pass lowering
    // that emits bytecode (VerifyingSink composed with ProgramBuilder),
    // plus the bc-fuse-* program checks; builtin workloads stay clean.
    const analysis::Analyzer analyzer;
    const UfcModel model;
    for (const auto &tr : ckksTraces()) {
        const auto rep =
            analyzer.analyzeLowered(tr, model.loweringOptions());
        EXPECT_TRUE(rep.clean()) << tr.name << "\n" << rep.toText();
    }
}

// ---------------------------------------------------------------------
// Structural repeat folding (Program::loops).

/** A TFHE program whose blind rotate folded into Program loops. */
compiler::Program
foldedTfheProgram(const UfcModel &model)
{
    const compiler::Program program = model.compile(
        workloads::pbsThroughput(tfhe::TfheParams::t4(), 64));
    EXPECT_FALSE(program.lowered->loops.empty())
        << "TVLP blind rotate should fold its key-reusing iterations";
    return program;
}

TEST(BytecodeLoops, TfheProgramFoldsAndReplaysExactly)
{
    const UfcModel model;
    const compiler::Program program = foldedTfheProgram(model);
    // Folding must shrink the stored stream without losing executions:
    // the executor steps exactly as many instructions as the IR
    // interpreter issues.
    EXPECT_GT(program.totalInsts(), program.code.size());
    const RunResult run = model.execute(program);
    EXPECT_EQ(run.stats.instCount, program.totalInsts());

    analysis::DiagnosticReport rep;
    compiler::verifyProgram(program, rep);
    EXPECT_TRUE(rep.clean()) << rep.toText();
}

TEST(BytecodeLoops, LoopedProgramMatchesIrAcrossPrefetchWindows)
{
    const UfcModel model;
    const auto tr = workloads::pbsThroughput(tfhe::TfheParams::t4(), 64);
    for (int window : {0, 1, 4, 64}) {
        RunOptions opts;
        opts.prefetchWindow = window;
        expectEnginesAgree(model, tr, opts);
    }
}

TEST(BytecodeLoops, LoopedTimelineSlicesMatchIrBitExact)
{
    // Phase markers recorded at a fold's end index must fire once,
    // after the final trip — exactly where the unrolled IR stream puts
    // them — and every replayed body instruction emits its own slices.
    const UfcModel model;
    const auto tr = workloads::pbsThroughput(tfhe::TfheParams::t4(), 16);
    Timeline bcTl;
    RunOptions bcOpts;
    bcOpts.timeline = &bcTl;
    const RunResult bc = model.run(tr, bcOpts);

    Timeline irTl;
    RunOptions irOpts;
    irOpts.timeline = &irTl;
    irOpts.execMode = ExecMode::TraceIr;
    const RunResult ir = model.run(tr, irOpts);

    EXPECT_TRUE(sameSimulation(bc, ir));
    ASSERT_EQ(bcTl.slices().size(), irTl.slices().size());
    for (size_t i = 0; i < bcTl.slices().size(); ++i) {
        const TimelineSlice &a = bcTl.slices()[i];
        const TimelineSlice &b = irTl.slices()[i];
        EXPECT_EQ(a.track, b.track) << i;
        EXPECT_EQ(a.name, b.name) << i;
        EXPECT_EQ(a.beginCycle, b.beginCycle) << i;
        EXPECT_EQ(a.endCycle, b.endCycle) << i;
        EXPECT_EQ(a.bytes, b.bytes) << i;
    }
}

TEST(BytecodeLoops, MaxCyclesTripsIdenticallyInsideLoop)
{
    const UfcModel model;
    const auto tr = workloads::pbsThroughput(tfhe::TfheParams::t4(), 64);
    RunOptions opts;
    opts.maxCycles = 200000; // trips inside the folded blind rotate

    std::string bcWhat;
    try {
        model.run(tr, opts);
        FAIL() << "bytecode watchdog did not trip";
    } catch (const TimeoutError &e) {
        bcWhat = e.what();
    }
    std::string irWhat;
    try {
        model.run(tr, irOptions(opts));
        FAIL() << "IR watchdog did not trip";
    } catch (const TimeoutError &e) {
        irWhat = e.what();
    }
    EXPECT_EQ(bcWhat, irWhat);
}

/** Program indices in execution order: loop bodies multiplied out. */
std::vector<size_t>
executionOrder(const compiler::Program &p)
{
    const auto &loops = p.lowered->loops;
    std::vector<size_t> order;
    size_t li = 0;
    for (size_t i = 0; i < p.code.size();) {
        if (li < loops.size() && i == loops[li].end - loops[li].bodyLen) {
            for (u64 t = 0; t < loops[li].trips; ++t)
                for (size_t k = i; k < loops[li].end; ++k)
                    order.push_back(k);
            i = loops[li].end;
            ++li;
        } else {
            order.push_back(i++);
        }
    }
    return order;
}

/** what() of the TimeoutError `opts` trips on `tr` ("" if none). */
std::string
timeoutWhat(const UfcModel &model, const trace::Trace &tr,
            const RunOptions &opts)
{
    try {
        model.run(tr, opts);
    } catch (const TimeoutError &e) {
        return e.what();
    }
    return "";
}

TEST(BytecodeLoops, MaxCyclesTripsIdenticallyAtEveryBodyPosition)
{
    // The Stream kernel keeps the clock in a register, but the watchdog
    // must still trip on exactly the instruction the IR engine trips on,
    // with the same message bytes, wherever that instruction sits.
    const UfcModel model;
    const auto tr = workloads::pbsThroughput(tfhe::TfheParams::t4(), 16);
    const compiler::Program program = model.compile(tr);
    const auto &loops = program.lowered->loops;
    ASSERT_FALSE(loops.empty());
    const std::vector<size_t> order = executionOrder(program);
    ASSERT_EQ(order.size(), program.totalInsts());

    // Compute-done clock of every executed instruction (resource-track
    // slices, one per instruction, in issue order).
    Timeline tl;
    RunOptions tlOpts = irOptions();
    tlOpts.timeline = &tl;
    model.run(tr, tlOpts);
    std::vector<double> done;
    for (const TimelineSlice &s : tl.slices())
        if (s.track < Timeline::kHbmTrack)
            done.push_back(s.endCycle);
    ASSERT_EQ(done.size(), order.size());

    // Executed index of a loop's first instruction, and of a member of a
    // fused run outside every loop.
    const compiler::BcLoop &lp = loops[loops.size() / 2];
    const size_t loopStart = lp.end - lp.bodyLen;
    const size_t loopExec =
        std::find(order.begin(), order.end(), loopStart) - order.begin();
    const size_t loopLen = lp.bodyLen * lp.trips;
    size_t runExec = 0;
    for (size_t e = 0; e < order.size() && runExec == 0; ++e) {
        const compiler::BcInst &b = program.code[order[e]];
        if (b.runLen > 2 &&
            std::count(order.begin(), order.end(), order[e]) == 1)
            runExec = e + 1;
    }
    ASSERT_GT(runExec, 0u) << "no fused run outside a loop";

    std::vector<size_t> trips = {
        loopExec,                          // kernel entry
        loopExec + 1,                      // first trip
        loopExec + loopLen - lp.bodyLen,   // last trip, first position
        loopExec + loopLen - 1,            // last instruction of the loop
        loopExec + loopLen,                // first instruction after it
        runExec,                           // inside a non-loop fused run
    };
    for (u32 pos = 0; pos < lp.bodyLen; ++pos) // every body position
        trips.push_back(loopExec + lp.bodyLen + pos);

    for (const size_t e : trips) {
        SCOPED_TRACE("executed instruction " + std::to_string(e));
        ASSERT_GT(e, 0u);
        ASSERT_LT(e, done.size());
        // The smallest whole bound instruction e - 1 stays within.
        const u64 bound = static_cast<u64>(std::ceil(done[e - 1]));
        ASSERT_GT(done[e], static_cast<double>(bound));
        RunOptions opts;
        opts.maxCycles = bound;
        const std::string bc = timeoutWhat(model, tr, opts);
        EXPECT_EQ(bc, timeoutWhat(model, tr, irOptions(opts)));
        EXPECT_NE(bc.find("after " + std::to_string(e + 1) +
                          " instructions"),
                  std::string::npos)
            << bc;
    }
}

TEST(BytecodeLoops, HostDeadlinePollsAtIrCadenceInsideLoops)
{
    // An armed host deadline polls every kDeadlinePollPeriod executed
    // instructions on both engines, Stream kernel included, and
    // observing it never changes the result.
    const UfcModel model;
    const auto tr = workloads::pbsThroughput(tfhe::TfheParams::t4(), 64);
    const bool metricsWere = metrics::enabled();
    metrics::setEnabled(true);
    RunOptions armed;
    armed.hostDeadline =
        std::chrono::steady_clock::now() + std::chrono::hours(24);
    // The first armed run registers the counter (with its help text).
    const std::string unarmed = model.run(tr).toJson();
    model.run(tr, armed);
    const metrics::Counter &polls =
        metrics::counter("ufc_engine_deadline_polls_total");
    u64 before = polls.value();
    const RunResult bc = model.run(tr, armed);
    const u64 bcPolls = polls.value() - before;
    before = polls.value();
    const RunResult ir = model.run(tr, irOptions(armed));
    const u64 irPolls = polls.value() - before;
    metrics::setEnabled(metricsWere);

    EXPECT_EQ(bc.toJson(), unarmed);
    EXPECT_EQ(ir.toJson(), unarmed);
    const u64 n = bc.stats.instCount;
    EXPECT_EQ(irPolls, (n + CycleEngine::kDeadlinePollPeriod - 1) /
                           CycleEngine::kDeadlinePollPeriod);
    EXPECT_EQ(bcPolls, irPolls);

    RunOptions expired;
    expired.hostDeadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    const std::string bcWhat = timeoutWhat(model, tr, expired);
    EXPECT_NE(bcWhat.find("host deadline exceeded"), std::string::npos);
    EXPECT_EQ(bcWhat, timeoutWhat(model, tr, irOptions(expired)));
}

TEST(BytecodeLoops, VerifierFlagsMalformedLoops)
{
    const UfcModel model;
    const compiler::Program good = foldedTfheProgram(model);
    ASSERT_FALSE(good.lowered->loops.empty());

    auto firstRule = [](const compiler::Program &p) -> std::string {
        analysis::DiagnosticReport rep;
        compiler::verifyProgram(p, rep);
        return rep.errorCount() ? rep.firstError()->rule : "";
    };

    const compiler::Program degenerate = testutil::editLowering(
        good, [](compiler::LoweredProgram &lp) {
            lp.loops.front().trips = 1;
        });
    EXPECT_EQ(firstRule(degenerate), "bc-loop-invariant");

    const compiler::Program oob = testutil::editLowering(
        good, [](compiler::LoweredProgram &lp) {
            lp.loops.back().end = lp.code.size() + 7;
        });
    EXPECT_EQ(firstRule(oob), "bc-loop-invariant");

    const compiler::BcLoop lp = good.lowered->loops.front();
    const compiler::Program marked = testutil::editLowering(
        good, [&](compiler::LoweredProgram &edit) {
            edit.phaseEvents.push_back(compiler::PhaseEvent{
                lp.end - (lp.bodyLen > 1 ? 1 : 0),
                compiler::PhaseEvent::kEnd});
            std::sort(edit.phaseEvents.begin(), edit.phaseEvents.end(),
                      [](const compiler::PhaseEvent &a,
                         const compiler::PhaseEvent &b) {
                          return a.inst < b.inst;
                      });
        });
    if (lp.bodyLen > 1) {
        EXPECT_EQ(firstRule(marked), "bc-loop-invariant");
    }
}

TEST(BytecodeLoops, EngineRejectsMalformedLoopTable)
{
    // The executor trusts the loop table for control flow, so a
    // mutated Program must be screened out, not walked off the end.
    const UfcModel model;
    const compiler::Program folded = foldedTfheProgram(model);
    ASSERT_FALSE(folded.lowered->loops.empty());
    const compiler::Program program = testutil::editLowering(
        folded, [](compiler::LoweredProgram &lp) {
            lp.loops.front().end = lp.code.size() + 1;
        });
    EXPECT_THROW(model.execute(program), ConfigError);

    // The Stream kernel runs loop bodies without a kind check, so a
    // scratchpad instruction inside a body is refused up front too.
    const compiler::Program memBody = testutil::editLowering(
        folded, [](compiler::LoweredProgram &lp) {
            lp.code[lp.loops.front().end - 1].kind = compiler::BcKind::Mem;
        });
    EXPECT_NE(executeRefusal(model, memBody).find("bc-loop-invariant"),
              std::string::npos);
}

TEST(BytecodeLoops, DisassemblyShowsRepeats)
{
    const UfcModel model;
    const compiler::Program program = foldedTfheProgram(model);
    std::ostringstream os;
    compiler::disassemble(program, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("repeat "), std::string::npos);
    EXPECT_NE(text.find("executed="), std::string::npos);
}

TEST(BytecodeLoops, LintRuleRegistered)
{
    bool saw = false;
    for (const auto &rule : analysis::ruleRegistry())
        if (std::string_view(rule.id) == "bc-loop-invariant")
            saw = true;
    EXPECT_TRUE(saw);
}

TEST(BytecodeProgram, DisassemblyListsOpsAndPhases)
{
    const UfcModel model;
    const compiler::Program program =
        model.compile(workloads::ckksBootstrapping(ckks::CkksParams::c1()));
    std::ostringstream os;
    compiler::disassemble(program, os);
    const std::string text = os.str();
    EXPECT_NE(text.find(program.workload), std::string::npos);
    EXPECT_NE(text.find("key_switch"), std::string::npos);
    EXPECT_NE(text.find("fused"), std::string::npos);
}

} // namespace
} // namespace sim
} // namespace ufc
