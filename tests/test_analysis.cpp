/**
 * @file
 * Tests for the pass-based static verifier (ufc-lint): per-pass positive
 * and negative cases, the instruction-stream VerifyingSink, the committed
 * lint fixture corpus (one file per file-expressible rule id), the
 * builtin-workloads-lint-clean guarantee, and the experiment runner's
 * opt-in pre-flight (RunOptions::lintTraces).
 */

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/verifying_sink.h"
#include "common/error.h"
#include "compiler/lowering.h"
#include "runner/runner.h"
#include "same_simulation.h"
#include "sim/accelerator.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

namespace ufc {
namespace {

using analysis::Analyzer;
using analysis::Diagnostic;
using analysis::DiagnosticReport;
using analysis::Severity;
using analysis::VerifyingSink;
using trace::OpKind;
using trace::Trace;

/** Shared analyzer: passes are stateless/const, so one instance serves
 *  every test (and documents that sharing is safe). */
const Analyzer &
linter()
{
    static const Analyzer a;
    return a;
}

/** A minimal semantically valid CKKS+TFHE trace to corrupt per test. */
Trace
validTrace()
{
    Trace tr;
    tr.name = "lint_unit";
    workloads::setCkksParams(tr, ckks::CkksParams::c2());
    workloads::setTfheParams(tr, tfhe::TfheParams::t3());
    tr.beginPhase("body");
    tr.push(OpKind::CkksMult, 8);
    tr.push(OpKind::CkksRescale, 8);
    tr.push(OpKind::CkksRotate, 7, 1, 0, 3);
    tr.push(OpKind::TfheLinear, 0, 1, 4);
    tr.push(OpKind::TfhePbs, 0, 2);
    tr.endPhase();
    return tr;
}

/** All rule ids present in a report. */
std::set<std::string>
rulesIn(const DiagnosticReport &rep)
{
    std::set<std::string> out;
    for (const auto &d : rep.diagnostics())
        out.insert(d.rule);
    return out;
}

TEST(Analysis, RuleRegistryHasUniqueIdsAndSeverities)
{
    std::set<std::string> seen;
    for (const auto &rule : analysis::ruleRegistry()) {
        EXPECT_TRUE(seen.insert(rule.id).second)
            << "duplicate rule id " << rule.id;
        EXPECT_EQ(analysis::ruleSeverity(rule.id), rule.severity);
        EXPECT_NE(rule.description, nullptr);
    }
    // Unknown ids default to Error (fail safe).
    EXPECT_EQ(analysis::ruleSeverity("no-such-rule"), Severity::Error);
}

TEST(Analysis, ValidTraceIsClean)
{
    const auto rep = linter().analyze(validTrace());
    EXPECT_TRUE(rep.empty()) << rep.toText();
}

TEST(Analysis, CountRangeFlagsNonPositiveCount)
{
    Trace tr = validTrace();
    tr.ops[0].count = 0;
    const auto rep = linter().analyze(tr);
    EXPECT_TRUE(rulesIn(rep).count("count-range")) << rep.toText();
    EXPECT_EQ(rep.diagnostics()[0].opIndex, 0);
}

TEST(Analysis, FanInMisuseAndMissing)
{
    Trace tr = validTrace();
    tr.ops[0].fanIn = 2;  // ckks.mult ignores fanIn
    tr.ops[3].fanIn = 0;  // tfhe.linear wants one
    const auto rep = linter().analyze(tr);
    const auto rules = rulesIn(rep);
    EXPECT_TRUE(rules.count("fanin-misuse")) << rep.toText();
    EXPECT_TRUE(rules.count("fanin-missing")) << rep.toText();
    EXPECT_EQ(analysis::ruleSeverity("fanin-missing"),
              Severity::Warning);
}

TEST(Analysis, LiveUnderflowOnlyWhenTraceHasOps)
{
    Trace tr = validTrace();
    tr.liveCiphertexts = 0;
    EXPECT_TRUE(rulesIn(linter().analyze(tr)).count("live-underflow"));

    Trace empty;
    empty.liveCiphertexts = 0;
    EXPECT_TRUE(linter().analyze(empty).empty());
}

TEST(Analysis, SchemeLegalityNeedsDeclaredParams)
{
    Trace noCkks = validTrace();
    noCkks.ckksRingDim = 0;
    EXPECT_TRUE(
        rulesIn(linter().analyze(noCkks)).count("scheme-ckks-params"));

    Trace noTfhe = validTrace();
    noTfhe.tfheRingDim = 0;
    EXPECT_TRUE(
        rulesIn(linter().analyze(noTfhe)).count("scheme-tfhe-params"));

    // Declared but unusable header fields are also scheme errors, even
    // before any op is looked at (the lowering derives geometry from
    // them).
    Trace badDnum = validTrace();
    badDnum.ckksDnum = 0;
    EXPECT_TRUE(
        rulesIn(linter().analyze(badDnum)).count("scheme-ckks-params"));

    Trace badGadget = validTrace();
    badGadget.tfheGadgetLevels = 0;
    EXPECT_TRUE(
        rulesIn(linter().analyze(badGadget)).count("scheme-tfhe-params"));
}

TEST(Analysis, SchemeRingPow2)
{
    Trace tr = validTrace();
    tr.ckksRingDim = 65537;
    EXPECT_TRUE(rulesIn(linter().analyze(tr)).count("scheme-ring-pow2"));
}

TEST(Analysis, LimbChainBoundsAndStructure)
{
    Trace over = validTrace();
    over.ops[0].limbs = over.ckksLevels + 1;
    EXPECT_TRUE(rulesIn(linter().analyze(over)).count("limb-range"));

    Trace under = validTrace();
    under.ops[0].limbs = 0;
    EXPECT_TRUE(rulesIn(linter().analyze(under)).count("limb-range"));

    Trace rescale = validTrace();
    rescale.ops[1].limbs = 1; // rescale at 1 limb would leave 0
    EXPECT_TRUE(
        rulesIn(linter().analyze(rescale)).count("rescale-underflow"));

    Trace raise = validTrace();
    raise.push(OpKind::CkksModRaise, 5);
    EXPECT_TRUE(
        rulesIn(linter().analyze(raise)).count("modraise-target"));
    raise.ops.back().limbs = raise.ckksLevels;
    EXPECT_TRUE(linter().analyze(raise).empty())
        << linter().analyze(raise).toText();
}

TEST(Analysis, PhaseDiscipline)
{
    // endPhase() itself now refuses unbalanced closes, so corrupt marker
    // streams are built by appending to the public vector — exactly what
    // a buggy external producer would do.
    Trace unbalanced = validTrace();
    unbalanced.phases.push_back(
        trace::PhaseMark{unbalanced.ops.size(), "", false});
    EXPECT_TRUE(
        rulesIn(linter().analyze(unbalanced)).count("phase-balance"));

    Trace open = validTrace();
    open.beginPhase("never_closed");
    EXPECT_TRUE(rulesIn(linter().analyze(open)).count("phase-balance"));

    Trace reorder = validTrace();
    reorder.phases.push_back(trace::PhaseMark{2, "late", true});
    reorder.phases.push_back(trace::PhaseMark{2, "", false});
    // Marks at opIndex 2 after the body close at opIndex 5.
    EXPECT_TRUE(
        rulesIn(linter().analyze(reorder)).count("phase-order"));

    Trace past = validTrace();
    past.phases.insert(past.phases.begin() + 1,
                       trace::PhaseMark{99, "beyond", true});
    past.phases.insert(past.phases.begin() + 2,
                       trace::PhaseMark{99, "", false});
    EXPECT_TRUE(rulesIn(linter().analyze(past)).count("phase-index"));

    Trace unnamed = validTrace();
    unnamed.beginPhase("");
    unnamed.endPhase();
    EXPECT_TRUE(
        rulesIn(linter().analyze(unnamed)).count("phase-name"));
}

TEST(Analysis, TraceEndPhaseThrowsOnUnbalancedClose)
{
    Trace tr;
    tr.name = "unbalanced";
    EXPECT_THROW(tr.endPhase(), TraceError);

    tr.beginPhase("a");
    EXPECT_NO_THROW(tr.endPhase());
    EXPECT_THROW(tr.endPhase(), TraceError);
}

TEST(Analysis, WorkingSetWarnsOnKeyIdExplosion)
{
    Trace tr = validTrace();
    tr.liveCiphertexts = 1;
    for (int k = 0; k < 70; ++k)
        tr.push(OpKind::CkksRotate, 8, 1, 0, 100 + k);
    const auto rep = linter().analyze(tr);
    ASSERT_TRUE(rulesIn(rep).count("working-set")) << rep.toText();
    EXPECT_EQ(rep.errorCount(), 0u);
    EXPECT_FALSE(rep.clean(Severity::Warning));
    EXPECT_TRUE(rep.clean(Severity::Error));

    // The sorting workload's ~105 distinct rotation keys against 12
    // live ciphertexts must stay under the feasibility threshold.
    const auto sorting = workloads::sorting(ckks::CkksParams::c2());
    EXPECT_TRUE(linter().analyze(sorting).empty());
}

TEST(Analysis, PhaseAtReportsInnermostOpenRegion)
{
    Trace tr;
    tr.name = "phases";
    tr.beginPhase("outer");
    tr.push(OpKind::TfheModSwitch, 0);
    tr.beginPhase("inner");
    tr.push(OpKind::TfheModSwitch, 0);
    tr.endPhase();
    tr.push(OpKind::TfheModSwitch, 0);
    tr.endPhase();
    EXPECT_EQ(analysis::phaseAt(tr, 0), "outer");
    EXPECT_EQ(analysis::phaseAt(tr, 1), "inner");
    EXPECT_EQ(analysis::phaseAt(tr, 2), "outer");
    EXPECT_EQ(analysis::phaseAt(tr, Diagnostic::kTraceLevel), "");
}

// ---------------------------------------------------------------------
// Instruction-stream verifier.

isa::HwInst
makeNtt(u32 logDegree, u32 batch, u64 words)
{
    isa::HwInst inst;
    inst.op = isa::HwOp::Ntt;
    inst.logDegree = logDegree;
    inst.batch = batch;
    inst.words = words;
    inst.work = words * logDegree / 2;
    return inst;
}

/** Counts forwarded instructions (decorator transparency check). */
class CountingSink : public isa::InstSink
{
  public:
    void issue(const isa::HwInst &) override { ++issued; }
    void beginPhase(const char *) override { ++begins; }
    void endPhase() override { ++ends; }
    int issued = 0, begins = 0, ends = 0;
};

TEST(AnalysisSink, CleanStreamProducesNoDiagnostics)
{
    DiagnosticReport rep;
    CountingSink inner;
    VerifyingSink sink(&inner, &rep);
    sink.beginPhase("p");
    sink.issue(makeNtt(16, 1, 1 << 16));
    sink.endPhase();
    sink.finish();
    EXPECT_TRUE(rep.empty()) << rep.toText();
    EXPECT_EQ(inner.issued, 1);
    EXPECT_EQ(inner.begins, 1);
    EXPECT_EQ(inner.ends, 1);
    EXPECT_EQ(sink.instCount(), 1u);
}

TEST(AnalysisSink, NttWorkInvariant)
{
    DiagnosticReport rep;
    VerifyingSink sink(nullptr, &rep);
    auto bad = makeNtt(16, 1, 1 << 16);
    bad.work += 1;
    sink.issue(bad);
    sink.finish();
    ASSERT_EQ(rep.size(), 1u) << rep.toText();
    EXPECT_EQ(rep.diagnostics()[0].rule, "inst-ntt-work");
    EXPECT_EQ(rep.diagnostics()[0].opIndex, 0);
}

TEST(AnalysisSink, BatchDegreeAndOperandRules)
{
    DiagnosticReport rep;
    VerifyingSink sink(nullptr, &rep);
    isa::HwInst inst;
    inst.op = isa::HwOp::Ewma;
    inst.batch = 0;      // inst-batch
    inst.logDegree = 40; // inst-degree
    inst.words = 0;      // inst-no-operands (no buffers either)
    sink.issue(inst);
    sink.finish();
    const auto rules = rulesIn(rep);
    EXPECT_TRUE(rules.count("inst-batch")) << rep.toText();
    EXPECT_TRUE(rules.count("inst-degree")) << rep.toText();
    EXPECT_TRUE(rules.count("inst-no-operands")) << rep.toText();
}

TEST(AnalysisSink, TransientBufferDataflow)
{
    DiagnosticReport rep;
    VerifyingSink sink(nullptr, &rep);

    isa::BufferRef both;
    both.id = 1;
    both.bytes = 64;
    both.transient = true;
    both.streaming = true; // buf-transient-streaming

    isa::BufferRef readFirst;
    readFirst.id = 2;
    readFirst.bytes = 64;
    readFirst.transient = true;
    readFirst.write = false; // buf-use-before-def

    isa::BufferRef writeOnly;
    writeOnly.id = 3;
    writeOnly.bytes = 64;
    writeOnly.transient = true;
    writeOnly.write = true; // buf-unconsumed-transient at finish()

    isa::HwInst inst;
    inst.op = isa::HwOp::Ewma;
    inst.batch = 1;
    inst.words = 16;
    inst.buffers = {both, readFirst, writeOnly};
    sink.issue(inst);
    sink.finish();
    const auto rules = rulesIn(rep);
    EXPECT_TRUE(rules.count("buf-transient-streaming")) << rep.toText();
    EXPECT_TRUE(rules.count("buf-use-before-def")) << rep.toText();
    EXPECT_TRUE(rules.count("buf-unconsumed-transient")) << rep.toText();

    // Write-then-read is the legal transient lifecycle.
    DiagnosticReport ok;
    VerifyingSink sink2(nullptr, &ok);
    isa::HwInst producer;
    producer.op = isa::HwOp::Ewma;
    producer.batch = 1;
    producer.words = 16;
    isa::BufferRef w = writeOnly;
    producer.buffers = {w};
    sink2.issue(producer);
    isa::HwInst consumer = producer;
    consumer.buffers[0].write = false;
    sink2.issue(consumer);
    sink2.finish();
    EXPECT_TRUE(ok.empty()) << ok.toText();
}

TEST(AnalysisSink, PhaseBalanceInInstructionStream)
{
    DiagnosticReport rep;
    VerifyingSink sink(nullptr, &rep);
    sink.endPhase(); // nothing open
    sink.beginPhase("left_open");
    sink.finish();
    sink.finish(); // idempotent
    ASSERT_EQ(rep.size(), 2u) << rep.toText();
    EXPECT_EQ(rep.diagnostics()[0].rule, "inst-phase-balance");
    EXPECT_EQ(rep.diagnostics()[1].rule, "inst-phase-balance");
}

// ---------------------------------------------------------------------
// Whole-pipeline guarantees.

std::vector<Trace>
builtinCorpus()
{
    const auto cp = ckks::CkksParams::c2();
    const auto tp = tfhe::TfheParams::t3();
    auto all = workloads::ckksSuite(cp);
    for (auto &tr : workloads::tfheSuite(tp))
        all.push_back(std::move(tr));
    all.push_back(workloads::hybridKnn(cp, tp));
    return all;
}

TEST(AnalysisPipeline, BuiltinWorkloadsLintCleanThroughLowering)
{
    const compiler::LoweringOptions opts;
    for (const auto &tr : builtinCorpus()) {
        const auto rep = linter().analyzeLowered(tr, opts);
        EXPECT_TRUE(rep.empty())
            << tr.name << " produced:\n" << rep.toText();
    }
}

TEST(AnalysisPipeline, LoweringWithLintIsTransparent)
{
    const auto tr = workloads::ckksBootstrapping(ckks::CkksParams::c2());

    CountingSink plain;
    compiler::LoweringOptions opts;
    compiler::Lowering(&tr, opts, &plain).run();

    CountingSink verified;
    DiagnosticReport rep;
    opts.lint = &rep;
    compiler::Lowering lowering(&tr, opts, &verified);
    lowering.run();

    // The verifier decorates; it must not add, drop, or reorder work.
    EXPECT_EQ(plain.issued, verified.issued);
    EXPECT_EQ(plain.begins, verified.begins);
    EXPECT_EQ(plain.ends, verified.ends);
    EXPECT_TRUE(rep.empty()) << rep.toText();
}

TEST(AnalysisPipeline, AnalyzeLoweredSkipsLoweringOnTraceErrors)
{
    Trace tr = validTrace();
    tr.ckksRingDim = 65537; // would make countr_zero-derived logN junk
    const auto rep =
        linter().analyzeLowered(tr, compiler::LoweringOptions{});
    EXPECT_GT(rep.errorCount(), 0u);
    for (const auto &d : rep.diagnostics())
        EXPECT_TRUE(d.rule.rfind("inst-", 0) != 0 &&
                    d.rule.rfind("buf-", 0) != 0)
            << "instruction-level rule " << d.rule
            << " emitted for a trace with header errors";
}

// ---------------------------------------------------------------------
// Committed fixture corpus: one file per file-expressible rule id; the
// filename stem is the rule the analyzer must report.

TEST(AnalysisFixtures, EachFixtureFiresExactlyItsRule)
{
    const std::vector<std::string> ruleFixtures = {
        "scheme-ckks-params", "scheme-tfhe-params", "scheme-ring-pow2",
        "limb-range",         "rescale-underflow",  "modraise-target",
        "fanin-misuse",       "fanin-missing",      "live-underflow",
        "working-set",
    };
    for (const auto &rule : ruleFixtures) {
        const std::string path =
            std::string(UFC_FIXTURE_DIR) + "/lint/" + rule + ".ufctrace";
        const Trace tr = trace::loadTrace(path);
        const auto rep = linter().analyze(tr);
        ASSERT_FALSE(rep.empty()) << path << " linted clean";
        for (const auto &d : rep.diagnostics()) {
            EXPECT_EQ(d.rule, rule) << path << ":\n" << rep.toText();
            EXPECT_EQ(d.severity, analysis::ruleSeverity(d.rule.c_str()));
        }
    }
}

// ---------------------------------------------------------------------
// Runner pre-flight (RunOptions::lintTraces).

TEST(AnalysisRunner, LintPreflightIsolatesCorruptTraceBitExactly)
{
    const auto cp = ckks::CkksParams::c2();
    const auto helr =
        std::make_shared<trace::Trace>(workloads::helr(cp, 2));
    const auto boot =
        std::make_shared<trace::Trace>(workloads::ckksBootstrapping(cp));
    // Seeded semantic corruption: parse-clean but chain-illegal.
    auto corruptTrace = workloads::ckksBootstrapping(cp);
    corruptTrace.name = "corrupt";
    corruptTrace.ops[0].limbs = 999;
    const auto corrupt =
        std::make_shared<trace::Trace>(std::move(corruptTrace));

    const auto model = std::make_shared<sim::UfcModel>();
    auto makeJobs = [&](bool lint) {
        sim::RunOptions opts;
        opts.lintTraces = lint;
        std::vector<runner::Job> jobs;
        jobs.push_back(runner::Job{"helr", model, helr, opts, ""});
        jobs.push_back(runner::Job{"corrupt", model, corrupt, opts, ""});
        jobs.push_back(runner::Job{"boot", model, boot, opts, ""});
        return jobs;
    };

    runner::RunnerConfig cfg;
    cfg.threads = 3;
    const runner::ExperimentRunner exec(cfg);

    // Without lint every job "succeeds" — the corrupt trace silently
    // mis-simulates, which is exactly the failure mode the pre-flight
    // exists to catch.
    const auto unlinted = exec.runAll(makeJobs(false));
    ASSERT_TRUE(unlinted.allOk());

    const auto linted = exec.runAll(makeJobs(true));
    ASSERT_EQ(linted.outcomes.size(), 3u);
    EXPECT_TRUE(linted.outcomes[0].ok());
    EXPECT_TRUE(linted.outcomes[2].ok());
    EXPECT_FALSE(linted.outcomes[1].ok());
    EXPECT_EQ(linted.outcomes[1].status, runner::JobStatus::Failed);
    EXPECT_EQ(linted.outcomes[1].errorKind, "TraceError");
    EXPECT_NE(linted.outcomes[1].message.find("limb-range"),
              std::string::npos)
        << linted.outcomes[1].message;

    // The healthy jobs' simulated results are bit-exact with and
    // without the pre-flight: linting observes, never perturbs.
    for (const std::size_t i : {std::size_t(0), std::size_t(2)})
        EXPECT_TRUE(testutil::sameSimulation(linted.results[i],
                                             unlinted.results[i]))
            << i;

    // A fully clean batch passes the pre-flight untouched.
    auto cleanJobs = makeJobs(true);
    cleanJobs.erase(cleanJobs.begin() + 1);
    EXPECT_TRUE(exec.runAll(cleanJobs).allOk());
}

} // namespace
} // namespace ufc
