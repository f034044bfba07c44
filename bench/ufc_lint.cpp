/**
 * @file
 * ufc-lint: pass-based static verifier for trace IR and lowered
 * instruction streams.
 *
 * Lints saved .ufctrace files and/or every built-in workload generator:
 * trace-level passes (scheme legality, limb-chain consistency, phase
 * discipline, batched-op field validity, working-set feasibility) plus —
 * unless --trace-only — a verifying lowering that checks per-instruction
 * operand invariants on the compiler's actual output.  --dataflow adds
 * the abstract-interpretation rules (level-flow and rescale-discipline
 * domains over the trace, replay-purity and scratchpad def-use/liveness
 * over the compiled bytecode); --bounds prints the static cycle/HBM
 * cost bounds per subject (see analysis/cost_bounds.h).
 *
 *   ./build/bench/ufc_lint trace.ufctrace
 *   ./build/bench/ufc_lint --builtins --Werror           # CI gate
 *   ./build/bench/ufc_lint --dataflow --builtins --Werror
 *   ./build/bench/ufc_lint --dataflow --sarif lint.sarif --builtins
 *   ./build/bench/ufc_lint --json a.ufctrace b.ufctrace
 *   ./build/bench/ufc_lint --rules                       # registry table
 *
 * Exit codes follow the repo's CLI conventions: 0 = clean, 1 = findings
 * (errors, or warnings under --Werror) or a typed error (unreadable /
 * unparseable trace file), 2 = usage.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost_bounds.h"
#include "analysis/domains.h"
#include "analysis/sarif.h"
#include "common/error.h"
#include "compiler/bytecode.h"
#include "compiler/lowering.h"
#include "sim/ufc_perf.h"
#include "trace/serialize.h"
#include "workloads/workloads.h"

using namespace ufc;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [TRACE_FILE...] [options]\n"
        "  TRACE_FILE      traces saved in the ufctrace format\n"
        "  --builtins      also lint every built-in workload generator\n"
        "  --trace-only    skip the instruction-level verifying lowering\n"
        "  --dataflow      run the abstract-interpretation rules (df-*)\n"
        "  --bounds        print static cycle/HBM cost bounds per subject\n"
        "  --sarif PATH    write all findings as one SARIF 2.1.0 log\n"
        "  --Werror        treat warnings as findings (exit 1)\n"
        "  --json          machine-readable report per subject\n"
        "  --quiet         suppress per-subject ok lines\n"
        "  --rules         print the rule registry and exit\n",
        argv0);
}

void
printRules()
{
    std::printf("%-26s %-8s %s\n", "rule", "severity", "description");
    for (const auto &rule : analysis::ruleRegistry())
        std::printf("%-26s %-8s %s\n", rule.id,
                    analysis::severityName(rule.severity),
                    rule.description);
}

struct Subject
{
    std::string label;
    trace::Trace tr;
};

} // namespace

int
main(int argc, char **argv)
try {
    std::vector<std::string> files;
    std::string sarifPath;
    bool builtins = false;
    bool traceOnly = false;
    bool dataflow = false;
    bool bounds = false;
    bool wError = false;
    bool asJson = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--builtins")
            builtins = true;
        else if (arg == "--trace-only")
            traceOnly = true;
        else if (arg == "--dataflow")
            dataflow = true;
        else if (arg == "--bounds")
            bounds = true;
        else if (arg == "--sarif") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--sarif needs a PATH\n");
                usage(argv[0]);
                return 2;
            }
            sarifPath = argv[++i];
        } else if (arg == "--Werror")
            wError = true;
        else if (arg == "--json")
            asJson = true;
        else if (arg == "--quiet")
            quiet = true;
        else if (arg == "--rules") {
            printRules();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] != '-') {
            files.push_back(arg);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (files.empty() && !builtins) {
        std::fprintf(stderr,
                     "give at least one TRACE_FILE or --builtins\n");
        usage(argv[0]);
        return 2;
    }
    if (bounds && traceOnly) {
        std::fprintf(stderr,
                     "--bounds needs the lowering (drop --trace-only)\n");
        usage(argv[0]);
        return 2;
    }

    std::vector<Subject> subjects;
    for (const auto &path : files)
        subjects.push_back(Subject{path, trace::loadTrace(path)});
    if (builtins) {
        const auto cp = ckks::CkksParams::c2();
        const auto tp = tfhe::TfheParams::t3();
        for (auto &tr : workloads::ckksSuite(cp))
            subjects.push_back(
                Subject{"builtin:" + tr.name, std::move(tr)});
        for (auto &tr : workloads::tfheSuite(tp))
            subjects.push_back(
                Subject{"builtin:" + tr.name, std::move(tr)});
        auto knn = workloads::hybridKnn(cp, tp);
        subjects.push_back(
            Subject{"builtin:" + knn.name, std::move(knn)});
    }

    const analysis::Analyzer linter;
    const compiler::LoweringOptions lowerOpts; // machine-default knobs
    std::vector<analysis::SarifSubject> sarifLog;
    std::size_t errors = 0;
    std::size_t warnings = 0;
    for (const auto &subject : subjects) {
        analysis::DiagnosticReport rep;
        if (traceOnly) {
            rep = dataflow ? linter.analyzeDataflow(subject.tr)
                           : linter.analyze(subject.tr);
        } else if (!dataflow && !bounds) {
            rep = linter.analyzeLowered(subject.tr, lowerOpts);
        } else {
            // The dataflow/bounds paths need the compiled Program in
            // hand, so run the verifying lowering here instead of
            // inside analyzeLowered() and reuse the bytecode for the
            // program-level rules and the cost bounds.
            rep = dataflow ? linter.analyzeDataflow(subject.tr)
                           : linter.analyze(subject.tr);
            if (rep.errorCount() == 0) {
                analysis::DiagnosticReport lowered;
                const compiler::Program program = compiler::bind(
                    std::make_shared<const compiler::LoweredProgram>(
                        compiler::lowerTrace(subject.tr, lowerOpts,
                                             &lowered)),
                    sim::UfcPerf{sim::UfcConfig::tableII()}, "UFC");
                compiler::verifyProgram(program, lowered);
                rep.merge(lowered);
                if (dataflow && rep.errorCount() == 0)
                    analysis::runProgramDataflow(program, rep);
                if (bounds) {
                    const analysis::CostBounds cb =
                        analysis::analyzeCostBounds(program);
                    std::printf(
                        "%s: cycles [%.0f, %.0f] ratio %.3f | "
                        "hbm [%.0f, %.0f] B ratio %.3f | "
                        "peak spad %.0f B%s\n",
                        subject.label.c_str(), cb.cyclesLower,
                        cb.cyclesUpper, cb.cyclesRatio(), cb.hbmLower,
                        cb.hbmUpper, cb.hbmRatio(), cb.peakLiveSlotBytes,
                        cb.fits ? "" : " (exceeds scratchpad)");
                }
            }
        }
        errors += rep.errorCount();
        warnings += rep.warningCount();
        if (!sarifPath.empty())
            sarifLog.push_back(
                analysis::SarifSubject{subject.label, rep});
        if (asJson) {
            std::printf("%s\n", rep.toJson(subject.label).c_str());
        } else if (!rep.empty()) {
            std::printf("%s:\n", subject.label.c_str());
            for (const auto &d : rep.diagnostics())
                std::printf("  %s\n", d.format().c_str());
        } else if (!quiet && !bounds) {
            std::printf("%s: ok\n", subject.label.c_str());
        }
    }

    if (!sarifPath.empty()) {
        std::ofstream os(sarifPath, std::ios::binary);
        UFC_EXPECT(os.good(), ConfigError,
                   "--sarif: cannot open '" << sarifPath
                                            << "' for writing");
        os << analysis::toSarif(sarifLog);
        UFC_EXPECT(os.good(), ConfigError,
                   "--sarif: write to '" << sarifPath << "' failed");
    }

    if (!quiet && !asJson)
        std::printf("%zu subject(s), %zu error(s), %zu warning(s)\n",
                    subjects.size(), errors, warnings);
    return (errors > 0 || (wError && warnings > 0)) ? 1 : 0;
} catch (const ufc::Error &e) {
    std::fprintf(stderr, "error: %s: %s\n", e.kind().c_str(), e.what());
    return 1;
}
