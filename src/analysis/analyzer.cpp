/**
 * @file
 * Trace-level analysis passes and the pass pipeline.
 *
 * Soundness note: the trace IR is ciphertext-granular with no SSA names,
 * so several independent limb chains interleave freely in one op stream
 * (e.g. the per-batch distance chains of hybrid k-NN).  The limb-chain
 * pass therefore checks the invariants that hold for *every* legal
 * interleaving — limbs stay inside [1, L], a rescale needs >= 2 limbs so
 * its decrement-by-one cannot drop below 1, a mod-raise resets exactly to
 * L — rather than simulating one global chain, which would false-positive
 * on parallel chains.
 */

#include "analysis/analyzer.h"

#include <algorithm>
#include <bit>
#include <set>
#include <sstream>

#include "analysis/domains.h"
#include "analysis/verifying_sink.h"
#include "compiler/bytecode.h"
#include "compiler/lowering.h"
#include "sim/ufc_perf.h"
#include "trace/serialize.h"

namespace ufc {
namespace analysis {

using trace::OpKind;
using trace::Scheme;
using trace::Trace;
using trace::TraceOp;

const std::vector<RuleInfo> &
ruleRegistry()
{
    static const std::vector<RuleInfo> kRules = {
        // Trace-level rules (analyzer passes).
        {"count-range", Severity::Error,
         "batched op with count < 1"},
        {"fanin-misuse", Severity::Error,
         "fanIn set on an op kind that ignores it (only tfhe.linear "
         "consumes fanIn)"},
        {"fanin-missing", Severity::Warning,
         "tfhe.linear without a fanIn (lowering assumes 1 input)"},
        {"live-underflow", Severity::Error,
         "liveCiphertexts < 1 on a trace with ops (the scratchpad "
         "working-set model needs a live set)"},
        {"scheme-ckks-params", Severity::Error,
         "SIMD-scheme (CKKS/switch) ops or header without usable CKKS "
         "parameters (ring dim, levels, dnum, limb bits)"},
        {"scheme-tfhe-params", Severity::Error,
         "logic-scheme (TFHE/switch) ops or header without usable TFHE "
         "parameters (ring dim, LWE dim, decomposition levels)"},
        {"scheme-ring-pow2", Severity::Error,
         "declared ring dimension is not a power of two"},
        {"limb-range", Severity::Error,
         "CKKS op outside the modulus chain: limbs < 1 or > levels"},
        {"rescale-underflow", Severity::Error,
         "rescale at < 2 limbs would drop the chain below 1"},
        {"modraise-target", Severity::Error,
         "mod-raise must reset the chain to exactly L limbs"},
        {"phase-balance", Severity::Error,
         "phase end without an open region, or region left open"},
        {"phase-order", Severity::Error,
         "phase markers not ordered by opIndex"},
        {"phase-index", Severity::Error,
         "phase marker past the end of the op stream"},
        {"phase-name", Severity::Error,
         "phase begin without a single-token name"},
        {"working-set", Severity::Warning,
         "distinct evaluation-key ids far exceed the declared live set "
         "(scratchpad working-set model will thrash)"},
        // Instruction-level rules (VerifyingSink).
        {"inst-ntt-work", Severity::Error,
         "(i)NTT work units != batch * (n/2) * log2 n operand words"},
        {"inst-no-operands", Severity::Error,
         "instruction moves no words and touches no buffer"},
        {"inst-batch", Severity::Error, "instruction batch < 1"},
        {"inst-degree", Severity::Error,
         "instruction logDegree above the supported ring range"},
        {"buf-transient-streaming", Severity::Error,
         "buffer marked both transient and streaming"},
        {"buf-use-before-def", Severity::Error,
         "transient buffer read before any write"},
        {"buf-unconsumed-transient", Severity::Warning,
         "transient buffer written but never read"},
        {"inst-phase-balance", Severity::Error,
         "unbalanced phase markers in the instruction stream"},
        // Bytecode-level rules (compiler::verifyProgram, run over the
        // Program that the same one-pass lowering emits).
        {"bc-fuse-cached-operand", Severity::Error,
         "fused run contains a Mem instruction (cached operands mutate "
         "scratchpad state and may not be fused)"},
        {"bc-fuse-phase-span", Severity::Error,
         "fused run overruns the instruction stream or spans a phase "
         "marker / loop edge"},
        {"bc-loop-invariant", Severity::Error,
         "folded repeat loop is degenerate, out of bounds, overlapping, "
         "scratchpad-dependent, or contains a phase marker"},
        // Dataflow rules (opt-in: analyzeDataflow / ufc_lint --dataflow).
        {"df-chain-underflow", Severity::Error,
         "op at a modulus-chain level no rescale/mod-raise/repack path "
         "can reach from fresh ciphertexts"},
        {"df-double-rescale", Severity::Warning,
         "rescale with no outstanding product at its level "
         "(linear-consumption heuristic)"},
        {"df-missed-rescale", Severity::Warning,
         "multiplication short of rescaled operands while unrescaled "
         "products wait at its level (linear-consumption heuristic)"},
        {"df-scale-mismatch", Severity::Warning,
         "ciphertext add at a level whose rescaled-value and product "
         "supplies are both exhausted (linear-consumption heuristic)"},
        {"df-fuse-memdep", Severity::Error,
         "fused run carries a scratchpad operand record (re-proved from "
         "BcBuf records, independent of the fusion pass's kind tags)"},
        {"df-loop-memdep", Severity::Error,
         "folded loop body carries a scratchpad operand record "
         "(re-proved from BcBuf records)"},
        {"df-slot-use-before-def", Severity::Warning,
         "scratchpad slot read before the program first writes it "
         "(consumer scheduled before its producer)"},
        {"df-slot-dead-store", Severity::Warning,
         "scratchpad slot written and then overwritten with no "
         "intervening read"},
        {"df-spad-overcommit", Severity::Warning,
         "one instruction's distinct-slot operand bytes exceed the "
         "scratchpad (its operands cannot co-reside)"},
    };
    return kRules;
}

Severity
ruleSeverity(const char *id)
{
    for (const auto &rule : ruleRegistry())
        if (std::string_view(rule.id) == id)
            return rule.severity;
    return Severity::Error;
}

std::string
phaseAt(const Trace &tr, std::ptrdiff_t opIndex)
{
    if (opIndex < 0)
        return {};
    std::vector<const std::string *> stack;
    for (const auto &mark : tr.phases) {
        if (mark.opIndex > static_cast<u64>(opIndex))
            break;
        if (mark.begin)
            stack.push_back(&mark.name);
        else if (!stack.empty())
            stack.pop_back();
    }
    return stack.empty() ? std::string() : *stack.back();
}

namespace {

/** Diagnostic builder shared by the passes. */
void
report(DiagnosticReport &out, const Trace &tr, const char *rule,
       std::ptrdiff_t opIndex, std::string message, std::string hint)
{
    Diagnostic d;
    d.severity = ruleSeverity(rule);
    d.rule = rule;
    d.message = std::move(message);
    d.hint = std::move(hint);
    d.opIndex = opIndex;
    d.phase = phaseAt(tr, opIndex);
    out.add(std::move(d));
}

/** Batched-op field validity: count, fanIn usage, live-set sanity. */
class FieldValidityPass : public Pass
{
  public:
    const char *name() const override { return "field-validity"; }

    void
    run(const Trace &tr, DiagnosticReport &out) const override
    {
        if (!tr.ops.empty() && tr.liveCiphertexts < 1) {
            std::ostringstream os;
            os << "trace declares liveCiphertexts = "
               << tr.liveCiphertexts;
            report(out, tr, "live-underflow", Diagnostic::kTraceLevel,
                   os.str(), "declare at least one live ciphertext");
        }
        for (std::size_t i = 0; i < tr.ops.size(); ++i) {
            const TraceOp &op = tr.ops[i];
            const auto idx = static_cast<std::ptrdiff_t>(i);
            const char *mnemonic = trace::opKindName(op.kind);
            if (op.count < 1) {
                std::ostringstream os;
                os << mnemonic << " has count " << op.count;
                report(out, tr, "count-range", idx, os.str(),
                       "batched ops repeat count >= 1 times");
            }
            if (op.kind == OpKind::TfheLinear) {
                if (op.fanIn == 0)
                    report(out, tr, "fanin-missing", idx,
                           std::string(mnemonic) +
                               " without a fanIn (lowering assumes 1)",
                           "set the number of LWE inputs explicitly");
            } else if (op.fanIn != 0) {
                std::ostringstream os;
                os << mnemonic << " carries fanIn " << op.fanIn
                   << " but only tfhe.linear consumes fanIn";
                report(out, tr, "fanin-misuse", idx, os.str(),
                       "drop the fanIn field from this op");
            }
        }
    }
};

/** Scheme legality: every op's scheme must have usable parameters. */
class SchemeLegalityPass : public Pass
{
  public:
    const char *name() const override { return "scheme-legality"; }

    void
    run(const Trace &tr, DiagnosticReport &out) const override
    {
        // Header self-consistency: a declared ring must be usable even
        // before looking at the ops, because every compiler derives its
        // geometry (log n, words/limb, dnum digits) from the header.
        if (tr.ckksRingDim != 0 &&
            !std::has_single_bit(tr.ckksRingDim)) {
            std::ostringstream os;
            os << "ckks ring dimension " << tr.ckksRingDim
               << " is not a power of two";
            report(out, tr, "scheme-ring-pow2", Diagnostic::kTraceLevel,
                   os.str(), "NTT lowering needs log2(ring dim)");
        }
        if (tr.tfheRingDim != 0 &&
            !std::has_single_bit(tr.tfheRingDim)) {
            std::ostringstream os;
            os << "tfhe ring dimension " << tr.tfheRingDim
               << " is not a power of two";
            report(out, tr, "scheme-ring-pow2", Diagnostic::kTraceLevel,
                   os.str(), "NTT lowering needs log2(ring dim)");
        }
        if (tr.ckksRingDim != 0 &&
            (tr.ckksLevels < 1 || tr.ckksDnum < 1 ||
             tr.ckksLimbBits < 1)) {
            std::ostringstream os;
            os << "ckks header declares ring dim " << tr.ckksRingDim
               << " but levels=" << tr.ckksLevels << " dnum="
               << tr.ckksDnum << " limbBits=" << tr.ckksLimbBits;
            report(out, tr, "scheme-ckks-params",
                   Diagnostic::kTraceLevel, os.str(),
                   "a usable CKKS header needs levels, dnum and "
                   "limbBits >= 1");
        }
        if (tr.tfheRingDim != 0 &&
            (tr.tfheLweDim < 1 || tr.tfheLimbBits < 1)) {
            std::ostringstream os;
            os << "tfhe header declares ring dim " << tr.tfheRingDim
               << " but lweDim=" << tr.tfheLweDim << " limbBits="
               << tr.tfheLimbBits;
            report(out, tr, "scheme-tfhe-params",
                   Diagnostic::kTraceLevel, os.str(),
                   "a usable TFHE header needs lweDim and limbBits "
                   ">= 1");
        }

        for (std::size_t i = 0; i < tr.ops.size(); ++i) {
            const TraceOp &op = tr.ops[i];
            const auto idx = static_cast<std::ptrdiff_t>(i);
            const char *mnemonic = trace::opKindName(op.kind);
            const Scheme scheme = op.scheme();
            const bool needsCkks =
                scheme == Scheme::Ckks || scheme == Scheme::Switch;
            const bool needsTfhe =
                scheme == Scheme::Tfhe || scheme == Scheme::Switch;
            if (needsCkks && tr.ckksRingDim == 0) {
                std::ostringstream os;
                os << mnemonic
                   << " needs CKKS parameters but ckksRingDim == 0";
                report(out, tr, "scheme-ckks-params", idx, os.str(),
                       "declare the CKKS header (setCkksParams) or "
                       "drop the SIMD-scheme ops");
            }
            if (needsTfhe && tr.tfheRingDim == 0) {
                std::ostringstream os;
                os << mnemonic
                   << " needs TFHE parameters but tfheRingDim == 0";
                report(out, tr, "scheme-tfhe-params", idx, os.str(),
                       "declare the TFHE header (setTfheParams) or "
                       "drop the logic-scheme ops");
            }
            // Decomposition depth: blind rotation walks gadgetLevels
            // RGSW rows, every LWE key switch walks ksLevels digits.
            if (tr.tfheRingDim != 0) {
                if (op.kind == OpKind::TfhePbs &&
                    tr.tfheGadgetLevels < 1)
                    report(out, tr, "scheme-tfhe-params", idx,
                           "tfhe.pbs with gadgetLevels < 1",
                           "blind rotation needs a gadget "
                           "decomposition depth");
                const bool keySwitches =
                    op.kind == OpKind::TfhePbs ||
                    op.kind == OpKind::TfheKeySwitch ||
                    op.kind == OpKind::SwitchExtract;
                if (keySwitches && tr.tfheKsLevels < 1)
                    report(out, tr, "scheme-tfhe-params", idx,
                           std::string(mnemonic) +
                               " with ksLevels < 1",
                           "LWE key switching needs a decomposition "
                           "depth");
            }
        }
    }
};

/** CKKS limb-chain consistency (see the file comment for soundness). */
class LimbChainPass : public Pass
{
  public:
    const char *name() const override { return "limb-chain"; }

    void
    run(const Trace &tr, DiagnosticReport &out) const override
    {
        // Without a CKKS header the scheme pass already reports every
        // SIMD op; repeating a bound check against levels=0 would just
        // duplicate findings.
        if (tr.ckksRingDim == 0 || tr.ckksLevels < 1)
            return;
        const int levels = tr.ckksLevels;
        for (std::size_t i = 0; i < tr.ops.size(); ++i) {
            const TraceOp &op = tr.ops[i];
            const Scheme scheme = op.scheme();
            if (scheme == Scheme::Tfhe)
                continue;
            const auto idx = static_cast<std::ptrdiff_t>(i);
            const char *mnemonic = trace::opKindName(op.kind);
            if (op.limbs < 1 || op.limbs > levels) {
                std::ostringstream os;
                os << mnemonic << " at " << op.limbs
                   << " limbs, outside the modulus chain [1, "
                   << levels << "]";
                report(out, tr, "limb-range", idx, os.str(),
                       "ops run between 1 active limb and the "
                       "declared level budget");
                continue;
            }
            if (op.kind == OpKind::CkksRescale && op.limbs < 2) {
                std::ostringstream os;
                os << "rescale at " << op.limbs
                   << " limb(s) would leave " << (op.limbs - 1);
                report(out, tr, "rescale-underflow", idx, os.str(),
                       "rescale divides away one limb; bootstrap "
                       "before the chain runs out");
            }
            if (op.kind == OpKind::CkksModRaise &&
                op.limbs != levels) {
                std::ostringstream os;
                os << "mod-raise targets " << op.limbs
                   << " limbs but the chain resets to L = " << levels;
                report(out, tr, "modraise-target", idx, os.str(),
                       "bootstrap mod-raise extends the basis back to "
                       "the full chain");
            }
        }
    }
};

/** Phase stack discipline and monotone opIndex. */
class PhaseDisciplinePass : public Pass
{
  public:
    const char *name() const override { return "phase-discipline"; }

    void
    run(const Trace &tr, DiagnosticReport &out) const override
    {
        int open = 0;
        u64 lastIndex = 0;
        bool first = true;
        for (const auto &mark : tr.phases) {
            const auto idx = static_cast<std::ptrdiff_t>(mark.opIndex);
            if (!first && mark.opIndex < lastIndex) {
                std::ostringstream os;
                os << "phase marker at opIndex " << mark.opIndex
                   << " after a marker at " << lastIndex;
                report(out, tr, "phase-order", idx, os.str(),
                       "emit begin/end markers as the ops are pushed");
            }
            first = false;
            lastIndex = std::max(lastIndex, mark.opIndex);
            if (mark.opIndex > tr.ops.size()) {
                std::ostringstream os;
                os << "phase marker at opIndex " << mark.opIndex
                   << " but the trace has " << tr.ops.size() << " ops";
                report(out, tr, "phase-index", idx, os.str(),
                       "markers may point at most one past the last "
                       "op");
            }
            if (mark.begin) {
                if (mark.name.empty() ||
                    mark.name.find_first_of(" \t\n") !=
                        std::string::npos) {
                    report(out, tr, "phase-name", idx,
                           "phase begin with an empty or "
                           "whitespace-carrying name",
                           "phase names are single tokens");
                }
                ++open;
            } else {
                if (open == 0) {
                    report(out, tr, "phase-balance", idx,
                           "phase end without an open region",
                           "generators must balance beginPhase/"
                           "endPhase");
                } else {
                    --open;
                }
            }
        }
        if (open > 0) {
            std::ostringstream os;
            os << open << " phase region(s) still open at the end of "
               << "the trace";
            report(out, tr, "phase-balance",
                   static_cast<std::ptrdiff_t>(tr.ops.size()), os.str(),
                   "close every region the generator opens");
        }
    }
};

/** Key-id cardinality vs. the declared scratchpad working set. */
class WorkingSetPass : public Pass
{
  public:
    const char *name() const override { return "working-set"; }

    void
    run(const Trace &tr, DiagnosticReport &out) const override
    {
        // Rotation/conjugation keys are the per-id scratchpad
        // competitors (ciphertexts come from the liveCiphertexts pool,
        // relin/bootstrap keys are singletons per trace).
        std::set<int> keyIds;
        for (const auto &op : tr.ops)
            if (op.kind == OpKind::CkksRotate ||
                op.kind == OpKind::CkksConjugate)
                keyIds.insert(op.keyId);
        const std::size_t threshold = std::max<std::size_t>(
            64, 16 * static_cast<std::size_t>(
                         std::max(0, tr.liveCiphertexts)));
        if (keyIds.size() > threshold) {
            std::ostringstream os;
            os << tr.ops.size() << " ops use " << keyIds.size()
               << " distinct rotation-key ids against a declared live "
               << "set of " << tr.liveCiphertexts
               << " ciphertexts (feasibility threshold " << threshold
               << ")";
            report(out, tr, "working-set", Diagnostic::kTraceLevel,
                   os.str(),
                   "raise liveCiphertexts to match the real working "
                   "set, or hoist shared rotation keys");
        }
    }
};

} // namespace

Analyzer::Analyzer()
{
    passes_.push_back(std::make_unique<FieldValidityPass>());
    passes_.push_back(std::make_unique<SchemeLegalityPass>());
    passes_.push_back(std::make_unique<LimbChainPass>());
    passes_.push_back(std::make_unique<PhaseDisciplinePass>());
    passes_.push_back(std::make_unique<WorkingSetPass>());
    dfPasses_ = makeDataflowPasses();
}

DiagnosticReport
Analyzer::analyze(const Trace &tr) const
{
    DiagnosticReport out;
    for (const auto &pass : passes_)
        pass->run(tr, out);
    return out;
}

DiagnosticReport
Analyzer::analyzeLowered(const Trace &tr,
                         const compiler::LoweringOptions &opts) const
{
    DiagnosticReport out = analyze(tr);
    // A trace whose header failed scheme legality would feed nonsense
    // geometry (log2 of a non-power-of-two, division by dnum = 0) into
    // the lowering; report the trace-level findings alone.
    if (out.errorCount() > 0)
        return out;
    // One lowering pass serves both verification and bytecode emission:
    // lowerTrace() composes the VerifyingSink in front of its
    // ProgramBuilder (via LoweringOptions::lint), and the emitted
    // lowering is then checked against the bytecode-level rules
    // (bc-fuse-*).  The rules are machine-independent, so the Table II
    // UFC configuration binds it.
    DiagnosticReport lowered;
    const compiler::Program program = compiler::bind(
        std::make_shared<const compiler::LoweredProgram>(
            compiler::lowerTrace(tr, opts, &lowered)),
        sim::UfcPerf{sim::UfcConfig::tableII()}, "UFC");
    compiler::verifyProgram(program, lowered);
    out.merge(lowered);
    return out;
}

DiagnosticReport
Analyzer::analyzeDataflow(const Trace &tr) const
{
    DiagnosticReport out = analyze(tr);
    // The abstract domains index state by the declared level budget and
    // trust op.limbs; a trace with base errors would feed them garbage.
    if (out.errorCount() > 0)
        return out;
    for (const auto &pass : dfPasses_)
        pass->run(tr, out);
    return out;
}

DiagnosticReport
Analyzer::analyzeDataflow(const Trace &tr,
                          const compiler::Program &program) const
{
    DiagnosticReport out = analyzeDataflow(tr);
    if (out.errorCount() > 0)
        return out;
    compiler::verifyProgram(program, out);
    runProgramDataflow(program, out);
    return out;
}

} // namespace analysis
} // namespace ufc
