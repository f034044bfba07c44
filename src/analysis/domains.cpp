/**
 * @file
 * Abstract domains for the dataflow layer (see domains.h).
 *
 * Trace-level soundness: the IR has no SSA names, so independent
 * ciphertext chains interleave freely.  The level-flow domain is a
 * *reachability* overapproximation — a level is reachable when fresh
 * ciphertexts (level L), a rescale from ℓ+1, a mod-raise, or a repack
 * could have produced a value there under SOME interleaving — so its
 * Error rule (df-chain-underflow) has no false positives: a flagged op
 * is illegal under EVERY interleaving.  The rescale-discipline domain
 * counts production/consumption per level (count-weighted, saturating)
 * under a linear-consumption assumption its Warning rules state in
 * their hints; fresh ciphertexts give level L an infinite supply, so
 * none of the warnings can fire at the top of the chain.
 */

#include "analysis/domains.h"

#include <limits>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/dataflow.h"
#include "compiler/bytecode.h"
#include "compiler/lowering.h"
#include "trace/serialize.h"

namespace ufc {
namespace analysis {

using trace::OpKind;
using trace::Scheme;
using trace::Trace;
using trace::TraceOp;

namespace {

/** Diagnostic builder for trace-level findings (mirrors analyzer.cpp). */
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

/** Usable CKKS header for level analysis (scheme-legality reports the
 *  unusable cases; repeating them here would duplicate findings). */
bool
levelAnalyzable(const Trace &tr)
{
    return tr.ckksRingDim != 0 && tr.ckksLevels >= 1;
}

/**
 * Modulus-chain reachability: which levels can hold a ciphertext under
 * some interleaving.  Fresh ciphertexts enter at L; rescale@ℓ feeds
 * ℓ-1; mod-raise feeds L; repack@ℓ feeds ℓ.  An op executing at an
 * unreachable level is a chain-underflow under every interleaving.
 */
class LevelFlowPass : public Pass
{
  public:
    const char *name() const override { return "level-flow"; }

    void
    run(const Trace &tr, DiagnosticReport &out) const override
    {
        if (!levelAnalyzable(tr))
            return;
        const int levels = tr.ckksLevels;
        const Cfg cfg = cfgFromTrace(tr);
        using State = std::vector<char>;
        State entry(static_cast<std::size_t>(levels) + 1, 0);
        entry[static_cast<std::size_t>(levels)] = 1;

        const auto meet = [](State &into, const State &from) {
            bool changed = false;
            for (std::size_t i = 0; i < into.size(); ++i)
                if (from[i] && !into[i]) {
                    into[i] = 1;
                    changed = true;
                }
            return changed;
        };
        // onUnreachable(level) fires at most once per root cause: the
        // level is marked reachable afterwards so one bad op does not
        // cascade into a report on every downstream consumer.
        const auto step = [levels](State &s, const TraceOp &op,
                                   const auto &onUnreachable) {
            if (op.scheme() == Scheme::Tfhe)
                return;
            const int l = op.limbs;
            if (l < 1 || l > levels)
                return; // limb-range already reported
            const auto at = static_cast<std::size_t>(l);
            switch (op.kind) {
              case OpKind::SwitchRepack:
                s[at] = 1;
                return;
              case OpKind::CkksModRaise:
                // limb-chain enforces l == L; the op refreshes the
                // chain regardless of where its input sat.
                s[static_cast<std::size_t>(levels)] = 1;
                return;
              default:
                break;
            }
            if (!s[at])
                onUnreachable(l);
            s[at] = 1;
            if (op.kind == OpKind::CkksRescale && l >= 2)
                s[at - 1] = 1;
        };
        const auto transfer = [&](u32 b, const State &in) {
            State s = in;
            for (u64 i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i)
                step(s, tr.ops[i], [](int) {});
            return s;
        };
        const State bottom(static_cast<std::size_t>(levels) + 1, 0);
        const std::vector<State> ins =
            solveForward(cfg, entry, bottom, meet, transfer);

        for (u32 b = 0; b < cfg.blocks.size(); ++b) {
            State s = ins[b];
            for (u64 i = cfg.blocks[b].begin; i < cfg.blocks[b].end;
                 ++i) {
                const TraceOp &op = tr.ops[i];
                step(s, op, [&](int l) {
                    std::ostringstream os;
                    os << trace::opKindName(op.kind) << " at level " << l
                       << ", but no rescale/mod-raise/repack path "
                          "reaches level "
                       << l << " from fresh ciphertexts (L = " << levels
                       << ")";
                    report(out, tr, "df-chain-underflow",
                           static_cast<std::ptrdiff_t>(i), os.str(),
                           "insert the rescale chain down to this "
                           "level, or mod-raise/repack into it");
                });
            }
        }
    }
};

/** Saturating counters for the rescale-discipline domain. */
constexpr u64 kInf = std::numeric_limits<u64>::max();

u64
satAdd(u64 a, u64 b)
{
    if (a == kInf || b == kInf)
        return kInf;
    const u64 s = a + b;
    return s < a ? kInf : s;
}

u64
satSub(u64 a, u64 b)
{
    if (a == kInf)
        return kInf;
    return a > b ? a - b : 0;
}

/**
 * Per-level production/consumption state: pending[ℓ] counts unrescaled
 * products sitting at level ℓ, avail1[ℓ] counts consumable
 * degree-1/scale-Δ values (rescale outputs, rotation copies, repack
 * outputs; level L holds infinitely many fresh ciphertexts).
 */
struct ScaleState
{
    std::vector<u64> pending;
    std::vector<u64> avail1;
};

/**
 * Rescale discipline, count-weighted:
 *   df-double-rescale   rescale@ℓ with no outstanding product at ℓ
 *   df-missed-rescale   mult@ℓ short of degree-1 operands while
 *                       unrescaled products pile up at ℓ
 *   df-scale-mismatch   ct-ct add@ℓ with both supplies exhausted
 * All Warnings: they assume linear consumption (each produced value
 * consumed at most once per use), which batched traces can legally
 * violate — the hints say so.
 */
class RescaleDisciplinePass : public Pass
{
  public:
    const char *name() const override { return "rescale-discipline"; }

    void
    run(const Trace &tr, DiagnosticReport &out) const override
    {
        if (!levelAnalyzable(tr))
            return;
        const int levels = tr.ckksLevels;
        const Cfg cfg = cfgFromTrace(tr);
        ScaleState entry;
        entry.pending.assign(static_cast<std::size_t>(levels) + 1, 0);
        entry.avail1.assign(static_cast<std::size_t>(levels) + 1, 0);
        entry.avail1[static_cast<std::size_t>(levels)] = kInf;

        // Join keeps the FEWER-warnings side of each counter (min
        // pending, max avail1): at a join the analysis must not invent
        // a deficit that only one path has.
        const auto meet = [](ScaleState &into, const ScaleState &from) {
            bool changed = false;
            for (std::size_t i = 0; i < into.pending.size(); ++i) {
                if (from.pending[i] < into.pending[i]) {
                    into.pending[i] = from.pending[i];
                    changed = true;
                }
                if (from.avail1[i] > into.avail1[i]) {
                    into.avail1[i] = from.avail1[i];
                    changed = true;
                }
            }
            return changed;
        };
        enum class Finding { DoubleRescale, MissedRescale, ScaleMismatch };
        const auto step = [levels](ScaleState &s, const TraceOp &op,
                                   const auto &onFinding) {
            if (op.scheme() == Scheme::Tfhe)
                return;
            const int l = op.limbs;
            if (l < 1 || l > levels)
                return; // limb-range already reported
            const auto at = static_cast<std::size_t>(l);
            const u64 c = static_cast<u64>(std::max(1, op.count));
            switch (op.kind) {
              case OpKind::CkksRescale:
                if (s.pending[at] == 0)
                    onFinding(Finding::DoubleRescale);
                // One rescale op re-scales the level's outstanding
                // products as a batch: generators emit one rescale per
                // *combined* value, not per product, so consuming only
                // `count` would leave phantom pending forever.
                s.pending[at] = 0;
                if (l >= 2)
                    s.avail1[at - 1] = satAdd(s.avail1[at - 1], c);
                break;
              case OpKind::CkksMult:
                if (s.avail1[at] < satAdd(c, c) && s.pending[at] > 0)
                    onFinding(Finding::MissedRescale);
                s.avail1[at] = satSub(s.avail1[at], satAdd(c, c));
                s.pending[at] = satAdd(s.pending[at], c);
                break;
              case OpKind::CkksMultPlain:
                s.avail1[at] = satSub(s.avail1[at], c);
                s.pending[at] = satAdd(s.pending[at], c);
                break;
              case OpKind::CkksRotate:
              case OpKind::CkksConjugate:
              case OpKind::SwitchRepack:
                // Degree-preserving copies / repacked values replenish
                // the consumable pool at their level.
                s.avail1[at] = satAdd(s.avail1[at], c);
                break;
              case OpKind::CkksAdd:
                if (s.avail1[at] == 0 && s.pending[at] == 0)
                    onFinding(Finding::ScaleMismatch);
                break;
              default:
                break; // AddPlain, ModRaise, SwitchExtract: no effect
            }
        };
        const auto transfer = [&](u32 b, const ScaleState &in) {
            ScaleState s = in;
            for (u64 i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i)
                step(s, tr.ops[i], [](Finding) {});
            return s;
        };
        // Bottom is the meet identity (min-pending / max-avail1).
        ScaleState bottom;
        bottom.pending.assign(static_cast<std::size_t>(levels) + 1,
                              kInf);
        bottom.avail1.assign(static_cast<std::size_t>(levels) + 1, 0);
        const std::vector<ScaleState> ins =
            solveForward(cfg, entry, bottom, meet, transfer);

        for (u32 b = 0; b < cfg.blocks.size(); ++b) {
            ScaleState s = ins[b];
            for (u64 i = cfg.blocks[b].begin; i < cfg.blocks[b].end;
                 ++i) {
                const TraceOp &op = tr.ops[i];
                const auto idx = static_cast<std::ptrdiff_t>(i);
                step(s, op, [&](Finding f) {
                    const int l = op.limbs;
                    std::ostringstream os;
                    switch (f) {
                      case Finding::DoubleRescale:
                        os << "rescale at level " << l << " (count "
                           << op.count
                           << ") with no outstanding product at that "
                              "level";
                        report(out, tr, "df-double-rescale", idx,
                               os.str(),
                               "a second rescale divides the scale "
                               "below Δ; rescale once per "
                               "multiplication (linear-consumption "
                               "heuristic)");
                        break;
                      case Finding::MissedRescale:
                        os << "multiplication at level " << l
                           << " (count " << op.count << ") finds only "
                           << s.avail1[static_cast<std::size_t>(l)]
                           << " rescaled operand(s) while "
                           << s.pending[static_cast<std::size_t>(l)]
                           << " unrescaled product(s) wait at that "
                              "level";
                        report(out, tr, "df-missed-rescale", idx,
                               os.str(),
                               "rescale the pending products before "
                               "multiplying again (linear-consumption "
                               "heuristic)");
                        break;
                      case Finding::ScaleMismatch:
                        os << "ciphertext add at level " << l
                           << " (count " << op.count
                           << ") with no scale-consistent operand "
                              "supply: no rescaled value and no "
                              "product remains at that level";
                        report(out, tr, "df-scale-mismatch", idx,
                               os.str(),
                               "produce operands at this level "
                               "(rescale/rotate into it) before "
                               "adding (linear-consumption "
                               "heuristic)");
                        break;
                    }
                });
            }
        }
    }
};

// ---------------------------------------------------------------------
// Program-level rules (compiled bytecode).

/** Innermost open phase name at instruction `inst` (empty when none). */
std::string
bcPhaseAt(const compiler::Program &p, u64 inst)
{
    std::vector<i32> stack;
    for (const compiler::PhaseEvent &e : p.lowered->phaseEvents) {
        if (e.inst > inst)
            break;
        if (e.name == compiler::PhaseEvent::kEnd) {
            if (!stack.empty())
                stack.pop_back();
        } else {
            stack.push_back(e.name);
        }
    }
    if (stack.empty())
        return {};
    const auto idx = static_cast<std::size_t>(stack.back());
    return idx < p.lowered->phaseNames.size() ? p.lowered->phaseNames[idx] : std::string();
}

void
reportBc(DiagnosticReport &out, const compiler::Program &p,
         const char *rule, u64 inst, std::string message,
         std::string hint)
{
    Diagnostic d;
    d.severity = ruleSeverity(rule);
    d.rule = rule;
    d.message = std::move(message);
    d.hint = std::move(hint);
    d.opIndex = static_cast<std::ptrdiff_t>(inst);
    d.phase = bcPhaseAt(p, inst);
    out.add(std::move(d));
}

/**
 * Re-prove fusion / loop-folding legality from the operand records
 * alone: a fused run or folded loop body must be free of scratchpad
 * accesses, because replaying it assumes LRU-independent memory
 * behaviour.  Independent of verifyProgram's bc-fuse-* rules, which
 * trust the BcKind tag the fusion pass itself wrote.
 */
void
checkReplayPurity(const compiler::Program &p,
                  const std::vector<char> &cached, DiagnosticReport &out)
{
    for (u64 i = 0; i < p.code.size();) {
        const u16 runLen = p.code[i].runLen;
        if (runLen > 1) {
            const u64 end = std::min<u64>(i + runLen, p.code.size());
            for (u64 j = i; j < end; ++j) {
                if (cached[j]) {
                    std::ostringstream os;
                    os << "fused run [" << i << ", " << end
                       << ") contains a scratchpad operand at "
                          "instruction "
                       << j;
                    reportBc(out, p, "df-fuse-memdep", j, os.str(),
                             "iterating the run would replay an "
                             "LRU-dependent access; exclude the "
                             "instruction from fusion");
                    break;
                }
            }
            i = end;
        } else {
            ++i;
        }
    }
    for (const compiler::BcLoop &lp : p.lowered->loops) {
        if (lp.bodyLen == 0 || lp.end > p.code.size() ||
            lp.bodyLen > lp.end)
            continue; // bc-loop-invariant reports malformed rows
        for (u64 j = lp.end - lp.bodyLen; j < lp.end; ++j) {
            if (cached[j]) {
                std::ostringstream os;
                os << "folded loop body [" << (lp.end - lp.bodyLen)
                   << ", " << lp.end << ") x" << lp.trips
                   << " touches the scratchpad at instruction " << j;
                reportBc(out, p, "df-loop-memdep", j, os.str(),
                         "re-executing the body assumes pure "
                         "streaming; unroll instead of folding");
                break;
            }
        }
    }
}

/** Slot def-use rules over the exported access stream. */
void
checkSlotDefUse(const compiler::Program &p,
                const std::vector<compiler::SlotAccess> &acc,
                DiagnosticReport &out)
{
    // df-slot-use-before-def: the slot's first-ever access is a read,
    // yet the program itself defines (writes) the slot later — the
    // consumer was scheduled before its producer.  Slots that are only
    // ever read (evaluation keys fetched from HBM on miss) never fire,
    // and ciphertext-pool slots are skipped entirely: their ids model
    // reuse locality, not value identity (syntheticCiphertextId), so
    // read-then-write orderings there are statistical noise.
    std::unordered_map<u32, char> firstIsRead; // slot -> first access
    std::unordered_map<u32, u64> firstRead;
    std::unordered_map<u32, char> writtenLater;
    for (const compiler::SlotAccess &a : acc) {
        if (compiler::syntheticCiphertextId(a.id))
            continue;
        const auto it = firstIsRead.find(a.slot);
        if (it == firstIsRead.end()) {
            firstIsRead.emplace(a.slot, a.write ? 0 : 1);
            if (!a.write)
                firstRead.emplace(a.slot, a.inst);
        } else if (a.write && it->second) {
            writtenLater[a.slot] = 1;
        }
    }
    for (const auto &[slot, flagged] : writtenLater) {
        if (!flagged)
            continue;
        std::ostringstream os;
        os << "scratchpad slot " << slot
           << " is read (instruction " << firstRead[slot]
           << ") before the program first writes it";
        reportBc(out, p, "df-slot-use-before-def", firstRead[slot],
                 os.str(),
                 "the read observes stale HBM data the program later "
                 "defines; order the producer first");
    }

    // df-spad-overcommit: one instruction's distinct-slot operand
    // footprint exceeds the scratchpad — its own operands cannot
    // co-reside, so the LRU thrashes within a single instruction.
    for (std::size_t i = 0; i < acc.size();) {
        const u64 inst = acc[i].inst;
        double bytes = 0.0;
        std::set<u32> seen;
        std::size_t j = i;
        for (; j < acc.size() && acc[j].inst == inst; ++j)
            if (seen.insert(acc[j].slot).second)
                bytes += acc[j].bytes;
        if (bytes > p.scratchpadBytes && p.scratchpadBytes > 0.0) {
            std::ostringstream os;
            os << "instruction " << inst << " touches " << seen.size()
               << " slot(s) totalling " << bytes
               << " bytes against a " << p.scratchpadBytes
               << "-byte scratchpad";
            reportBc(out, p, "df-spad-overcommit", inst, os.str(),
                     "the operand set cannot co-reside; split the "
                     "instruction or grow the scratchpad");
        }
        i = j;
    }
}

/**
 * df-slot-dead-store via backward liveness over the Program CFG: a
 * write whose value is overwritten before any read paid scratchpad
 * growth (and possibly a dirty writeback) for data nobody consumed.
 * The exit state treats every slot as live, so a program's final
 * output writes are never flagged; ciphertext-pool accesses are
 * excluded like in checkSlotDefUse — write-write slot collisions
 * there are the locality model rolling dice, not dead values.
 */
void
checkDeadStores(const compiler::Program &p,
                const std::vector<compiler::SlotAccess> &acc,
                DiagnosticReport &out)
{
    if (p.lowered->spadSlots == 0 || acc.empty())
        return;
    const Cfg cfg = cfgFromProgram(p);
    // Value-accurate accesses per block, in order (folded loop bodies
    // are all-Stream, so they carry no accesses and the self edges are
    // vacuous here).
    std::vector<std::vector<const compiler::SlotAccess *>> byBlock(
        cfg.blocks.size());
    {
        std::size_t a = 0;
        for (u32 b = 0; b < cfg.blocks.size(); ++b) {
            while (a < acc.size() && acc[a].inst < cfg.blocks[b].end) {
                if (acc[a].inst >= cfg.blocks[b].begin &&
                    !compiler::syntheticCiphertextId(acc[a].id))
                    byBlock[b].push_back(&acc[a]);
                ++a;
            }
        }
    }
    using State = std::vector<char>;
    const State exitState(p.lowered->spadSlots, 1); // everything may be output
    const auto meet = [](State &into, const State &from) {
        bool changed = false;
        for (std::size_t i = 0; i < into.size(); ++i)
            if (from[i] && !into[i]) {
                into[i] = 1;
                changed = true;
            }
        return changed;
    };
    const auto applyReverse = [&](u32 b, State s) {
        const auto &list = byBlock[b];
        for (auto it = list.rbegin(); it != list.rend(); ++it) {
            const compiler::SlotAccess *a = *it;
            if (a->slot >= s.size())
                continue;
            s[a->slot] = a->write ? 0 : 1;
        }
        return s;
    };
    const State bottom(p.lowered->spadSlots, 0);
    const std::vector<State> outs =
        solveBackward(cfg, exitState, bottom, meet, applyReverse);

    for (u32 b = 0; b < cfg.blocks.size(); ++b) {
        State live = outs[b];
        const auto &list = byBlock[b];
        for (auto it = list.rbegin(); it != list.rend(); ++it) {
            const compiler::SlotAccess *a = *it;
            if (a->slot >= live.size())
                continue;
            if (a->write && !live[a->slot]) {
                std::ostringstream os;
                os << "write to scratchpad slot " << a->slot
                   << " at instruction " << a->inst
                   << " is overwritten before any read";
                reportBc(out, p, "df-slot-dead-store", a->inst, os.str(),
                         "the stored value is never consumed; drop "
                         "the store or reuse a scratch slot");
            }
            live[a->slot] = a->write ? 0 : 1;
        }
    }
}

} // namespace

std::vector<std::unique_ptr<Pass>>
makeDataflowPasses()
{
    std::vector<std::unique_ptr<Pass>> passes;
    passes.push_back(std::make_unique<LevelFlowPass>());
    passes.push_back(std::make_unique<RescaleDisciplinePass>());
    return passes;
}

void
runProgramDataflow(const compiler::Program &p, DiagnosticReport &out)
{
    if (p.composed()) {
        for (const compiler::Program &part : p.parts)
            runProgramDataflow(part, out);
        return;
    }
    const std::vector<compiler::SlotAccess> acc =
        compiler::slotAccesses(p);
    std::vector<char> cached(p.code.size(), 0);
    for (const compiler::SlotAccess &a : acc)
        if (a.inst < cached.size())
            cached[a.inst] = 1;
    checkReplayPurity(p, cached, out);
    checkSlotDefUse(p, acc, out);
    checkDeadStores(p, acc, out);
}

} // namespace analysis
} // namespace ufc
