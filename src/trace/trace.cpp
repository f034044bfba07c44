/**
 * @file
 * Trace IR helpers.
 */

#include "trace/trace.h"

#include <algorithm>

#include "common/error.h"

namespace ufc {
namespace trace {

Scheme
TraceOp::scheme() const
{
    switch (kind) {
      case OpKind::CkksAdd:
      case OpKind::CkksAddPlain:
      case OpKind::CkksMult:
      case OpKind::CkksMultPlain:
      case OpKind::CkksRescale:
      case OpKind::CkksRotate:
      case OpKind::CkksConjugate:
      case OpKind::CkksModRaise:
        return Scheme::Ckks;
      case OpKind::TfheLinear:
      case OpKind::TfhePbs:
      case OpKind::TfheKeySwitch:
      case OpKind::TfheModSwitch:
        return Scheme::Tfhe;
      case OpKind::SwitchExtract:
      case OpKind::SwitchRepack:
        return Scheme::Switch;
    }
    return Scheme::Ckks;
}

void
Trace::endPhase()
{
    // Recompute the balance instead of caching a counter: `phases` is a
    // public vector, so callers may legally append marks directly.
    int open = 0;
    for (const auto &mark : phases)
        open += mark.begin ? 1 : -1;
    if (open <= 0)
        throw TraceError("endPhase() on trace '" + name +
                         "' with no open phase region (marks: " +
                         std::to_string(phases.size()) + ")");
    phases.push_back(PhaseMark{ops.size(), std::string(), false});
}

u64
contentHash(const Trace &tr)
{
    // The header, the op stream and the phase marks hash into three
    // independent FNV-1a states, combined with their element counts.
    using detail::fnvMix;
    u64 h = detail::kFnvOffset;
    fnvMix(h, tr.name);
    fnvMix(h, tr.ckksRingDim);
    fnvMix(h, static_cast<u64>(tr.ckksLevels));
    fnvMix(h, static_cast<u64>(tr.ckksSpecial));
    fnvMix(h, static_cast<u64>(tr.ckksDnum));
    fnvMix(h, static_cast<u64>(tr.ckksLimbBits));
    fnvMix(h, tr.tfheRingDim);
    fnvMix(h, static_cast<u64>(tr.tfheLweDim));
    fnvMix(h, static_cast<u64>(tr.tfheGadgetLevels));
    fnvMix(h, static_cast<u64>(tr.tfheKsLevels));
    fnvMix(h, static_cast<u64>(tr.tfheLimbBits));
    fnvMix(h, static_cast<u64>(tr.liveCiphertexts));
    u64 ops = detail::kFnvOffset;
    for (const TraceOp &op : tr.ops) {
        fnvMix(ops, static_cast<u64>(op.kind));
        fnvMix(ops, static_cast<u64>(op.limbs));
        fnvMix(ops, static_cast<u64>(op.count));
        fnvMix(ops, static_cast<u64>(op.fanIn));
        fnvMix(ops, static_cast<u64>(op.keyId));
    }
    u64 phases = detail::kFnvOffset;
    for (const PhaseMark &mark : tr.phases) {
        fnvMix(phases, mark.opIndex);
        fnvMix(phases, mark.name);
        fnvMix(phases, static_cast<u64>(mark.begin ? 1 : 0));
    }
    fnvMix(h, ops);
    fnvMix(h, static_cast<u64>(tr.ops.size()));
    fnvMix(h, phases);
    fnvMix(h, static_cast<u64>(tr.phases.size()));
    return h;
}

std::vector<PhaseRegion>
phaseRegions(const Trace &tr)
{
    std::vector<PhaseRegion> out;
    // Stack of indices into `out` for the currently open regions.
    std::vector<std::size_t> open;
    for (const PhaseMark &mark : tr.phases) {
        const u64 at = std::min<u64>(mark.opIndex, tr.ops.size());
        if (mark.begin) {
            PhaseRegion r;
            r.begin = at;
            r.end = tr.ops.size(); // provisional: until the close mark
            r.name = mark.name;
            r.depth = static_cast<int>(open.size());
            open.push_back(out.size());
            out.push_back(std::move(r));
        } else if (!open.empty()) {
            out[open.back()].end = at;
            open.pop_back();
        }
    }
    std::sort(out.begin(), out.end(),
              [](const PhaseRegion &a, const PhaseRegion &b) {
                  return a.begin != b.begin ? a.begin < b.begin
                                            : a.depth < b.depth;
              });
    return out;
}

u64
Trace::totalOps() const
{
    u64 total = 0;
    for (const auto &op : ops)
        total += op.count;
    return total;
}

} // namespace trace
} // namespace ufc
