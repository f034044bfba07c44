/**
 * @file
 * Bytecode compiler implementation: ProgramBuilder (an InstSink), the
 * fusion pass, the fused-op legality verifier and the disassembler.
 */

#include "compiler/bytecode.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

#include "analysis/diagnostic.h"
#include "common/error.h"
#include "metrics/metrics.h"
#include "sim/engine.h"

namespace ufc {
namespace compiler {

namespace {

std::atomic<u64> gLivePrograms{0};
std::atomic<u64> gPeakLivePrograms{0};

/** Count one lowering or one bind in the metrics registry. */
void
countCompileStep(bool lowering)
{
    if (!metrics::enabled())
        return;
    static metrics::Counter &lowerings = metrics::counter(
        "ufc_compiler_lowerings_total",
        "Traces lowered to a LoweredProgram");
    static metrics::Counter &binds = metrics::counter(
        "ufc_compiler_binds_total",
        "Lowerings bound to a machine's cost rows");
    (lowering ? lowerings : binds).inc();
}

} // namespace

void
detail::LiveCounter::bump() noexcept
{
    const u64 live =
        gLivePrograms.fetch_add(1, std::memory_order_relaxed) + 1;
    u64 peak = gPeakLivePrograms.load(std::memory_order_relaxed);
    while (peak < live &&
           !gPeakLivePrograms.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
}

detail::LiveCounter::~LiveCounter()
{
    gLivePrograms.fetch_sub(1, std::memory_order_relaxed);
}

u64
livePrograms()
{
    return gLivePrograms.load(std::memory_order_relaxed);
}

u64
peakLivePrograms()
{
    return gPeakLivePrograms.load(std::memory_order_relaxed);
}

void
resetPeakLivePrograms()
{
    gPeakLivePrograms.store(gLivePrograms.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
}

const char *
fuseKindName(FuseKind kind)
{
    switch (kind) {
      case FuseKind::None: return "none";
      case FuseKind::KeySwitch: return "key_switch";
      case FuseKind::BlindRotate: return "blind_rotate";
      case FuseKind::Generic: return "generic";
    }
    return "unknown";
}

const std::shared_ptr<const LoweredProgram> &
detail::emptyLowering()
{
    static const auto *empty = new std::shared_ptr<const LoweredProgram>(
        std::make_shared<const LoweredProgram>()); // never freed
    return *empty;
}

ProgramBuilder::ProgramBuilder(LoweredProgram *out)
    : out_(out), shapeIndex_(64, 0)
{}

u32
ProgramBuilder::slotFor(u64 id)
{
    const auto it = slots_.find(id);
    if (it != slots_.end())
        return it->second;
    const u32 slot = static_cast<u32>(slots_.size());
    slots_.emplace(id, slot);
    return slot;
}

namespace {

bool
sameShape(const BcShape &a, const BcShape &b)
{
    return a.op == b.op && a.logDegree == b.logDegree &&
           a.batch == b.batch && a.words == b.words && a.work == b.work &&
           std::bit_cast<u64>(a.staticFetchBytes) ==
               std::bit_cast<u64>(b.staticFetchBytes);
}

u64
shapeHash(const BcShape &s)
{
    u64 h = trace::detail::kFnvOffset;
    trace::detail::mix64(h, (static_cast<u64>(s.op) << 32) ^ s.logDegree ^
                                (static_cast<u64>(s.batch) << 40));
    trace::detail::mix64(h, s.words);
    trace::detail::mix64(h, s.work);
    trace::detail::mix64(h, std::bit_cast<u64>(s.staticFetchBytes));
    return h;
}

} // namespace

u32
ProgramBuilder::shapeFor(const BcShape &shape)
{
    auto &shapes = out_->shapes;
    size_t mask = shapeIndex_.size() - 1;
    size_t at = shapeHash(shape) & mask;
    for (; shapeIndex_[at] != 0; at = (at + 1) & mask)
        if (sameShape(shapes[shapeIndex_[at] - 1], shape))
            return shapeIndex_[at] - 1;
    const u32 id = static_cast<u32>(shapes.size());
    shapes.push_back(shape);
    shapeIndex_[at] = id + 1;
    if (2 * shapes.size() > shapeIndex_.size()) {
        // Keep the load at most 1/2: rehash into twice the slots.
        std::vector<u32> grown(2 * shapeIndex_.size(), 0);
        mask = grown.size() - 1;
        for (u32 k = 0; k < shapes.size(); ++k) {
            size_t pos = shapeHash(shapes[k]) & mask;
            while (grown[pos] != 0)
                pos = (pos + 1) & mask;
            grown[pos] = k + 1;
        }
        shapeIndex_.swap(grown);
    }
    return id;
}

void
ProgramBuilder::issue(const isa::HwInst &inst)
{
    BcInst b;
    BcShape shape;
    shape.op = static_cast<u8>(inst.op);
    shape.logDegree = inst.logDegree;
    shape.batch = inst.batch;
    shape.words = inst.words;
    shape.work = inst.work;

    bool cached = false;
    for (const auto &ref : inst.buffers) {
        if (!ref.transient && !ref.streaming) {
            cached = true;
            break;
        }
    }

    if (!cached) {
        // No scratchpad interaction: the whole memory phase folds into
        // the shape's streamed bytes (and, once bound, their cycles).
        // Transient refs contribute exactly nothing in the IR engine
        // (access() returns 0, hit accounting excludes them), and the
        // streamed-bytes sum keeps operand order, so the lowering-time
        // accumulation is bit-identical to the runtime one.
        b.kind = BcKind::Stream;
        double fetch = 0.0;
        for (const auto &ref : inst.buffers)
            if (!ref.transient)
                fetch += static_cast<double>(ref.bytes);
        shape.staticFetchBytes = fetch;
    } else {
        b.kind = BcKind::Mem;
        b.bufBegin = static_cast<u32>(out_->bufs.size());
        u32 count = 0;
        for (const auto &ref : inst.buffers) {
            if (ref.transient)
                continue; // provably a no-op in the IR engine
            if (ref.streaming && ref.bytes == 0)
                continue; // adds 0.0 everywhere: also a no-op
            BcBuf buf;
            buf.id = ref.id;
            buf.bytes = static_cast<double>(ref.bytes);
            buf.write = ref.write;
            buf.streamed = ref.streaming;
            if (!ref.streaming)
                buf.slot = slotFor(ref.id);
            out_->bufs.push_back(buf);
            ++count;
        }
        UFC_EXPECT(count <= 0xffff, ConfigError,
                   "instruction with " << count
                       << " operand buffers exceeds the bytecode limit");
        b.bufCount = static_cast<u16>(count);
    }
    b.shape = shapeFor(shape);
    out_->code.push_back(b);
}

void
ProgramBuilder::beginPhase(const char *name)
{
    const std::string key(name ? name : "");
    u32 idx;
    const auto it = phaseNameIdx_.find(key);
    if (it != phaseNameIdx_.end()) {
        idx = it->second;
    } else {
        idx = static_cast<u32>(out_->phaseNames.size());
        out_->phaseNames.push_back(key);
        phaseNameIdx_.emplace(key, idx);
    }
    out_->phaseEvents.push_back(
        PhaseEvent{out_->code.size(), static_cast<i32>(idx)});
}

void
ProgramBuilder::endPhase()
{
    out_->phaseEvents.push_back(
        PhaseEvent{out_->code.size(), PhaseEvent::kEnd});
}

bool
ProgramBuilder::beginRepeat(u64 trips)
{
    // Nested offers are refused: the inner producer unrolls, and the
    // outer fold (if any) still sees byte-identical iterations.
    if (repeatOpen_ || trips < 2)
        return false;
    repeatOpen_ = true;
    repeatTrips_ = trips;
    repeatStart_ = out_->code.size();
    repeatEvents_ = out_->phaseEvents.size();
    return true;
}

void
ProgramBuilder::endRepeat()
{
    UFC_EXPECT(repeatOpen_, ConfigError,
               "endRepeat without a matching accepted beginRepeat");
    UFC_EXPECT(out_->phaseEvents.size() == repeatEvents_, ConfigError,
               "phase markers inside a folded repeat body (inst#"
                   << repeatStart_ << "): the marker would fire once but "
                      "the body executes " << repeatTrips_ << " times");
    repeatOpen_ = false;

    const u64 end = out_->code.size();
    if (end == repeatStart_)
        return; // empty body: repeating nothing is nothing

    bool pure = true;
    for (u64 i = repeatStart_; i < end; ++i) {
        if (out_->code[i].kind != BcKind::Stream) {
            pure = false;
            break;
        }
    }
    if (!pure) {
        // A body with cached operands has LRU-dependent memory cost, so
        // a structural loop would diverge from the unrolled stream.
        // Unroll here instead: BcInst records are value types and
        // copies may share the (read-only) BcBuf ranges and shapes.
        const u64 bodyLen = end - repeatStart_;
        for (u64 t = 1; t < repeatTrips_; ++t)
            for (u64 i = 0; i < bodyLen; ++i)
                out_->code.push_back(out_->code[repeatStart_ + i]);
        return;
    }

    BcLoop lp;
    lp.end = end;
    lp.bodyLen = static_cast<u32>(end - repeatStart_);
    lp.trips = repeatTrips_;
    out_->loops.push_back(lp); // emission order keeps `loops` sorted
}

void
ProgramBuilder::finish()
{
    if (finished_)
        return;
    finished_ = true;
    out_->spadSlots = static_cast<u32>(slots_.size());
    fuse();
}

namespace {

/** Innermost fusion context: "key_switch"/"blind_rotate" anywhere on the
 *  open-phase stack wins over the generic tag. */
FuseKind
classifyRun(const std::vector<i32> &stack,
            const std::vector<std::string> &names)
{
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        const std::string &name = names[static_cast<size_t>(*it)];
        if (name == "key_switch")
            return FuseKind::KeySwitch;
        if (name == "blind_rotate")
            return FuseKind::BlindRotate;
    }
    return FuseKind::Generic;
}

} // namespace

void
ProgramBuilder::fuse()
{
    auto &code = out_->code;
    const auto &events = out_->phaseEvents;

    // boundary[i] == a phase marker fires immediately before inst i, or
    // a folded loop starts/ends there (the executor's loop-back check
    // fires between instructions, so a fused run must not straddle it).
    std::vector<u8> boundary(code.size() + 1, 0);
    for (const auto &ev : events)
        boundary[static_cast<size_t>(ev.inst)] = 1;
    for (const auto &lp : out_->loops) {
        boundary[static_cast<size_t>(lp.end)] = 1;
        boundary[static_cast<size_t>(lp.end - lp.bodyLen)] = 1;
    }

    // Replay the phase events alongside the scan so each run head knows
    // its enclosing phase (fusion context tag).
    std::vector<i32> stack;
    size_t ev = 0;
    size_t i = 0;
    while (i < code.size()) {
        while (ev < events.size() && events[ev].inst == i) {
            if (events[ev].name == PhaseEvent::kEnd) {
                if (!stack.empty())
                    stack.pop_back();
            } else {
                stack.push_back(events[ev].name);
            }
            ++ev;
        }
        if (code[i].kind != BcKind::Stream) {
            ++i;
            continue;
        }
        // Maximal run of Stream insts with no interior phase marker.
        size_t j = i + 1;
        while (j < code.size() && code[j].kind == BcKind::Stream &&
               !boundary[j] && (j - i) < 0xffff)
            ++j;
        if (j - i >= 2) {
            code[i].runLen = static_cast<u16>(j - i);
            code[i].fuse = classifyRun(stack, out_->phaseNames);
            ++out_->fusedRuns;
            out_->fusedInsts += j - i;
        }
        i = j; // no events strictly inside (i, j) by construction
    }
}

LoweredProgram
lowerTrace(const trace::Trace &tr, const LoweringOptions &opts,
           analysis::DiagnosticReport *lint)
{
    LoweredProgram p;
    p.workload = tr.name;
    p.traceHash = trace::contentHash(tr);
    ProgramBuilder builder(&p);
    LoweringOptions lopts = opts;
    lopts.lint = lint;
    Lowering lowering(&tr, lopts, &builder);
    lowering.run();
    builder.finish();
    countCompileStep(true);
    return p;
}

Program
bind(std::shared_ptr<const LoweredProgram> lowered,
     const sim::MachinePerf &perf, const std::string &machineName)
{
    UFC_EXPECT(lowered->parts.empty(), ConfigError,
               "composed lowering '" << lowered->workload
                   << "' bound as one chip; bind each part");
    Program p;
    p.machine = machineName;
    p.workload = lowered->workload;
    p.traceHash = lowered->traceHash;
    p.configDigest = perf.configDigest();
    p.hbmBytesPerCycle = perf.hbmBytesPerCycle();
    p.scratchpadBytes = perf.scratchpadBytes();
    p.fillCycles = perf.pipelineFillCycles();
    p.cost.reserve(lowered->shapes.size());
    isa::HwInst inst;
    for (const BcShape &shape : lowered->shapes) {
        // Pure functions of (shape, const machine config): the values
        // the IR engine computes at issue time, evaluated once per shape.
        inst.op = static_cast<isa::HwOp>(shape.op);
        inst.logDegree = shape.logDegree;
        inst.batch = shape.batch;
        inst.words = shape.words;
        inst.work = shape.work;
        BcCost c;
        c.computeCycles = perf.computeCycles(inst);
        c.busyLaneCycles = c.computeCycles * perf.laneFraction(inst);
        c.nocCycles = perf.nocCycles(inst);
        c.staticFetchBytes = shape.staticFetchBytes;
        // Same division the engine performs (not a multiply-by-inverse).
        c.staticMemCycles = shape.staticFetchBytes / p.hbmBytesPerCycle;
        c.op = shape.op;
        c.resource = static_cast<u8>(perf.resourceFor(inst));
        p.cost.push_back(c);
    }
    p.lowered = std::move(lowered);
    p.code = p.lowered->code;
    countCompileStep(false);
    return p;
}

std::string
loweringOptionsKey(const LoweringOptions &opts)
{
    std::ostringstream os;
    os << "w" << opts.wordBits << "/l" << opts.totalVectorLanes << "/a"
       << opts.autoViaNtt << "/r" << opts.rotateAsMonomialMul << "/p"
       << opts.smallPolyPacking << "/"
       << static_cast<int>(opts.parallelism) << "/k"
       << opts.onTheFlyKeyGen;
    return os.str();
}

std::vector<SlotAccess>
slotAccesses(const Program &p)
{
    UFC_EXPECT(!p.composed(), ConfigError,
               "slotAccesses: composed Program '"
                   << p.workload
                   << "' has no single scratchpad; export each part");
    const std::vector<BcBuf> &bufs = p.lowered->bufs;
    std::vector<SlotAccess> out;
    for (u64 i = 0; i < p.code.size(); ++i) {
        const BcInst &inst = p.code[i];
        if (inst.kind != BcKind::Mem)
            continue;
        const u64 end = static_cast<u64>(inst.bufBegin) + inst.bufCount;
        for (u64 b = inst.bufBegin; b < end && b < bufs.size(); ++b) {
            const BcBuf &buf = bufs[b];
            if (buf.slot == BcBuf::kNoSlot || buf.streamed)
                continue;
            out.push_back(
                SlotAccess{i, buf.slot, buf.id, buf.bytes, buf.write});
        }
    }
    return out;
}

namespace {

void
addFinding(analysis::DiagnosticReport &out, const char *rule,
           std::ptrdiff_t inst, const std::string &message,
           const std::string &hint)
{
    analysis::Diagnostic d;
    d.severity = analysis::Severity::Error;
    d.rule = rule;
    d.message = message;
    d.hint = hint;
    d.opIndex = inst;
    out.add(d);
}

/** Opcode of code[k] for diagnostics (tolerates a bad shape id). */
isa::HwOp
opOf(const LoweredProgram &lp, u64 k)
{
    const u32 shape = lp.code[k].shape;
    return shape < lp.shapes.size()
               ? static_cast<isa::HwOp>(lp.shapes[shape].op)
               : isa::HwOp::NumHwOps;
}

} // namespace

void
verifyProgram(const Program &program, analysis::DiagnosticReport &out)
{
    for (const auto &part : program.parts)
        verifyProgram(part, out);
    const LoweredProgram &lp = *program.lowered;

    std::vector<u8> boundary(lp.code.size() + 1, 0);
    for (const auto &ev : lp.phaseEvents)
        if (ev.inst <= lp.code.size())
            boundary[static_cast<size_t>(ev.inst)] = 1;

    // Folded loops: bounds, ordering, purity and phase containment.
    u64 prevEnd = 0;
    for (size_t li = 0; li < lp.loops.size(); ++li) {
        const BcLoop &loop = lp.loops[li];
        const std::ptrdiff_t at =
            static_cast<std::ptrdiff_t>(loop.end) - loop.bodyLen;
        if (loop.bodyLen == 0 || loop.trips < 2 ||
            loop.end > lp.code.size() || loop.bodyLen > loop.end) {
            std::ostringstream os;
            os << "loop#" << li << " (end=" << loop.end << " body="
               << loop.bodyLen << " trips=" << loop.trips
               << ") is degenerate or out of bounds ("
               << lp.code.size() << " instructions)";
            addFinding(out, "bc-loop-invariant", at, os.str(),
                       "folded repeats need a non-empty in-bounds body "
                       "and at least two trips");
            continue;
        }
        const u64 start = loop.end - loop.bodyLen;
        if (start < prevEnd) {
            std::ostringstream os;
            os << "loop#" << li << " [" << start << ", " << loop.end
               << ") overlaps or is unsorted against the previous loop "
               << "(ends at " << prevEnd << ")";
            addFinding(out, "bc-loop-invariant",
                       static_cast<std::ptrdiff_t>(start), os.str(),
                       "loops must be disjoint and sorted by end so the "
                       "executor's single cursor replays them");
        }
        prevEnd = loop.end;
        for (u64 k = start; k < loop.end; ++k) {
            if (lp.code[k].kind == BcKind::Mem) {
                std::ostringstream os;
                os << "loop#" << li << " [" << start << ", " << loop.end
                   << ") body contains inst#" << k << " ("
                   << isa::opName(opOf(lp, k))
                   << ") with a cached scratchpad operand";
                addFinding(out, "bc-loop-invariant",
                           static_cast<std::ptrdiff_t>(k), os.str(),
                           "re-executing a scratchpad-dependent body is "
                           "not equivalent to the unrolled stream; the "
                           "builder must unroll such repeats");
                break;
            }
        }
        for (const auto &ev : lp.phaseEvents) {
            if (ev.inst > start && ev.inst < loop.end) {
                std::ostringstream os;
                os << "loop#" << li << " [" << start << ", " << loop.end
                   << ") contains a phase marker before inst#" << ev.inst;
                addFinding(out, "bc-loop-invariant",
                           static_cast<std::ptrdiff_t>(ev.inst), os.str(),
                           "a marker inside a repeated body would fire "
                           "once but the body executes every trip");
                break;
            }
        }
        // Loop edges break fused runs exactly like phase markers.
        if (loop.end <= lp.code.size()) {
            boundary[static_cast<size_t>(start)] = 1;
            boundary[static_cast<size_t>(loop.end)] = 1;
        }
    }

    for (size_t i = 0; i < lp.code.size(); ++i) {
        const BcInst &head = lp.code[i];
        if (head.runLen <= 1)
            continue;
        const size_t end = i + head.runLen;
        if (end > lp.code.size()) {
            std::ostringstream os;
            os << "fused run of " << head.runLen << " at inst#" << i
               << " overruns the program (" << lp.code.size()
               << " instructions)";
            addFinding(out, "bc-fuse-phase-span",
                       static_cast<std::ptrdiff_t>(i), os.str(),
                       "re-run the fusion pass; runs must stay in bounds");
            continue;
        }
        for (size_t k = i; k < end; ++k) {
            if (lp.code[k].kind == BcKind::Mem) {
                std::ostringstream os;
                os << "fused run [" << i << ", " << end << ") contains "
                   << "inst#" << k << " ("
                   << isa::opName(opOf(lp, k))
                   << ") with a cached scratchpad operand";
                addFinding(out, "bc-fuse-cached-operand",
                           static_cast<std::ptrdiff_t>(i), os.str(),
                           "scratchpad-dependent instructions must break "
                           "the run (their memory cost depends on LRU "
                           "state)");
                break;
            }
        }
        for (size_t k = i + 1; k < end; ++k) {
            if (boundary[k]) {
                std::ostringstream os;
                os << "fused run [" << i << ", " << end << ") crosses a "
                   << "phase marker or loop edge before inst#" << k;
                addFinding(out, "bc-fuse-phase-span",
                           static_cast<std::ptrdiff_t>(i), os.str(),
                           "phase markers and loop edges must only fire "
                           "at run boundaries so timeline replay and "
                           "loop-back checks stay exact");
                break;
            }
        }
    }
}

void
disassemble(const Program &program, std::ostream &os)
{
    os << "program " << program.workload << " machine="
       << program.machine << " hash=" << std::hex << std::showbase
       << program.traceHash << std::dec << std::noshowbase << "\n";
    if (program.composed()) {
        os << "  composed: pcie_bytes=" << program.pcieBytes
           << " pcie_transfers=" << program.pcieTransfers << " parts="
           << program.parts.size() << "\n";
        for (const auto &part : program.parts) {
            if (part.code.empty() && part.machine.empty()) {
                os << "part <empty>\n";
                continue;
            }
            disassemble(part, os);
        }
        return;
    }
    const LoweredProgram &lp = *program.lowered;
    os << "  insts=" << lp.code.size() << " shapes=" << lp.shapes.size()
       << " bufs=" << lp.bufs.size() << " slots=" << lp.spadSlots
       << " spad_bytes=" << program.scratchpadBytes << " hbm_Bpc="
       << program.hbmBytesPerCycle << " fill=" << program.fillCycles
       << " fused_runs=" << lp.fusedRuns << " fused_insts="
       << lp.fusedInsts << " loops=" << lp.loops.size() << " executed="
       << program.totalInsts() << "\n";
    // The shape table: what each shape id below costs on this machine.
    for (size_t k = 0; k < lp.shapes.size(); ++k) {
        const BcShape &sh = lp.shapes[k];
        const BcCost &c = program.cost[k];
        os << "  shape#" << k << " "
           << isa::opName(static_cast<isa::HwOp>(sh.op)) << " res="
           << isa::resourceName(static_cast<isa::Resource>(c.resource))
           << " logN=" << sh.logDegree << " batch=" << sh.batch
           << " words=" << sh.words << " work=" << sh.work << " c="
           << c.computeCycles << " lane_c=" << c.busyLaneCycles
           << " noc=" << c.nocCycles;
        if (sh.staticFetchBytes != 0.0)
            os << " stream_bytes=" << sh.staticFetchBytes
               << " stream_cycles=" << c.staticMemCycles;
        os << "\n";
    }

    size_t ev = 0;
    const auto &events = lp.phaseEvents;
    int depth = 0;
    const auto indent = [&] {
        return std::string(2 + 2 * static_cast<size_t>(depth), ' ');
    };
    const auto emitEvents = [&](size_t upTo) {
        while (ev < events.size() && events[ev].inst == upTo) {
            if (events[ev].name == PhaseEvent::kEnd) {
                depth = std::max(0, depth - 1);
                os << indent() << "}\n";
            } else {
                os << indent() << "phase "
                   << lp.phaseNames[static_cast<size_t>(events[ev].name)]
                   << " {\n";
                ++depth;
            }
            ++ev;
        }
    };

    size_t li = 0;
    bool inLoop = false;
    const auto loopEdges = [&](size_t i) {
        if (inLoop && i == lp.loops[li].end) {
            depth = std::max(0, depth - 1);
            os << indent() << "}\n";
            ++li;
            inLoop = false;
        }
        emitEvents(i); // markers at a loop edge sit outside the body
        if (!inLoop && li < lp.loops.size() &&
            i == lp.loops[li].end - lp.loops[li].bodyLen) {
            os << indent() << "repeat " << lp.loops[li].trips << "x {\n";
            ++depth;
            inLoop = true;
        }
    };

    for (size_t i = 0; i < lp.code.size(); ++i) {
        loopEdges(i);
        const BcInst &b = lp.code[i];
        os << indent() << std::setw(5) << i << " shape#" << b.shape << " "
           << isa::opName(opOf(lp, i));
        if (b.kind == BcKind::Mem) {
            os << " bufs=[";
            for (u16 k = 0; k < b.bufCount; ++k) {
                const BcBuf &buf = lp.bufs[b.bufBegin + static_cast<u32>(k)];
                if (k)
                    os << " ";
                if (buf.streamed)
                    os << "~";
                else
                    os << "s" << buf.slot << ":";
                os << std::hex << std::showbase << buf.id << std::dec
                   << std::noshowbase << "/" << buf.bytes;
                if (buf.write)
                    os << "w";
            }
            os << "]";
        }
        if (b.runLen > 1)
            os << " ; fused run len=" << b.runLen << " kind="
               << fuseKindName(b.fuse);
        os << "\n";
    }
    loopEdges(lp.code.size());
}

} // namespace compiler
} // namespace ufc
