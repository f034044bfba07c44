/**
 * @file
 * Bytecode executor implementation.
 *
 * Every arithmetic statement here mirrors one in CycleEngine::issue() /
 * finish(); when editing, keep the expressions and their evaluation
 * order in lockstep with sim/engine.cpp — the differential tests
 * (tests/test_bytecode.cpp) compare the two paths bit for bit.
 */

#include "sim/bc_engine.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "sim/timeline.h"

namespace ufc {
namespace sim {

BytecodeEngine::BytecodeEngine(const compiler::Program *program,
                               int prefetchWindow)
    : program_(program), window_(prefetchWindow)
{
    slots_.resize(program_->lowered->spadSlots);
    if (window_ > 0)
        ring_.resize(4 * static_cast<size_t>(window_));
}

void
BytecodeEngine::lruUnlink(u32 slot)
{
    Slot &e = slots_[slot];
    if (e.prev != kNil)
        slots_[e.prev].next = e.next;
    else
        lruHead_ = e.next;
    if (e.next != kNil)
        slots_[e.next].prev = e.prev;
    else
        lruTail_ = e.prev;
    e.prev = kNil;
    e.next = kNil;
}

void
BytecodeEngine::lruPushFront(u32 slot)
{
    Slot &e = slots_[slot];
    e.prev = kNil;
    e.next = lruHead_;
    if (lruHead_ != kNil)
        slots_[lruHead_].prev = slot;
    lruHead_ = slot;
    if (lruTail_ == kNil)
        lruTail_ = slot;
}

double
BytecodeEngine::spadAccess(const compiler::BcBuf &buf,
                           double &writebackBytes)
{
    // Mirrors SpadModel::access() over dense slots: same hit/grow
    // arithmetic, same eviction order (tail = least recent), same
    // dirty-victim write-back accounting.
    writebackBytes = 0.0;
    Slot &e = slots_[buf.slot];
    if (e.resident) {
        lruUnlink(buf.slot);
        lruPushFront(buf.slot);
        e.dirty = e.dirty || buf.write;
        if (e.bytes < buf.bytes) {
            spadUsed_ += buf.bytes - e.bytes;
            e.bytes = buf.bytes;
        }
        return 0.0;
    }

    while (spadUsed_ + buf.bytes > program_->scratchpadBytes &&
           lruTail_ != kNil) {
        const u32 victim = lruTail_;
        Slot &v = slots_[victim];
        lruUnlink(victim);
        if (v.dirty)
            writebackBytes += v.bytes;
        spadUsed_ -= v.bytes;
        v.resident = false;
        v.dirty = false;
        ++spadEvictions_;
    }
    lruPushFront(buf.slot);
    e.bytes = buf.bytes;
    e.dirty = buf.write;
    e.resident = true;
    spadUsed_ += buf.bytes;

    return buf.write ? 0.0 : buf.bytes;
}

/// Per-run constants the per-instruction update reads.
struct BytecodeEngine::RunConsts
{
    const compiler::BcCost *cost; ///< cost row per shape
    double fill;                  ///< Program::fillCycles
    double *ring;
    size_t ringCap;
    int window;
    /// maxCycles_ as a double, +inf when the watchdog is off: one
    /// compare with the same outcome as `maxCycles_ > 0 && clock > max`.
    double cycleBound;
    bool deadlineArmed;
};

/**
 * The scalar engine state one instruction updates: the Stream kernel
 * copies it into locals for a span so the clocks and accumulators stay
 * in registers.  Fields mirror the members and RunStats fields of the
 * same names.
 */
struct BytecodeEngine::Regs
{
    double computeClock;
    double memClock;
    size_t ringStart;
    size_t ringSize;
    u64 instCount;
    double hbmBytes;
    double hbmBusyCycles;
    double hbmBound;
    double dependency;
    double pipelineFill;
    double spadSpillCycles;
    double spadWritebackBytes;
};

/**
 * Everything one instruction reads and writes besides the scratchpad and
 * spadHitBytes (both Mem-only).  exec() keeps one of these in a local
 * for the whole run and hands it to the Stream kernel by reference.
 */
struct BytecodeEngine::HotState
{
    RunConsts k;
    Regs r;
    std::array<double, isa::kNumResources> busyCycles;
    std::array<OpStats, isa::kNumHwOps> opStats;
};

BytecodeEngine::HotState
BytecodeEngine::hoist()
{
    HotState h;
    h.k.cost = program_->cost.data();
    h.k.fill = program_->fillCycles;
    h.k.ring = ring_.data();
    h.k.ringCap = ring_.size();
    h.k.window = window_;
    h.k.cycleBound = maxCycles_ > 0
                         ? static_cast<double>(maxCycles_)
                         : std::numeric_limits<double>::infinity();
    h.k.deadlineArmed =
        hostDeadline_ != std::chrono::steady_clock::time_point{};
    h.r.computeClock = computeClock_;
    h.r.memClock = memClock_;
    h.r.ringStart = ringStart_;
    h.r.ringSize = ringSize_;
    h.r.instCount = stats_.instCount;
    h.r.hbmBytes = stats_.hbmBytes;
    h.r.hbmBusyCycles = stats_.hbmBusyCycles;
    h.r.hbmBound = stats_.stalls.hbmBound;
    h.r.dependency = stats_.stalls.dependency;
    h.r.pipelineFill = stats_.stalls.pipelineFill;
    h.r.spadSpillCycles = stats_.stalls.spadSpillCycles;
    h.r.spadWritebackBytes = stats_.stalls.spadWritebackBytes;
    h.busyCycles = stats_.busyCycles;
    h.opStats = stats_.opStats;
    return h;
}

void
BytecodeEngine::sink(const HotState &h)
{
    computeClock_ = h.r.computeClock;
    memClock_ = h.r.memClock;
    ringStart_ = h.r.ringStart;
    ringSize_ = h.r.ringSize;
    stats_.instCount = h.r.instCount;
    stats_.hbmBytes = h.r.hbmBytes;
    stats_.hbmBusyCycles = h.r.hbmBusyCycles;
    stats_.stalls.hbmBound = h.r.hbmBound;
    stats_.stalls.dependency = h.r.dependency;
    stats_.stalls.pipelineFill = h.r.pipelineFill;
    stats_.stalls.spadSpillCycles = h.r.spadSpillCycles;
    stats_.stalls.spadWritebackBytes = h.r.spadWritebackBytes;
    stats_.busyCycles = h.busyCycles;
    stats_.opStats = h.opStats;
}

// The two watchdog slow paths take `r` by value: the Stream kernel's
// `r` is a local, and handing out its address would let it escape.
// Both copy it into `h` before throwing, since exec()'s handler (which
// writes `h` back to the members) cannot see the kernel's locals.

inline void
BytecodeEngine::poll(HotState &h, const RunConsts &k,
                     const Regs &r) const
{
    // Cooperative host-deadline poll, same cadence as the IR engine.
    if (k.deadlineArmed &&
        r.instCount % CycleEngine::kDeadlinePollPeriod == 0) [[unlikely]]
        pollDeadline(h, r);
}

void
BytecodeEngine::pollDeadline(HotState &h, Regs r) const
{
    detail::countDeadlinePoll();
    if (std::chrono::steady_clock::now() >= hostDeadline_) {
        h.r = r;
        detail::throwHostDeadline(r.instCount, r.computeClock);
    }
}

void
BytecodeEngine::tripMaxCycles(HotState &h, Regs r) const
{
    h.r = r;
    detail::throwMaxCycles(r.computeClock, maxCycles_, r.instCount + 1);
}

/**
 * The one copy of the per-instruction clock and statistics update:
 * CycleEngine::issue() statement for statement after its memory phase,
 * from the prefetch-window wait through the stall accounting.  The
 * caller polls the deadline and runs the memory phase first, as issue()
 * does.  `spillCycles` is wbBytes / hbmBytesPerCycle, computed by the
 * caller so the Stream kernel can pass the (identical) value once per
 * run.
 */
inline BytecodeEngine::Times
BytecodeEngine::advance(HotState &h, const RunConsts &k, Regs &r,
                        const compiler::BcCost &c, double fetchBytes,
                        double wbBytes, double memCycles,
                        double spillCycles)
{
    double memStart = r.memClock;
    if (k.window <= 0) {
        memStart = std::max(memStart, r.computeClock);
    } else if (r.ringSize >= static_cast<size_t>(k.window)) {
        // ringStart < ring size and ringSize <= ring size, so the
        // unwrapped index is < 2x the size: one conditional subtract
        // replaces the modulo (a hardware divide) on the hot path.
        size_t idx = r.ringStart + r.ringSize - static_cast<size_t>(k.window);
        if (idx >= k.ringCap)
            idx -= k.ringCap;
        memStart = std::max(memStart, k.ring[idx]);
    }
    const double memDone = memStart + memCycles;
    r.memClock = memDone;

    const double computeBefore = r.computeClock;
    const double start = std::max(computeBefore, memDone);
    const double done = start + c.computeCycles + k.fill;
    r.computeClock = done;

    if (r.computeClock > k.cycleBound) [[unlikely]]
        tripMaxCycles(h, r);

    if (k.window > 0) {
        // push_back + trim-beyond-4*window, as a ring overwrite
        // (conditional wrap, not modulo: indices advance by one).
        if (r.ringSize == k.ringCap) {
            k.ring[r.ringStart] = done;
            ++r.ringStart;
            if (r.ringStart == k.ringCap)
                r.ringStart = 0;
        } else {
            size_t idx = r.ringStart + r.ringSize;
            if (idx >= k.ringCap)
                idx -= k.ringCap;
            k.ring[idx] = done;
            ++r.ringSize;
        }
    }

    h.busyCycles[c.resource] += c.busyLaneCycles;
    h.busyCycles[static_cast<int>(isa::Resource::Noc)] += c.nocCycles;
    r.hbmBytes += fetchBytes + wbBytes;
    r.hbmBusyCycles += memCycles;
    ++r.instCount;

    const double wait = start - computeBefore;
    OpStats &op = h.opStats[c.op];
    ++op.count;
    op.cycles += wait + c.computeCycles + k.fill;
    op.computeCycles += c.computeCycles;
    op.stallCycles += wait;
    op.fillCycles += k.fill;
    op.hbmBytes += fetchBytes + wbBytes;

    const double hbmOverlap = std::min(wait, memCycles);
    r.hbmBound += hbmOverlap;
    r.dependency += wait - hbmOverlap;
    r.pipelineFill += k.fill;
    r.spadWritebackBytes += wbBytes;
    r.spadSpillCycles += spillCycles;
    return {memStart, memDone, start, done};
}

// GCC's SLP vectorizer packs the two clocks into one vector register
// and shuffles them apart on the loop-carried path; the kernel runs
// faster scalar.
#if defined(__GNUC__) && !defined(__clang__)
#define UFC_SCALAR_KERNEL __attribute__((optimize("no-tree-slp-vectorize")))
#else
#define UFC_SCALAR_KERNEL
#endif

/**
 * The Stream kernel: `trips` back-to-back executions of an all-Stream
 * span whose cost rows, in instruction order, are rows[0, len)
 * (gatherRows).  A fused run is one trip; a folded loop is its body
 * times its trip count.  The memory phase of a Stream instruction is
 * bound per shape, so each instruction is a deadline poll plus advance()
 * over its row.  Out of line on purpose: in a small function the run
 * constants and the scalar state copied into `k` and `r` get registers,
 * and `__restrict` tells the compiler that stores into `h`'s tables and
 * the prefetch ring never alias the row loads.
 */
UFC_SCALAR_KERNEL void
BytecodeEngine::streamSpan(HotState &__restrict h,
                           const compiler::BcCost *__restrict rows,
                           size_t len, u64 trips, double zeroSpillCycles)
{
    const RunConsts k = h.k;
    Regs r = h.r;
    const compiler::BcCost *const end = rows + len;
    for (u64 t = 0; t < trips; ++t)
        for (const compiler::BcCost *c = rows; c != end; ++c) {
            poll(h, k, r);
            advance(h, k, r, *c, c->staticFetchBytes, 0.0,
                    c->staticMemCycles, zeroSpillCycles);
        }
    h.r = r;
}

/**
 * Contiguous rows let the kernel walk one array instead of looking each
 * instruction's shape up: on folded loops (NN-T4 executes 99.6% of its
 * instructions in 7-instruction bodies) the copy is made once per loop,
 * not once per trip.
 */
const compiler::BcCost *
BytecodeEngine::gatherRows(const compiler::BcInst *body, size_t len)
{
    spanRows_.resize(std::max(spanRows_.size(), len));
    const compiler::BcCost *cost = program_->cost.data();
    for (size_t j = 0; j < len; ++j)
        spanRows_[j] = cost[body[j].shape];
    return spanRows_.data();
}

#undef UFC_SCALAR_KERNEL

void
BytecodeEngine::screenRun(size_t head, u64 limit) const
{
    // The Stream kernel trusts runLen for bounds and member kinds; refuse
    // a hand-built or mutated run here, as run() does a bad loop.
    const auto &code = program_->lowered->code;
    const u64 end = head + code[head].runLen;
    UFC_EXPECT(end <= limit, ConfigError,
               "malformed Program fused run at " << head << " (runLen="
                   << code[head].runLen << " overruns " << limit
                   << "); see lint rule bc-fuse-phase-span");
    for (size_t k = head + 1; k < end; ++k)
        UFC_EXPECT(code[k].kind == compiler::BcKind::Stream, ConfigError,
                   "malformed Program fused run at "
                       << head << " (member " << k
                       << " touches the scratchpad); see lint rule "
                          "bc-fuse-cached-operand");
}

template <bool WithTimeline>
inline void
BytecodeEngine::step(HotState &h, const compiler::BcInst &b)
{
    poll(h, h.k, h.r);

    // Memory phase.  Stream instructions carry it pre-computed; Mem
    // instructions walk their operand records in original order so the
    // floating-point accumulation matches the IR engine's.
    const compiler::BcCost &c = h.k.cost[b.shape];
    double fetchBytes;
    double wbBytes;
    double memCycles;
    if (b.kind == compiler::BcKind::Stream) {
        fetchBytes = c.staticFetchBytes;
        wbBytes = 0.0;
        memCycles = c.staticMemCycles;
    } else {
        fetchBytes = 0.0;
        wbBytes = 0.0;
        const compiler::BcBuf *buf = &program_->lowered->bufs[b.bufBegin];
        for (u16 k = 0; k < b.bufCount; ++k, ++buf) {
            if (buf->streamed) {
                fetchBytes += buf->bytes;
                continue;
            }
            double wb = 0.0;
            const double miss = spadAccess(*buf, wb);
            fetchBytes += miss;
            wbBytes += wb;
            if (miss == 0.0 && !buf->write)
                stats_.spadHitBytes += buf->bytes;
        }
        memCycles = (fetchBytes + wbBytes) / program_->hbmBytesPerCycle;
    }

    const Times t = advance(h, h.k, h.r, c, fetchBytes, wbBytes, memCycles,
                            wbBytes / program_->hbmBytesPerCycle);

    if constexpr (WithTimeline) {
        const char *name = isa::opName(static_cast<isa::HwOp>(c.op));
        if (memCycles > 0)
            timeline_->addSlice(Timeline::kHbmTrack, name, t.memStart,
                                t.memDone, fetchBytes + wbBytes);
        timeline_->addSlice(static_cast<int>(c.resource), name, t.start,
                            t.done);
    }
}

void
BytecodeEngine::applyPhaseEvent(const compiler::PhaseEvent &ev, double clock)
{
    if (ev.name == compiler::PhaseEvent::kEnd)
        timeline_->endPhase(clock);
    else
        timeline_
            ->beginPhase(
                program_->lowered->phaseNames[static_cast<size_t>(ev.name)]
                    .c_str(),
                clock);
}

template <bool WithTimeline>
void
BytecodeEngine::exec()
{
    const compiler::LoweredProgram &lp = *program_->lowered;
    const auto &code = lp.code;
    const auto &events = lp.phaseEvents;
    const auto &loops = lp.loops;
    const size_t n = code.size();
    size_t ev = 0;
    size_t i = 0;
    size_t li = 0;
    u64 tripsDone = 0;
    // A Stream instruction's write-back is 0.0, so its spill term is this
    // same quotient every time (0.0 / x is exact and deterministic).
    const double zeroSpillCycles = 0.0 / program_->hbmBytesPerCycle;
    HotState h = hoist();
    try {
        while (true) {
            if constexpr (WithTimeline) {
                // Structural loop-back: timeline runs step every
                // instruction, so a folded body re-executes by jumping
                // back.  It fires before any phase event at this index,
                // so markers recorded after a fold fire once — after the
                // final trip.  Folded bodies contain no markers
                // (bc-loop-invariant), so the event cursor stays
                // monotonic across the jump.
                if (li < loops.size() && i == loops[li].end) {
                    ++tripsDone;
                    if (tripsDone < loops[li].trips) {
                        i -= loops[li].bodyLen;
                        continue;
                    }
                    ++li;
                    tripsDone = 0;
                }
            }
            if (i >= n)
                break;
            if constexpr (WithTimeline) {
                while (ev < events.size() && events[ev].inst == i) {
                    applyPhaseEvent(events[ev], h.r.computeClock);
                    ++ev;
                }
                step<true>(h, code[i]);
                ++i;
            } else {
                // Stream spans: a folded loop starting here (all trips),
                // else a fused run head (one trip).  Neither contains a
                // phase marker (bc-loop-invariant, bc-fuse-phase-span),
                // and timeline runs never get here, so the kernel skips
                // every per-instruction dispatch check.
                const u64 loopStart = li < loops.size()
                                          ? loops[li].end - loops[li].bodyLen
                                          : n;
                if (i == loopStart) {
                    streamSpan(h, gatherRows(&code[i], loops[li].bodyLen),
                               loops[li].bodyLen, loops[li].trips,
                               zeroSpillCycles);
                    i = loops[li].end;
                    ++li;
                } else if (code[i].runLen > 1) {
                    screenRun(i, loopStart);
                    streamSpan(h, gatherRows(&code[i], code[i].runLen),
                               code[i].runLen, 1, zeroSpillCycles);
                    i += code[i].runLen;
                } else {
                    step<false>(h, code[i]);
                    ++i;
                }
            }
        }
    } catch (...) {
        sink(h);
        throw;
    }
    sink(h);
    if constexpr (WithTimeline) {
        while (ev < events.size()) {
            applyPhaseEvent(events[ev], computeClock_);
            ++ev;
        }
    }
}

RunStats
BytecodeEngine::run()
{
    UFC_EXPECT(!program_->composed(), ConfigError,
               "BytecodeEngine cannot execute a composed Program ('"
                   << program_->machine
                   << "'); decompose it via ComposedModel::execute");
    const compiler::LoweredProgram &lowered = *program_->lowered;
    // Every shape needs its bound cost row (bind() makes one per shape).
    UFC_EXPECT(program_->cost.size() == lowered.shapes.size(), ConfigError,
               "Program '" << program_->workload << "' has "
                   << program_->cost.size() << " cost rows for "
                   << lowered.shapes.size() << " shapes; bind it first");
    // Cheap structural screen of the loop table (the executor trusts it
    // for control flow); verifyProgram() covers the full invariants.
    // The Stream kernel also trusts that a body is all-Stream.
    u64 prevEnd = 0;
    for (const auto &lp : lowered.loops) {
        UFC_EXPECT(lp.bodyLen > 0 && lp.trips >= 2 &&
                       lp.end <= lowered.code.size() &&
                       lp.bodyLen <= lp.end &&
                       lp.end - lp.bodyLen >= prevEnd,
                   ConfigError,
                   "malformed Program loop (end=" << lp.end << " body="
                       << lp.bodyLen << " trips=" << lp.trips
                       << "); see lint rule bc-loop-invariant");
        for (u64 k = lp.end - lp.bodyLen; k < lp.end; ++k)
            UFC_EXPECT(lowered.code[k].kind == compiler::BcKind::Stream,
                       ConfigError,
                       "malformed Program loop (end="
                           << lp.end << " body=" << lp.bodyLen
                           << "): instruction " << k
                           << " touches the scratchpad; see lint rule "
                              "bc-loop-invariant");
        prevEnd = lp.end;
    }
    if (timeline_)
        exec<true>();
    else
        exec<false>();

    // totalCycles is defined as the fixed-order per-opcode sum, exactly
    // as CycleEngine::finish().
    double total = 0.0;
    for (const auto &op : stats_.opStats)
        total += op.cycles;
    stats_.totalCycles = total;
    stats_.stalls.spadEvictions = spadEvictions_;
    if (timeline_)
        timeline_->closeOpenPhases(computeClock_);
    return stats_;
}

} // namespace sim
} // namespace ufc
