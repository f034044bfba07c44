/**
 * @file
 * Bytecode executor: runs a compiled compiler::Program through the exact
 * cycle model of sim/engine.h.
 *
 * The executor replicates CycleEngine::issue() arithmetic operation for
 * operation — same expressions, same evaluation order, same divisions —
 * over the bound cost rows, so its RunStats (and an attached Timeline,
 * and a TimeoutError trip) are bit-identical to the IR interpreter's.
 * What changes is the cost per instruction:
 *   - no virtual cost-model calls: each instruction reads the cost row
 *     of its shape, cost[code[k].shape], bound once per Program, and the
 *     pipeline fill is one run constant,
 *   - the scratchpad is a dense slot array with an intrusive LRU list
 *     instead of unordered_map + std::list,
 *   - the prefetch window is a flat ring buffer instead of a deque,
 *   - every folded loop (all trips of its all-Stream body) and every
 *     fused run (BcInst::runLen > 1) goes through one Stream kernel with
 *     no kind, phase or loop dispatch between its instructions; the
 *     span's cost rows are first copied into one contiguous block, so
 *     the kernel walks rows with no shape lookup (a loop body's copy is
 *     made once for all its trips).
 *
 * State in locals, same expressions, same order: for a whole exec() the
 * clocks, prefetch-ring cursors, instCount, scalar accumulators and a
 * copy of busyCycles/opStats live in a HotState local, not in members
 * reached through `this` (the cost rows' doubles could alias those, so
 * every step would reload and re-store them).  The Stream kernel copies the
 * scalar part into its own locals for a span, so the compiler keeps it
 * in registers.  The state is written back once at the end, and before
 * an exception leaves the engine.  The Stream kernel and the
 * per-instruction step() share one update, advance(), whose
 * expressions and evaluation order are CycleEngine::issue()'s;
 * per-instruction watchdog checks and the deadline poll cadence are
 * unchanged.  Timeline runs step every instruction.
 *
 * Thread safety: like CycleEngine — one engine per run, engines on
 * distinct threads may share one (immutable) Program.
 */

#ifndef UFC_SIM_BC_ENGINE_H
#define UFC_SIM_BC_ENGINE_H

#include <chrono>
#include <vector>

#include "compiler/bytecode.h"
#include "sim/engine.h"
#include "sim/stats.h"

namespace ufc {
namespace sim {

class Timeline;

class BytecodeEngine
{
  public:
    /** `program` must outlive the engine and must be a single-chip
     *  Program (composed Programs are decomposed by ComposedModel). */
    BytecodeEngine(const compiler::Program *program, int prefetchWindow);

    /** Same observation-only contract as CycleEngine::setTimeline. */
    void setTimeline(Timeline *timeline) { timeline_ = timeline; }
    /** Same semantics (and the same TimeoutError diagnostics) as
     *  CycleEngine::setMaxCycles. */
    void setMaxCycles(u64 cycles) { maxCycles_ = cycles; }
    /** Same poll cadence (CycleEngine::kDeadlinePollPeriod) and the same
     *  TimeoutError diagnostics as CycleEngine::setHostDeadline. */
    void
    setHostDeadline(std::chrono::steady_clock::time_point deadline)
    {
        hostDeadline_ = deadline;
    }

    /** Execute the whole Program and return the finished statistics
     *  (totalCycles defined as the per-opcode sum, exactly as
     *  CycleEngine::finish()). */
    RunStats run();

  private:
    /// Dense-slot scratchpad entry; prev/next form an intrusive LRU
    /// list over resident slots (head = most recent, tail = eviction
    /// candidate), replicating SpadModel's std::list semantics.
    struct Slot
    {
        double bytes = 0.0;
        bool dirty = false;
        bool resident = false;
        u32 prev = kNil;
        u32 next = kNil;
    };

    static constexpr u32 kNil = 0xffffffffu;

    /// Engine state one instruction updates, held in a local of exec():
    /// run constants, scalar registers, per-resource/per-op tables
    /// (defined in bc_engine.cpp; see the file comment).
    struct RunConsts;
    struct Regs;
    struct HotState;
    /// What advance() computed, for timeline slices.
    struct Times
    {
        double memStart;
        double memDone;
        double start;
        double done;
    };

    /// Copy the members into a HotState / write one back.
    HotState hoist();
    void sink(const HotState &h);
    /// Host-deadline poll at the IR engine's cadence; the slow path and
    /// the maxCycles trip are out of line and write `r` into `h` first.
    void poll(HotState &h, const RunConsts &k, const Regs &r) const;
    [[gnu::noinline, gnu::cold]] void pollDeadline(HotState &h,
                                                   Regs r) const;
    [[noreturn, gnu::noinline, gnu::cold]] void
    tripMaxCycles(HotState &h, Regs r) const;
    /// The per-instruction clock and statistics update.
    Times advance(HotState &h, const RunConsts &k, Regs &r,
                  const compiler::BcCost &c, double fetchBytes,
                  double wbBytes, double memCycles, double spillCycles);
    /// The Stream kernel: `trips` runs of the all-Stream body[0, len).
    void streamSpan(HotState &__restrict h,
                    const compiler::BcCost *__restrict rows, size_t len,
                    u64 trips, double zeroSpillCycles);
    /// Copy the cost rows of body[0, len) into spanRows_, in order.
    const compiler::BcCost *gatherRows(const compiler::BcInst *body,
                                       size_t len);
    /// Refuse a fused run the kernel cannot trust (ConfigError).
    void screenRun(size_t head, u64 limit) const;

    template <bool WithTimeline> void exec();
    template <bool WithTimeline>
    void step(HotState &h, const compiler::BcInst &inst);
    void applyPhaseEvent(const compiler::PhaseEvent &ev, double clock);

    double spadAccess(const compiler::BcBuf &buf, double &writebackBytes);
    void lruUnlink(u32 slot);
    void lruPushFront(u32 slot);

    const compiler::Program *program_;
    int window_;
    Timeline *timeline_ = nullptr;
    u64 maxCycles_ = 0;
    std::chrono::steady_clock::time_point hostDeadline_{};
    /// The current Stream span's cost rows, contiguous (gatherRows).
    std::vector<compiler::BcCost> spanRows_;

    double computeClock_ = 0.0;
    double memClock_ = 0.0;

    // Prefetch-window ring buffer mirroring CycleEngine's deque: the
    // deque only ever reads the element `window_` from the back and
    // trims the front beyond 4 * window_, so a fixed ring of that
    // capacity holds every value that can still be observed.
    std::vector<double> ring_;
    size_t ringStart_ = 0;
    size_t ringSize_ = 0;

    // Scratchpad state.
    std::vector<Slot> slots_;
    u32 lruHead_ = kNil;
    u32 lruTail_ = kNil;
    double spadUsed_ = 0.0;
    u64 spadEvictions_ = 0;

    RunStats stats_;
};

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_BC_ENGINE_H
