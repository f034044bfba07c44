/**
 * @file
 * Trace-to-bytecode compiler: the machine-free lowering, the per-machine
 * binding, and the builder that produces the lowering.
 *
 * The cycle engine used to re-interpret the heavyweight trace IR on every
 * run: each issue() paid four virtual cost-model calls, an operand-vector
 * walk through an unordered_map-backed scratchpad, and a deque-based
 * prefetch window.  Compilation now happens in two steps:
 *
 *   - lowering (lowerTrace): the trace becomes a LoweredProgram, a
 *     dense array of 16-byte BcInst records with every operand buffer
 *     pre-resolved to a dense scratchpad slot, plus a per-Program table
 *     of the distinct instruction *shapes* (op, logDegree, batch, words,
 *     work, streamed bytes).  The lowering reads the trace and the
 *     LoweringOptions only, never a machine, so every machine whose
 *     options agree shares one (the runner's ProgramCache does exactly
 *     that across a sweep).
 *   - binding (bind): one MachinePerf evaluation per shape yields a cost
 *     row; a bound Program is the shared lowering plus those rows and the
 *     machine constants.  A few hundred shapes stand in for the
 *     hundreds of thousands of instructions a lowering can hold.
 *
 * Execution (sim/bc_engine.h) is then a tight loop over plain arrays that
 * reads cost[code[k].shape] — the shape riposte's TraceInst bytecode and
 * nullc's lowering context use for the same reason.
 *
 * Bit-exactness contract (enforced by tests/test_bytecode.cpp): executing
 * a Program yields a RunStats bit-identical to feeding the same lowering
 * through the IR CycleEngine — cycles, energy inputs, per-op attribution,
 * stall causes and timeline slices.  Every cost row is a pure function of
 * (shape, const machine config), evaluated with the exact expressions the
 * IR engine would use:
 *   - busyLaneCycles  = computeCycles * laneFraction   (same product)
 *   - staticFetchBytes sums streamed operand bytes in operand order
 *     (floating-point accumulation order is observable)
 *   - staticMemCycles = staticFetchBytes / hbmBytesPerCycle
 *     (kept as a division; multiplying by a precomputed inverse is NOT
 *     bit-identical)
 *   - the pipeline fill is one machine constant (Program::fillCycles)
 *   - transient refs and zero-byte streamed refs are dropped at lowering
 *     time only because they provably contribute nothing to engine state
 *     or statistics.
 *
 * Fusion: maximal runs of consecutive instructions that touch no cached
 * (scratchpad-resident) operand and do not cross a phase boundary are
 * tagged as one macro-op at the run head (runLen > 1).  On UFC this makes
 * each hybrid key switch (ModUp -> inner product -> ModDown: the operands
 * stream or live on chip) and each TFHE blind-rotate body between
 * bootstrap-key fetches a single fused unit the executor runs through its
 * Stream kernel as one span.  Legality is lintable: analysis rules
 * `bc-fuse-cached-operand` and `bc-fuse-phase-span` (verifyProgram).
 */

#ifndef UFC_COMPILER_BYTECODE_H
#define UFC_COMPILER_BYTECODE_H

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/lowering.h"
#include "isa/inst.h"
#include "trace/trace.h"

namespace ufc {
namespace sim {
class MachinePerf; // sim/engine.h
} // namespace sim

namespace compiler {

/** Execution class of one BcInst. */
enum class BcKind : u8
{
    /// No cached operands: the memory phase is fully pre-computed
    /// (staticFetchBytes / staticMemCycles), eligible for fusion.
    Stream,
    /// At least one operand goes through the scratchpad model; the
    /// executor walks the BcBuf records in operand order.
    Mem,
};

/** Why a fused run was formed (disassembly / lint context). */
enum class FuseKind : u8
{
    None,        ///< not a run head
    KeySwitch,   ///< inside a "key_switch" phase (ModUp/IP/ModDown)
    BlindRotate, ///< inside a "blind_rotate" phase (PBS inner loop)
    Generic,     ///< any other streaming run (bootstrap linear algebra...)
};

const char *fuseKindName(FuseKind kind);

/** One pre-resolved operand reference (transients are compiled away). */
struct BcBuf
{
    u64 id = 0;          ///< original buffer id (diagnostics only)
    double bytes = 0.0;  ///< region size, pre-converted to double
    u32 slot = kNoSlot;  ///< dense scratchpad slot; kNoSlot when streamed
    bool write = false;
    bool streamed = false;

    static constexpr u32 kNoSlot = 0xffffffffu;
};

/**
 * One bytecode instruction of a lowering: which shape it has (its cost
 * row once bound), its operand records and its fusion tag.  16 bytes,
 * four records per cache line.
 */
struct BcInst
{
    u32 shape = 0;     ///< LoweredProgram::shapes / Program::cost index
    u32 bufBegin = 0;  ///< first BcBuf (Mem kind)
    u16 bufCount = 0;  ///< BcBuf count (Mem kind)
    /// Fused-run head: number of consecutive Stream instructions
    /// (including this one) the executor runs as one Stream-kernel
    /// span; 1 everywhere else.
    u16 runLen = 1;
    BcKind kind = BcKind::Stream;
    FuseKind fuse = FuseKind::None;
};

static_assert(sizeof(BcInst) == 16, "BcInst must stay 16 bytes");

/**
 * A distinct instruction shape of one lowering: every field a
 * MachinePerf reads, plus the streamed operand bytes of a Stream
 * instruction (summed in operand order; 0 for Mem instructions, whose
 * memory phase walks their BcBuf records at run time).  Instructions
 * with equal shapes cost the same on every machine.
 */
struct BcShape
{
    u8 op = 0;             ///< isa::HwOp
    u32 logDegree = 0;
    u32 batch = 1;
    u64 words = 0;
    u64 work = 0;
    double staticFetchBytes = 0.0;
};

/**
 * The bound cost of one shape on one machine: what the executor reads
 * per instruction.  `op` and `staticFetchBytes` repeat the shape's so a
 * step touches one row.
 */
struct BcCost
{
    double computeCycles = 0.0;    ///< MachinePerf::computeCycles
    double busyLaneCycles = 0.0;   ///< computeCycles * laneFraction
    double nocCycles = 0.0;        ///< MachinePerf::nocCycles
    double staticFetchBytes = 0.0; ///< BcShape::staticFetchBytes
    /// staticFetchBytes / hbmBytesPerCycle.
    double staticMemCycles = 0.0;
    u8 op = 0;         ///< isa::HwOp
    u8 resource = 0;   ///< isa::Resource
};

/**
 * A phase marker between instructions: fires before instruction `inst`
 * (== code.size() for end-of-stream markers).  `name` indexes
 * LoweredProgram::phaseNames; kEnd closes the innermost open phase.
 */
struct PhaseEvent
{
    u64 inst = 0;
    i32 name = kEnd;

    static constexpr i32 kEnd = -1;
};

/**
 * A folded structural repeat: the `bodyLen` instructions ending at index
 * `end` (exclusive — the body is code[end - bodyLen, end)) execute
 * `trips` times back to back.  Loops come from InstSink::beginRepeat
 * offers the builder accepted; they never nest, never overlap, and their
 * bodies are all-Stream (no scratchpad state), so re-executing the body
 * is observable-identical to the unrolled stream.  Sorted by `end`.
 */
struct BcLoop
{
    u64 end = 0;      ///< one past the last body instruction
    u32 bodyLen = 0;  ///< body instruction count (>= 1)
    u64 trips = 0;    ///< total executions of the body (>= 2)
};

/**
 * A lowered trace: everything about a compiled Program that does not
 * depend on the machine.  Immutable once built and shared through
 * shared_ptr<const LoweredProgram> by every Program bound to it.
 *
 * A composed machine's lowering has empty `code` and one sub-lowering
 * per chip in `parts` (null for a chip with no work), plus the PCIe link
 * traffic the partition computed.
 */
struct LoweredProgram
{
    std::string workload;   ///< Trace::name
    u64 traceHash = 0;      ///< trace::contentHash of the source trace
    u32 spadSlots = 0;      ///< dense scratchpad slot count

    std::vector<BcInst> code;
    std::vector<BcShape> shapes; ///< indexed by BcInst::shape
    std::vector<BcBuf> bufs;
    std::vector<BcLoop> loops;   ///< folded repeats, sorted by end
    std::vector<PhaseEvent> phaseEvents;
    std::vector<std::string> phaseNames; ///< owned; outlives the trace

    // Composed-machine decomposition (see struct docs).
    std::vector<std::shared_ptr<const LoweredProgram>> parts;
    double pcieBytes = 0.0;
    u64 pcieTransfers = 0;

    // Fusion statistics (disassembly / bench reporting).
    u64 fusedRuns = 0;
    u64 fusedInsts = 0;
};

struct Program;

namespace detail {

/**
 * Empty tag member counting live Program instances (process-wide).
 * Tests assert the runner's single-use eviction actually releases
 * compiled programs instead of retaining them for the whole batch.
 */
struct LiveCounter
{
    LiveCounter() noexcept { bump(); }
    LiveCounter(const LiveCounter &) noexcept { bump(); }
    LiveCounter(LiveCounter &&) noexcept { bump(); }
    LiveCounter &operator=(const LiveCounter &) noexcept = default;
    LiveCounter &operator=(LiveCounter &&) noexcept = default;
    ~LiveCounter();

  private:
    static void bump() noexcept;
};

/** The shared empty lowering a default-constructed Program points at. */
const std::shared_ptr<const LoweredProgram> &emptyLowering();

} // namespace detail

/** Live Program instances right now (parts count individually). */
u64 livePrograms();
/** High-water mark of livePrograms() since the last reset. */
u64 peakLivePrograms();
/** Reset the peak to the current live count. */
void resetPeakLivePrograms();

/**
 * A bound Program: a shared lowering plus one cost row per shape and the
 * constants of the machine it was bound for — everything
 * AcceleratorModel::execute() needs, with no references back to the
 * Trace or the MachinePerf.  Programs are immutable after bind() and safe
 * to share across threads.
 *
 * A composed machine binds to a Program with empty `code` and one
 * sub-Program per chip in `parts` (plus the PCIe link traffic the
 * partition computed); single-chip Programs have empty `parts`.
 */
struct Program
{
    /// The machine-free half; never null (an empty lowering by default).
    std::shared_ptr<const LoweredProgram> lowered = detail::emptyLowering();
    /// lowered->code, for callers that only walk or size the code.
    std::span<const BcInst> code;
    /// One row per lowered->shapes entry, bound for `machine`.
    std::vector<BcCost> cost;

    std::string workload;      ///< Trace::name (stamped into RunResult)
    std::string machine;       ///< model name the costs were bound for
    u64 traceHash = 0;         ///< trace::contentHash of the source trace
    /// MachinePerf::configDigest of the bound machine: execute() refuses
    /// a Program bound for a differently configured machine even when
    /// the two share a name.
    u64 configDigest = 0;

    // Machine constants captured from the MachinePerf.
    double hbmBytesPerCycle = 1.0;
    double scratchpadBytes = 0.0;
    double fillCycles = 0.0;   ///< MachinePerf::pipelineFillCycles

    // Composed-machine decomposition (see struct docs).
    std::vector<Program> parts;
    double pcieBytes = 0.0;
    u64 pcieTransfers = 0;

    bool composed() const { return !parts.empty(); }

    /// Instance accounting (see livePrograms()); stateless otherwise.
    detail::LiveCounter liveCounter;

    /** Instructions the executor steps, with loop bodies multiplied out
     *  — equals the IR interpreter's instruction count. */
    u64
    totalInsts() const
    {
        u64 n = code.size();
        for (const BcLoop &lp : lowered->loops)
            n += static_cast<u64>(lp.bodyLen) * (lp.trips - 1);
        return n;
    }
};

/**
 * Bind a single-chip lowering to a machine: one MachinePerf evaluation
 * per shape, with the exact expressions the IR engine uses (see the
 * file comment).  Throws whatever the MachinePerf throws for a shape the
 * machine cannot run.
 */
Program bind(std::shared_ptr<const LoweredProgram> lowered,
             const sim::MachinePerf &perf, const std::string &machineName);

/**
 * One scratchpad-slot touch in a Program's def-use stream (see
 * slotAccesses()).  `inst` indexes the code; `write` mirrors the
 * BcBuf flag (a write access *defines* the slot's contents, a read
 * access *uses* them).  `id` is the lowering's buffer id — value-flow
 * analyses must check compiler::syntheticCiphertextId(id) before
 * treating the slot as a value (ciphertext-pool ids model locality
 * only); traffic analyses may use every access.
 */
struct SlotAccess
{
    u64 inst = 0;
    u32 slot = 0;
    u64 id = 0;
    double bytes = 0.0;
    bool write = false;
};

/**
 * Def-use export for the dataflow layer: every cached (scratchpad)
 * operand reference of a single-chip Program, in execution order —
 * program order over instructions, operand order within one — which is
 * exactly the order the engine's LRU walks them.  Streamed operands
 * never touch a slot and are omitted.  Composed Programs are rejected
 * with ConfigError; export each part instead.
 */
std::vector<SlotAccess> slotAccesses(const Program &p);

/**
 * InstSink that builds a LoweredProgram: the bytecode emitter plugs into
 * the same Lowering pipeline as the analysis::VerifyingSink, so `--lint`
 * verification and lowering compose in one pass over the instruction
 * stream (LoweringOptions::lint interposes the verifier in front of this
 * sink).  Single-use, like Lowering itself: issue everything, then call
 * finish() exactly once to run the fusion pass.
 */
class ProgramBuilder : public isa::InstSink
{
  public:
    /** The builder appends into `out` (normally fresh), which must
     *  outlive it. */
    explicit ProgramBuilder(LoweredProgram *out);

    void issue(const isa::HwInst &inst) override;
    void beginPhase(const char *name) override;
    void endPhase() override;

    /** Accept repeat folds: the body is lowered once and recorded as a
     *  loop (all-Stream bodies only; a body that touches the scratchpad
     *  is unrolled by re-issuing it trips-1 times, since its memory
     *  behaviour depends on LRU state). */
    bool beginRepeat(u64 trips) override;
    void endRepeat() override;

    /** Seal the lowering: assign fused runs and the slot count. */
    void finish();

  private:
    u32 slotFor(u64 id);
    u32 shapeFor(const BcShape &shape);
    void fuse();

    LoweredProgram *out_;
    std::unordered_map<u64, u32> slots_;
    /// Open-addressing shape index (power-of-two size, entries are
    /// shape id + 1, 0 = empty): one probe per issue() in the common
    /// case, over a table that stays in L1.
    std::vector<u32> shapeIndex_;
    std::unordered_map<std::string, u32> phaseNameIdx_;
    // Open repeat offer (beginRepeat..endRepeat window).
    u64 repeatTrips_ = 0;
    u64 repeatStart_ = 0;      ///< code.size() at beginRepeat
    u64 repeatEvents_ = 0;     ///< phaseEvents.size() at beginRepeat
    bool repeatOpen_ = false;
    bool finished_ = false;
};

/**
 * Lower a trace with `opts` straight into a ProgramBuilder (verifier
 * interposed when `lint` is non-null, exactly as in a simulation run)
 * and return the sealed lowering.  Throws the same typed errors a
 * lowering inside run() would.
 */
LoweredProgram lowerTrace(const trace::Trace &tr,
                          const LoweringOptions &opts,
                          analysis::DiagnosticReport *lint = nullptr);

/**
 * Cache key of a lowering geometry: every LoweringOptions field except
 * `lint` (verification observes the stream, it never changes it).  Two
 * option sets with equal keys lower every trace identically.
 */
std::string loweringOptionsKey(const LoweringOptions &opts);

/** Produces a lowering (see LoweringLookup). */
using LowerFn = std::function<std::shared_ptr<const LoweredProgram>()>;

/**
 * Where a model takes the lowering of the trace it is compiling: returns
 * a shared lowering for the (trace, lowering key) pair the caller bound
 * in, running `lower` only when it has none (runner::ProgramCache).
 */
using LoweringLookup =
    std::function<std::shared_ptr<const LoweredProgram>(const LowerFn &)>;

/**
 * Check the fused-op legality invariants of a compiled Program and append
 * violations to `out`:
 *   bc-fuse-cached-operand  a fused run contains an instruction with a
 *                           cached (scratchpad) operand — its memory
 *                           behaviour depends on LRU state, so it must
 *                           not be iterated as a streaming macro-op
 *   bc-fuse-phase-span      a fused run crosses a phase marker or a
 *                           loop boundary, which would mis-place
 *                           timeline slices / repeat executions
 *   bc-loop-invariant       a folded loop is malformed: out of bounds,
 *                           overlapping or unsorted, trivial (trips < 2
 *                           or empty body), containing a cached-operand
 *                           instruction, or spanning a phase marker
 * Programs produced by ProgramBuilder::finish() always pass; the rules
 * guard hand-built or mutated Programs (and regressions in the fusion
 * pass itself).
 */
void verifyProgram(const Program &program,
                   analysis::DiagnosticReport &out);

/** Human-readable disassembly (inspect_trace --bytecode). */
void disassemble(const Program &program, std::ostream &os);

} // namespace compiler
} // namespace ufc

#endif // UFC_COMPILER_BYTECODE_H
