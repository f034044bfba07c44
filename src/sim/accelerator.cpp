/**
 * @file
 * Accelerator model implementations.
 *
 * Re-entrancy audit (relied on by src/runner/): every compile()/execute()
 * /run() builds its engine, scratchpad and lowering state on the stack,
 * the MachinePerf implementations are stateless over const configs, and
 * no function-local statics exist anywhere on this path — so concurrent
 * calls on the same model instance are safe and bit-deterministic.
 *
 * Bit-exactness: the bytecode path (compile + execute) and the legacy IR
 * path (runTraceIr) must produce identical RunResults.  Shared helpers
 * keep them aligned: the cost-model attach functions take a RunStats
 * regardless of which engine produced it, and ComposedModel routes both
 * paths through the same partition() and combine() arithmetic.
 */

#include "sim/accelerator.h"

#include "common/error.h"
#include "sim/bc_engine.h"
#include "sim/timeline.h"

namespace ufc {
namespace sim {

namespace {

/** Run one trace through a lowering + engine pair (legacy IR path). */
RunStats
lowerAndRun(const trace::Trace &tr, const compiler::LoweringOptions &opts,
            const MachinePerf &perf, const RunOptions &runOpts)
{
    validateRunOptions(runOpts);
    // -1 is the "model default" sentinel; 0 is an explicit request for a
    // no-lookahead memory engine.
    const int window = runOpts.prefetchWindow >= 0
                           ? runOpts.prefetchWindow
                           : CycleEngine::kDefaultPrefetchWindow;
    CycleEngine engine(&perf, window);
    engine.setMaxCycles(runOpts.maxCycles);
    engine.setHostDeadline(runOpts.hostDeadline);
    if (runOpts.timeline) {
        runOpts.timeline->clear();
        engine.setTimeline(runOpts.timeline);
    }
    compiler::Lowering lowering(&tr, opts, &engine);
    lowering.run();
    return engine.finish();
}

/**
 * Execute a compiled single-chip Program.  Applies RunOptions exactly as
 * lowerAndRun() does — same validation, same window resolution, same
 * watchdog/deadline arming, same timeline clearing — so a given options
 * value behaves identically on either path (including the TimeoutError
 * diagnostics, which both engines emit through sim::detail helpers).
 */
RunStats
executeProgram(const compiler::Program &program,
               const std::string &machine, u64 configDigest,
               const RunOptions &runOpts)
{
    validateRunOptions(runOpts);
    UFC_EXPECT(!program.composed(), ConfigError,
               "composed Program '" << program.workload
                   << "' executed on single-chip model '" << machine
                   << "'");
    UFC_EXPECT(program.machine == machine, ConfigError,
               "Program '" << program.workload << "' compiled for '"
                   << program.machine << "' executed on '" << machine
                   << "'");
    // Every UfcConfig is named "UFC": the name alone cannot tell a DSE
    // point's Program from the Table II machine's.
    UFC_EXPECT(program.configDigest == configDigest, ConfigError,
               "Program '" << program.workload << "' bound for a '"
                   << machine << "' configured differently (config "
                   << std::hex << program.configDigest << " vs "
                   << configDigest << std::dec << ")");
    const int window = runOpts.prefetchWindow >= 0
                           ? runOpts.prefetchWindow
                           : CycleEngine::kDefaultPrefetchWindow;
    BytecodeEngine engine(&program, window);
    engine.setMaxCycles(runOpts.maxCycles);
    engine.setHostDeadline(runOpts.hostDeadline);
    if (runOpts.timeline) {
        runOpts.timeline->clear();
        engine.setTimeline(runOpts.timeline);
    }
    return engine.run();
}

/** Share a freshly made lowering. */
std::shared_ptr<const compiler::LoweredProgram>
share(compiler::LoweredProgram &&lp)
{
    return std::make_shared<const compiler::LoweredProgram>(std::move(lp));
}

/** Fill the non-stats fields common to every model's result. */
void
stamp(RunResult &r, const RunOptions &opts, const std::string &machine,
      const std::string &workload)
{
    r.label = opts.label;
    r.machine = machine;
    r.workload = workload;
}

/** Cost-model attach shared by the two baseline chips. */
RunResult
attachBaseline(const BaselineCost &cost, double areaMm2,
               const RunStats &stats, const RunOptions &opts,
               const std::string &machine, const std::string &workload)
{
    RunResult r;
    stamp(r, opts, machine, workload);
    r.stats = stats;
    r.seconds = cost.seconds(stats);
    r.powerW = cost.averagePowerW(stats);
    r.energyJ = cost.energyJ(stats);
    r.energyStaticJ = cost.staticEnergyJ(stats);
    r.energyHbmJ = cost.hbmEnergyJ(stats);
    r.areaMm2 = areaMm2;
    return r;
}

} // namespace

RunResult
AcceleratorModel::run(const trace::Trace &tr, const RunOptions &opts) const
{
    if (opts.execMode == ExecMode::TraceIr)
        return runTraceIr(tr, opts);
    // Fail fast on bad options before paying for the compile; execute()
    // re-validates for direct callers.
    validateRunOptions(opts);
    return execute(compile(tr), opts);
}

void
ChipModel::admit(const trace::Trace &header, const trace::TraceOp &op) const
{
    (void)header;
    (void)op;
}

void
ChipModel::admitAll(const trace::Trace &tr) const
{
    for (const auto &op : tr.ops)
        admit(tr, op);
}

std::string
ChipModel::loweringKey() const
{
    return std::string(kind()) + "/" +
           compiler::loweringOptionsKey(loweringOptions());
}

std::shared_ptr<const compiler::LoweredProgram>
ChipModel::lower(const trace::Trace &tr) const
{
    return share(compiler::lowerTrace(tr, loweringOptions()));
}

compiler::Program
ChipModel::bind(std::shared_ptr<const compiler::LoweredProgram> lowered) const
{
    return compiler::bind(std::move(lowered), *perf(), name());
}

compiler::Program
ChipModel::compile(const trace::Trace &tr) const
{
    admitAll(tr);
    return bind(lower(tr));
}

compiler::Program
ChipModel::compileShared(const trace::Trace &tr,
                         const compiler::LoweringLookup &lookup) const
{
    // Admission first: a lowering another model shared must not let a
    // foreign trace through.
    admitAll(tr);
    return bind(lookup([&] { return lower(tr); }));
}

RunResult
ChipModel::execute(const compiler::Program &program,
                   const RunOptions &opts) const
{
    return attach(
        executeProgram(program, name(), perf()->configDigest(), opts),
        opts, program.workload);
}

RunResult
ChipModel::runTraceIr(const trace::Trace &tr, const RunOptions &opts) const
{
    admitAll(tr);
    return attach(lowerAndRun(tr, loweringOptions(), *perf(), opts), opts,
                  tr.name);
}

UfcModel::UfcModel(const UfcConfig &cfg, compiler::Parallelism par)
    : cfg_(cfg), parallelism_(par)
{}

compiler::LoweringOptions
UfcModel::loweringOptions() const
{
    compiler::LoweringOptions opts;
    opts.wordBits = cfg_.wordBits;
    opts.totalVectorLanes = cfg_.totalLanes();
    opts.autoViaNtt = true;
    opts.rotateAsMonomialMul = true;
    opts.smallPolyPacking = cfg_.smallPolyPacking;
    opts.parallelism = parallelism_;
    opts.onTheFlyKeyGen = cfg_.onTheFlyKeyGen;
    return opts;
}

double
UfcModel::areaMm2() const
{
    return UfcCostModel(cfg_).areaMm2();
}

RunResult
UfcModel::attach(const RunStats &stats, const RunOptions &opts,
                 const std::string &workload) const
{
    UfcCostModel cost(cfg_);
    RunResult r;
    stamp(r, opts, name(), workload);
    r.stats = stats;
    r.seconds = cost.seconds(stats);
    r.powerW = cost.averagePowerW(stats);
    r.energyJ = cost.energyJ(stats);
    r.energyStaticJ = cost.staticEnergyJ(stats);
    r.energyHbmJ = cost.hbmEnergyJ(stats);
    r.areaMm2 = cost.areaMm2();
    return r;
}

std::unique_ptr<MachinePerf>
UfcModel::perf() const
{
    return std::make_unique<UfcPerf>(cfg_);
}

SharpModel::SharpModel(const baselines::SharpConfig &cfg) : cfg_(cfg) {}

void
SharpModel::admit(const trace::Trace &header,
                  const trace::TraceOp &op) const
{
    // Ring-side scheme-switching ops (extract/repack) are CKKS-style
    // polynomial work; only logic-scheme ops are unsupported.  A
    // trace/machine mismatch is a job-configuration fault, not an
    // internal bug — recoverable, so a sweep survives it.
    UFC_EXPECT(op.scheme() != trace::Scheme::Tfhe, ConfigError,
               "SHARP only supports SIMD-scheme (CKKS) operations; "
               "trace '" << header.name << "' contains TFHE ops");
}

compiler::LoweringOptions
SharpModel::loweringOptions() const
{
    compiler::LoweringOptions lopts;
    lopts.wordBits = cfg_.wordBits;
    lopts.totalVectorLanes = 2048;
    lopts.autoViaNtt = false;       // all-to-all NoC automorphism
    lopts.rotateAsMonomialMul = false;
    lopts.smallPolyPacking = false;
    lopts.onTheFlyKeyGen = true;    // SHARP also generates keys on die
    return lopts;
}

RunResult
SharpModel::attach(const RunStats &stats, const RunOptions &opts,
                   const std::string &workload) const
{
    const BaselineCost cost{cfg_.areaMm2, cfg_.staticW,
                            cfg_.peakDynamicW, 30.0, cfg_.freqGHz};
    return attachBaseline(cost, cfg_.areaMm2, stats, opts, name(),
                          workload);
}

std::unique_ptr<MachinePerf>
SharpModel::perf() const
{
    return std::make_unique<baselines::SharpPerf>(cfg_);
}

StrixModel::StrixModel(const baselines::StrixConfig &cfg) : cfg_(cfg) {}

void
StrixModel::admit(const trace::Trace &header,
                  const trace::TraceOp &op) const
{
    UFC_EXPECT(op.scheme() == trace::Scheme::Tfhe, ConfigError,
               "Strix only supports logic-scheme (TFHE) operations; "
               "trace '" << header.name << "' contains non-TFHE ops");
}

compiler::LoweringOptions
StrixModel::loweringOptions() const
{
    compiler::LoweringOptions lopts;
    lopts.wordBits = cfg_.wordBits;
    lopts.totalVectorLanes = static_cast<int>(cfg_.macWordsPerCycle);
    lopts.autoViaNtt = false;
    lopts.rotateAsMonomialMul = false;
    // Strix batches bootstraps through its streaming pipeline; modeled as
    // packing over its (narrower) datapath.
    lopts.smallPolyPacking = true;
    lopts.parallelism = compiler::Parallelism::TvLP;
    lopts.onTheFlyKeyGen = false;
    return lopts;
}

RunResult
StrixModel::attach(const RunStats &stats, const RunOptions &opts,
                   const std::string &workload) const
{
    const BaselineCost cost{cfg_.areaMm2, cfg_.staticW,
                            cfg_.peakDynamicW, 30.0, cfg_.freqGHz};
    return attachBaseline(cost, cfg_.areaMm2, stats, opts, name(),
                          workload);
}

std::unique_ptr<MachinePerf>
StrixModel::perf() const
{
    return std::make_unique<baselines::StrixPerf>(cfg_);
}

ComposedModel::ComposedModel(const baselines::SharpConfig &sharp,
                             const baselines::StrixConfig &strix,
                             double pcieGBs, double pcieLatencyUs)
    : sharp_(sharp), strix_(strix), pcieGBs_(pcieGBs),
      pcieLatencyUs_(pcieLatencyUs)
{}

void
ComposedModel::partition(const trace::Trace &tr, trace::Trace &ckksPart,
                         trace::Trace &tfhePart, double &pcieBytes,
                         u64 &pcieTransfers) const
{
    // Partition the trace by scheme.  Scheme-switching ops run on the
    // SIMD chip (extraction/repacking are ring operations) but their LWE
    // payloads cross PCIe to reach the logic chip.
    ckksPart = tr;
    ckksPart.ops.clear();
    tfhePart = tr;
    tfhePart.ops.clear();
    pcieBytes = 0.0;
    pcieTransfers = 0;
    for (const auto &op : tr.ops) {
        switch (op.scheme()) {
          case trace::Scheme::Ckks:
            ckksPart.ops.push_back(op);
            break;
          case trace::Scheme::Tfhe:
            tfhePart.ops.push_back(op);
            break;
          case trace::Scheme::Switch: {
            // Ring-side work stays on SHARP as CKKS-equivalent ops; the
            // resulting LWE vectors cross the link.
            if (op.kind == trace::OpKind::SwitchExtract) {
                // Extraction itself is cheap; LWEs move to the TFHE chip.
                pcieBytes += static_cast<double>(op.count) *
                             (tr.tfheLweDim + 1) * 4.0;
                ++pcieTransfers;
                // The parameter-normalizing key switch runs on Strix.
                tfhePart.push(trace::OpKind::TfheKeySwitch, 0, op.count);
            } else { // SwitchRepack
                pcieBytes += static_cast<double>(op.count) *
                             (tr.tfheLweDim + 1) * 4.0;
                ++pcieTransfers;
                ckksPart.ops.push_back(op);
            }
            break;
          }
        }
    }
}

RunResult
ComposedModel::combine(const RunResult &sharpRes,
                       const RunResult &strixRes, double pcieBytes,
                       u64 pcieTransfers, const RunOptions &opts,
                       const std::string &workload) const
{
    const double pcieSeconds =
        pcieBytes / (pcieGBs_ * 1e9) + pcieTransfers * pcieLatencyUs_ * 1e-6;

    RunResult r;
    stamp(r, opts, name(), workload);
    r.stats = sharpRes.stats;
    r.stats.merge(strixRes.stats);
    // The two chips pipeline independent queries/batches, so steady-state
    // time is the slower side plus the link time; energy still sums.
    r.seconds = std::max(sharpRes.seconds, strixRes.seconds) + pcieSeconds;
    const double pcieEnergyJ = pcieBytes * 10.0e-12; // ~10 pJ/byte link
    r.energyJ = sharpRes.energyJ + strixRes.energyJ + pcieEnergyJ;
    // Idle chip burns static power while the other one works.
    const double idleStaticJ = sharp_.staticW * strixRes.seconds +
                               strix_.staticW * sharpRes.seconds;
    r.energyJ += idleStaticJ;
    r.energyStaticJ =
        sharpRes.energyStaticJ + strixRes.energyStaticJ + idleStaticJ;
    // Off-chip component: both chips' HBM plus the PCIe link.
    r.energyHbmJ = sharpRes.energyHbmJ + strixRes.energyHbmJ + pcieEnergyJ;
    r.areaMm2 = areaMm2();
    r.powerW = r.seconds > 0 ? r.energyJ / r.seconds : 0.0;
    return r;
}

std::string
ComposedModel::loweringKey() const
{
    // The partition depends on the trace alone; the PCIe terms only
    // enter execute().
    return "SHARP+Strix/" + SharpModel(sharp_).loweringKey() + "/" +
           StrixModel(strix_).loweringKey();
}

std::shared_ptr<const compiler::LoweredProgram>
ComposedModel::lower(const trace::Trace &tr) const
{
    trace::Trace ckksPart;
    trace::Trace tfhePart;
    compiler::LoweredProgram lp;
    lp.workload = tr.name;
    lp.traceHash = trace::contentHash(tr);
    partition(tr, ckksPart, tfhePart, lp.pcieBytes, lp.pcieTransfers);
    // parts[0] = SHARP, parts[1] = Strix; a null part marks a chip with
    // no work, mirroring the IR path's skipped sub-run.
    lp.parts.resize(2);
    if (!ckksPart.ops.empty())
        lp.parts[0] = SharpModel(sharp_).lower(ckksPart);
    if (!tfhePart.ops.empty())
        lp.parts[1] = StrixModel(strix_).lower(tfhePart);
    return share(std::move(lp));
}

compiler::Program
ComposedModel::bind(
    std::shared_ptr<const compiler::LoweredProgram> lowered) const
{
    compiler::Program p;
    p.workload = lowered->workload;
    p.machine = name();
    p.traceHash = lowered->traceHash;
    p.pcieBytes = lowered->pcieBytes;
    p.pcieTransfers = lowered->pcieTransfers;
    // A default (machine-less) part marks a chip with no work.
    p.parts.resize(2);
    if (lowered->parts.size() == 2 && lowered->parts[0])
        p.parts[0] = SharpModel(sharp_).bind(lowered->parts[0]);
    if (lowered->parts.size() == 2 && lowered->parts[1])
        p.parts[1] = StrixModel(strix_).bind(lowered->parts[1]);
    p.lowered = std::move(lowered);
    return p;
}

compiler::Program
ComposedModel::compile(const trace::Trace &tr) const
{
    return bind(lower(tr));
}

compiler::Program
ComposedModel::compileShared(const trace::Trace &tr,
                             const compiler::LoweringLookup &lookup) const
{
    return bind(lookup([&] { return lower(tr); }));
}

RunResult
ComposedModel::execute(const compiler::Program &program,
                       const RunOptions &opts) const
{
    validateRunOptions(opts);
    UFC_EXPECT(program.machine == name() && program.parts.size() == 2,
               ConfigError,
               "Program '" << program.workload << "' compiled for '"
                   << program.machine
                   << "' executed on composed model '" << name() << "'");

    // Sub-runs inherit the engine knobs but not the label (the composed
    // result is the one the caller asked for) and not the timeline (the
    // two chips run in independent clock domains, so interleaving their
    // slices on one time axis would be misleading).
    RunOptions subOpts = opts;
    subOpts.label.clear();
    subOpts.timeline = nullptr;

    RunResult sharpRes;
    if (!program.parts[0].machine.empty())
        sharpRes = SharpModel(sharp_).execute(program.parts[0], subOpts);
    RunResult strixRes;
    if (!program.parts[1].machine.empty())
        strixRes = StrixModel(strix_).execute(program.parts[1], subOpts);

    return combine(sharpRes, strixRes, program.pcieBytes,
                   program.pcieTransfers, opts, program.workload);
}

RunResult
ComposedModel::runTraceIr(const trace::Trace &tr,
                          const RunOptions &opts) const
{
    validateRunOptions(opts);
    trace::Trace ckksPart;
    trace::Trace tfhePart;
    double pcieBytes = 0.0;
    u64 pcieTransfers = 0;
    partition(tr, ckksPart, tfhePart, pcieBytes, pcieTransfers);

    // See execute() for why sub-runs drop the label and timeline.  The
    // sub-calls go through run(), which dispatches on opts.execMode —
    // TraceIr here, since runTraceIr is only reached through it.
    RunOptions subOpts = opts;
    subOpts.label.clear();
    subOpts.timeline = nullptr;

    RunResult sharpRes;
    if (!ckksPart.ops.empty())
        sharpRes = SharpModel(sharp_).run(ckksPart, subOpts);
    RunResult strixRes;
    if (!tfhePart.ops.empty())
        strixRes = StrixModel(strix_).run(tfhePart, subOpts);

    return combine(sharpRes, strixRes, pcieBytes, pcieTransfers, opts,
                   tr.name);
}

} // namespace sim
} // namespace ufc
