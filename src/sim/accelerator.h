/**
 * @file
 * Accelerator models: the top-level objects that take a workload trace,
 * compile it to a bytecode Program with their compiler options, execute
 * it on the cycle engine, and attach physical units (seconds, joules,
 * mm^2).
 *
 * ## Execution API (compile / execute)
 *
 * The primary entry points are the two-phase pair
 *
 *     compiler::Program p = model->compile(trace);   // once
 *     sim::RunResult    r = model->execute(p, opts); // many times
 *
 * so callers that run one trace under many options (DSE sweeps, the
 * batch runner via its ProgramCache, watchdog bisection) pay the
 * lowering cost once.  compile() itself is two steps: a machine-free
 * lowering (compiler::LoweredProgram) and a cheap per-machine bind.
 * Models whose lowering options agree (loweringKey()) lower a trace
 * identically, so the runner lowers each (trace, key) pair once and
 * binds it per model (compileShared()).  A trace file compiles the same
 * way, as compile(trace::loadTrace(path)): the lowered Program is at
 * least 60x the size of the op vector, so parsing the whole trace first
 * costs no memory that matters.  `run(trace, opts)` remains as a
 * convenience shim over compile+execute — kept deprecated-but-tested for
 * the figure benches and external callers; new code should prefer the
 * split API.
 * With RunOptions::execMode == ExecMode::TraceIr, run() instead takes
 * the legacy IR-interpreter path; both paths produce bit-identical
 * results (enforced by the bytecode differential test gate).
 */

#ifndef UFC_SIM_ACCELERATOR_H
#define UFC_SIM_ACCELERATOR_H

#include <memory>

#include "baselines/sharp_perf.h"
#include "baselines/strix_perf.h"
#include "compiler/bytecode.h"
#include "compiler/lowering.h"
#include "sim/cost_model.h"
#include "sim/ufc_perf.h"

namespace ufc {
namespace sim {

/**
 * Common interface for all simulated accelerators.
 *
 * Thread safety: compile(), execute() and run() are const and
 * re-entrant.  Every implementation builds its per-run state
 * (CycleEngine/BytecodeEngine, SpadModel, compiler::Lowering) on the
 * stack and only reads its configuration, so one model instance may
 * simulate many traces concurrently — the batch experiment runner
 * (src/runner/) relies on this contract.  A compiled Program is
 * immutable and may be executed by any number of threads at once.
 */
class AcceleratorModel
{
  public:
    virtual ~AcceleratorModel() = default;

    /**
     * Lower `tr` once into an executable bytecode Program for this
     * machine.  Throws the same typed errors (ConfigError for an
     * unsupported scheme, TraceError from a malformed trace) the
     * corresponding run() would.
     */
    virtual compiler::Program compile(const trace::Trace &tr) const = 0;

    /**
     * Identity of this model's lowering: the model kind plus every
     * LoweringOptions field but `lint`.  Models with equal keys lower
     * every trace to the same LoweredProgram.  Empty (the default): the
     * model's lowerings are private, and callers use compile().
     */
    virtual std::string loweringKey() const { return {}; }

    /**
     * compile(tr), with the lowering taken from `lookup` (see
     * compiler::LoweringLookup) instead of made privately; the result
     * is identical to compile(tr).  The default ignores `lookup` and
     * returns compile(tr).
     */
    virtual compiler::Program
    compileShared(const trace::Trace &tr,
                  const compiler::LoweringLookup &lookup) const
    {
        (void)lookup;
        return compile(tr);
    }

    /**
     * Execute a Program previously produced by this model's compile()
     * under the given per-run options.  Throws ConfigError when the
     * Program was bound for a different machine — another model, or the
     * same model name with a different configuration.
     */
    virtual RunResult execute(const compiler::Program &program,
                              const RunOptions &opts) const = 0;

    /** Convenience overload with default options. */
    RunResult
    execute(const compiler::Program &program) const
    {
        return execute(program, RunOptions{});
    }

    /**
     * One-shot convenience (deprecated shim): compile(tr) + execute()
     * under the default ExecMode::Bytecode, or the legacy IR
     * interpreter when opts.execMode == ExecMode::TraceIr.  Callers
     * that execute a trace more than once should compile() it
     * themselves (or go through the runner, which caches Programs).
     */
    RunResult run(const trace::Trace &tr, const RunOptions &opts) const;

    /** Convenience overload with default options. */
    RunResult run(const trace::Trace &tr) const
    {
        return run(tr, RunOptions{});
    }

    virtual std::string name() const = 0;
    virtual double areaMm2() const = 0;

  protected:
    /** Legacy IR-interpreter path behind run(); bit-identical to the
     *  bytecode path by construction and by test. */
    virtual RunResult runTraceIr(const trace::Trace &tr,
                                 const RunOptions &opts) const = 0;
};

/**
 * A single-chip model.  compile() is bind(lower(tr)): lower() runs the
 * lowering with loweringOptions(), bind() evaluates the chip's
 * MachinePerf once per shape.  execute() runs the bytecode engine and
 * attaches the chip's physical units.  Subclasses supply the machine.
 */
class ChipModel : public AcceleratorModel
{
  public:
    compiler::Program compile(const trace::Trace &tr) const override;
    std::string loweringKey() const override;
    compiler::Program
    compileShared(const trace::Trace &tr,
                  const compiler::LoweringLookup &lookup) const override;
    using AcceleratorModel::execute;
    RunResult execute(const compiler::Program &program,
                      const RunOptions &opts) const override;

    /** The machine-free half of compile(). */
    std::shared_ptr<const compiler::LoweredProgram>
    lower(const trace::Trace &tr) const;
    /** The per-machine half: bind a lowering made under this model's
     *  loweringKey(). */
    compiler::Program
    bind(std::shared_ptr<const compiler::LoweredProgram> lowered) const;

    /** The chip's lowering knobs. */
    virtual compiler::LoweringOptions loweringOptions() const = 0;

  protected:
    /** The chip's performance model. */
    virtual std::unique_ptr<MachinePerf> perf() const = 0;
    RunResult runTraceIr(const trace::Trace &tr,
                         const RunOptions &opts) const override;
    /** Model kind: the first component of loweringKey(). */
    virtual const char *kind() const = 0;
    /** Refuse (ConfigError) an op the chip cannot run; `header` names
     *  the trace.  The default accepts every op. */
    virtual void admit(const trace::Trace &header,
                       const trace::TraceOp &op) const;
    /** Physical units (seconds, joules, mm^2) of a finished run. */
    virtual RunResult attach(const RunStats &stats, const RunOptions &opts,
                             const std::string &workload) const = 0;

  private:
    void admitAll(const trace::Trace &tr) const;
};

/** The proposed unified accelerator. */
class UfcModel : public ChipModel
{
  public:
    explicit UfcModel(const UfcConfig &cfg = UfcConfig::tableII(),
                      compiler::Parallelism par =
                          compiler::Parallelism::TvLP);

    std::string name() const override { return cfg_.name; }
    double areaMm2() const override;

    const UfcConfig &config() const { return cfg_; }
    compiler::LoweringOptions loweringOptions() const override;

  protected:
    std::unique_ptr<MachinePerf> perf() const override;
    const char *kind() const override { return "UFC"; }
    RunResult attach(const RunStats &stats, const RunOptions &opts,
                     const std::string &workload) const override;

  private:
    UfcConfig cfg_;
    compiler::Parallelism parallelism_;
};

/** SHARP baseline (CKKS-only). */
class SharpModel : public ChipModel
{
  public:
    explicit SharpModel(
        const baselines::SharpConfig &cfg = baselines::SharpConfig{});

    std::string name() const override { return "SHARP"; }
    double areaMm2() const override { return cfg_.areaMm2; }
    compiler::LoweringOptions loweringOptions() const override;

  protected:
    std::unique_ptr<MachinePerf> perf() const override;
    const char *kind() const override { return "SHARP"; }
    void admit(const trace::Trace &header,
               const trace::TraceOp &op) const override;
    RunResult attach(const RunStats &stats, const RunOptions &opts,
                     const std::string &workload) const override;

  private:
    baselines::SharpConfig cfg_;
};

/** Strix baseline (TFHE-only). */
class StrixModel : public ChipModel
{
  public:
    explicit StrixModel(
        const baselines::StrixConfig &cfg = baselines::StrixConfig{});

    std::string name() const override { return "Strix"; }
    double areaMm2() const override { return cfg_.areaMm2; }
    compiler::LoweringOptions loweringOptions() const override;

  protected:
    std::unique_ptr<MachinePerf> perf() const override;
    const char *kind() const override { return "Strix"; }
    void admit(const trace::Trace &header,
               const trace::TraceOp &op) const override;
    RunResult attach(const RunStats &stats, const RunOptions &opts,
                     const std::string &workload) const override;

  private:
    baselines::StrixConfig cfg_;
};

/**
 * The composed SHARP + Strix system used as the hybrid-workload baseline
 * (Section VI-D): CKKS ops dispatch to SHARP, TFHE ops to Strix, and
 * scheme-switching data crosses a PCIe 5.0 x16 link.  lower()
 * partitions the trace and lowers each chip's share, bind() binds each
 * share to its chip (Program::parts); execute() runs the parts on the
 * sub-models and combines time/energy with the PCIe link terms.
 */
class ComposedModel : public AcceleratorModel
{
  public:
    ComposedModel(const baselines::SharpConfig &sharp =
                      baselines::SharpConfig{},
                  const baselines::StrixConfig &strix =
                      baselines::StrixConfig{},
                  double pcieGBs = 63.0, double pcieLatencyUs = 2.0);

    compiler::Program compile(const trace::Trace &tr) const override;
    std::string loweringKey() const override;
    compiler::Program
    compileShared(const trace::Trace &tr,
                  const compiler::LoweringLookup &lookup) const override;
    /** Partition `tr` by scheme and lower each chip's share. */
    std::shared_ptr<const compiler::LoweredProgram>
    lower(const trace::Trace &tr) const;
    /** Bind each chip's share of a composed lowering to that chip. */
    compiler::Program
    bind(std::shared_ptr<const compiler::LoweredProgram> lowered) const;
    using AcceleratorModel::execute;
    RunResult execute(const compiler::Program &program,
                      const RunOptions &opts) const override;
    std::string name() const override { return "SHARP+Strix"; }
    double areaMm2() const override
    {
        return sharp_.areaMm2 + strix_.areaMm2;
    }

  protected:
    RunResult runTraceIr(const trace::Trace &tr,
                         const RunOptions &opts) const override;

  private:
    /** Scheme partition shared by compile() and runTraceIr() so the
     *  PCIe accounting is computed identically on both paths. */
    void partition(const trace::Trace &tr, trace::Trace &ckksPart,
                   trace::Trace &tfhePart, double &pcieBytes,
                   u64 &pcieTransfers) const;
    RunResult combine(const RunResult &sharpRes,
                      const RunResult &strixRes, double pcieBytes,
                      u64 pcieTransfers, const RunOptions &opts,
                      const std::string &workload) const;

    baselines::SharpConfig sharp_;
    baselines::StrixConfig strix_;
    double pcieGBs_;
    double pcieLatencyUs_;
};

} // namespace sim
} // namespace ufc

#endif // UFC_SIM_ACCELERATOR_H
