/**
 * @file
 * A forwarding AcceleratorModel that times the compile and execute
 * layers of the model it wraps, from outside the library.
 *
 * The traced sweep hands the runner one TimedModel per distinct inner
 * model, so the runner keeps its own path -- ProgramCache keyed on the
 * (wrapper) instance, Program retention, the thread pool -- while every
 * compile()/execute() call is counted and timed here.  Results pass
 * through untouched: a wrapped run is bit-identical to an unwrapped one.
 */

#ifndef UFCBENCH_TIMED_MODEL_H
#define UFCBENCH_TIMED_MODEL_H

#include <atomic>
#include <memory>
#include <string>

#include "sim/accelerator.h"

namespace ufcbench {

/** Counts accumulated by one TimedModel (relaxed atomics: the runner
 *  calls the wrapper from many threads). */
struct LayerCounts
{
    std::atomic<unsigned long long> compileCalls{0};
    std::atomic<unsigned long long> compileNs{0};
    std::atomic<unsigned long long> records{0}; ///< sum of Program::code sizes
    std::atomic<unsigned long long> executeCalls{0};
    std::atomic<unsigned long long> executeNs{0};
    std::atomic<unsigned long long> insts{0}; ///< simulated instructions
};

/** Plain copy of LayerCounts for arithmetic. */
struct LayerTotals
{
    unsigned long long compileCalls = 0, compileNs = 0, records = 0;
    unsigned long long executeCalls = 0, executeNs = 0, insts = 0;

    LayerTotals &operator+=(const LayerTotals &o);
    LayerTotals operator-(const LayerTotals &o) const;
};

class TimedModel final : public ufc::sim::AcceleratorModel
{
  public:
    explicit TimedModel(
        std::shared_ptr<const ufc::sim::AcceleratorModel> inner);

    ufc::compiler::Program
    compile(const ufc::trace::Trace &tr) const override;
    using AcceleratorModel::execute;
    ufc::sim::RunResult
    execute(const ufc::compiler::Program &program,
            const ufc::sim::RunOptions &opts) const override;
    std::string name() const override { return inner_->name(); }
    double areaMm2() const override { return inner_->areaMm2(); }

    LayerTotals totals() const;

  protected:
    ufc::sim::RunResult
    runTraceIr(const ufc::trace::Trace &tr,
               const ufc::sim::RunOptions &opts) const override;

  private:
    std::shared_ptr<const ufc::sim::AcceleratorModel> inner_;
    mutable LayerCounts counts_;
};

} // namespace ufcbench

#endif // UFCBENCH_TIMED_MODEL_H
