#include "timed_model.h"

#include <chrono>

namespace ufcbench {

namespace {

using Clock = std::chrono::steady_clock;

unsigned long long
nsSince(Clock::time_point t0)
{
    return static_cast<unsigned long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

/** Code records of a Program, composed parts included. */
unsigned long long
codeRecords(const ufc::compiler::Program &p)
{
    unsigned long long n = p.code.size();
    for (const auto &part : p.parts)
        n += codeRecords(part);
    return n;
}

} // namespace

LayerTotals &
LayerTotals::operator+=(const LayerTotals &o)
{
    compileCalls += o.compileCalls;
    compileNs += o.compileNs;
    records += o.records;
    executeCalls += o.executeCalls;
    executeNs += o.executeNs;
    insts += o.insts;
    return *this;
}

LayerTotals
LayerTotals::operator-(const LayerTotals &o) const
{
    LayerTotals d = *this;
    d.compileCalls -= o.compileCalls;
    d.compileNs -= o.compileNs;
    d.records -= o.records;
    d.executeCalls -= o.executeCalls;
    d.executeNs -= o.executeNs;
    d.insts -= o.insts;
    return d;
}

TimedModel::TimedModel(
    std::shared_ptr<const ufc::sim::AcceleratorModel> inner)
    : inner_(std::move(inner))
{}

ufc::compiler::Program
TimedModel::compile(const ufc::trace::Trace &tr) const
{
    const auto t0 = Clock::now();
    ufc::compiler::Program p = inner_->compile(tr);
    counts_.compileNs.fetch_add(nsSince(t0), std::memory_order_relaxed);
    counts_.compileCalls.fetch_add(1, std::memory_order_relaxed);
    counts_.records.fetch_add(codeRecords(p), std::memory_order_relaxed);
    return p;
}

ufc::sim::RunResult
TimedModel::execute(const ufc::compiler::Program &program,
                    const ufc::sim::RunOptions &opts) const
{
    const auto t0 = Clock::now();
    ufc::sim::RunResult r = inner_->execute(program, opts);
    counts_.executeNs.fetch_add(nsSince(t0), std::memory_order_relaxed);
    counts_.executeCalls.fetch_add(1, std::memory_order_relaxed);
    counts_.insts.fetch_add(r.stats.instCount, std::memory_order_relaxed);
    return r;
}

ufc::sim::RunResult
TimedModel::runTraceIr(const ufc::trace::Trace &tr,
                       const ufc::sim::RunOptions &opts) const
{
    // The IR interpreter is protected in the inner model; its public
    // run() dispatches there for ExecMode::TraceIr.  Not timed: the
    // benchmark runs the default bytecode path only.
    return inner_->run(tr, opts);
}

LayerTotals
TimedModel::totals() const
{
    LayerTotals t;
    t.compileCalls = counts_.compileCalls.load(std::memory_order_relaxed);
    t.compileNs = counts_.compileNs.load(std::memory_order_relaxed);
    t.records = counts_.records.load(std::memory_order_relaxed);
    t.executeCalls = counts_.executeCalls.load(std::memory_order_relaxed);
    t.executeNs = counts_.executeNs.load(std::memory_order_relaxed);
    t.insts = counts_.insts.load(std::memory_order_relaxed);
    return t;
}

} // namespace ufcbench
