/**
 * @file
 * Strix performance model implementation.
 */

#include "baselines/strix_perf.h"

#include <algorithm>

#include "common/error.h"

namespace ufc {
namespace baselines {

using isa::HwInst;
using isa::HwOp;
using isa::Resource;

double
StrixPerf::computeCycles(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto: {
        const double util = fftUtilization(inst.logDegree,
                                           cfg_.designLogN, cfg_.maxLogN);
        // A ring outside Strix's FFT range is a workload/machine
        // mismatch (user input), so it must stay recoverable.
        UFC_EXPECT(util > 0.0, ConfigError,
                   "Strix cannot process logN=" << inst.logDegree
                                                << " polynomials");
        // FFT work equals NTT butterfly work (inst.work) on 64-bit units.
        const double rate = cfg_.butterflies * util * cfg_.pipelineEff;
        return std::max(1.0, static_cast<double>(inst.work) / rate);
      }
      case HwOp::Ewmm:
      case HwOp::Ewma:
      case HwOp::EwScale:
      case HwOp::MonomialMul:
      case HwOp::Decomp:
      case HwOp::BconvMac:
      case HwOp::KeyGenOtf:
        return std::max(1.0, static_cast<double>(inst.work) /
                                 cfg_.macWordsPerCycle);
      case HwOp::Extract:
      case HwOp::Reduce:
        return std::max(1.0, static_cast<double>(inst.work) /
                                 cfg_.lweWordsPerCycle);
      case HwOp::Shuffle:
        return std::max(1.0, static_cast<double>(inst.words) /
                                 cfg_.macWordsPerCycle);
      case HwOp::NumHwOps:
        break;
    }
    return 1.0;
}

Resource
StrixPerf::resourceFor(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return Resource::Butterfly;
      case HwOp::Extract:
      case HwOp::Reduce:
        return Resource::Lweu;
      case HwOp::Shuffle:
        return Resource::Noc;
      default:
        return Resource::VectorAlu;
    }
}

double
StrixPerf::laneFraction(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return fftUtilization(inst.logDegree, cfg_.designLogN,
                              cfg_.maxLogN);
      default:
        return 1.0;
    }
}

double
StrixPerf::nocCycles(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return 0.5 * computeCycles(inst);
      case HwOp::Shuffle:
        return computeCycles(inst);
      default:
        return 0.0;
    }
}

double
StrixPerf::hbmBytesPerCycle() const
{
    return cfg_.hbmGBs / cfg_.freqGHz;
}

double
StrixPerf::scratchpadBytes() const
{
    return cfg_.scratchpadMb * 1024.0 * 1024.0;
}

u64
StrixPerf::configDigest() const
{
    // Every field of the config (the name aside): the cost model and the
    // physical units read them all.
    return sim::digestFields(
        {double(cfg_.butterflies), double(cfg_.designLogN),
         double(cfg_.maxLogN), cfg_.macWordsPerCycle, cfg_.pipelineEff,
         cfg_.lweWordsPerCycle, cfg_.hbmGBs, cfg_.scratchpadMb,
         cfg_.freqGHz, double(cfg_.wordBits), cfg_.areaMm2, cfg_.staticW,
         cfg_.peakDynamicW});
}

} // namespace baselines
} // namespace ufc
