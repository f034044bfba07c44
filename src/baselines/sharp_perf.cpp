/**
 * @file
 * SHARP performance model implementation.
 */

#include "baselines/sharp_perf.h"

#include <algorithm>

namespace ufc {
namespace baselines {

using isa::HwInst;
using isa::HwOp;
using isa::Resource;

double
SharpPerf::computeCycles(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto: {
        // Deep pipeline: throughput is nttWordsPerCycle at the design
        // point, degraded by stage bypass for smaller rings.
        const double util =
            nttUtilization(inst.logDegree, cfg_.nttPipelineLogN);
        const double rate = cfg_.nttWordsPerCycle * util;
        return std::max(1.0, static_cast<double>(inst.words) / rate);
      }
      case HwOp::BconvMac:
        return std::max(1.0, static_cast<double>(inst.work) /
                                 cfg_.bconvMacsPerCycle);
      case HwOp::Ewmm:
      case HwOp::Ewma:
      case HwOp::EwScale:
      case HwOp::MonomialMul:
      case HwOp::KeyGenOtf:
        return std::max(1.0, static_cast<double>(inst.work) /
                                 cfg_.elewWordsPerCycle);
      case HwOp::Shuffle:
        // Automorphism through the all-to-all NoC.
        return std::max(1.0, static_cast<double>(inst.words) /
                                 cfg_.nocWordsPerCycle);
      case HwOp::Decomp:
      case HwOp::Extract:
      case HwOp::Reduce:
        // SHARP has no hardware for the logic-scheme primitives; when a
        // lowering nevertheless asks, the BConv MAC pipeline runs with a
        // single active lane (paper Section III-A).
        return std::max(1.0, static_cast<double>(inst.work));
      case HwOp::NumHwOps:
        break;
    }
    return 1.0;
}

Resource
SharpPerf::resourceFor(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return Resource::Butterfly;
      case HwOp::Shuffle:
        return Resource::Noc;
      default:
        return Resource::VectorAlu;
    }
}

double
SharpPerf::laneFraction(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        return nttUtilization(inst.logDegree, cfg_.nttPipelineLogN);
      case HwOp::Decomp:
      case HwOp::Extract:
      case HwOp::Reduce:
        return 1.0 / cfg_.bconvMacsPerCycle; // single-lane activation
      default:
        return 1.0;
    }
}

double
SharpPerf::nocCycles(const HwInst &inst) const
{
    switch (inst.op) {
      case HwOp::Shuffle:
        return computeCycles(inst);
      case HwOp::Ntt:
      case HwOp::Intt:
      case HwOp::NttAuto:
        // Transpose networks inside the pipelined NTTU.
        return 0.5 * computeCycles(inst);
      default:
        return 0.0;
    }
}

double
SharpPerf::hbmBytesPerCycle() const
{
    return cfg_.hbmGBs / cfg_.freqGHz;
}

double
SharpPerf::scratchpadBytes() const
{
    return cfg_.scratchpadMb * 1024.0 * 1024.0;
}

u64
SharpPerf::configDigest() const
{
    // Every field of the config (the name aside): the cost model and the
    // physical units read them all.
    return sim::digestFields(
        {cfg_.nttWordsPerCycle, double(cfg_.nttPipelineLogN),
         cfg_.bconvMacsPerCycle, cfg_.elewWordsPerCycle,
         cfg_.nocWordsPerCycle, cfg_.hbmGBs, cfg_.scratchpadMb,
         cfg_.freqGHz, double(cfg_.wordBits), cfg_.areaMm2, cfg_.staticW,
         cfg_.peakDynamicW});
}

} // namespace baselines
} // namespace ufc
