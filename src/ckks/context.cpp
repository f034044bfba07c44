/**
 * @file
 * CKKS context implementation.
 */

#include "ckks/context.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "math/primes.h"

namespace ufc {
namespace ckks {

CkksContext::CkksContext(const CkksParams &params)
    : params_(params),
      ring_(std::make_unique<RingContext>(params.ringDim)),
      scale_(std::ldexp(1.0, params.scaleBits))
{
    const u64 twoN = 2 * params.ringDim;
    UFC_CHECK(params.levels >= 1 && params.dnum >= 1, "bad level config");
    alpha_ = (params.levels + params.dnum - 1) / params.dnum;
    UFC_CHECK(params.specialLimbs >= alpha_,
              "special modulus P must cover one digit (K >= alpha)");

    // q0 and the special primes share a bit size; allocate them from one
    // skip sequence so they are all distinct.  Scale primes come from a
    // separate bit size.
    qChain_.push_back(findNttPrime(params.firstModBits, twoN, 0));
    int bigSkip = (params.firstModBits == params.specialBits) ? 1 : 0;
    for (int j = 0; j < params.specialLimbs; ++j)
        pChain_.push_back(
            findNttPrime(params.specialBits, twoN, bigSkip + j));
    int scaleSkip = 0;
    if (params.scaleBits == params.firstModBits ||
        params.scaleBits == params.specialBits) {
        scaleSkip = bigSkip + params.specialLimbs;
    }
    for (int i = 1; i < params.levels; ++i)
        qChain_.push_back(
            findNttPrime(params.scaleBits, twoN, scaleSkip + i - 1));

    // ModDown precomputation: [P^-1] mod q_i.
    pInvModQ_.resize(params.levels);
    for (int i = 0; i < params.levels; ++i) {
        const Modulus qi(qChain_[i]);
        u64 prod = 1;
        for (u64 p : pChain_)
            prod = qi.mul(prod, p % qChain_[i]);
        pInvModQ_[i] = invMod(prod, qChain_[i]);
    }

    // Digit precomputation: for each full-level digit d and each limb i
    // inside it, [ (Q/Qtilde_d)^-1 ] mod q_i.
    qHatInvDigit_.resize(params.dnum);
    for (int d = 0; d < params.dnum; ++d) {
        qHatInvDigit_[d].assign(params.levels, 0);
        const int lo = d * alpha_;
        const int hi = std::min((d + 1) * alpha_, params.levels);
        for (int i = lo; i < hi; ++i) {
            const Modulus qi(qChain_[i]);
            u64 prod = 1;
            for (int j = 0; j < params.levels; ++j) {
                if (j < lo || j >= hi)
                    prod = qi.mul(prod, qChain_[j] % qChain_[i]);
            }
            qHatInvDigit_[d][i] = invMod(prod, qChain_[i]);
        }
    }

    std::vector<u64> allPrimes = qChain_;
    allPrimes.insert(allPrimes.end(), pChain_.begin(), pChain_.end());

    // Key-switching BConv tables: one ModUp converter per digit end limb
    // and one ModDown converter, so no key switch rebuilds a basis.
    for (int hi = 1; hi <= params.levels; ++hi) {
        const int d = (hi - 1) / alpha_;
        const int lo = d * alpha_;
        modUp_.emplace_back(
            std::vector<u64>(qChain_.begin() + lo, qChain_.begin() + hi),
            allPrimes,
            std::vector<u64>(qHatInvDigit_[d].begin() + lo,
                             qHatInvDigit_[d].begin() + hi));
    }
    modDown_ = BaseConverter(pChain_, qChain_);

    // Warm the shared twiddle cache for the whole modulus chain up
    // front (tables build in parallel), so the first homomorphic op
    // doesn't pay lazy NTT-table construction limb by limb.
    parallelFor(allPrimes.size(),
                [&](std::size_t i) { ring_->table(allPrimes[i]); });
}

std::vector<u64>
CkksContext::qBasis(int limbs) const
{
    UFC_CHECK(limbs >= 1 && limbs <= params_.levels, "bad limb count");
    return {qChain_.begin(), qChain_.begin() + limbs};
}

std::vector<u64>
CkksContext::qpBasis(int limbs) const
{
    auto basis = qBasis(limbs);
    basis.insert(basis.end(), pChain_.begin(), pChain_.end());
    return basis;
}

int
CkksContext::digitsForLimbs(int limbs) const
{
    return (limbs + alpha_ - 1) / alpha_;
}

std::pair<int, int>
CkksContext::digitRange(int d, int limbs) const
{
    const int lo = d * alpha_;
    const int hi = std::min((d + 1) * alpha_, limbs);
    UFC_CHECK(lo < hi, "empty key-switching digit");
    return {lo, hi};
}

u64
CkksContext::qLastInvModQ(int limbs, int i) const
{
    UFC_CHECK(i < limbs - 1, "rescale target limb out of range");
    return invMod(qChain_[limbs - 1] % qChain_[i], qChain_[i]);
}

u64
CkksContext::qHatDigitMod(int d, u64 prime) const
{
    const Modulus p(prime);
    const int lo = d * alpha_;
    const int hi = std::min((d + 1) * alpha_, params_.levels);
    u64 prod = 1;
    for (int j = 0; j < params_.levels; ++j) {
        if (j < lo || j >= hi)
            prod = p.mul(prod, qChain_[j] % prime);
    }
    return prod;
}

RnsPoly
CkksContext::makePoly(int limbs, PolyForm form) const
{
    return RnsPoly(ring_.get(), qBasis(limbs), form);
}

RnsPoly
CkksContext::makePolyQP(int limbs, PolyForm form) const
{
    return RnsPoly(ring_.get(), qpBasis(limbs), form);
}

} // namespace ckks
} // namespace ufc
