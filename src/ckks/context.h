/**
 * @file
 * CKKS context: the modulus chain, ring tables and the RNS precomputation
 * used by rescaling and hybrid key switching.
 */

#ifndef UFC_CKKS_CONTEXT_H
#define UFC_CKKS_CONTEXT_H

#include <memory>
#include <vector>

#include "ckks/params.h"
#include "poly/rns_poly.h"

namespace ufc {
namespace ckks {

/**
 * Owns everything shared between CKKS objects: NTT tables, the q/p prime
 * chains and per-level digit bookkeeping for key switching.
 */
class CkksContext
{
  public:
    explicit CkksContext(const CkksParams &params);

    const CkksParams &params() const { return params_; }
    const RingContext *ring() const { return ring_.get(); }
    u64 degree() const { return params_.ringDim; }
    u64 slots() const { return params_.ringDim / 2; }
    double scale() const { return scale_; }

    int levels() const { return params_.levels; }
    int specialLimbs() const { return params_.specialLimbs; }
    int dnum() const { return params_.dnum; }
    /** Limbs per key-switching digit (alpha). */
    int digitSize() const { return alpha_; }

    u64 qAt(int i) const { return qChain_[i]; }
    u64 pAt(int j) const { return pChain_[j]; }
    const std::vector<u64> &qChain() const { return qChain_; }
    const std::vector<u64> &pChain() const { return pChain_; }

    /** Moduli q_0..q_{limbs-1}. */
    std::vector<u64> qBasis(int limbs) const;
    /** Moduli q_0..q_{limbs-1} followed by all special primes. */
    std::vector<u64> qpBasis(int limbs) const;

    /** Number of key-switching digits active for a given limb count. */
    int digitsForLimbs(int limbs) const;
    /** Global limb indices covered by digit d at a given limb count. */
    std::pair<int, int> digitRange(int d, int limbs) const;

    /** [P^-1] mod q_i, used by ModDown. */
    u64 pInvModQ(int i) const { return pInvModQ_[i]; }
    /** [q_last^-1] mod q_i for rescale from `limbs` to `limbs`-1. */
    u64 qLastInvModQ(int limbs, int i) const;
    /** [Qhat_d^-1] mod q_i for i inside digit d (full-level partition). */
    u64 qHatInvDigit(int d, int i) const { return qHatInvDigit_[d][i]; }
    /** Qhat_d = prod of q limbs outside digit d, mod an arbitrary prime. */
    u64 qHatDigitMod(int d, u64 prime) const;

    /**
     * ModUp BConv of the key-switching digit whose limbs end at `hi`
     * (exclusive; the digits at any level are the full-level digits cut
     * off at the level, so the end fixes the source limbs): from that
     * digit's q limbs, each pre-scaled by [Qhat_d^-1]_{q_i}, to every
     * modulus of the chain — target g is q_g for g < levels(), else
     * p_{g - levels()}.
     */
    const BaseConverter &modUpConverter(int hi) const
    {
        return modUp_[hi - 1];
    }
    /** ModDown BConv from the special primes to q_0..q_{levels()-1}. */
    const BaseConverter &modDownConverter() const { return modDown_; }

    /** Fresh zero RnsPoly over q_0..q_{limbs-1}. */
    RnsPoly makePoly(int limbs, PolyForm form) const;
    /** Fresh zero RnsPoly over q-basis plus special primes. */
    RnsPoly makePolyQP(int limbs, PolyForm form) const;

  private:
    CkksParams params_;
    std::unique_ptr<RingContext> ring_;
    std::vector<u64> qChain_;
    std::vector<u64> pChain_;
    int alpha_ = 0;
    double scale_ = 0.0;
    std::vector<u64> pInvModQ_;
    // qHatInvDigit_[d][i]: [ (Q_full / Qtilde_d)^-1 ] mod q_i (i in digit d).
    std::vector<std::vector<u64>> qHatInvDigit_;
    std::vector<BaseConverter> modUp_; ///< indexed by digit end limb - 1
    BaseConverter modDown_;
};

} // namespace ckks
} // namespace ufc

#endif // UFC_CKKS_CONTEXT_H
