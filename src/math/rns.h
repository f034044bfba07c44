/**
 * @file
 * Residue number system (RNS) machinery: bases, exact CRT reconstruction
 * helpers, and the fast base conversion (BConv) used by CKKS hybrid
 * key-switching (paper Section II-B3).
 */

#ifndef UFC_MATH_RNS_H
#define UFC_MATH_RNS_H

#include <vector>

#include "common/types.h"
#include "math/mod_arith.h"

namespace ufc {

/**
 * An RNS basis: a set of pairwise-coprime word-size primes q_0..q_{L-1}
 * together with the precomputation needed by base conversion.
 */
class RnsBasis
{
  public:
    RnsBasis() = default;
    explicit RnsBasis(std::vector<u64> moduli);

    size_t size() const { return mods_.size(); }
    const Modulus &mod(size_t i) const { return mods_[i]; }
    u64 value(size_t i) const { return mods_[i].value(); }
    const std::vector<u64> &values() const { return values_; }

    /** (Q / q_i)^-1 mod q_i — the qHatInv factors of the BConv formula. */
    u64 qHatInvModQi(size_t i) const { return qHatInvModQi_[i]; }

    /** Q / q_i reduced mod an arbitrary target modulus p. */
    u64 qHatModP(size_t i, const Modulus &p) const;

    /** Q mod p for an arbitrary modulus p. */
    u64 qModP(const Modulus &p) const;

    /** Total log2 of the basis product (for parameter accounting). */
    double logQ() const;

  private:
    std::vector<Modulus> mods_;
    std::vector<u64> values_;
    std::vector<u64> qHatInvModQi_;
};

/**
 * The fast base conversion (BConv) kernel, with every constant
 * precomputed:
 *
 *   BConv(x)_t = sum_j [x_j * f_j * qHat_j^-1]_{q_j} * qHat_j  (mod p_t)
 *
 * from the source basis {q_j} to each target modulus p_t, where f_j is
 * an optional per-source factor (1 by default; CKKS ModUp folds its
 * digit's Qhat_d^-1 in here).  This is the standard approximate
 * conversion: the result may be off by a small multiple of the source
 * product, which the CKKS noise analysis absorbs.
 *
 * The work splits in two halves that callers fan out across threads:
 * scaleSource() per source limb, then convertTarget() per target limb.
 * Every product is a Shoup multiplication by a precomputed constant;
 * Modulus::mulShoupLazy is exact for any 64-bit operand, so source
 * residues enter a target's MAC unreduced and no step divides.  Outputs
 * are canonical residues, so every caller's result is bit-identical to
 * the textbook formula.  RnsPoly::extendBasis and the ModUp/ModDown
 * halves of CKKS hybrid key switching all run on this one kernel.
 */
class BaseConverter
{
  public:
    BaseConverter() = default;
    BaseConverter(const std::vector<u64> &from, const std::vector<u64> &to,
                  const std::vector<u64> &sourceFactors = {});

    /** y[k] = [x[k] * f_j * qHat_j^-1]_{q_j} for source limb j (any
     *  64-bit x[k]); y may alias x. */
    void scaleSource(size_t j, const u64 *x, u64 *y, size_t n) const;

    /** out[k] = sum_j y[j][k] * qHat_j mod p_t, canonical, over every
     *  scaled source limb y[j]. */
    void convertTarget(size_t t, const u64 *const *y, u64 *out,
                       size_t n) const;

  private:
    /// A constant with its Shoup companion.
    struct Factor
    {
        u64 w = 0;
        u64 shoup = 0;
    };

    std::vector<Modulus> from_;
    std::vector<Modulus> to_;
    std::vector<Factor> sourceScale_; ///< per source: f_j * qHat_j^-1
    std::vector<Factor> hat_;         ///< [t * sources + j]: qHat_j mod p_t
};

/**
 * Fast base conversion of a single RNS integer (given as residues w.r.t.
 * `from`) into residues w.r.t. the moduli of `to`; BaseConverter on one
 * coefficient.
 */
std::vector<u64> baseConvert(const std::vector<u64> &residues,
                             const RnsBasis &from, const RnsBasis &to);

/**
 * Exact CRT reconstruction of a small signed integer from its residues.
 * Valid when |x| < Q/2 and Q fits in 128 bits; used by tests.
 */
i128 crtReconstructSigned(const std::vector<u64> &residues,
                          const RnsBasis &basis);

} // namespace ufc

#endif // UFC_MATH_RNS_H
