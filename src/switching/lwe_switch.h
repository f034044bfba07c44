/**
 * @file
 * Standalone LWE-to-LWE key switching between arbitrary keys, dimensions
 * and (via LweCiphertext::modSwitch) moduli — the glue of every
 * scheme-switching path in Figure 1 of the paper.
 */

#ifndef UFC_SWITCHING_LWE_SWITCH_H
#define UFC_SWITCHING_LWE_SWITCH_H

#include "tfhe/bootstrap.h"

namespace ufc {
namespace switching {

/** Switches LWE ciphertexts from `srcKey` to `dstKey` (same modulus). */
class LweSwitchKey
{
  public:
    /**
     * @param srcKey   key of the inputs (any small values mod q)
     * @param dstKey   key of the outputs
     * @param q        ciphertext modulus
     * @param logBase  log2 of the decomposition base
     * @param levels   decomposition depth
     * @param sigma    key-encryption noise
     */
    LweSwitchKey(const tfhe::LweSecretKey &srcKey,
                 const tfhe::LweSecretKey &dstKey, u64 q, int logBase,
                 int levels, double sigma, Rng &rng);

    tfhe::LweCiphertext
    apply(const tfhe::LweCiphertext &ct) const
    {
        return ksk_.apply(ct);
    }

    u32 srcDim() const { return static_cast<u32>(ksk_.ksk.size()); }
    u32 dstDim() const { return ksk_.dstDim; }

  private:
    /** ksk[i][j] encrypts srcKey_i * g_j under dstKey. */
    tfhe::KeySwitchKey ksk_;
};

} // namespace switching
} // namespace ufc

#endif // UFC_SWITCHING_LWE_SWITCH_H
