/**
 * @file
 * LWE key switch implementation.
 */

#include "switching/lwe_switch.h"

namespace ufc {
namespace switching {

using tfhe::LweCiphertext;
using tfhe::LweSecretKey;

LweSwitchKey::LweSwitchKey(const LweSecretKey &srcKey,
                           const LweSecretKey &dstKey, u64 q, int logBase,
                           int levels, double sigma, Rng &rng)
{
    const u32 srcDim = static_cast<u32>(srcKey.s.size());
    const u32 dstDim = static_cast<u32>(dstKey.s.size());
    ksk_.gadget = std::make_unique<Gadget>(q, logBase, levels);
    ksk_.modulus = Modulus(q);
    ksk_.dstDim = dstDim;
    ksk_.ksk.resize(srcDim);
    for (u32 i = 0; i < srcDim; ++i) {
        ksk_.ksk[i].reserve(levels);
        for (int j = 0; j < levels; ++j) {
            const u64 m = mulMod(srcKey.s[i], ksk_.gadget->g(j), q);
            // Encrypt under the destination key with fresh noise.
            LweCiphertext ct;
            ct.q = q;
            ct.a.resize(dstDim);
            u64 acc = m;
            for (u32 t = 0; t < dstDim; ++t) {
                ct.a[t] = rng.uniform(q);
                if (dstKey.s[t]) {
                    acc = addMod(acc, mulMod(ct.a[t], dstKey.s[t], q), q);
                }
            }
            ct.b = addMod(acc, rng.gaussianMod(sigma, q), q);
            ksk_.ksk[i].push_back(std::move(ct));
        }
    }
}

} // namespace switching
} // namespace ufc
