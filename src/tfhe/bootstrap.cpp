/**
 * @file
 * Blind rotation, key switching and programmable bootstrapping.
 */

#include "tfhe/bootstrap.h"

#include "common/check.h"

namespace ufc {
namespace tfhe {

LweCiphertext
KeySwitchKey::apply(const LweCiphertext &ct) const
{
    UFC_CHECK(ct.q == modulus.value() && ct.dim() == ksk.size(),
              "key switch input mismatch");
    const Modulus &mod = modulus;
    const Gadget &g = *gadget;
    const u32 dim = dstDim;

    LweCiphertext out = LweCiphertext::trivial(ct.b, dim, mod.value());
    std::vector<u64> digits(g.levels());
    for (size_t i = 0; i < ksk.size(); ++i) {
        if (ct.a[i] == 0)
            continue;
        g.decompose(ct.a[i], digits.data());
        for (int j = 0; j < g.levels(); ++j) {
            const u64 d = digits[j];
            if (d == 0)
                continue;
            // out -= d_{i,j} * ksk[i][j], reading the key row in place.
            const LweCiphertext &row = ksk[i][j];
            const u64 dShoup = mod.shoupPrecompute(d);
            for (u32 k = 0; k < dim; ++k)
                out.a[k] = mod.sub(out.a[k], mod.mulShoup(row.a[k], d, dShoup));
            out.b = mod.sub(out.b, mod.mulShoup(row.b, d, dShoup));
        }
    }
    return out;
}

BootstrapContext::BootstrapContext(const TfheParams &params,
                                   const LweSecretKey &lweKey,
                                   const RlweSecretKey &ringKey, Rng &rng)
    : params_(params),
      ringTable_(ringKey.s.table()),
      gadget_(std::make_unique<Gadget>(params.q, params.gadgetLogBase,
                                       params.gadgetLevels))
{
    UFC_CHECK(ringTable_->modulus().value() == params.q &&
              ringTable_->degree() == params.ringDim,
              "ring key parameters mismatch");

    // Bootstrapping keys: RGSW(s_i) for every bit of the small key.
    btk_.reserve(params.lweDim);
    Poly bit(ringKey.s.table(), PolyForm::Coeff);
    for (u32 i = 0; i < params.lweDim; ++i) {
        bit[0] = lweKey.s[i];
        btk_.push_back(
            rgswEncrypt(bit, ringKey, *gadget_, params.rlweSigma, rng));
    }

    // Key switching key: encrypt each extracted-key coefficient times each
    // gadget element under the small key.
    ksk_.gadget = std::make_unique<Gadget>(params.q, params.ksLogBase,
                                           params.ksLevels);
    ksk_.modulus = ringTable_->modulus();
    ksk_.dstDim = params.lweDim;
    ksk_.ksk.resize(params.ringDim);
    for (u32 i = 0; i < params.ringDim; ++i) {
        ksk_.ksk[i].reserve(params.ksLevels);
        for (int j = 0; j < params.ksLevels; ++j) {
            const u64 m = mulMod(ringKey.s[i], ksk_.gadget->g(j), params.q);
            ksk_.ksk[i].push_back(lweEncrypt(m, lweKey, params, rng));
        }
    }
}

RlweCiphertext
BootstrapContext::blindRotate(const LweCiphertext &ct,
                              const Poly &testVector) const
{
    const u64 n2 = 2ULL * params_.ringDim;
    const LweCiphertext small = ct.modSwitch(n2);

    // acc = (0, tv * X^(-b~)); each iteration conditionally multiplies by
    // X^(a~_i) when s_i = 1 via CMux with the RGSW key bit.
    RlweCiphertext acc = RlweCiphertext::trivial(
        testVector.mulByMonomial(-static_cast<i64>(small.b)));
    for (u32 i = 0; i < params_.lweDim; ++i) {
        if (small.a[i] == 0)
            continue;
        RlweCiphertext rotated =
            acc.mulByMonomial(static_cast<i64>(small.a[i]));
        acc = cmux(btk_[i], acc, rotated, *gadget_);
    }
    return acc;
}

LweCiphertext
BootstrapContext::keySwitch(const LweCiphertext &ct) const
{
    return ksk_.apply(ct);
}

Poly
BootstrapContext::makeTestVector(const std::vector<u64> &lut, u64 t,
                                 u64 tOut) const
{
    const u64 n = params_.ringDim;
    const u64 q = params_.q;
    if (tOut == 0)
        tOut = t;
    UFC_CHECK(lut.size() == t, "lut size must equal message modulus");
    Poly tv(ringTable_, PolyForm::Coeff);
    // Window j in [0, N) covers phases [j*q/(2N), (j+1)*q/(2N)); together
    // with the half-window input shift in programmableBootstrap this makes
    // floor indexing hit the intended message.
    for (u64 j = 0; j < n; ++j) {
        const u64 m = static_cast<u64>(
            (static_cast<u128>(j) * t) / (2 * n)) % t;
        tv[j] = lweEncode(lut[m], q, tOut);
    }
    return tv;
}

LweCiphertext
BootstrapContext::programmableBootstrap(const LweCiphertext &ct,
                                        const std::vector<u64> &lut,
                                        u64 t, u64 tOut) const
{
    // Half-window shift so rounding errors around each encoded message
    // stay inside its window (the padding-bit convention keeps messages
    // in [0, t/2) so the negacyclic wrap is never hit).
    LweCiphertext shifted = ct;
    shifted.addConstant(params_.q / (2 * t));

    const Poly tv = makeTestVector(lut, t, tOut);
    const RlweCiphertext acc = blindRotate(shifted, tv);
    const LweCiphertext extracted = sampleExtract(acc, 0);
    return keySwitch(extracted);
}

LweCiphertext
BootstrapContext::signBootstrap(const LweCiphertext &ct) const
{
    const u64 q = params_.q;
    // Constant test vector q/8: +q/8 for phases in [0, q/2), -q/8 below.
    Poly tv(ringTable_, PolyForm::Coeff);
    const u64 eighth = q / 8;
    for (u64 j = 0; j < params_.ringDim; ++j)
        tv[j] = eighth;
    const RlweCiphertext acc = blindRotate(ct, tv);
    const LweCiphertext extracted = sampleExtract(acc, 0);
    return keySwitch(extracted);
}

} // namespace tfhe
} // namespace ufc
