/**
 * @file
 * CKKS evaluator implementation.
 */

#include "ckks/evaluator.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace ufc {
namespace ckks {

namespace {

void
checkSameShape(const Ciphertext &a, const Ciphertext &b)
{
    UFC_CHECK(a.limbs == b.limbs, "ciphertext level mismatch");
    const double ratio = a.scale / b.scale;
    UFC_CHECK(ratio > 0.999 && ratio < 1.001,
              "ciphertext scale mismatch: " << a.scale << " vs " << b.scale);
}

} // namespace

Ciphertext
CkksEvaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    checkSameShape(a, b);
    Ciphertext out = a;
    out.c0.addInPlace(b.c0);
    out.c1.addInPlace(b.c1);
    return out;
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    checkSameShape(a, b);
    Ciphertext out = a;
    out.c0.subInPlace(b.c0);
    out.c1.subInPlace(b.c1);
    return out;
}

Ciphertext
CkksEvaluator::negate(const Ciphertext &a) const
{
    Ciphertext out = a;
    out.c0.negInPlace();
    out.c1.negInPlace();
    return out;
}

Ciphertext
CkksEvaluator::addPlain(const Ciphertext &a, const Plaintext &p) const
{
    UFC_CHECK(a.limbs == p.limbs, "plaintext level mismatch");
    Ciphertext out = a;
    out.c0.addInPlace(p.poly);
    return out;
}

Ciphertext
CkksEvaluator::subPlain(const Ciphertext &a, const Plaintext &p) const
{
    UFC_CHECK(a.limbs == p.limbs, "plaintext level mismatch");
    Ciphertext out = a;
    out.c0.subInPlace(p.poly);
    return out;
}

Ciphertext
CkksEvaluator::mulPlain(const Ciphertext &a, const Plaintext &p) const
{
    UFC_CHECK(a.limbs == p.limbs, "plaintext level mismatch");
    Ciphertext out = a;
    out.c0.mulEvalInPlace(p.poly);
    out.c1.mulEvalInPlace(p.poly);
    out.scale = a.scale * p.scale;
    return out;
}

Ciphertext
CkksEvaluator::multiply(const Ciphertext &a, const Ciphertext &b,
                        const EvalKey &relin) const
{
    checkSameShape(a, b);
    // Tensor product: (e0, e1, e2) with e2 multiplying s^2.
    RnsPoly e0 = a.c0;
    e0.mulEvalInPlace(b.c0);

    RnsPoly e1 = a.c0;
    e1.mulEvalInPlace(b.c1);
    RnsPoly t = a.c1;
    t.mulEvalInPlace(b.c0);
    e1.addInPlace(t);

    RnsPoly e2 = a.c1;
    e2.mulEvalInPlace(b.c1);

    // Relinearize e2 back onto (c0, c1).
    auto [d0, d1] = keySwitch(e2, relin);
    e0.addInPlace(d0);
    e1.addInPlace(d1);

    Ciphertext out;
    out.c0 = std::move(e0);
    out.c1 = std::move(e1);
    out.limbs = a.limbs;
    out.scale = a.scale * b.scale;
    return out;
}

Ciphertext
CkksEvaluator::square(const Ciphertext &a, const EvalKey &relin) const
{
    return multiply(a, a, relin);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &a) const
{
    UFC_CHECK(a.limbs >= 2, "cannot rescale at the last level");
    UFC_CHECK(a.c0.form() == PolyForm::Eval && a.c1.form() == PolyForm::Eval,
              "rescale expects Eval-form components");
    const int last = a.limbs - 1;
    const u64 n = ctx_->degree();
    const RnsPoly *src[] = {&a.c0, &a.c1};

    // c_i' = (c_i - [c_last]_{q_i}) * q_last^-1 mod q_i, with c_i left in
    // the Eval domain: only the last limb goes to coefficient form, and
    // its reduction into each q_i is transformed back (the NTT is linear
    // mod q_i, so the difference can be taken after it).
    Poly lastCoeff[2];
    parallelFor(2, [&](size_t c) {
        lastCoeff[c] = src[c]->limb(last);
        lastCoeff[c].toCoeff();
    });

    Ciphertext out;
    out.limbs = last;
    out.scale = a.scale / static_cast<double>(ctx_->qAt(last));
    out.c0 = ctx_->makePoly(last, PolyForm::Eval);
    out.c1 = ctx_->makePoly(last, PolyForm::Eval);
    RnsPoly *dst[] = {&out.c0, &out.c1};
    parallelFor(2 * static_cast<size_t>(last), [&](size_t task) {
        const size_t c = task % 2;
        const size_t i = task / 2;
        Poly &r = dst[c]->limb(i);
        const NttTable &table = *r.table();
        const Modulus &qi = table.modulus();
        for (u64 k = 0; k < n; ++k)
            r[k] = qi.reduce(lastCoeff[c][k]);
        table.forward(r.data());
        const u64 inv = ctx_->qLastInvModQ(a.limbs, static_cast<int>(i));
        const u64 invShoup = qi.shoupPrecompute(inv);
        const Poly &s = src[c]->limb(i);
        for (u64 k = 0; k < n; ++k)
            r[k] = qi.mulShoup(qi.sub(s[k], r[k]), inv, invShoup);
    });
    return out;
}

Ciphertext
CkksEvaluator::dropToLimbs(const Ciphertext &a, int limbs) const
{
    UFC_CHECK(limbs >= 1 && limbs <= a.limbs, "bad target limbs");
    Ciphertext out;
    out.limbs = limbs;
    out.scale = a.scale;
    out.c0 = subPolyQ(ctx_, a.c0, limbs);
    out.c1 = subPolyQ(ctx_, a.c1, limbs);
    return out;
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &c, const EvalKey &key) const
{
    const int limbs = static_cast<int>(c.limbCount());
    const int L = ctx_->levels();
    const int K = ctx_->specialLimbs();
    const int digits = ctx_->digitsForLimbs(limbs);
    const u64 n = ctx_->degree();
    UFC_CHECK(static_cast<int>(key.b.size()) >= digits &&
                  key.b[0].limbCount() == static_cast<size_t>(L + K),
              "expected a full Q x P evaluation key");

    // ModUp reads the input in both forms: coefficient form to convert
    // a digit to the limbs outside it, Eval form for the limbs inside.
    const RnsPoly *cEval = &c;
    RnsPoly evalCopy;
    if (c.form() == PolyForm::Coeff) {
        evalCopy = c;
        evalCopy.toEval();
        cEval = &evalCopy;
    }

    // BConv sources, in place in coefficient form:
    // y_i = [c_i * Qhat_d^-1 * dHat_i^-1]_{q_i} for i in digit d.
    RnsPoly sources = c;
    std::vector<const u64 *> y(limbs);
    parallelFor(limbs, [&](size_t i) {
        const int d = static_cast<int>(i) / ctx_->digitSize();
        const auto [lo, hi] = ctx_->digitRange(d, limbs);
        Poly &p = sources.limb(i);
        p.toCoeff();
        ctx_->modUpConverter(hi).scaleSource(i - lo, p.data().data(),
                                             p.data().data(), n);
        y[i] = p.data().data();
    });

    // Per Q x P limb t: each digit's ModUp limb, transformed (outside
    // the digit) or read from Eval form (inside), then the inner product
    // with the key's limbs, summed over the digits before one reduction.
    RnsPoly acc0(ctx_->ring(), ctx_->qpBasis(limbs), PolyForm::Eval);
    RnsPoly acc1(ctx_->ring(), ctx_->qpBasis(limbs), PolyForm::Eval);
    parallelFor(static_cast<size_t>(limbs + K), [&](size_t t) {
        // Limb t here is limb g of the key and target g of the converters.
        const int g = static_cast<int>(t) < limbs
                          ? static_cast<int>(t)
                          : L + static_cast<int>(t) - limbs;
        const NttTable &table = *acc0.limb(t).table();
        const Modulus &m = table.modulus();
        std::vector<u64> up(static_cast<size_t>(digits) * n);
        for (int d = 0; d < digits; ++d) {
            const auto [lo, hi] = ctx_->digitRange(d, limbs);
            u64 *dst = up.data() + d * n;
            if (g >= lo && g < hi) {
                // Inside the digit the conversion is exact: c_t * Qhat_d^-1.
                const u64 f = ctx_->qHatInvDigit(d, g);
                const u64 fShoup = m.shoupPrecompute(f);
                const Poly &src = cEval->limb(t);
                for (u64 k = 0; k < n; ++k)
                    dst[k] = m.mulShoup(src[k], f, fShoup);
            } else {
                ctx_->modUpConverter(hi).convertTarget(g, &y[lo], dst, n);
                table.forward(dst);
            }
        }
        // Each product is < q^2 < 2^120, so the digit sum fits in u128.
        std::vector<const u64 *> kb(digits), ka(digits);
        for (int d = 0; d < digits; ++d) {
            kb[d] = key.b[d].limb(g).data().data();
            ka[d] = key.a[d].limb(g).data().data();
        }
        Poly &out0 = acc0.limb(t);
        Poly &out1 = acc1.limb(t);
        for (u64 k = 0; k < n; ++k) {
            u128 s0 = 0, s1 = 0;
            for (int d = 0; d < digits; ++d) {
                const u64 u = up[d * n + k];
                s0 += static_cast<u128>(u) * kb[d][k];
                s1 += static_cast<u128>(u) * ka[d][k];
            }
            out0[k] = m.reduce(s0);
            out1[k] = m.reduce(s1);
        }
    });

    modDown(acc0, acc1, limbs);
    return {std::move(acc0), std::move(acc1)};
}

void
CkksEvaluator::modDown(RnsPoly &acc0, RnsPoly &acc1, int limbs) const
{
    const int K = ctx_->specialLimbs();
    const u64 n = ctx_->degree();
    const BaseConverter &conv = ctx_->modDownConverter();
    RnsPoly *acc[] = {&acc0, &acc1};

    // Only the special limbs leave the Eval domain, as BConv sources
    // y_j = [acc_{p_j} * Phat_j^-1]_{p_j}.
    std::vector<const u64 *> y(2 * K);
    parallelFor(2 * static_cast<size_t>(K), [&](size_t task) {
        const size_t j = task % K;
        Poly &p = acc[task / K]->limb(limbs + j);
        p.toCoeff();
        conv.scaleSource(j, p.data().data(), p.data().data(), n);
        y[task] = p.data().data();
    });

    // acc_i <- (acc_i - NTT(BConv_{P->q_i}(y))) * P^-1 mod q_i, in place.
    parallelFor(2 * static_cast<size_t>(limbs), [&](size_t task) {
        const size_t c = task % 2;
        const size_t i = task / 2;
        Poly &dst = acc[c]->limb(i);
        const NttTable &table = *dst.table();
        const Modulus &qi = table.modulus();
        std::vector<u64> down(n);
        conv.convertTarget(i, &y[c * K], down.data(), n);
        table.forward(down);
        const u64 pInv = ctx_->pInvModQ(static_cast<int>(i));
        const u64 pInvShoup = qi.shoupPrecompute(pInv);
        for (u64 k = 0; k < n; ++k)
            dst[k] = qi.mulShoup(qi.sub(dst[k], down[k]), pInv, pInvShoup);
    });
    for (RnsPoly *a : acc) {
        for (int j = 0; j < K; ++j)
            a->dropLastLimb();
    }
}

Ciphertext
CkksEvaluator::applyGalois(const Ciphertext &a, u64 k,
                           const EvalKey &galoisKey) const
{
    // Permute both components, then switch sigma_k(c1) from sigma_k(s)
    // back to s.
    RnsPoly g0 = a.c0.automorphism(k);
    RnsPoly g1 = a.c1.automorphism(k);

    auto [d0, d1] = keySwitch(g1, galoisKey);
    d0.addInPlace(g0);

    Ciphertext out;
    out.c0 = std::move(d0);
    out.c1 = std::move(d1);
    out.limbs = a.limbs;
    out.scale = a.scale;
    return out;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &a, int steps,
                      const EvalKey &galoisKey) const
{
    const u64 twoN = 2 * ctx_->degree();
    const u64 order = ctx_->degree() / 2;
    i64 r = steps % static_cast<i64>(order);
    if (r < 0)
        r += static_cast<i64>(order);
    const u64 k = powMod(5, static_cast<u64>(r), twoN);
    return applyGalois(a, k, galoisKey);
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &a, const EvalKey &conjKey) const
{
    return applyGalois(a, 2 * ctx_->degree() - 1, conjKey);
}

} // namespace ckks
} // namespace ufc
