/**
 * @file
 * RNS basis and base-conversion implementation.
 */

#include "math/rns.h"

#include <cmath>

#include "common/check.h"

namespace ufc {

RnsBasis::RnsBasis(std::vector<u64> moduli)
    : values_(std::move(moduli))
{
    UFC_CHECK(!values_.empty(), "empty RNS basis");
    mods_.reserve(values_.size());
    for (u64 q : values_)
        mods_.emplace_back(q);

    // qHatInv_i = (prod_{j != i} q_j)^-1 mod q_i
    qHatInvModQi_.resize(values_.size());
    for (size_t i = 0; i < values_.size(); ++i) {
        u64 prod = 1;
        for (size_t j = 0; j < values_.size(); ++j) {
            if (j != i)
                prod = mods_[i].mul(prod, values_[j] % values_[i]);
        }
        qHatInvModQi_[i] = invMod(prod, values_[i]);
    }
}

u64
RnsBasis::qHatModP(size_t i, const Modulus &p) const
{
    u64 prod = 1;
    for (size_t j = 0; j < values_.size(); ++j) {
        if (j != i)
            prod = p.mul(prod, values_[j] % p.value());
    }
    return prod;
}

u64
RnsBasis::qModP(const Modulus &p) const
{
    u64 prod = 1;
    for (u64 q : values_)
        prod = p.mul(prod, q % p.value());
    return prod;
}

double
RnsBasis::logQ() const
{
    double acc = 0.0;
    for (u64 q : values_)
        acc += std::log2(static_cast<double>(q));
    return acc;
}

BaseConverter::BaseConverter(const std::vector<u64> &from,
                             const std::vector<u64> &to,
                             const std::vector<u64> &sourceFactors)
{
    UFC_CHECK(sourceFactors.empty() || sourceFactors.size() == from.size(),
              "source factor count mismatch");
    const RnsBasis basis(from);
    from_.reserve(from.size());
    sourceScale_.reserve(from.size());
    for (size_t j = 0; j < from.size(); ++j) {
        const Modulus &qj = basis.mod(j);
        u64 w = basis.qHatInvModQi(j);
        if (!sourceFactors.empty())
            w = qj.mul(w, sourceFactors[j]);
        from_.push_back(qj);
        sourceScale_.push_back({w, qj.shoupPrecompute(w)});
    }
    to_.reserve(to.size());
    hat_.reserve(to.size() * from.size());
    for (u64 p : to) {
        const Modulus pt(p);
        to_.push_back(pt);
        for (size_t j = 0; j < from.size(); ++j) {
            const u64 w = basis.qHatModP(j, pt);
            hat_.push_back({w, pt.shoupPrecompute(w)});
        }
    }
}

void
BaseConverter::scaleSource(size_t j, const u64 *x, u64 *y, size_t n) const
{
    const Modulus &q = from_[j];
    const Factor f = sourceScale_[j];
    for (size_t k = 0; k < n; ++k)
        y[k] = q.mulShoup(x[k], f.w, f.shoup);
}

void
BaseConverter::convertTarget(size_t t, const u64 *const *y, u64 *out,
                             size_t n) const
{
    const Modulus &p = to_[t];
    const u64 q = p.value();
    const u64 twoQ = 2 * q;
    const size_t sources = from_.size();
    const Factor *hat = hat_.data() + t * sources;
    // Each lazy product is < 2p and the running sum is held below 2p,
    // so no partial sum overflows (p < 2^60).
    for (size_t k = 0; k < n; ++k) {
        u64 acc = 0;
        for (size_t j = 0; j < sources; ++j) {
            acc += p.mulShoupLazy(y[j][k], hat[j].w, hat[j].shoup);
            if (acc >= twoQ)
                acc -= twoQ;
        }
        out[k] = acc >= q ? acc - q : acc;
    }
}

std::vector<u64>
baseConvert(const std::vector<u64> &residues, const RnsBasis &from,
            const RnsBasis &to)
{
    UFC_CHECK(residues.size() == from.size(), "residue count mismatch");
    const BaseConverter conv(from.values(), to.values());
    std::vector<u64> y(from.size());
    std::vector<const u64 *> src(from.size());
    for (size_t j = 0; j < from.size(); ++j) {
        conv.scaleSource(j, &residues[j], &y[j], 1);
        src[j] = &y[j];
    }
    std::vector<u64> out(to.size());
    for (size_t t = 0; t < to.size(); ++t)
        conv.convertTarget(t, src.data(), &out[t], 1);
    return out;
}

i128
crtReconstructSigned(const std::vector<u64> &residues, const RnsBasis &basis)
{
    UFC_CHECK(residues.size() == basis.size(), "residue count mismatch");
    UFC_CHECK(basis.logQ() < 126.0, "basis too large for 128-bit CRT");
    u128 bigQ = 1;
    for (u64 q : basis.values())
        bigQ *= q;

    u128 acc = 0;
    for (size_t j = 0; j < basis.size(); ++j) {
        const u64 qj = basis.value(j);
        const u128 qHat = bigQ / qj;
        const u64 y = basis.mod(j).mul(residues[j], basis.qHatInvModQi(j));
        acc = (acc + (qHat % bigQ) * y) % bigQ;
    }
    if (acc > bigQ / 2)
        return static_cast<i128>(acc) - static_cast<i128>(bigQ);
    return static_cast<i128>(acc);
}

} // namespace ufc
