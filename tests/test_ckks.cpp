/**
 * @file
 * Unit and integration tests for the RNS-CKKS scheme.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "common/parallel.h"

namespace ufc {
namespace ckks {
namespace {

double
maxSlotError(const std::vector<cplx> &got, const std::vector<cplx> &expect)
{
    double worst = 0.0;
    for (size_t i = 0; i < expect.size(); ++i)
        worst = std::max(worst, std::abs(got[i] - expect[i]));
    return worst;
}

struct CkksFixture : public ::testing::Test
{
    CkksFixture()
        : ctx(CkksParams::testFast()), encoder(&ctx), rng(99),
          keygen(&ctx, rng), encryptor(&ctx, &keygen.secretKey(), rng),
          eval(&ctx)
    {}

    std::vector<double>
    randomReals(size_t count, double lo = -1.0, double hi = 1.0)
    {
        std::vector<double> v(count);
        for (auto &x : v)
            x = lo + (hi - lo) * rng.uniformReal();
        return v;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    Rng rng;
    CkksKeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksEvaluator eval;
};

TEST_F(CkksFixture, EncodeDecodeRoundTrip)
{
    auto values = randomReals(ctx.slots(), -10.0, 10.0);
    auto pt = encoder.encode(values, ctx.levels(), ctx.scale());
    auto decoded = encoder.decode(pt);
    ASSERT_EQ(decoded.size(), ctx.slots());
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_NEAR(decoded[i].real(), values[i], 1e-7) << "slot " << i;
}

TEST_F(CkksFixture, EncodeDecodeComplexValues)
{
    std::vector<cplx> values(ctx.slots());
    for (size_t i = 0; i < values.size(); ++i)
        values[i] = cplx(std::sin(0.1 * i), std::cos(0.2 * i));
    auto pt = encoder.encode(values, 2, ctx.scale());
    auto decoded = encoder.decode(pt);
    EXPECT_LT(maxSlotError(decoded, values), 1e-7);
}

TEST_F(CkksFixture, EncryptDecryptKeepsPrecision)
{
    auto values = randomReals(ctx.slots());
    auto pt = encoder.encode(values, ctx.levels(), ctx.scale());
    auto ct = encryptor.encrypt(pt);
    auto decoded = encoder.decode(encryptor.decrypt(ct));
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_NEAR(decoded[i].real(), values[i], 1e-6) << "slot " << i;
}

TEST_F(CkksFixture, HomomorphicAddSub)
{
    auto va = randomReals(ctx.slots());
    auto vb = randomReals(ctx.slots());
    auto ca = encryptor.encrypt(encoder.encode(va, 3, ctx.scale()));
    auto cb = encryptor.encrypt(encoder.encode(vb, 3, ctx.scale()));

    auto sum = eval.add(ca, cb);
    auto diff = eval.sub(ca, cb);
    auto dsum = encoder.decode(encryptor.decrypt(sum));
    auto ddiff = encoder.decode(encryptor.decrypt(diff));
    for (size_t i = 0; i < va.size(); ++i) {
        EXPECT_NEAR(dsum[i].real(), va[i] + vb[i], 1e-6);
        EXPECT_NEAR(ddiff[i].real(), va[i] - vb[i], 1e-6);
    }
}

TEST_F(CkksFixture, PlaintextOperations)
{
    auto va = randomReals(ctx.slots());
    auto vb = randomReals(ctx.slots());
    auto ca = encryptor.encrypt(encoder.encode(va, 3, ctx.scale()));
    auto pb = encoder.encode(vb, 3, ctx.scale());

    auto dsum = encoder.decode(encryptor.decrypt(eval.addPlain(ca, pb)));
    auto prod = eval.rescale(eval.mulPlain(ca, pb));
    auto dprod = encoder.decode(encryptor.decrypt(prod));
    for (size_t i = 0; i < va.size(); ++i) {
        EXPECT_NEAR(dsum[i].real(), va[i] + vb[i], 1e-6);
        EXPECT_NEAR(dprod[i].real(), va[i] * vb[i], 1e-5);
    }
}

TEST_F(CkksFixture, MultiplyRelinearizeRescale)
{
    auto relin = keygen.makeRelinKey();
    auto va = randomReals(ctx.slots());
    auto vb = randomReals(ctx.slots());
    auto ca = encryptor.encrypt(
        encoder.encode(va, ctx.levels(), ctx.scale()));
    auto cb = encryptor.encrypt(
        encoder.encode(vb, ctx.levels(), ctx.scale()));

    auto prod = eval.rescale(eval.multiply(ca, cb, relin));
    EXPECT_EQ(prod.limbs, ctx.levels() - 1);
    auto dprod = encoder.decode(encryptor.decrypt(prod));
    for (size_t i = 0; i < va.size(); ++i)
        EXPECT_NEAR(dprod[i].real(), va[i] * vb[i], 1e-4) << "slot " << i;
}

TEST_F(CkksFixture, MultiplicationChainToLastLevel)
{
    auto relin = keygen.makeRelinKey();
    const size_t n = ctx.slots();
    // Values near 1 so repeated squaring stays inside q0's headroom
    // (|m| * scale must remain below q0 at the last level).
    auto v = randomReals(n, 0.9, 1.1);
    auto ct = encryptor.encrypt(encoder.encode(v, ctx.levels(),
                                               ctx.scale()));
    std::vector<double> expect = v;

    // Square repeatedly until one limb remains.
    while (ct.limbs >= 2) {
        ct = eval.rescale(eval.square(ct, relin));
        for (auto &x : expect)
            x *= x;
        // Keep magnitudes bounded so precision is measurable.
        auto dec = encoder.decode(encryptor.decrypt(ct));
        double worst = 0.0;
        for (size_t i = 0; i < n; ++i)
            worst = std::max(worst, std::abs(dec[i].real() - expect[i]));
        EXPECT_LT(worst, 2e-3) << "limbs=" << ct.limbs;
    }
    EXPECT_EQ(ct.limbs, 1);
}

TEST_F(CkksFixture, RotationMovesSlots)
{
    const size_t n = ctx.slots();
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(i % 97) / 97.0;
    auto ct = encryptor.encrypt(encoder.encode(v, 3, ctx.scale()));

    for (int steps : {1, 5, -3, static_cast<int>(n / 2)}) {
        auto gk = keygen.makeRotationKey(steps);
        auto rot = eval.rotate(ct, steps, gk);
        auto dec = encoder.decode(encryptor.decrypt(rot));
        for (size_t i = 0; i < n; ++i) {
            const size_t src = (i + n + static_cast<size_t>(
                (steps % static_cast<int>(n) + static_cast<int>(n)))) % n;
            EXPECT_NEAR(dec[i].real(), v[src], 1e-5)
                << "steps=" << steps << " slot " << i;
        }
    }
}

TEST_F(CkksFixture, ConjugateFlipsImaginaryPart)
{
    std::vector<cplx> v(ctx.slots());
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = cplx(0.3 * (i % 5), 0.2 * (i % 7) - 0.5);
    auto ct = encryptor.encrypt(encoder.encode(v, 2, ctx.scale()));
    auto conj = eval.conjugate(ct, keygen.makeConjugationKey());
    auto dec = encoder.decode(encryptor.decrypt(conj));
    for (size_t i = 0; i < v.size(); ++i) {
        EXPECT_NEAR(dec[i].real(), v[i].real(), 1e-5);
        EXPECT_NEAR(dec[i].imag(), -v[i].imag(), 1e-5);
    }
}

TEST_F(CkksFixture, RotationComposition)
{
    // rot(a, r1) then rot(., r2) == rot(a, r1+r2)
    const size_t n = ctx.slots();
    auto v = randomReals(n);
    auto ct = encryptor.encrypt(encoder.encode(v, 2, ctx.scale()));
    auto g2 = keygen.makeRotationKey(2);
    auto g3 = keygen.makeRotationKey(3);
    auto g5 = keygen.makeRotationKey(5);

    auto lhs = eval.rotate(eval.rotate(ct, 2, g2), 3, g3);
    auto rhs = eval.rotate(ct, 5, g5);
    auto dl = encoder.decode(encryptor.decrypt(lhs));
    auto dr = encoder.decode(encryptor.decrypt(rhs));
    for (size_t i = 0; i < n; ++i)
        EXPECT_NEAR(dl[i].real(), dr[i].real(), 1e-5);
}

TEST_F(CkksFixture, DropToLimbsPreservesMessage)
{
    auto v = randomReals(ctx.slots());
    auto ct = encryptor.encrypt(encoder.encode(v, ctx.levels(),
                                               ctx.scale()));
    auto dropped = eval.dropToLimbs(ct, 2);
    EXPECT_EQ(dropped.limbs, 2);
    auto dec = encoder.decode(encryptor.decrypt(dropped));
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_NEAR(dec[i].real(), v[i], 1e-6);
}

TEST_F(CkksFixture, HomomorphicPolynomialEvaluation)
{
    // Evaluate f(x) = x^2 - 0.5 x + 0.25 slot-wise.
    auto relin = keygen.makeRelinKey();
    auto v = randomReals(ctx.slots());
    auto ct = encryptor.encrypt(encoder.encode(v, ctx.levels(),
                                               ctx.scale()));

    auto x2 = eval.rescale(eval.square(ct, relin));
    // Align x to x2's level and scale before combining.
    auto halfX = eval.rescale(eval.mulPlain(
        ct, encoder.encodeConstant(-0.5, ct.limbs, ctx.scale())));
    auto sum = eval.add(x2, halfX);
    sum = eval.addPlain(sum, encoder.encodeConstant(0.25, sum.limbs,
                                                    sum.scale));
    auto dec = encoder.decode(encryptor.decrypt(sum));
    for (size_t i = 0; i < v.size(); ++i) {
        const double expect = v[i] * v[i] - 0.5 * v[i] + 0.25;
        EXPECT_NEAR(dec[i].real(), expect, 1e-4) << "slot " << i;
    }
}

TEST(CkksParams, TableIIISettings)
{
    const auto c1 = CkksParams::c1();
    const auto c2 = CkksParams::c2();
    const auto c3 = CkksParams::c3();
    EXPECT_EQ(c1.ringDim, 1ULL << 16);
    EXPECT_EQ(c1.dnum, 2);
    EXPECT_EQ(c2.dnum, 3);
    EXPECT_EQ(c3.dnum, 4);
    // logPQ within ~2% of the paper's Table III values.
    EXPECT_NEAR(c1.logPQ(), 1785.0, 40.0);
    EXPECT_NEAR(c2.logPQ(), 1764.0, 40.0);
    EXPECT_NEAR(c3.logPQ(), 1679.0, 40.0);
}

TEST(CkksContext, ChainPrimesAreDistinctNttFriendly)
{
    CkksContext ctx(CkksParams::testFast());
    std::vector<u64> all = ctx.qChain();
    all.insert(all.end(), ctx.pChain().begin(), ctx.pChain().end());
    for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i] % (2 * ctx.degree()), 1u);
        for (size_t j = i + 1; j < all.size(); ++j)
            EXPECT_NE(all[i], all[j]);
    }
}

TEST(CkksContext, DigitPartitionCoversAllLimbs)
{
    CkksContext ctx(CkksParams::testFast());
    for (int limbs = 1; limbs <= ctx.levels(); ++limbs) {
        const int digits = ctx.digitsForLimbs(limbs);
        int covered = 0;
        for (int d = 0; d < digits; ++d) {
            auto [lo, hi] = ctx.digitRange(d, limbs);
            EXPECT_EQ(lo, covered);
            covered = hi;
        }
        EXPECT_EQ(covered, limbs);
    }
}

/** FNV-1a over the 64-bit words of every limb. */
u64
fnv1a(u64 h, const RnsPoly &p)
{
    for (size_t i = 0; i < p.limbCount(); ++i) {
        for (const u64 w : p.limb(i).data()) {
            h ^= w;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

u64
fnv1a(u64 h, const Ciphertext &ct)
{
    return fnv1a(fnv1a(h, ct.c0), ct.c1);
}

/** A "ciphertext" with uniform components: bit-identity of the
 *  evaluator does not need a decryptable input, and uniform residues
 *  keep floating-point encoding out of the digest. */
Ciphertext
uniformCiphertext(const CkksContext &ctx, int limbs, Rng &rng)
{
    Ciphertext ct;
    ct.limbs = limbs;
    ct.scale = ctx.scale();
    ct.c0 = ctx.makePoly(limbs, PolyForm::Eval);
    ct.c1 = ctx.makePoly(limbs, PolyForm::Eval);
    ct.c0.sampleUniform(rng);
    ct.c1.sampleUniform(rng);
    return ct;
}

struct KernelThreadsGuard
{
    ~KernelThreadsGuard() { setKernelThreads(0); }
};

/**
 * Pins the key-switching, rescale and rotation outputs bit for bit:
 * a testDeep chain from 12 limbs down to 1, each level running
 * multiply+relinearize, rescale, rotations by 1, 2, 5 and 16 and one
 * conjugation, hashed output by output.  The digest was taken from the
 * reference implementation (every limb transformed to coefficient form
 * and back); any rewrite of keySwitch/modDown/rescale must reproduce it
 * at one kernel thread and on the pool alike.
 */
TEST(CkksBitIdentity, DeepChainDigestAcrossThreadCounts)
{
    constexpr u64 kDigest = 0xbe9d6965710cf46eULL;
    constexpr int kRotations[] = {1, 2, 5, 16};

    const CkksContext ctx(CkksParams::testDeep());
    Rng keyRng(2024);
    const CkksKeyGenerator keygen(&ctx, keyRng);
    const EvalKey relin = keygen.makeRelinKey();
    std::vector<EvalKey> rotKeys;
    for (const int r : kRotations)
        rotKeys.push_back(keygen.makeRotationKey(r));
    const EvalKey conj = keygen.makeConjugationKey();
    const CkksEvaluator eval(&ctx);

    const auto chainDigest = [&] {
        Rng rng(7);
        u64 h = 0xcbf29ce484222325ULL;
        Ciphertext ct = uniformCiphertext(ctx, ctx.levels(), rng);
        while (ct.limbs > 1) {
            const Ciphertext b = uniformCiphertext(ctx, ct.limbs, rng);
            const Ciphertext m = eval.multiply(ct, b, relin);
            h = fnv1a(h, m);
            ct = eval.rescale(m);
            h = fnv1a(h, ct);
            for (size_t r = 0; r < rotKeys.size(); ++r) {
                ct = eval.rotate(ct, kRotations[r], rotKeys[r]);
                h = fnv1a(h, ct);
            }
            ct = eval.conjugate(ct, conj);
            h = fnv1a(h, ct);
        }
        return h;
    };

    const KernelThreadsGuard guard;
    setKernelThreads(1);
    EXPECT_EQ(chainDigest(), kDigest);
    setKernelThreads(0);
    EXPECT_EQ(chainDigest(), kDigest);

    // Key switching reads its input in either form: a full level and
    // one whose last digit is partial (testDeep has 3-limb digits).
    Rng rng(11);
    for (const int limbs : {ctx.levels(), 7}) {
        RnsPoly eval1 = ctx.makePoly(limbs, PolyForm::Eval);
        eval1.sampleUniform(rng);
        RnsPoly coeff = eval1;
        coeff.toCoeff();
        const auto [e0, e1] = eval.keySwitch(eval1, relin);
        const auto [c0, c1] = eval.keySwitch(coeff, relin);
        EXPECT_EQ(fnv1a(fnv1a(0, e0), e1), fnv1a(fnv1a(0, c0), c1))
            << "at " << limbs << " limbs";
    }
}

} // namespace
} // namespace ckks
} // namespace ufc
