/**
 * @file
 * Workload `fhe_ops`: functional encryption on the FHE substrate, the
 * only workload that runs the kernel layer (NTT, limb-parallel RnsPoly
 * on the shared pool, key switching, blind rotation).
 *
 *  - CKKS at CkksParams::testDeep() (N = 2^13): chains of
 *    multiply+relinearize -> rescale -> rotate steps from a fresh
 *    encryption down to one limb, each step's operand and rotation
 *    drawn from the seed.
 *  - TFHE at TfheParams::testFast(): programmable bootstraps of seeded
 *    messages through a seeded lookup table.
 *
 * Every result is decrypted outside the timed window and checked
 * against plaintext: CKKS within kCkksTolerance, TFHE exactly.
 *
 * The timed work runs on one CPU per round with the kernel pool inline
 * (see SerialKernels); the traced run also probes the pool.
 *
 * Untraced metrics: primary_ms = median CKKS step, secondary_ms =
 * median PBS, tertiary_ms = median whole chain (11 steps), each sample
 * scaled to reference host speed.
 */

#include <cmath>
#include <map>

#include "ckks/evaluator.h"
#include "common/parallel.h"
#include "metrics/metrics.h"
#include "stats.h"
#include "tfhe/bootstrap.h"
#include "workloads.h"

namespace ufcbench {

namespace {

using namespace ufc;

/// Largest slot error a step may show after decryption.  Fresh
/// encryption at a 2^45 scale errs by ~1e-9; 11 steps stay far below.
constexpr double kCkksTolerance = 1e-4;
/// Rotation amounts a step may draw (one Galois key each).
constexpr int kRotations[] = {1, 2, 5, 16};
/// PBS message space; messages stay below t/2 (the padding bit).
constexpr u64 kPbsT = 8;
/// Programmable bootstraps after each CKKS chain.
constexpr int kPbsPerRound = 24;

struct Fhe
{
    explicit Fhe(u64 seed)
        : rng(seed), ctx(ckks::CkksParams::testDeep()), encoder(&ctx),
          keygen(&ctx, rng), encryptor(&ctx, &keygen.secretKey(), rng),
          eval(&ctx), relin(keygen.makeRelinKey()),
          tp(tfhe::TfheParams::testFast()),
          lweKey(tfhe::LweSecretKey::generate(tp.lweDim, rng)),
          ring(tp.ringDim),
          ringKey(tfhe::RlweSecretKey::generate(&ring.table(tp.q), rng)),
          bc(tp, lweKey, ringKey, rng)
    {
        for (const int r : kRotations)
            rotKeys.emplace(r, keygen.makeRotationKey(r));
    }

    std::vector<double>
    randomSlots(double lo, double hi)
    {
        std::vector<double> v(ctx.slots());
        for (double &x : v) {
            const double mag = lo + (hi - lo) * rng.uniformReal();
            x = rng.uniform(2) ? mag : -mag;
        }
        return v;
    }

    double
    maxError(const ckks::Ciphertext &ct, const std::vector<double> &want)
    {
        const auto got = encoder.decode(encryptor.decrypt(ct));
        double worst = 0.0;
        for (std::size_t i = 0; i < want.size(); ++i)
            worst = std::max(worst, std::abs(got[i].real() - want[i]));
        return worst;
    }

    Rng rng;
    ckks::CkksContext ctx;
    ckks::CkksEncoder encoder;
    ckks::CkksKeyGenerator keygen;
    ckks::CkksEncryptor encryptor;
    ckks::CkksEvaluator eval;
    ckks::EvalKey relin;
    std::map<int, ckks::EvalKey> rotKeys;

    tfhe::TfheParams tp;
    tfhe::LweSecretKey lweKey;
    RingContext ring;
    tfhe::RlweSecretKey ringKey;
    tfhe::BootstrapContext bc;
    unsigned rounds = 0; ///< CPU rotation index
};

/** Timings of one CKKS step; the parts are filled only when traced. */
struct StepTimes
{
    double totalMs = 0.0;
    double multRelinMs = 0.0;
    double rescaleMs = 0.0;
    double rotateMs = 0.0;
    /// Kernel-pool work inside the step's own calls; moves only while
    /// the metrics registry is on.
    double poolTasks = 0.0;
    double poolBusyMs = 0.0;
};

/** The shared pool's task and busy-time counters from the registry. */
struct PoolCounters
{
    u64 tasks = 0;
    u64 busyNs = 0;

    static PoolCounters
    read()
    {
        static metrics::Counter &t = metrics::counter("ufc_pool_tasks_total");
        static metrics::Counter &b =
            metrics::counter("ufc_pool_task_busy_ns_total");
        return {t.value(), b.value()};
    }
};

/** One chain from a fresh encryption down to one limb; appends each
 *  step's times, checks each step's decryption, and returns the sum of
 *  the step times in ms. */
double
ckksChain(Fhe &f, bool split, std::vector<StepTimes> &out, Outcome &o)
{
    double chainMs = 0.0;
    std::vector<double> plain = f.randomSlots(0.5, 1.0);
    ckks::Ciphertext ct = f.encryptor.encrypt(
        f.encoder.encode(plain, f.ctx.levels(), f.ctx.scale()));
    const std::size_t slots = plain.size();
    while (ct.limbs > 1) {
        const std::vector<double> b = f.randomSlots(0.9, 1.1);
        const ckks::Ciphertext cb = f.encryptor.encrypt(
            f.encoder.encode(b, ct.limbs, f.ctx.scale()));
        const int rot = kRotations[f.rng.uniform(std::size(kRotations))];
        const ckks::EvalKey &rotKey = f.rotKeys.at(rot);

        StepTimes st;
        const PoolCounters p0 = PoolCounters::read();
        const auto t0 = Clock::now();
        if (split) {
            const ckks::Ciphertext m = f.eval.multiply(ct, cb, f.relin);
            const auto t1 = Clock::now();
            const ckks::Ciphertext r = f.eval.rescale(m);
            const auto t2 = Clock::now();
            ct = f.eval.rotate(r, rot, rotKey);
            const auto t3 = Clock::now();
            const auto ms = [](auto a, auto b) {
                return std::chrono::duration<double, std::milli>(b - a)
                    .count();
            };
            st = {ms(t0, t3), ms(t0, t1), ms(t1, t2), ms(t2, t3)};
        } else {
            ct = f.eval.rotate(f.eval.rescale(f.eval.multiply(ct, cb, f.relin)),
                               rot, rotKey);
            st.totalMs = msSince(t0);
        }
        const PoolCounters p1 = PoolCounters::read();
        st.poolTasks = static_cast<double>(p1.tasks - p0.tasks);
        st.poolBusyMs = static_cast<double>(p1.busyNs - p0.busyNs) / 1e6;
        out.push_back(st);
        chainMs += st.totalMs;

        std::vector<double> next(slots);
        for (std::size_t i = 0; i < slots; ++i) {
            const std::size_t src = (i + static_cast<std::size_t>(rot)) % slots;
            next[i] = plain[src] * b[src];
        }
        plain = std::move(next);
        const double err = f.maxError(ct, plain);
        o.check(err < kCkksTolerance,
                "ckks step at " + std::to_string(ct.limbs + 1) +
                    " limbs: slot error " + std::to_string(err));
    }
    return chainMs;
}

/** kPbsPerRound bootstraps of seeded messages through a seeded table,
 *  each decrypted and compared exactly. */
void
pbsRound(Fhe &f, std::vector<double> &pbsMs, Outcome &o)
{
    std::vector<u64> lut(kPbsT);
    for (u64 &v : lut)
        v = f.rng.uniform(kPbsT / 2);
    for (int i = 0; i < kPbsPerRound; ++i) {
        const u64 m = f.rng.uniform(kPbsT / 2);
        const tfhe::LweCiphertext ct = tfhe::lweEncrypt(
            tfhe::lweEncode(m, f.tp.q, kPbsT), f.lweKey, f.tp, f.rng);
        const auto t0 = Clock::now();
        const tfhe::LweCiphertext out =
            f.bc.programmableBootstrap(ct, lut, kPbsT);
        pbsMs.push_back(msSince(t0));
        const u64 got = tfhe::lweDecrypt(out, f.lweKey, kPbsT);
        o.check(got == lut[m], "pbs f(" + std::to_string(m) + ") = " +
                                   std::to_string(got) + ", want " +
                                   std::to_string(lut[m]));
    }
}

/**
 * Runs the kernel pool inline on the calling thread while alive.  The
 * timed CKKS work runs this way, pinned to one CPU per round: a
 * pool-parallel step waits for its slowest vCPU, and on a shared host
 * that made the run-to-run spread of the step median 46%, against 4%
 * for the single-threaded PBS.  The pool itself is probed separately.
 */
struct SerialKernels
{
    SerialKernels() { setKernelThreads(1); }
    ~SerialKernels() { setKernelThreads(0); }
    SerialKernels(const SerialKernels &) = delete;
    SerialKernels &operator=(const SerialKernels &) = delete;
};

template <typename Fn>
double
usPerCall(int reps, Fn fn)
{
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i)
        fn();
    return msSince(t0) * 1e3 / reps;
}

/** Single-thread kernel timings at the fhe_ops ring and moduli. */
void
kernelProbe(Fhe &f, std::vector<double> &fwdUs, std::vector<double> &invUs,
            std::vector<double> &extUs)
{
    constexpr int kReps = 16;
    double fwd = 0.0, inv = 0.0;
    for (const u64 q : f.ctx.qChain()) {
        const NttTable &t = f.ctx.ring()->table(q);
        std::vector<u64> a(t.degree());
        for (u64 &x : a)
            x = f.rng.uniform(q);
        fwd += usPerCall(kReps, [&] { t.forward(a); });
        inv += usPerCall(kReps, [&] { t.inverse(a); });
    }
    fwdUs.push_back(fwd / static_cast<double>(f.ctx.qChain().size()));
    invUs.push_back(inv / static_cast<double>(f.ctx.qChain().size()));

    const NttTable &rt = f.ring.table(f.tp.q);
    Poly one(&rt, PolyForm::Coeff);
    one[0] = 1;
    const tfhe::RgswCiphertext rgsw = tfhe::rgswEncrypt(
        one, f.ringKey, f.bc.gadget(), f.tp.rlweSigma, f.rng);
    Poly msg(&rt, PolyForm::Coeff);
    msg.sampleUniform(f.rng);
    const tfhe::RlweCiphertext rlwe =
        tfhe::rlweEncrypt(msg, f.ringKey, f.tp.rlweSigma, f.rng);
    extUs.push_back(usPerCall(kReps, [&] {
        (void)tfhe::externalProduct(rgsw, rlwe, f.bc.gadget());
    }));
}

std::vector<double>
totals(const std::vector<StepTimes> &v, double StepTimes::*field)
{
    std::vector<double> out;
    out.reserve(v.size());
    for (const StepTimes &s : v)
        out.push_back(s.*field);
    return out;
}

} // namespace

Outcome
runFheOps(const RunArgs &a, Clock::time_point processStart)
{
    Outcome o;
    if (a.trace)
        o.metrics = perLayerMetrics();
    Fhe f(a.seed);
    o.endSetup(processStart);
    if (a.setupOnly || a.writeGolden)
        return o;

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.seconds));
    std::vector<StepTimes> steps;
    std::vector<double> pbsMs;
    if (!a.trace) {
        // Each chain and each PBS batch is bracketed by host-speed
        // probes on the round's CPU (host_speed.h).
        const SerialKernels serial;
        Timings stepMs, pbsScaled, chainMs;
        do {
            const CpuPin pin(f.rounds++);
            const double g0 = gaugeMs();
            const std::size_t firstStep = steps.size();
            const double chain = ckksChain(f, false, steps, o);
            const double g1 = gaugeMs();
            const double chainFactor = speedFactor(g0, g1);
            chainMs.add(chain, chainFactor);
            for (std::size_t i = firstStep; i < steps.size(); ++i)
                stepMs.add(steps[i].totalMs, chainFactor);

            const std::size_t firstPbs = pbsMs.size();
            pbsRound(f, pbsMs, o);
            const double pbsFactor = speedFactor(g1, gaugeMs());
            for (std::size_t i = firstPbs; i < pbsMs.size(); ++i)
                pbsScaled.add(pbsMs[i], pbsFactor);
        } while (Clock::now() < deadline);
        o.addTimed("primary_ms", stepMs);
        o.addTimed("secondary_ms", pbsScaled);
        o.addTimed("tertiary_ms", chainMs);
        return o;
    }

    // Traced: each round runs, on one CPU with inline kernels, an
    // untraced chain as the overhead reference, then with the registry
    // on a chain with per-op timing, the PBS batch and the kernel
    // probes; then a chain and RNS round trips on the kernel pool.
    std::vector<StepTimes> untraced, pooled;
    std::vector<double> busyFrac, fwdUs, invUs, rnsUs, extUs;
    double chainTasks = -1.0;
    RnsPoly rns = f.ctx.makePoly(f.ctx.levels(), PolyForm::Coeff);
    rns.sampleUniform(f.rng);
    do {
        {
            const SerialKernels serial;
            const CpuPin pin(f.rounds++);
            ckksChain(f, false, untraced, o);
            metrics::setEnabled(true);
            ckksChain(f, true, steps, o);
            pbsRound(f, pbsMs, o);
            kernelProbe(f, fwdUs, invUs, extUs);
        }
        // Pool counts cover only the steps' own calls, not the
        // encryptions and decryption checks around them.
        const std::size_t first = pooled.size();
        const double chainMs = ckksChain(f, false, pooled, o);
        double busyMs = 0.0, stepTasks = 0.0;
        for (std::size_t i = first; i < pooled.size(); ++i) {
            busyMs += pooled[i].poolBusyMs;
            stepTasks += pooled[i].poolTasks;
        }
        busyFrac.push_back(busyMs / (chainMs * kernelThreads()));
        if (chainTasks < 0.0)
            chainTasks = stepTasks;
        rnsUs.push_back(usPerCall(16, [&] {
            rns.toEval();
            rns.toCoeff();
        }));
        metrics::setEnabled(false);
    } while (Clock::now() < deadline);

    setLayer(o, "pool.busy_frac", median(busyFrac));
    setLayer(o, "pool.tasks", chainTasks);
    setLayer(o, "math.ntt_fwd_us", median(fwdUs));
    setLayer(o, "math.ntt_inv_us", median(invUs));
    setLayer(o, "math.rns_roundtrip_us", median(rnsUs));
    setLayer(o, "ckks.mult_relin_ms",
             median(totals(steps, &StepTimes::multRelinMs)));
    setLayer(o, "ckks.rescale_ms",
             median(totals(steps, &StepTimes::rescaleMs)));
    setLayer(o, "ckks.rotate_ms", median(totals(steps, &StepTimes::rotateMs)));
    setLayer(o, "tfhe.external_product_us", median(extUs));
    setLayer(o, "tracing.overhead_frac",
             median(totals(steps, &StepTimes::totalMs)) /
                     median(totals(untraced, &StepTimes::totalMs)) -
                 1.0);
    return o;
}

} // namespace ufcbench
