/**
 * @file
 * The serve stream: an in-process serve::Server with the default
 * ServeConfig (2 workers, PhaseCache on, ProgramCache bounded at 256),
 * driven over its AF_UNIX socket by an open-loop generator in this
 * process: one submit thread sends on a seeded Poisson schedule, one
 * collect thread polls for terminal results.  It runs inside the
 * traced run of `sweep` for the trace, analysis, serve and loadgen
 * per-layer metrics; it is not a benchmark workload of its own.
 *
 * About 4 in 5 requests are warm -- built-in workload specs across the
 * four machines, which hit the trace, Program and phase caches.  The
 * rest are cold: unique trace_text bodies of seed-sized generator
 * outputs with lint on, which pay parse, lint and compile.  Tenants
 * rotate so no token bucket refuses at the nominal rate.
 */

#include <cmath>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "analysis/analyzer.h"
#include "common/error.h"
#include "common/rng.h"
#include "metrics/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"
#include "trace/serialize.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace ufcbench {

namespace {

using namespace ufc;
using serve::JsonValue;

/// Offered rates in requests/s, pinned so every commit is offered the
/// same load.  On the 4-core Xeon host the default 2-worker server
/// completed 1500-2000 requests/s of this mix at saturation, but from
/// about 900/s up, Poisson bursts overflowed its 64-deep admission
/// queue and requests were refused; these rates keep every request
/// admitted while still building a queue at the peak.
constexpr double kNominalRate = 150.0;
constexpr double kPeakRate = 300.0;
/// Share of requests that are cold.
constexpr double kColdShare = 0.2;
/// How long the collector blocks on the oldest outstanding request
/// before it looks for newly admitted ones.
constexpr double kCollectWaitMs = 2.0;
/// Tenants requests rotate over; with the default bucket (32/s each)
/// they admit far more than the peak rate.
constexpr int kTenants = 64;

struct WarmSpec
{
    const char *machine;
    const char *workload;
    int scale;
};

/// Built-in specs at their serving default size (scale 0), over every
/// machine the server registers; warm, each costs well under 5 ms.
constexpr WarmSpec kWarmSpecs[] = {
    {"ufc", "pbs", 0},         {"strix", "pbs", 0},
    {"ufc", "tfhe_nn", 0},     {"ufc", "helr", 0},
    {"sharp", "helr", 0},      {"ufc", "sorting", 0},
    {"ufc", "bootstrap", 0},   {"sharp", "bootstrap", 0},
    {"ufc", "resnet20", 0},    {"ufc", "knn", 0},
    {"composed", "knn", 0},
};

std::string
warmLabel(const WarmSpec &s)
{
    return std::string("warm/") + s.machine + "/" + s.workload + "/" +
           std::to_string(s.scale);
}

/** A cold request body: a unique generator output as trace text. */
struct ColdBody
{
    std::string machine;
    std::string text;
};

/** One scheduled request and what became of it. */
struct Request
{
    Arrival t;
    int warm = -1; ///< index into kWarmSpecs, or -1 for cold
    int cold = -1; ///< index into the cold bodies
    bool peak = false;
    std::string id;      ///< set when admitted
    std::string refusal; ///< error code when refused
    double rttMs = 0.0;  ///< submit round trip
    double serviceMs = 0.0;
    JsonValue result;    ///< terminal result object
    bool terminal = false;
};

/** Digest of a served or replayed result with host time removed. */
std::uint64_t
normalizedDigest(JsonValue result)
{
    result.set("host_seconds", JsonValue::makeDouble(0.0));
    return fnv1a64(result.dump());
}

std::shared_ptr<const sim::AcceleratorModel>
makeModel(const std::string &machine)
{
    if (machine == "strix")
        return std::make_shared<sim::StrixModel>();
    return std::make_shared<sim::UfcModel>();
}

JsonValue
warmJob(const WarmSpec &s)
{
    JsonValue j = JsonValue::makeObject();
    j.set("machine", JsonValue::makeString(s.machine));
    j.set("workload", JsonValue::makeString(s.workload));
    j.set("scale", JsonValue::makeInt(s.scale));
    j.set("label", JsonValue::makeString(warmLabel(s)));
    return j;
}

JsonValue
coldJob(const ColdBody &b, int index)
{
    JsonValue j = JsonValue::makeObject();
    j.set("machine", JsonValue::makeString(b.machine));
    j.set("trace_text", JsonValue::makeString(b.text));
    j.set("lint", JsonValue::makeBool(true));
    j.set("label", JsonValue::makeString("cold/" + std::to_string(index)));
    return j;
}

/**
 * `count` unique cold bodies, a seeded draw without replacement from
 * TFHE PBS batches (T1 or T2, 8..1031 bootstraps) and one- or two-layer
 * NN traces (T1, 4..259 neurons); even draws go to the UFC machine,
 * odd ones to Strix.
 */
std::vector<ColdBody>
makeColdBodies(std::size_t count, Rng &rng)
{
    struct Shape
    {
        bool nn;
        int variant; // PBS: 0 = T1, 1 = T2; NN: layers - 1
        int size;
    };
    std::vector<Shape> shapes;
    for (int v = 0; v < 2; ++v) {
        for (int n = 8; n < 1032; ++n)
            shapes.push_back({false, v, n});
        for (int n = 4; n < 260; ++n)
            shapes.push_back({true, v, n});
    }
    UFC_EXPECT(count <= shapes.size(), ConfigError,
               "the serve stream needs " << count
                                         << " unique cold bodies, only "
                                         << shapes.size() << " shapes exist");
    std::vector<ColdBody> out;
    for (std::size_t i = 0; i < count; ++i) {
        std::swap(shapes[i], shapes[i + rng.uniform(shapes.size() - i)]);
        const Shape &s = shapes[i];
        const trace::Trace tr =
            s.nn ? workloads::tfheNn(tfhe::TfheParams::t1(), s.variant + 1,
                                     s.size)
                 : workloads::pbsThroughput(s.variant
                                                ? tfhe::TfheParams::t2()
                                                : tfhe::TfheParams::t1(),
                                            s.size);
        std::ostringstream os;
        trace::writeTrace(tr, os);
        out.push_back({i % 2 ? "strix" : "ufc", os.str()});
    }
    return out;
}

/** Poisson arrivals: exactly `n` requests at `rate`, starting at t0. */
void
schedule(std::vector<Request> &reqs, std::size_t n, double rate, double t0,
         bool peak, Rng &rng, int &coldNext)
{
    double t = t0;
    for (std::size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - rng.uniformReal()) / rate;
        Request r;
        r.t.dueS = t;
        r.peak = peak;
        if (rng.uniformReal() < kColdShare)
            r.cold = coldNext++;
        else
            r.warm = static_cast<int>(rng.uniform(std::size(kWarmSpecs)));
        reqs.push_back(std::move(r));
    }
}

std::string
errorCode(const JsonValue &resp)
{
    const JsonValue *err = resp.find("error");
    return err ? err->getString("code", "unknown") : "unknown";
}

/**
 * Drive one open-loop stream against the server.  The submitter sleeps
 * until each due time and submits; the collector asks for every
 * admitted id's result until it is terminal.  The submit thread is
 * joined before returning, on error paths too; an error on either side
 * is rethrown after the join.
 */
void
drive(const std::string &socket, std::vector<Request> &reqs,
      const std::vector<ColdBody> &cold)
{
    serve::Client submitter, collector;
    submitter.connect(socket, 20);
    collector.connect(socket, 20);

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::size_t> admitted; // guarded by mu
    bool submitDone = false;           // guarded by mu
    const Clock::time_point start = Clock::now();

    const auto submitAll = [&] {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            Request &r = reqs[i];
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(r.t.dueS)));
            const JsonValue job = r.warm >= 0
                                      ? warmJob(kWarmSpecs[r.warm])
                                      : coldJob(cold[r.cold], r.cold);
            const std::string tenant = "tenant" + std::to_string(i % kTenants);
            r.t.sentS = secondsSince(start);
            const JsonValue resp = submitter.submit(job, tenant);
            r.rttMs = (secondsSince(start) - r.t.sentS) * 1e3;
            if (resp.getBool("ok")) {
                r.id = resp.getString("id");
                std::lock_guard<std::mutex> lk(mu);
                admitted.push_back(i);
                cv.notify_one();
            } else {
                r.refusal = errorCode(resp);
                r.terminal = true;
            }
        }
    };

    // Block briefly on the oldest id -- the server wakes the wait the
    // moment that job settles, and jobs mostly settle in order -- then
    // ask for the rest without blocking.
    const auto collectAll = [&] {
        std::vector<std::size_t> outstanding;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(mu);
                if (outstanding.empty())
                    cv.wait(lk,
                            [&] { return submitDone || !admitted.empty(); });
                outstanding.insert(outstanding.end(), admitted.begin(),
                                   admitted.end());
                admitted.clear();
                if (outstanding.empty() && submitDone)
                    return;
            }
            for (auto it = outstanding.begin(); it != outstanding.end();) {
                Request &r = reqs[*it];
                JsonValue q = JsonValue::makeObject();
                q.set("op", JsonValue::makeString("result"));
                q.set("id", JsonValue::makeString(r.id));
                if (it == outstanding.begin()) {
                    q.set("wait", JsonValue::makeBool(true));
                    q.set("timeout_ms",
                          JsonValue::makeDouble(kCollectWaitMs));
                }
                const JsonValue resp = collector.request(q);
                if (!resp.getBool("ok") &&
                    errorCode(resp) == "wait_timeout") {
                    ++it;
                    continue;
                }
                r.t.doneS = secondsSince(start);
                r.terminal = true;
                if (resp.getBool("ok")) {
                    r.result = *resp.find("result");
                    r.serviceMs = r.result.getDouble("host_seconds") * 1e3;
                } else {
                    r.refusal = errorCode(resp);
                }
                it = outstanding.erase(it);
            }
        }
    };

    std::exception_ptr submitError, collectError;
    std::thread submit([&] {
        try {
            submitAll();
        } catch (...) {
            submitError = std::current_exception();
        }
        std::lock_guard<std::mutex> lk(mu);
        submitDone = true;
        cv.notify_one();
    });
    try {
        collectAll();
    } catch (...) {
        collectError = std::current_exception();
    }
    submit.join();
    for (const std::exception_ptr &e : {submitError, collectError})
        if (e)
            std::rethrow_exception(e);
}

/** Mark each request ok or not; one checked operation per request. */
void
checkRequests(std::vector<Request> &reqs, const Golden &golden,
              const std::vector<std::uint64_t> &coldWant, Outcome &o)
{
    for (Request &r : reqs) {
        const std::string what =
            r.warm >= 0 ? warmLabel(kWarmSpecs[r.warm])
                        : "cold/" + std::to_string(r.cold);
        if (!r.refusal.empty()) {
            ++o.refusals[r.refusal];
            o.check(false, what + ": " + r.refusal);
            continue;
        }
        if (!r.terminal) {
            o.check(false, what + ": leaked (no terminal state)");
            continue;
        }
        const std::uint64_t d = normalizedDigest(r.result);
        bool ok;
        if (r.warm >= 0) {
            const auto g = golden.find(warmLabel(kWarmSpecs[r.warm]));
            ok = g != golden.end() && g->second == d;
        } else {
            ok = coldWant[r.cold] == d;
        }
        r.t.ok = ok;
        o.check(ok, what + ": result differs from " +
                        (r.warm >= 0 ? "golden digest" : "local replay"));
    }
}

/** The expected digest of every cold body: compile+execute in this
 *  process, outside any timed window. */
std::vector<std::uint64_t>
replayCold(const std::vector<ColdBody> &cold, std::size_t used)
{
    std::vector<std::uint64_t> want(used);
    std::map<std::string, std::shared_ptr<const sim::AcceleratorModel>>
        models;
    for (std::size_t i = 0; i < used; ++i) {
        auto &m = models[cold[i].machine];
        if (!m)
            m = makeModel(cold[i].machine);
        std::istringstream is(cold[i].text);
        const trace::Trace tr = trace::readTrace(is);
        sim::RunOptions opts;
        opts.label = "cold/" + std::to_string(i);
        want[i] = normalizedDigest(
            serve::parseJson(m->execute(m->compile(tr), opts).toJson()));
    }
    return want;
}

/** Server-side cache counters from the health response. */
struct CacheCounts
{
    double programHits = 0, programCompiles = 0, phaseHits = 0,
           phaseMisses = 0;
};

CacheCounts
cacheCounts(const std::string &socket)
{
    serve::Client c;
    c.connect(socket, 20);
    const JsonValue h = c.health();
    const JsonValue *caches = h.find("caches");
    CacheCounts cc;
    if (caches) {
        cc.programHits = caches->getDouble("program_hits");
        cc.programCompiles = caches->getDouble("program_compiles");
        cc.phaseHits = caches->getDouble("phase_hits");
        cc.phaseMisses = caches->getDouble("phase_misses");
    }
    return cc;
}

/** The serve config of a benchmark process: defaults, with the socket
 *  in the work directory. */
serve::ServeConfig
serveConfig(const RunArgs &a)
{
    serve::ServeConfig cfg;
    cfg.socketPath = a.workDir + "/ufcbench-" + std::to_string(::getpid()) +
                     ".sock";
    return cfg;
}

/**
 * A started in-process server whose caches hold every warm spec: the
 * first request of each spec is sent before anything is timed, and its
 * result digested into `served`.  The server stops (and removes its
 * socket) on destruction, also when a measurement throws.
 */
class WarmServer
{
  public:
    WarmServer(const RunArgs &a, Golden &served) : server_(serveConfig(a))
    {
        server_.start();
        serve::Client c;
        c.connect(socket(), 20);
        for (const WarmSpec &s : kWarmSpecs) {
            const JsonValue resp = c.submit(warmJob(s), "setup");
            const JsonValue res =
                resp.getBool("ok") ? c.waitResult(resp.getString("id"), 60000)
                                   : resp;
            const JsonValue *body = res.find("result");
            served[warmLabel(s)] = body ? normalizedDigest(*body) : 0;
        }
    }

    const std::string &socket() const { return server_.config().socketPath; }

    /** Drain over the protocol, then stop; returns the final accounting. */
    serve::ServeStats
    shutdown()
    {
        {
            serve::Client c;
            c.connect(socket(), 20);
            c.drain();
        }
        server_.awaitDrained();
        const serve::ServeStats st = server_.stats();
        server_.stop();
        return st;
    }

  private:
    serve::Server server_;
};

std::string
goldenPath(const RunArgs &a)
{
    return a.goldenDir + "/serve.txt";
}

} // namespace

void
writeServeGolden(const RunArgs &a)
{
    Golden served;
    WarmServer(a, served).shutdown();
    saveGolden(served, goldenPath(a));
}

void
tracedServeLayers(const RunArgs &a, Outcome &o)
{
    Rng rng(a.seed * 0x9e3779b97f4a7c15ULL + 1);
    const double phaseS = a.seconds / 2.0;
    std::vector<Request> reqs;
    int coldNext = 0;
    const auto count = [&](double rate) {
        return static_cast<std::size_t>(std::llround(rate * phaseS));
    };
    schedule(reqs, count(kNominalRate), kNominalRate, 0.0, false, rng,
             coldNext);
    schedule(reqs, count(kPeakRate), kPeakRate, reqs.back().t.dueS, true,
             rng, coldNext);
    const std::vector<ColdBody> cold =
        makeColdBodies(static_cast<std::size_t>(coldNext), rng);
    const Golden golden = loadGolden(goldenPath(a));

    Golden served;
    WarmServer server(a, served);
    for (const auto &[label, d] : served) {
        const auto g = golden.find(label);
        o.check(d != 0 && g != golden.end() && g->second == d,
                label + ": warm-up result differs from golden digest");
    }

    const CacheCounts before = cacheCounts(server.socket());
    metrics::setEnabled(true);
    drive(server.socket(), reqs, cold);
    metrics::setEnabled(false);
    const CacheCounts after = cacheCounts(server.socket());
    const serve::ServeStats st = server.shutdown();
    o.check(st.submitted == st.completed + st.failed + st.cancelled,
            "server leaked " +
                std::to_string(st.submitted - st.completed - st.failed -
                               st.cancelled) +
                " accepted job(s)");

    const std::vector<std::uint64_t> coldWant =
        replayCold(cold, static_cast<std::size_t>(coldNext));
    checkRequests(reqs, golden, coldWant, o);

    // Queue time: due-time latency of the admitted nominal-rate
    // requests minus their service time (a wrong result is infinite).
    std::vector<Arrival> nominal, all;
    std::vector<double> serviceMs, rttMs, queueMs;
    double rejected = 0;
    for (const Request &r : reqs) {
        all.push_back(r.t);
        rttMs.push_back(r.rttMs);
        if (!r.refusal.empty()) {
            ++rejected;
            continue;
        }
        if (r.peak)
            continue;
        nominal.push_back(r.t);
        serviceMs.push_back(r.serviceMs);
    }
    const std::vector<double> dueMs = dueLatenciesMs(nominal);
    for (std::size_t i = 0; i < dueMs.size(); ++i)
        queueMs.push_back(dueMs[i] - serviceMs[i]);

    std::vector<double> parseMs, lintMs;
    double bytes = 0;
    for (int i = 0; i < coldNext; ++i) {
        std::istringstream is(cold[i].text);
        auto t = Clock::now();
        const trace::Trace tr = trace::readTrace(is);
        parseMs.push_back(msSince(t));
        bytes += static_cast<double>(cold[i].text.size());
        t = Clock::now();
        (void)analysis::Analyzer().analyze(tr);
        lintMs.push_back(msSince(t));
    }
    double parseTotalMs = 0;
    for (const double x : parseMs)
        parseTotalMs += x;

    const auto ratio = [](double hit, double other) {
        return hit + other > 0 ? hit / (hit + other) : 0.0;
    };
    setLayer(o, "trace.parse_ms", median(parseMs));
    setLayer(o, "trace.parse_mb_per_s", bytes / 1e6 / (parseTotalMs / 1e3));
    setLayer(o, "analysis.lint_ms", median(lintMs));
    setLayer(o, "serve.queue_ms.p50", percentile(queueMs, 50));
    setLayer(o, "serve.queue_ms.p99", percentile(queueMs, 99));
    setLayer(o, "serve.service_ms.p50", percentile(serviceMs, 50));
    setLayer(o, "serve.service_ms.p99", percentile(serviceMs, 99));
    setLayer(o, "serve.submit_rtt_ms.p50", percentile(rttMs, 50));
    setLayer(o, "serve.program_cache.hit_ratio",
             ratio(after.programHits - before.programHits,
                   after.programCompiles - before.programCompiles));
    setLayer(o, "serve.phase_cache.hit_ratio",
             ratio(after.phaseHits - before.phaseHits,
                   after.phaseMisses - before.phaseMisses));
    setLayer(o, "serve.rejected", rejected);
    setLayer(o, "loadgen.late_ms.p99", percentile(latenessMs(all), 99));
}

} // namespace ufcbench
