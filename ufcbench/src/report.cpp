#include "report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/json.h"
#include "stats.h"

namespace ufcbench {

namespace {

constexpr std::size_t kMaxFailureLines = 20;

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Outcome::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Outcome::addTimed(const std::string &name, const Timings &t)
{
    const std::vector<double> &ms = t.scaledMs;
    add(name, median(ms), "ms");
    const Quartiles q = quartiles(ms);
    const Tail tail = tailPercentile(ms);
    spreads.push_back({name, q.q1, q.q3, tail.pct, tail.value, ms.size(),
                       median(t.rawMs)});
}

void
Outcome::endSetup(std::chrono::steady_clock::time_point processStart)
{
    setupRawS = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - processStart)
                    .count();
    const double g = gaugeMsAllCpus();
    setupS = setupRawS * speedFactor(g, g);
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < kMaxFailureLines)
        failures.push_back(what);
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
resultDigest(ufc::sim::RunResult r)
{
    r.hostSeconds = 0.0;
    return fnv1a64(r.toJson());
}

Golden
loadGolden(const std::string &path)
{
    std::ifstream is(path);
    UFC_EXPECT(is.good(), ConfigError,
               "cannot open golden digests '" << path << "'");
    Golden g;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto sp = line.rfind(' ');
        UFC_EXPECT(sp != std::string::npos, ConfigError,
                   "bad golden line '" << line << "' in " << path);
        g[line.substr(0, sp)] =
            std::stoull(line.substr(sp + 1), nullptr, 16);
    }
    return g;
}

void
saveGolden(const Golden &g, const std::string &path)
{
    std::ofstream os(path);
    UFC_EXPECT(os.good(), ConfigError,
               "cannot write golden digests '" << path << "'");
    os << "# FNV-1a 64 of each simulated result's JSON, host_seconds zeroed.\n"
       << "# Regenerate: ufcbench --workload sweep --write-golden\n";
    for (const auto &[label, digest] : g) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(digest));
        os << label << ' ' << buf << '\n';
    }
}

void
writeOutcome(std::ostream &os, const Outcome &o)
{
    using ufc::json::quote;
    std::ostringstream m;
    bool first = true;
    for (const Metric &x : o.metrics) {
        m << (first ? "" : ", ") << quote(x.name)
          << ": {\"value\": " << jsonNumber(x.value)
          << ", \"unit\": " << quote(x.unit) << "}";
        first = false;
    }
    std::ostringstream r;
    first = true;
    for (const auto &[code, n] : o.refusals) {
        r << (first ? "" : ", ") << quote(code) << ": " << n;
        first = false;
    }
    std::ostringstream t;
    first = true;
    for (const auto &x : o.spreads) {
        t << (first ? "" : ", ") << "{\"name\": " << quote(x.name)
          << ", \"q1\": " << jsonNumber(x.q1)
          << ", \"q3\": " << jsonNumber(x.q3)
          << ", \"tail_pct\": " << jsonNumber(x.tailPct)
          << ", \"tail\": " << jsonNumber(x.tail)
          << ", \"samples\": " << x.samples
          << ", \"raw_median\": " << jsonNumber(x.rawMedian) << "}";
        first = false;
    }
    os << "{\"correct\": " << (o.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << o.attempted
       << ", \"failed\": " << o.failed << ", \"metrics\": {" << m.str()
       << "}, \"setup_s\": " << jsonNumber(o.setupS)
       << ", \"setup_raw_s\": " << jsonNumber(o.setupRawS)
       << ", \"refused\": {" << r.str() << "}, \"spreads\": [" << t.str()
       << "]}\n";
}

} // namespace ufcbench
