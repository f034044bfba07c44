/**
 * @file
 * Trace text serialization implementation.
 *
 * Format:
 *   ufctrace <version>
 *   trace <name>
 *   ckks <ringDim> <levels> <special> <dnum> <limbBits>
 *   tfhe <ringDim> <lweDim> <gadgetLevels> <ksLevels> <limbBits>
 *   live <liveCiphertexts>
 *   phase begin <opIndex> <name>     (v3+, optional, interleaved freely)
 *   phase end <opIndex>
 *   op <mnemonic> <limbs> <count> <fanIn> <keyId>
 *   ...
 *   end
 */

#include "trace/serialize.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "metrics/metrics.h"

namespace ufc {
namespace trace {

namespace {

struct KindName
{
    OpKind kind;
    const char *name;
};

constexpr KindName kKindNames[] = {
    {OpKind::CkksAdd, "ckks.add"},
    {OpKind::CkksAddPlain, "ckks.addplain"},
    {OpKind::CkksMult, "ckks.mult"},
    {OpKind::CkksMultPlain, "ckks.multplain"},
    {OpKind::CkksRescale, "ckks.rescale"},
    {OpKind::CkksRotate, "ckks.rotate"},
    {OpKind::CkksConjugate, "ckks.conjugate"},
    {OpKind::CkksModRaise, "ckks.modraise"},
    {OpKind::TfheLinear, "tfhe.linear"},
    {OpKind::TfhePbs, "tfhe.pbs"},
    {OpKind::TfheKeySwitch, "tfhe.keyswitch"},
    {OpKind::TfheModSwitch, "tfhe.modswitch"},
    {OpKind::SwitchExtract, "switch.extract"},
    {OpKind::SwitchRepack, "switch.repack"},
};

} // namespace

const char *
opKindName(OpKind kind)
{
    for (const auto &entry : kKindNames) {
        if (entry.kind == kind)
            return entry.name;
    }
    ufcPanic("unknown op kind");
}

bool
opKindFromName(const std::string &name, OpKind &kind)
{
    for (const auto &entry : kKindNames) {
        if (name == entry.name) {
            kind = entry.kind;
            return true;
        }
    }
    return false;
}

void
writeTrace(const Trace &tr, std::ostream &os)
{
    os << kTraceMagic << " " << kTraceFormatVersion << "\n";
    os << "trace " << tr.name << "\n";
    os << "ckks " << tr.ckksRingDim << " " << tr.ckksLevels << " "
       << tr.ckksSpecial << " " << tr.ckksDnum << " " << tr.ckksLimbBits
       << "\n";
    os << "tfhe " << tr.tfheRingDim << " " << tr.tfheLweDim << " "
       << tr.tfheGadgetLevels << " " << tr.tfheKsLevels << " "
       << tr.tfheLimbBits << "\n";
    os << "live " << tr.liveCiphertexts << "\n";
    for (const auto &mark : tr.phases) {
        os << "phase " << (mark.begin ? "begin" : "end") << " "
           << mark.opIndex;
        if (mark.begin)
            os << " " << mark.name;
        os << "\n";
    }
    for (const auto &op : tr.ops) {
        os << "op " << opKindName(op.kind) << " " << op.limbs << " "
           << op.count << " " << op.fanIn << " " << op.keyId << "\n";
    }
    os << "end\n";
}

namespace {

// Parser guard rails: reject absurd values before they can size a
// runaway allocation or feed nonsense into the models.
constexpr std::size_t kMaxLineLen = 4096;
constexpr std::size_t kMaxOps = std::size_t(1) << 26;      // ~67M lines
constexpr std::size_t kMaxPhases = std::size_t(1) << 22;
constexpr u64 kMaxRingDim = u64(1) << 26;
constexpr int kMaxSmallField = 1 << 20;  // levels/dnum/limbs/fanIn/...
constexpr int kMaxCount = 1 << 30;       // batched op multiplicity

/// Bytes readTrace() hands the reader per feed().
constexpr std::size_t kReadChunk = std::size_t(64) << 10;

} // namespace

void
TraceReader::feed(const char *data, std::size_t len)
{
    if (metrics::enabled()) {
        static metrics::Counter &chunks = metrics::counter(
            "ufc_trace_reader_chunks_total",
            "Chunks fed into streaming trace readers");
        static metrics::Counter &bytes = metrics::counter(
            "ufc_trace_reader_bytes_total",
            "Bytes fed into streaming trace readers");
        chunks.inc();
        bytes.inc(len);
    }
    // Publish the reader's running peak on every feed() exit; the gauge's
    // high-water mark then tracks the largest line buffered by any reader.
    struct PeakGuard {
        const TraceReader &r;
        ~PeakGuard()
        {
            if (metrics::enabled()) {
                static metrics::Gauge &peak = metrics::gauge(
                    "ufc_trace_reader_peak_buffered_bytes",
                    "Peak bytes buffered for one trace line");
                peak.set(static_cast<i64>(r.peakBufferedBytes()));
            }
        }
    } peakGuard{*this};
    if (done_)
        return; // whole-file parser stops reading at 'end'
    std::size_t pos = 0;
    while (pos < len) {
        const char *nl = static_cast<const char *>(
            std::memchr(data + pos, '\n', len - pos));
        if (nl == nullptr) {
            line_.append(data + pos, len - pos);
            peakBuffered_ = std::max(peakBuffered_, line_.size());
            return;
        }
        const std::size_t span = static_cast<std::size_t>(nl - (data + pos));
        line_.append(data + pos, span);
        peakBuffered_ = std::max(peakBuffered_, line_.size());
        pos += span + 1;
        processLine();
        line_.clear();
        if (done_)
            return;
    }
}

void
TraceReader::finish()
{
    if (finished_)
        return;
    finished_ = true;
    // An unterminated final line is still a line to getline().
    if (!done_ && !line_.empty()) {
        processLine();
        line_.clear();
    }
    UFC_EXPECT(done_, TraceError,
               "trace truncated: missing 'end' marker");
    UFC_EXPECT(openPhases_ == 0, TraceError,
               "trace has " << openPhases_
                   << " unclosed phase region(s)");
    // Markers are monotone in opIndex, so the first one past the op
    // stream is the first offender in file order.
    const std::size_t ops = tr_.ops.size();
    const auto past = std::find_if(
        tr_.phases.begin(), tr_.phases.end(),
        [ops](const PhaseMark &m) { return m.opIndex > ops; });
    UFC_EXPECT(past == tr_.phases.end(), TraceError,
               "phase marker index " << past->opIndex
                   << " past the end of the op stream (" << ops
                   << " ops)");
}

void
TraceReader::processLine()
{
    const std::string &line = line_;
    const std::size_t lineNo = ++lineNo_;
    const auto fail = [&](const std::string &what) {
        UFC_THROW(TraceError,
                  what << " [line " << lineNo << ": " << line << "]");
    };

    if (line.size() > kMaxLineLen)
        fail("trace line too long");
    if (line.empty() || line[0] == '#')
        return;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (!sawMagic_) {
        // The first meaningful line must be the versioned magic;
        // anything else (including a headerless v1 file) is rejected.
        UFC_EXPECT(tag == kTraceMagic, TraceError,
                   "not a ufc trace file (missing '"
                       << kTraceMagic << "' magic, got '" << tag
                       << "')");
        ss >> version_;
        UFC_EXPECT(!ss.fail() && version_ >= kTraceMinReadVersion &&
                       version_ <= kTraceFormatVersion,
                   TraceError,
                   "unsupported trace format version "
                       << version_ << " (expected "
                       << kTraceMinReadVersion << ".."
                       << kTraceFormatVersion << ")");
        sawMagic_ = true;
        return;
    }
    if (tag == "trace") {
        if (sawName_)
            fail("duplicate 'trace' header line");
        sawName_ = true;
        ss >> tr_.name;
        if (ss.fail() || tr_.name.empty())
            fail("malformed trace-name line");
    } else if (tag == "ckks") {
        if (sawCkks_)
            fail("duplicate 'ckks' header line");
        sawCkks_ = true;
        ss >> tr_.ckksRingDim >> tr_.ckksLevels >> tr_.ckksSpecial >>
            tr_.ckksDnum >> tr_.ckksLimbBits;
        if (ss.fail())
            fail("malformed ckks header line");
        if (tr_.ckksRingDim > kMaxRingDim ||
            tr_.ckksLevels < 0 ||
            tr_.ckksLevels > kMaxSmallField ||
            tr_.ckksSpecial < 0 ||
            tr_.ckksSpecial > kMaxSmallField ||
            tr_.ckksDnum < 0 || tr_.ckksDnum > kMaxSmallField ||
            tr_.ckksLimbBits < 0 || tr_.ckksLimbBits > 64)
            fail("ckks parameter out of range");
    } else if (tag == "tfhe") {
        if (sawTfhe_)
            fail("duplicate 'tfhe' header line");
        sawTfhe_ = true;
        ss >> tr_.tfheRingDim >> tr_.tfheLweDim >>
            tr_.tfheGadgetLevels >> tr_.tfheKsLevels >>
            tr_.tfheLimbBits;
        if (ss.fail())
            fail("malformed tfhe header line");
        if (tr_.tfheRingDim > kMaxRingDim ||
            tr_.tfheLweDim > kMaxRingDim ||
            tr_.tfheGadgetLevels < 0 ||
            tr_.tfheGadgetLevels > kMaxSmallField ||
            tr_.tfheKsLevels < 0 ||
            tr_.tfheKsLevels > kMaxSmallField ||
            tr_.tfheLimbBits < 0 || tr_.tfheLimbBits > 64)
            fail("tfhe parameter out of range");
    } else if (tag == "live") {
        if (sawLive_)
            fail("duplicate 'live' header line");
        sawLive_ = true;
        ss >> tr_.liveCiphertexts;
        if (ss.fail() || tr_.liveCiphertexts < 0 ||
            tr_.liveCiphertexts > kMaxSmallField)
            fail("malformed live-ciphertexts line");
    } else if (tag == "phase") {
        if (version_ < 3)
            fail("phase markers require trace format v3");
        if (tr_.phases.size() >= kMaxPhases)
            fail("too many phase markers");
        std::string kind;
        PhaseMark mark;
        ss >> kind >> mark.opIndex;
        mark.begin = kind == "begin";
        if (!mark.begin && kind != "end")
            fail("malformed phase line");
        if (mark.begin)
            ss >> mark.name;
        if (ss.fail() || (mark.begin && mark.name.empty()))
            fail("malformed phase line");
        // Two identical consecutive *begin* marks open the same
        // region twice — a duplicate-marker corruption.  Identical
        // consecutive end marks are legal (nested regions closing at
        // the same op index).
        if (mark.begin && line == lastPhaseLine_)
            fail("duplicate phase marker");
        lastPhaseLine_ = line;
        if (!tr_.phases.empty() &&
            mark.opIndex < tr_.phases.back().opIndex)
            fail("phase markers out of order");
        if (mark.begin) {
            ++openPhases_;
        } else {
            if (openPhases_ <= 0)
                fail("phase 'end' without an open region");
            --openPhases_;
        }
        tr_.phases.push_back(std::move(mark));
    } else if (tag == "op") {
        if (tr_.ops.size() >= kMaxOps)
            fail("too many ops");
        std::string mnemonic;
        TraceOp op{};
        ss >> mnemonic >> op.limbs >> op.count >> op.fanIn >> op.keyId;
        UFC_EXPECT(opKindFromName(mnemonic, op.kind), TraceError,
                   "unknown trace op: " << mnemonic);
        if (ss.fail())
            fail("malformed op line");
        if (op.limbs < 0 || op.limbs > kMaxSmallField ||
            op.count < 1 || op.count > kMaxCount ||
            op.fanIn < 0 || op.fanIn > kMaxSmallField ||
            op.keyId < 0 || op.keyId > kMaxCount)
            fail("op field out of range");
        tr_.ops.push_back(op);
    } else if (tag == "end") {
        done_ = true;
    } else {
        fail("unknown trace line tag: '" + tag + "'");
    }
}

Trace
readTrace(std::istream &is)
{
    TraceReader reader;
    std::vector<char> chunk(kReadChunk);
    while (!reader.done() && is) {
        is.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        const auto got = static_cast<std::size_t>(is.gcount());
        if (got == 0)
            break;
        reader.feed(chunk.data(), got);
    }
    reader.finish();
    return reader.take();
}

void
saveTrace(const Trace &tr, const std::string &path)
{
    std::ofstream os(path);
    UFC_EXPECT(os.good(), ConfigError,
               "cannot open " << path << " for writing");
    writeTrace(tr, os);
}

Trace
loadTrace(const std::string &path)
{
    std::ifstream is(path);
    UFC_EXPECT(is.good(), TraceError, "cannot open trace file " << path);
    return readTrace(is);
}

} // namespace trace
} // namespace ufc
