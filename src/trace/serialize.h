/**
 * @file
 * Text serialization of workload traces.
 *
 * The paper's flow (Section VI-B) generates ciphertext-granularity traces
 * with a tracing tool and feeds them to a compiler as files; this module
 * provides that interchange format: a line-oriented, diff-friendly text
 * encoding with the parameter header followed by one op per line.
 */

#ifndef UFC_TRACE_SERIALIZE_H
#define UFC_TRACE_SERIALIZE_H

#include <cstddef>
#include <iosfwd>
#include <string>

#include "trace/trace.h"

namespace ufc {
namespace trace {

/** Magic tag on the first line of every trace file. */
inline constexpr const char *kTraceMagic = "ufctrace";
/**
 * Current format version, written after the magic.  History:
 *   v3 — optional "phase <begin|end> <opIndex> [name]" region-marker
 *        lines (bootstrap / key-switch / blind-rotate grouping for the
 *        exported simulator timeline); v2 files, which have none, still
 *        load.
 *   v2 — added the "ufctrace <version>" header line (v1 files, which
 *        predate versioning, start directly with "trace" and are
 *        rejected with an explicit message).
 */
inline constexpr int kTraceFormatVersion = 3;

/** Oldest version readTrace() still accepts. */
inline constexpr int kTraceMinReadVersion = 2;

/** Write a trace in the text format (always the current version). */
void writeTrace(const Trace &tr, std::ostream &os);

/**
 * Chunked trace parser behind readTrace().  Feed byte chunks of any
 * size — down to one byte — and each line is validated and appended to
 * the reader's Trace as soon as it completes; take() hands the trace out
 * after finish().  All whole-file validation applies per line with
 * byte-identical TraceError messages at every chunk size; checks that
 * need the end of the stream (missing 'end', unclosed regions, marker
 * indices past the op stream) fire in finish().
 *
 * Besides the trace, the reader buffers one partial line (≤ the longest
 * line in the stream; hostile over-long lines are still buffered whole
 * so the "trace line too long" diagnosis can quote them exactly).
 * peakBufferedBytes() reports the high-water mark of that buffer.
 */
class TraceReader
{
  public:
    /** Consume the next chunk of the stream. */
    void feed(const char *data, std::size_t len);
    /** End of input: process any unterminated final line, then run the
     *  end-of-stream checks. */
    void finish();
    /** True once the 'end' marker validated; further input is ignored,
     *  exactly as the whole-file parser stops reading at 'end'. */
    bool done() const { return done_; }
    /** High-water mark of bytes buffered across feed() calls. */
    std::size_t peakBufferedBytes() const { return peakBuffered_; }
    /** Move the parsed trace out (valid after finish()). */
    Trace take() { return std::move(tr_); }

  private:
    void processLine();

    Trace tr_;
    std::string line_;
    std::size_t peakBuffered_ = 0;
    std::size_t lineNo_ = 0;
    int version_ = 0;
    bool done_ = false;
    bool finished_ = false;
    bool sawMagic_ = false;
    bool sawName_ = false, sawCkks_ = false, sawTfhe_ = false,
         sawLive_ = false;
    int openPhases_ = 0;
    std::string lastPhaseLine_;
};

/**
 * Parse a trace from the text format.  Every read is bounds-checked;
 * truncated, corrupt, out-of-range or duplicate-marker input throws
 * ufc::TraceError (never aborts and never returns a partially-valid
 * trace), so a batch driver can contain a bad file to one job.
 * Rejected inputs include: missing/garbled magic, unsupported version,
 * truncated header or missing 'end', unknown tags or opcodes, negative
 * or absurdly large field values, duplicate header lines, phase markers
 * in pre-v3 files, unbalanced/duplicate/non-monotone phase markers, and
 * phase indices past the end of the op stream.
 */
Trace readTrace(std::istream &is);

/** Convenience file wrappers; loadTrace throws ufc::TraceError when the
 *  file cannot be opened or fails to parse, saveTrace throws
 *  ufc::ConfigError when the path cannot be written. */
void saveTrace(const Trace &tr, const std::string &path);
Trace loadTrace(const std::string &path);

/** Stable op-kind <-> mnemonic mapping used by the format. */
const char *opKindName(OpKind kind);
bool opKindFromName(const std::string &name, OpKind &kind);

} // namespace trace
} // namespace ufc

#endif // UFC_TRACE_SERIALIZE_H
