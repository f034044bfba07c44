/**
 * @file
 * Wire protocol for the ufc_serve daemon: length-prefixed JSON frames
 * over a local (AF_UNIX) stream socket.
 *
 * ## Framing
 *
 * Every message — request or response — is one frame:
 *
 *     [4-byte big-endian payload length N][N bytes of UTF-8 JSON]
 *
 * A frame longer than the receiver's limit is a protocol violation:
 * the daemon answers with an `oversized_frame` error and closes the
 * connection without reading the body (a client cannot make the server
 * buffer unbounded input).  A connection that ends mid-frame is
 * treated as a disconnect and closed quietly — mid-request client
 * death must never take a worker down.
 *
 * ## Requests
 *
 * Requests are JSON objects dispatched on their `"op"` field:
 *
 *   submit  {op, tenant?, job:{workload|trace_file|trace_text, scale?,
 *            machine?, label?, deadline_ms?, max_cycles?, retries?,
 *            lint?, hold_ms?}}
 *   status  {op, id}
 *   result  {op, id, wait?, timeout_ms?}
 *   cancel  {op, id}
 *   health  {op}
 *   metrics {op}
 *   drain   {op}
 *
 * ## Responses
 *
 * Every response carries `"ok"`.  Failures carry an `"error"` object:
 * {kind, code, message, retry_after_ms?, recent_events?} where `kind`
 * is the ufc::Error kind ("OverloadError" for admission rejections)
 * and `code` is a stable machine tag (kCode* below).
 */

#ifndef UFC_SERVE_PROTOCOL_H
#define UFC_SERVE_PROTOCOL_H

#include <string>

#include "common/types.h"
#include "serve/json.h"

namespace ufc {
namespace serve {

/** Cap on one frame's payload, request and response alike. */
inline constexpr u32 kDefaultMaxFrameBytes = 4u << 20;

/** Protocol revision reported by `health`. */
inline constexpr int kProtocolVersion = 1;

/// Stable machine tags carried in error responses' "code" field.
inline constexpr const char *kCodeQueueFull = "queue_full";
inline constexpr const char *kCodeRateLimited = "rate_limited";
inline constexpr const char *kCodeShedCompile = "shed_compile";
inline constexpr const char *kCodeDraining = "draining";
inline constexpr const char *kCodeBadRequest = "bad_request";
inline constexpr const char *kCodeBadJob = "bad_job";
inline constexpr const char *kCodeUnknownId = "unknown_id";
inline constexpr const char *kCodeNotCancellable = "not_cancellable";
inline constexpr const char *kCodeOversizedFrame = "oversized_frame";
inline constexpr const char *kCodeJobFailed = "job_failed";
inline constexpr const char *kCodeWaitTimeout = "wait_timeout";
inline constexpr const char *kCodeTooManyConns = "too_many_connections";

/**
 * Read one frame's payload from `fd` into `payload`.
 * Returns false on a clean EOF at a frame boundary (peer closed).
 * Throws ufc::ConfigError on a truncated frame or an I/O error, and
 * ufc::OverloadError carrying no retry hint on a length prefix over
 * kDefaultMaxFrameBytes (the caller decides whether to answer before
 * closing).
 */
bool readFrame(int fd, std::string &payload);

/** Write one frame (length prefix + payload) to `fd`; throws
 *  ufc::ConfigError when the peer is gone or the write fails.  Never
 *  raises SIGPIPE. */
void writeFrame(int fd, const std::string &payload);

/** Build the standard error-response document. */
JsonValue errorResponse(const std::string &kind, const std::string &code,
                        const std::string &message,
                        double retryAfterMs = -1.0);

} // namespace serve
} // namespace ufc

#endif // UFC_SERVE_PROTOCOL_H
