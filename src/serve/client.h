/**
 * @file
 * Blocking client for the ufc_serve protocol: connect to the daemon's
 * AF_UNIX socket, exchange length-prefixed JSON frames, and wrap the
 * common request shapes (submit / wait-for-result / health / drain).
 *
 * Used by bench/ufc_loadgen, the lifecycle tests, and anything else
 * that wants to talk to a running daemon in-process.  `sendRaw()`
 * exposes the socket for chaos tests that need to write deliberately
 * malformed bytes (truncated frames, hostile length prefixes).
 */

#ifndef UFC_SERVE_CLIENT_H
#define UFC_SERVE_CLIENT_H

#include <string>

#include "serve/json.h"
#include "serve/protocol.h"

namespace ufc {
namespace serve {

/** One connection to a ufc_serve daemon.  Not thread-safe: use one
 *  Client per client thread. */
class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;

    /** Connect to the daemon's socket; throws ufc::ConfigError when the
     *  daemon is not there.  `retries` extra attempts (100 ms apart)
     *  cover the daemon's startup window. */
    void connect(const std::string &socketPath, int retries = 0);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * Send one request document and return the parsed response.
     * Throws ufc::ConfigError on transport failure (daemon gone,
     * malformed response).  A protocol-level error response is returned
     * as-is — inspect `ok` — it is data, not a transport fault.
     */
    JsonValue request(const JsonValue &req);

    /** request() from serialized text (convenience for tests). */
    JsonValue requestText(const std::string &requestJson);

    /** Submit a job object ({workload|trace_file|trace_text, ...});
     *  returns the full response (check `ok`, read `id`). */
    JsonValue submit(const JsonValue &job,
                     const std::string &tenant = "");

    /** Blocking result fetch: {op:result, id, wait:true, timeout_ms}. */
    JsonValue waitResult(const std::string &id,
                         double timeoutMs = 30000.0);

    JsonValue health();
    JsonValue drain();

    /** Write raw bytes to the socket, bypassing framing — chaos tests
     *  only.  Throws ufc::ConfigError on a transport error. */
    void sendRaw(const std::string &bytes);

    /** The raw socket fd (chaos tests); -1 when not connected. */
    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

} // namespace serve
} // namespace ufc

#endif // UFC_SERVE_CLIENT_H
