/**
 * @file
 * Frame I/O implementation.  All reads and writes loop over partial
 * transfers and EINTR; writes use MSG_NOSIGNAL so a dead peer surfaces
 * as a typed error instead of SIGPIPE killing the daemon.
 */

#include "serve/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "common/error.h"

namespace ufc {
namespace serve {

namespace {

/** Read exactly `len` bytes; returns bytes read (< len only on EOF). */
std::size_t
readFull(int fd, char *buf, std::size_t len)
{
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::read(fd, buf + got, len - got);
        if (n == 0)
            break; // EOF
        if (n < 0) {
            if (errno == EINTR)
                continue;
            UFC_THROW(ConfigError,
                      "socket read failed: " << std::strerror(errno));
        }
        got += static_cast<std::size_t>(n);
    }
    return got;
}

} // namespace

bool
readFrame(int fd, std::string &payload)
{
    unsigned char hdr[4];
    const std::size_t h =
        readFull(fd, reinterpret_cast<char *>(hdr), sizeof(hdr));
    if (h == 0)
        return false; // clean EOF at a frame boundary
    UFC_EXPECT(h == sizeof(hdr), ConfigError,
               "truncated frame: connection closed inside the length "
               "prefix");
    const u32 len = (u32{hdr[0]} << 24) | (u32{hdr[1]} << 16) |
                    (u32{hdr[2]} << 8) | u32{hdr[3]};
    if (len > kDefaultMaxFrameBytes)
        throw OverloadError("frame of " + std::to_string(len) +
                                " bytes exceeds the " +
                                std::to_string(kDefaultMaxFrameBytes) +
                                "-byte limit",
                            -1.0);
    payload.resize(len);
    const std::size_t got = len == 0 ? 0 : readFull(fd, payload.data(), len);
    UFC_EXPECT(got == len, ConfigError,
               "truncated frame: got " << got << " of " << len
                                       << " payload bytes");
    return true;
}

void
writeFrame(int fd, const std::string &payload)
{
    UFC_EXPECT(payload.size() <= 0xFFFFFFFFull, ConfigError,
               "frame payload too large to encode");
    const u32 len = static_cast<u32>(payload.size());
    const unsigned char hdr[4] = {
        static_cast<unsigned char>(len >> 24),
        static_cast<unsigned char>(len >> 16),
        static_cast<unsigned char>(len >> 8),
        static_cast<unsigned char>(len),
    };
    std::string frame(reinterpret_cast<const char *>(hdr), sizeof(hdr));
    frame += payload;

    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t n = ::send(fd, frame.data() + sent,
                                 frame.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            UFC_THROW(ConfigError,
                      "socket write failed: " << std::strerror(errno));
        }
        sent += static_cast<std::size_t>(n);
    }
}

JsonValue
errorResponse(const std::string &kind, const std::string &code,
              const std::string &message, double retryAfterMs)
{
    JsonValue err = JsonValue::makeObject();
    err.set("kind", JsonValue::makeString(kind));
    err.set("code", JsonValue::makeString(code));
    err.set("message", JsonValue::makeString(message));
    if (retryAfterMs >= 0.0)
        err.set("retry_after_ms",
                JsonValue::makeInt(static_cast<i64>(retryAfterMs)));
    JsonValue resp = JsonValue::makeObject();
    resp.set("ok", JsonValue::makeBool(false));
    resp.set("error", std::move(err));
    return resp;
}

} // namespace serve
} // namespace ufc
