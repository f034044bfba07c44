/**
 * @file
 * Blocking ufc_serve client implementation.
 */

#include "serve/client.h"

#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.h"

namespace ufc {
namespace serve {

Client::~Client()
{
    close();
}

Client::Client(Client &&other) noexcept
    : fd_(other.fd_)
{
    other.fd_ = -1;
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Client::connect(const std::string &socketPath, int retries)
{
    close();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    UFC_EXPECT(socketPath.size() < sizeof(addr.sun_path), ConfigError,
               "socket path '" << socketPath
                               << "' exceeds the AF_UNIX limit");
    std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);

    int lastErrno = 0;
    for (int attempt = 0; attempt <= retries; ++attempt) {
        if (attempt > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        UFC_EXPECT(fd >= 0, ConfigError,
                   "socket() failed: " << std::strerror(errno));
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            fd_ = fd;
            return;
        }
        lastErrno = errno;
        ::close(fd);
    }
    UFC_THROW(ConfigError, "cannot connect to ufc_serve at '"
                               << socketPath
                               << "': " << std::strerror(lastErrno));
}

JsonValue
Client::request(const JsonValue &req)
{
    return requestText(req.dump());
}

JsonValue
Client::requestText(const std::string &requestJson)
{
    UFC_EXPECT(fd_ >= 0, ConfigError, "client is not connected");
    writeFrame(fd_, requestJson);
    std::string payload;
    UFC_EXPECT(readFrame(fd_, payload), ConfigError,
               "daemon closed the connection without responding");
    return parseJson(payload);
}

JsonValue
Client::submit(const JsonValue &job, const std::string &tenant)
{
    JsonValue req = JsonValue::makeObject();
    req.set("op", JsonValue::makeString("submit"));
    if (!tenant.empty())
        req.set("tenant", JsonValue::makeString(tenant));
    req.set("job", job);
    return request(req);
}

JsonValue
Client::waitResult(const std::string &id, double timeoutMs)
{
    JsonValue req = JsonValue::makeObject();
    req.set("op", JsonValue::makeString("result"));
    req.set("id", JsonValue::makeString(id));
    req.set("wait", JsonValue::makeBool(true));
    req.set("timeout_ms", JsonValue::makeDouble(timeoutMs));
    return request(req);
}

JsonValue
Client::health()
{
    JsonValue req = JsonValue::makeObject();
    req.set("op", JsonValue::makeString("health"));
    return request(req);
}

JsonValue
Client::drain()
{
    JsonValue req = JsonValue::makeObject();
    req.set("op", JsonValue::makeString("drain"));
    return request(req);
}

void
Client::sendRaw(const std::string &bytes)
{
    UFC_EXPECT(fd_ >= 0, ConfigError, "client is not connected");
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            UFC_THROW(ConfigError,
                      "raw send failed: " << std::strerror(errno));
        }
        sent += static_cast<std::size_t>(n);
    }
}

} // namespace serve
} // namespace ufc
