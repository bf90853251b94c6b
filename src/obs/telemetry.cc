#include "obs/telemetry.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

namespace rsafe::obs {

namespace {

/** Write @p body to @p path, replacing any previous content. */
void
write_file(const std::string& path, const char* data, std::size_t size)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (out)
        out.write(data, static_cast<std::streamsize>(size));
}

void
send_all(int fd, const char* data, std::size_t size)
{
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return;
        sent += static_cast<std::size_t>(n);
    }
}

void
send_response(int fd, const char* status, const char* content_type,
              const char* body, std::size_t body_size)
{
    std::string head = "HTTP/1.0 ";
    head += status;
    head += "\r\nContent-Type: ";
    head += content_type;
    head += "\r\nContent-Length: " + std::to_string(body_size);
    head += "\r\nConnection: close\r\n\r\n";
    send_all(fd, head.data(), head.size());
    send_all(fd, body, body_size);
}

}  // namespace

TelemetryServer::TelemetryServer(TelemetryOptions options,
                                 TelemetryProviders providers)
    : options_(std::move(options)), providers_(std::move(providers))
{
}

TelemetryServer::~TelemetryServer()
{
    stop();
}

bool
TelemetryServer::start()
{
    if (!options_.enabled)
        return false;
    if (running_)
        return true;

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        return false;
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    sockaddr_in bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0)
        port_ = ntohs(bound.sin_port);
    else
        port_ = options_.port;

    if (!options_.snapshot_dir.empty()) {
        const std::string text = std::to_string(port_) + "\n";
        write_file(options_.snapshot_dir + "/telemetry.port", text.data(),
                   text.size());
    }

    running_ = true;
    thread_ = std::thread([this] { serve_loop(); });
    return true;
}

void
TelemetryServer::serve_loop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            // stop() shut the listener down (or accept failed hard) —
            // either way the serving loop is over.
            if (errno == EINTR)
                continue;
            return;
        }
        handle_connection(fd);
        ::close(fd);
    }
}

void
TelemetryServer::handle_connection(int fd)
{
    // A stuck client must not wedge the single accept thread.
    timeval tv;
    tv.tv_sec = 2;
    tv.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    char buf[1024];
    const ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
    if (n <= 0)
        return;
    buf[n] = '\0';

    // "GET <path> ..." is all this endpoint speaks.
    std::string request(buf);
    if (request.rfind("GET ", 0) != 0) {
        const char body[] = "method not allowed\n";
        send_response(fd, "405 Method Not Allowed", "text/plain", body,
                      sizeof(body) - 1);
        return;
    }
    const std::size_t path_end = request.find(' ', 4);
    const std::string path = path_end == std::string::npos
                                 ? request.substr(4)
                                 : request.substr(4, path_end - 4);

    if (path == "/metrics" && providers_.metrics) {
        const std::string body = providers_.metrics();
        send_response(fd, "200 OK", "text/plain; version=0.0.4",
                      body.data(), body.size());
    } else if (path == "/healthz" && providers_.healthz) {
        const std::string body = providers_.healthz();
        send_response(fd, "200 OK", "application/json", body.data(),
                      body.size());
    } else if (path == "/flight" && providers_.flight) {
        const std::vector<std::uint8_t> body = providers_.flight();
        if (body.empty()) {
            const char none[] = "no flight dump yet\n";
            send_response(fd, "404 Not Found", "text/plain", none,
                          sizeof(none) - 1);
        } else {
            send_response(fd, "200 OK", "application/octet-stream",
                          reinterpret_cast<const char*>(body.data()),
                          body.size());
        }
    } else {
        const char body[] = "not found\n";
        send_response(fd, "404 Not Found", "text/plain", body,
                      sizeof(body) - 1);
    }
}

void
TelemetryServer::stop()
{
    if (running_) {
        // shutdown() unblocks the accept thread; close() releases the fd.
        ::shutdown(listen_fd_, SHUT_RDWR);
        ::close(listen_fd_);
        if (thread_.joinable())
            thread_.join();
        listen_fd_ = -1;
        running_ = false;
    }

    // The offline twin: even when the endpoint never served (CI without
    // loopback, disabled), the snapshots capture the same content.
    if (!snapshots_written_ && !options_.snapshot_dir.empty()) {
        snapshots_written_ = true;
        if (providers_.metrics) {
            const std::string body = providers_.metrics();
            write_file(options_.snapshot_dir + "/metrics.prom", body.data(),
                       body.size());
        }
        if (providers_.healthz) {
            const std::string body = providers_.healthz();
            write_file(options_.snapshot_dir + "/healthz.json", body.data(),
                       body.size());
        }
        if (providers_.flight) {
            const std::vector<std::uint8_t> body = providers_.flight();
            if (!body.empty()) {
                write_file(options_.snapshot_dir + "/flight.bin",
                           reinterpret_cast<const char*>(body.data()),
                           body.size());
            }
        }
    }
}

}  // namespace rsafe::obs
