#include "http_async.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>

#include "common/clock.hpp"

namespace perfbench {

namespace {

/// A request still unanswered after this long counts as failed.
constexpr std::uint64_t kCallTimeoutNs = 20'000'000'000ull;

}  // namespace

int parse_http_response(const std::string& raw, std::string& body) {
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (head_end == std::string::npos || raw.compare(0, 5, "HTTP/") != 0)
        return 0;
    const std::size_t sp = raw.find(' ');
    int status = 0;
    if (sp == std::string::npos ||
        std::from_chars(raw.data() + sp + 1, raw.data() + head_end, status)
                .ec != std::errc{})
        return 0;
    // Content-Length, when present, must match what arrived before EOF.
    const std::string_view head(raw.data(), head_end);
    std::size_t pos = 0;
    while ((pos = head.find("\r\n", pos)) != std::string_view::npos) {
        pos += 2;
        constexpr std::string_view kLen = "content-length:";
        if (head.size() - pos < kLen.size()) break;
        bool match = true;
        for (std::size_t i = 0; i < kLen.size() && match; ++i) {
            char c = head[pos + i];
            if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
            match = c == kLen[i];
        }
        if (!match) continue;
        std::size_t v = pos + kLen.size();
        while (v < head.size() && head[v] == ' ') ++v;
        std::size_t length = 0;
        std::from_chars(head.data() + v, head.data() + head.size(), length);
        if (raw.size() - head_end - 4 != length) return 0;
    }
    body.assign(raw, head_end + 4);
    return status;
}

OpenLoopHttp::~OpenLoopHttp() {
    for (auto& call : calls_)
        if (call.fd >= 0) ::close(call.fd);
}

void OpenLoopHttp::start(std::uint64_t due_ns, const std::string& target,
                         std::uint64_t tag) {
    Call call;
    call.result.tag = tag;
    call.result.due_ns = due_ns;
    call.result.sent_ns = dcdb::steady_ns();
    call.out = "GET " + target +
               " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    call.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (call.fd < 0) {
        done_.push_back(call.result);
        return;
    }
    const int one = 1;
    ::setsockopt(call.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc =
        ::connect(call.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
        ::close(call.fd);
        done_.push_back(call.result);
        return;
    }
    call.connected = rc == 0;
    calls_.push_back(std::move(call));
}

void OpenLoopHttp::finish(Call& call, int status) {
    call.result.done_ns = dcdb::steady_ns();
    call.result.status = status;
    if (call.fd >= 0) ::close(call.fd);
    call.fd = -1;
    done_.push_back(std::move(call.result));
}

std::vector<HttpResult> OpenLoopHttp::poll(std::uint64_t until_ns) {
    std::vector<pollfd> fds;
    char buf[65536];
    while (done_.empty()) {
        const std::uint64_t now = dcdb::steady_ns();
        if (now >= until_ns) break;
        fds.clear();
        for (const auto& call : calls_) {
            const bool writing = !call.connected || call.sent < call.out.size();
            fds.push_back({call.fd, static_cast<short>(writing ? POLLOUT
                                                               : POLLIN),
                           0});
        }
        const std::uint64_t wait = until_ns - now;
        timespec ts{static_cast<time_t>(wait / 1'000'000'000ull),
                    static_cast<long>(wait % 1'000'000'000ull)};
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 &&
            errno != EINTR)
            break;
        for (std::size_t i = 0; i < calls_.size(); ++i) {
            Call& call = calls_[i];
            const short ev = fds[i].revents;
            if (ev == 0) {
                if (dcdb::steady_ns() - call.result.sent_ns > kCallTimeoutNs)
                    finish(call, 0);
                continue;
            }
            if (!call.connected) {
                int err = 0;
                socklen_t len = sizeof err;
                ::getsockopt(call.fd, SOL_SOCKET, SO_ERROR, &err, &len);
                if (err != 0) {
                    finish(call, 0);
                    continue;
                }
                call.connected = true;
            }
            if (call.sent < call.out.size()) {
                const ssize_t n =
                    ::send(call.fd, call.out.data() + call.sent,
                           call.out.size() - call.sent, MSG_NOSIGNAL);
                if (n < 0 && errno != EAGAIN && errno != EINTR)
                    finish(call, 0);
                else if (n > 0)
                    call.sent += static_cast<std::size_t>(n);
                continue;
            }
            for (;;) {
                const ssize_t n = ::recv(call.fd, buf, sizeof buf, 0);
                if (n > 0) {
                    call.in.append(buf, static_cast<std::size_t>(n));
                    continue;
                }
                if (n == 0) {
                    std::string body;
                    const int status = parse_http_response(call.in, body);
                    call.result.body = std::move(body);
                    finish(call, status);
                } else if (errno != EAGAIN && errno != EINTR) {
                    finish(call, 0);
                }
                break;
            }
        }
        std::erase_if(calls_, [](const Call& c) { return c.fd < 0; });
    }
    std::vector<HttpResult> out;
    out.swap(done_);
    return out;
}

}  // namespace perfbench
