// Open-loop HTTP/1.1 client: many requests in flight on one thread, each
// on its own connection ("Connection: close"), multiplexed with ppoll.
// An open loop must not wait for one slow answer before sending the
// next request, which the blocking dcdb::http_get would force.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct HttpResult {
    std::uint64_t tag{0};
    std::uint64_t due_ns{0};   // when the request was due (steady clock)
    std::uint64_t sent_ns{0};  // when it was started
    std::uint64_t done_ns{0};  // when the full answer had arrived
    int status{0};             // 0 on a transport error
    std::string body;
};

class OpenLoopHttp {
  public:
    explicit OpenLoopHttp(std::uint16_t port) : port_(port) {}
    ~OpenLoopHttp();
    OpenLoopHttp(const OpenLoopHttp&) = delete;
    OpenLoopHttp& operator=(const OpenLoopHttp&) = delete;

    /// Connect and queue a GET of `target`; the result carries `tag`.
    void start(std::uint64_t due_ns, const std::string& target,
               std::uint64_t tag);

    /// Make progress until at least one request completes or the steady
    /// clock reaches `until_ns`; returns the completed requests.
    std::vector<HttpResult> poll(std::uint64_t until_ns);

    int inflight() const { return static_cast<int>(calls_.size()); }

  private:
    struct Call {
        int fd{-1};
        bool connected{false};
        std::string out;
        std::size_t sent{0};
        std::string in;
        HttpResult result;
    };

    void finish(Call& call, int status);

    std::uint16_t port_;
    std::vector<Call> calls_;
    std::vector<HttpResult> done_;
};

/// Status code and body of a complete HTTP/1.x response; status 0 when
/// malformed or truncated.
int parse_http_response(const std::string& raw, std::string& body);

}  // namespace perfbench
