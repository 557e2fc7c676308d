#include "selftest.hpp"

#include <cmath>
#include <cstdio>
#include <map>

#include "common.hpp"
#include "http_async.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "selftest: FAILED %s\n", what);
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_quantile() {
    check(std::isnan(quantile({}, 0.5)), "quantile of empty sample is NaN");
    check(near(quantile({7}, 0.99), 7), "quantile of one value");
    check(near(median({5, 1, 4, 2, 3}), 3), "median of odd sample");
    check(near(median({10, 20}), 15), "median interpolates");
    check(near(quantile({1, 2, 3, 4, 5}, 0.25), 2), "first quartile");
    check(near(quantile({1, 2, 3, 4, 5}, 0.0), 1), "minimum");
    check(near(quantile({1, 2, 3, 4, 5}, 1.0), 5), "maximum");
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i) hundred.push_back(i);
    check(near(quantile(hundred, 0.99), 99.01), "p99 of 1..100");
}

void test_round_robin() {
    // count_for must agree with replaying topic_of message by message.
    for (std::size_t conns : {1u, 2u, 3u}) {
        const RoundRobin rr{10, conns};
        for (std::uint64_t acked = 0; acked < 40; ++acked) {
            std::map<std::size_t, std::uint64_t> seen;
            for (std::size_t c = 0; c < conns; ++c)
                for (std::uint64_t j = 0; j < acked; ++j) {
                    const std::size_t t = rr.topic_of(c, j);
                    check(t % conns == c, "topic belongs to its connection");
                    check(rr.seq_of(c, j) == seen[t],
                          "sequence numbers are consecutive per topic");
                    ++seen[t];
                }
            for (std::size_t t = 0; t < 10; ++t)
                check(rr.count_for(t, acked) == seen[t],
                      "count_for matches the send order");
        }
    }
}

void test_series() {
    const Series a = per_sensor_series(42);
    const Series b = per_sensor_series(42);
    const Series c = per_sensor_series(43);
    check(a.value(3, 9) == b.value(3, 9) && a.ts(9) == b.ts(9),
          "same seed gives the same series");
    bool differs = false;
    for (std::uint64_t k = 0; k < 16; ++k)
        differs = differs || a.value(3, k) != c.value(3, k);
    check(differs, "another seed gives other values");
    check(a.ts(1) - a.ts(0) == a.step, "series step");
    check(dashboard_series(7).base % kNsPerDay == 0,
          "dashboard history starts on a day bucket");
    check(per_sensor_topics(5).size() == 10000, "10k per-sensor topics");
    check(pusher_topics("/x").front() == "/x/tester/g0/s0",
          "tester topic naming");
}

void test_csv() {
    std::vector<Reading> rows;
    check(parse_query_csv("/a/b,10,-3\n/a/b,20,4\n", "/a/b", rows) &&
              rows.size() == 2 && rows[0].ts == 10 && rows[0].value == -3 &&
              rows[1].ts == 20 && rows[1].value == 4,
          "parse two CSV rows");
    check(parse_query_csv("", "/a/b", rows) && rows.empty(), "empty body");
    check(!parse_query_csv("/a/c,10,3\n", "/a/b", rows), "wrong topic");
    check(!parse_query_csv("/a/b,1x,3\n", "/a/b", rows), "bad timestamp");
    check(!parse_query_csv("/a/b,10\n", "/a/b", rows), "missing value");
    check(row_hash(1, 2) != row_hash(2, 1), "row hash is not symmetric");
}

void test_http_parse() {
    std::string body;
    check(parse_http_response("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                              "Connection: close\r\n\r\nhi",
                              body) == 200 &&
              body == "hi",
          "parse a complete response");
    check(parse_http_response("HTTP/1.1 404 Not Found\r\n"
                              "content-length: 0\r\n\r\n",
                              body) == 404,
          "parse a 404");
    check(parse_http_response("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhi",
                              body) == 0,
          "truncated body is rejected");
    check(parse_http_response("garbage", body) == 0, "garbage is rejected");
}

}  // namespace

bool run_selftest() {
    g_failures = 0;
    test_quantile();
    test_round_robin();
    test_series();
    test_csv();
    test_http_parse();
    return g_failures == 0;
}

}  // namespace perfbench
