// The load generator: the benchmark's one child process. It drives the
// agent only through wire surfaces (MQTT, HTTP) and the Pusher's public
// API, and talks to the agent-side process through a line protocol:
//
//   child -> parent   READY | MARK begin|end u|t | R <key> <value>
//                     | ACK <conn> <messages> | GROUP <seg> <group> <reads>
//                     | T <trace id> <publish ns> | WINDOW_DONE | DONE
//   parent -> child   GO | QUIT | Q <class> <topic> <t0|-> <t1|-> <rows>
//                     <hash> | HEALTHZ <n> | QEND
//
// A window is one segment ("u", untraced) or, with tracing, an untraced
// and a traced ("t") segment of half the length each.
#include "generator.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "core/payload.hpp"
#include "common.hpp"
#include "http_async.hpp"
#include "mqtt/client.hpp"
#include "net/http.hpp"
#include "pusher/pusher.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

using dcdb::steady_ns;
namespace trace = dcdb::telemetry::trace;

void emit(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stdout, fmt, args);
    va_end(args);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

void emit_r(const std::string& key, double value) {
    emit("R %s %.6f", key.c_str(), value);
}

std::string read_command() {
    std::string line;
    if (!std::getline(std::cin, line)) return "QUIT";
    return line;
}

void sleep_until_steady(std::uint64_t t) {
    const std::uint64_t now = steady_ns();
    if (t > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// Trace IDs minted by the generator: a seed-derived tag in the high bits
/// keeps them apart from IDs any other process mints.
struct TraceMint {
    std::uint64_t tag;
    std::uint64_t next{1};
    trace::TraceContext mint() {
        trace::TraceContext ctx;
        ctx.trace_id = tag | next++;
        ctx.origin_ns = dcdb::now_ns();
        ctx.flags = trace::kFlagSampled;
        return ctx;
    }
};

/// Tracks the peak thread count and connection count of this process.
struct Budget {
    int max_threads{0};
    int max_conns{0};
    void sample(int conns) {
        max_threads = std::max(max_threads, thread_count());
        max_conns = std::max(max_conns, conns);
    }
    void report() const {
        emit_r("gen_max_threads", max_threads);
        emit_r("gen_max_conns", max_conns);
    }
};

/// One MQTT connection sending single-reading, single-section v1
/// payloads in round-robin order (see RoundRobin).
struct Sender {
    std::unique_ptr<dcdb::mqtt::MqttClient> client;
    std::size_t conn{0};
    std::uint64_t next_j{0};
    std::uint64_t acked{0};
    std::uint64_t failed{0};

    /// Publish message j at QoS 1; false (counted) on failure.
    bool send(const RoundRobin& rr, const std::vector<std::string>& topics,
              const Series& series, const trace::TraceContext& ctx) {
        const std::size_t t = rr.topic_of(conn, next_j);
        const Reading r = series.reading(t, rr.seq_of(conn, next_j));
        const dcdb::SensorBatch section{topics[t],
                                        std::span<const Reading>(&r, 1)};
        try {
            client->publish(
                topics[t],
                dcdb::encode_batch(std::span(&section, 1), ctx), 1);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "publish failed: %s\n", e.what());
            ++failed;
            return false;
        }
        ++next_j;
        ++acked;
        return true;
    }
};

struct SegmentLog {
    std::vector<double> ack_us;
    std::vector<double> round_ms;
    std::vector<double> lag_ms;
    std::vector<double> publish_us;  // traced publishes only
    std::uint64_t readings{0};
};

// ------------------------------------------------- open-loop REST queries

/// One REST query of an open-loop run: its class (0 recent, 1 history,
/// 2 default), the request target and a key handed back to the verifier.
struct PlannedQuery {
    int cls{0};
    std::string target;
    std::uint64_t key{0};
};

struct QueryLog {
    std::vector<double> ms[3];   // due time -> full answer, per class
    std::vector<double> lag_ms;  // due time -> request started
    std::uint64_t attempted{0}, failed{0};
};

/// Open-loop REST query driver shared by the dashboard mix and the
/// post-window probe. Query q is due at start + q * spacing, and its
/// latency counts from the due time. At most kDbMaxInflight requests are
/// open at once (the connection cap), and one slot is kept for `recent`
/// queries so they never queue behind slow ones in the generator; a
/// request held back by the cap shows up as lag. `next()` yields the
/// next query or nullopt when there is none; no query is due at or after
/// `end`. `verify(query, result)` checks an answer. With a `budget`, the
/// open requests plus `other_conns` are counted against the cap.
template <typename Next, typename Verify>
QueryLog run_queries(std::uint16_t port, std::uint64_t start,
                     std::uint64_t end, std::uint64_t spacing, Next next,
                     Verify verify, Budget* budget, int other_conns) {
    QueryLog log;
    OpenLoopHttp http(port);
    std::unordered_map<std::uint64_t, PlannedQuery> open;
    std::optional<PlannedQuery> pending;
    std::uint64_t q = 0;
    int heavy = 0;  // history/default requests in flight
    for (;;) {
        const std::uint64_t due = start + q * spacing;
        if (!pending && due < end) pending = next();
        const bool can_send =
            pending && http.inflight() < kDbMaxInflight &&
            (pending->cls == 0 || heavy < kDbMaxInflight - 1);
        if (can_send && steady_ns() >= due) {
            http.start(due, pending->target, q);
            heavy += pending->cls != 0;
            open.emplace(q, std::move(*pending));
            pending.reset();
            ++q;
            ++log.attempted;
            if (budget) budget->sample(other_conns + http.inflight());
            continue;
        }
        if (!pending && http.inflight() == 0) break;
        for (auto& res :
             http.poll(can_send ? due : steady_ns() + 5 * kNsPerSec)) {
            const auto done = open.extract(res.tag);
            const PlannedQuery& pq = done.mapped();
            heavy -= pq.cls != 0;
            log.lag_ms.push_back((res.sent_ns - res.due_ns) / 1e6);
            if (verify(pq, res)) {
                log.ms[pq.cls].push_back((res.done_ns - res.due_ns) / 1e6);
            } else {
                ++log.failed;
                std::fprintf(stderr, "query %s failed (status %d)\n",
                             pq.target.c_str(), res.status);
            }
        }
    }
    return log;
}

/// The post-window REST probe, driven by the parent's Q lines (query,
/// expected row count and checksum): open loop at kProbeRate through
/// run_queries. /healthz then goes closed loop through dcdb::http_get.
void run_probe(std::uint16_t rest_port) {
    struct Expected {
        std::string topic;
        std::uint64_t rows, hash;
    };
    std::vector<PlannedQuery> queries;
    std::vector<Expected> expected;
    int healthz = 0;
    std::uint64_t bad_lines = 0;
    for (;;) {
        const auto w = words(read_command());
        if (w.empty() || w[0] == "QEND" || w[0] == "QUIT") break;
        if (w[0] == "HEALTHZ" && w.size() == 2) {
            healthz = std::stoi(w[1]);
        } else if (w[0] == "Q" && w.size() == 7) {
            std::string target = "/query?topic=" + w[2];
            if (w[3] != "-") target += "&t0=" + w[3];
            if (w[4] != "-") target += "&t1=" + w[4];
            queries.push_back({std::clamp(std::stoi(w[1]), 0, 2),
                               std::move(target), expected.size()});
            expected.push_back({w[2], std::stoull(w[5]), std::stoull(w[6])});
        } else {
            ++bad_lines;
        }
    }

    constexpr double kProbeRate = 100;  // per second
    std::size_t next = 0;
    std::vector<Reading> rows;
    const QueryLog log = run_queries(
        rest_port, steady_ns(), std::numeric_limits<std::uint64_t>::max(),
        static_cast<std::uint64_t>(1e9 / kProbeRate),
        [&]() -> std::optional<PlannedQuery> {
            if (next == queries.size()) return std::nullopt;
            return queries[next++];
        },
        [&](const PlannedQuery& pq, const HttpResult& res) {
            const Expected& want = expected[pq.key];
            if (res.status != 200 ||
                !parse_query_csv(res.body, want.topic, rows))
                return false;
            std::uint64_t hash = 0;
            for (const auto& r : rows) hash += row_hash(r.ts, r.value);
            return rows.size() == want.rows && hash == want.hash;
        },
        nullptr, 0);

    std::uint64_t attempted = log.attempted, failed = log.failed + bad_lines;
    std::vector<double> healthz_us;
    for (int i = 0; i < healthz; ++i) {
        ++attempted;
        const std::uint64_t t0 = steady_ns();
        try {
            if (dcdb::http_get("127.0.0.1", rest_port, "/healthz").status != 200)
                ++failed;
        } catch (const std::exception&) {
            ++failed;
        }
        healthz_us.push_back((steady_ns() - t0) / 1e3);
    }
    emit_r("probe.recent_p50_ms", median(log.ms[0]));
    emit_r("probe.recent_p99_ms", quantile(log.ms[0], 0.99));
    emit_r("probe.history_p50_ms", median(log.ms[1]));
    emit_r("probe.default_p50_ms", median(log.ms[2]));
    emit_r("probe.lag_p99_ms",
           log.lag_ms.empty() ? 0.0 : quantile(log.lag_ms, 0.99));
    emit_r("probe.healthz_us_p50", median(healthz_us));
    emit_r("probe.attempted", static_cast<double>(attempted));
    emit_r("probe.failed", static_cast<double>(failed));
}

void report_segment(const char* seg, const SegmentLog& log,
                    std::uint64_t cpu_ns, std::uint64_t wall_ns) {
    const std::string p = std::string(seg) + ".";
    emit_r(p + "readings", static_cast<double>(log.readings));
    emit_r(p + "wall_s", wall_ns / 1e9);
    emit_r(p + "cpu_ns", static_cast<double>(cpu_ns));
    emit_r(p + "ack_p50_us", median(log.ack_us));
    emit_r(p + "ack_p99_us", quantile(log.ack_us, 0.99));
    emit_r(p + "round_p50_ms", median(log.round_ms));
    emit_r(p + "round_p90_ms", quantile(log.round_ms, 0.90));
    emit_r(p + "lag_p99_ms", log.lag_ms.empty() ? 0.0
                                                 : quantile(log.lag_ms, 0.99));
    emit_r(p + "publish_us_p50", median(log.publish_us));
    emit_r(p + "publish_us_p99", quantile(log.publish_us, 0.99));
}

// ---------------------------------------------------- ingest_per_sensor

class PerSensorGen {
  public:
    PerSensorGen(const GenArgs& args)
        : args_(args),
          topics_(per_sensor_topics(args.seed)),
          series_(per_sensor_series(args.seed)),
          rr_{topics_.size(), kPsConnections},
          mint_{mix64(args.seed) & 0xFFFF000000000000ull} {}

    void setup() {
        for (int c = 0; c < kPsConnections; ++c) {
            senders_[c].conn = static_cast<std::size_t>(c);
            senders_[c].client = dcdb::mqtt::MqttClient::connect_tcp(
                "127.0.0.1", args_.mqtt_port, "bench-ps" + std::to_string(c));
        }
        // Registration: reading 0 of every topic, so the timed window
        // runs the agent's known-topic path.
        std::thread other([this] { register_topics(senders_[1]); });
        register_topics(senders_[0]);
        other.join();
        budget_.sample(kPsConnections);
    }

    void window() {
        const bool traced = args_.trace;
        const double seg_s = traced ? args_.seconds / 2 : args_.seconds;
        segment("u", seg_s, false);
        if (traced) segment("t", seg_s, true);
    }

    void finish() {
        std::uint64_t failed = 0, attempted = 0;
        for (auto& s : senders_) {
            emit("ACK %zu %llu", s.conn,
                 static_cast<unsigned long long>(s.acked));
            failed += s.failed;
            attempted += s.acked + s.failed;
        }
        emit_r("gen.attempted", static_cast<double>(attempted));
        emit_r("gen.failed", static_cast<double>(failed));
        budget_.report();
        // The probe's connections replace these (connection cap).
        for (auto& s : senders_)
            if (s.client) s.client->disconnect();
    }

  private:
    void register_topics(Sender& s) {
        const std::size_t share = rr_.share(s.conn);
        while (s.next_j < share && s.send(rr_, topics_, series_, {})) {
        }
    }

    void run_sender(Sender& s, std::uint64_t end, bool traced,
                    SegmentLog& log,
                    std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                        traced_out) {
        const std::size_t share = rr_.share(s.conn);
        std::uint64_t round_start = steady_ns();
        for (std::uint64_t n = 0;; ++n) {
            const std::uint64_t t0 = steady_ns();
            if (t0 >= end) break;
            const auto ctx = traced ? mint_.mint() : trace::TraceContext{};
            if (!s.send(rr_, topics_, series_, ctx)) break;
            const std::uint64_t t1 = steady_ns();
            log.ack_us.push_back((t1 - t0) / 1e3);
            ++log.readings;
            if (traced) {
                log.publish_us.push_back((t1 - t0) / 1e3);
                if ((ctx.trace_id & 7) == 0)
                    traced_out.emplace_back(ctx.trace_id, t1 - t0);
            }
            if (s.next_j % share == 0) {
                log.round_ms.push_back((t1 - round_start) / 1e6);
                round_start = t1;
            }
            if ((n & 4095) == 0 && s.conn == 0)
                budget_.sample(kPsConnections);
        }
    }

    void segment(const char* seg, double seconds, bool traced) {
        SegmentLog logs[kPsConnections];
        std::vector<std::pair<std::uint64_t, std::uint64_t>>
            traced_ids[kPsConnections];
        for (auto& l : logs) l.ack_us.reserve(1 << 20);
        emit("MARK begin %s", seg);
        const std::uint64_t cpu0 = process_cpu_ns();
        const std::uint64_t start = steady_ns();
        const std::uint64_t end =
            start + static_cast<std::uint64_t>(seconds * 1e9);
        std::thread other([&] {
            run_sender(senders_[1], end, traced, logs[1], traced_ids[1]);
        });
        run_sender(senders_[0], end, traced, logs[0], traced_ids[0]);
        other.join();
        const std::uint64_t wall = steady_ns() - start;
        const std::uint64_t cpu = process_cpu_ns() - cpu0;
        emit("MARK end %s", seg);

        SegmentLog all;
        for (auto& l : logs) {
            all.readings += l.readings;
            all.ack_us.insert(all.ack_us.end(), l.ack_us.begin(),
                              l.ack_us.end());
            all.round_ms.insert(all.round_ms.end(), l.round_ms.begin(),
                                l.round_ms.end());
            all.publish_us.insert(all.publish_us.end(), l.publish_us.begin(),
                                  l.publish_us.end());
        }
        report_segment(seg, all, cpu, wall);
        for (const auto& ids : traced_ids)
            for (const auto& [id, ns] : ids)
                emit("T %llu %llu", static_cast<unsigned long long>(id),
                     static_cast<unsigned long long>(ns));
    }

    GenArgs args_;
    std::vector<std::string> topics_;
    Series series_;
    RoundRobin rr_;
    TraceMint mint_;
    Sender senders_[kPsConnections];
    Budget budget_;
};

// -------------------------------------------------------- ingest_pusher

std::string pusher_config(std::uint64_t seed, int segment, bool traced,
                          std::uint16_t port) {
    std::string cfg = "global {\n mqttBroker 127.0.0.1:" +
                      std::to_string(port) +
                      "\n topicPrefix " + pusher_prefix(seed, segment) +
                      "\n threads 1\n cacheWindow 2s\n pushInterval 24h\n"
                      " coalescePush true\n qos 1\n restApi false\n"
                      " traceSampleRate " + (traced ? "1" : "0") +
                      "\n}\nplugins {\n tester {\n";
    for (int g = 0; g < kPuGroups; ++g)
        cfg += "  group g" + std::to_string(g) + " { sensors " +
               std::to_string(kPuSensorsPerGroup) + " ; interval " +
               std::to_string(kPuIntervalNs / 1'000'000) +
               "ms ; readCostNs 0 }\n";
    return cfg + " }\n}\n";
}

dcdb::telemetry::HistogramSnapshot delta(
    const dcdb::telemetry::HistogramSnapshot& after,
    const dcdb::telemetry::HistogramSnapshot& before) {
    dcdb::telemetry::HistogramSnapshot d;
    for (std::size_t i = 0; i < d.buckets.size(); ++i)
        d.buckets[i] = after.buckets[i] - before.buckets[i];
    d.sum = after.sum - before.sum;
    return d;
}

class PusherGen {
  public:
    explicit PusherGen(const GenArgs& args) : args_(args) {}

    void setup() { pusher_ = start_pusher(0, false); }

    void window() {
        const bool traced = args_.trace;
        const double seg_s = traced ? args_.seconds / 2 : args_.seconds;
        segment("u", seg_s);
        if (!traced) return;
        retire();
        pusher_ = start_pusher(1, true);
        segment("t", seg_s);
    }

    void finish() {
        retire();
        emit_r("gen.attempted", static_cast<double>(attempted_));
        emit_r("gen.failed", static_cast<double>(failed_));
        emit_r("pusher.publish_failures", static_cast<double>(failures_));
        emit_r("pusher.readings_requeued", static_cast<double>(requeued_));
        emit_r("pusher.readings_dropped", static_cast<double>(dropped_));
        budget_.report();
    }

  private:
    std::unique_ptr<dcdb::pusher::Pusher> start_pusher(int segment,
                                                       bool traced) {
        auto p = std::make_unique<dcdb::pusher::Pusher>(dcdb::parse_config(
            pusher_config(args_.seed, segment, traced, args_.mqtt_port)));
        p->start();
        // Wait for every group's first read, then push once: the agent
        // learns every topic before the timed window.
        for (;;) {
            bool all = true;
            for (const auto& plugin : p->plugins())
                for (const auto& g : plugin->groups())
                    all = all && g->reads_performed() > 0;
            if (all) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        p->push_now();
        segment_ = segment;
        budget_.sample(1);
        return p;
    }

    /// Stop the Pusher (its final flush publishes every sampled reading)
    /// and report what the oracle needs.
    void retire() {
        if (!pusher_) return;
        pusher_->stop();
        const auto s = pusher_->stats();
        for (const auto& plugin : pusher_->plugins()) {
            int g = 0;
            for (const auto& group : plugin->groups()) {
                emit("GROUP %d %d %llu", segment_, g++,
                     static_cast<unsigned long long>(
                         group->reads_performed()));
                for (const auto& sensor : group->sensors())
                    dropped_ += sensor->dropped_readings();
            }
        }
        emit_r("seg" + std::to_string(segment_) + ".readings_pushed",
               static_cast<double>(s.readings_pushed));
        failures_ += s.publish_failures;
        requeued_ += s.readings_requeued;
        dropped_ += s.readings_dropped;
        attempted_ += s.messages_sent + s.publish_failures;
        failed_ += s.publish_failures;
        pusher_.reset();
    }

    void segment(const char* seg, double seconds) {
        auto& reg = pusher_->telemetry();
        auto& ack_hist = reg.histogram("mqtt.client.publish.latency");
        auto& sample_hist = reg.histogram("pusher.sample.latency");
        const auto ack0 = ack_hist.snapshot();
        auto ack_before = ack0;
        const auto sample0 = sample_hist.snapshot();
        const auto stats0 = pusher_->stats();
        SegmentLog log;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;

        emit("MARK begin %s", seg);
        const std::uint64_t cpu0 = process_cpu_ns();
        const std::uint64_t start = steady_ns();
        const std::uint64_t end =
            start + static_cast<std::uint64_t>(seconds * 1e9);
        const std::uint64_t round_ns = std::min<std::uint64_t>(
            kPuRoundNs, static_cast<std::uint64_t>(seconds * 1e9 / 100));
        std::uint64_t rounds = 0;
        for (std::uint64_t due = start; due < end; due += round_ns) {
            sleep_until_steady(due);
            const std::uint64_t t0 = steady_ns();
            pusher_->push_now();
            const std::uint64_t t1 = steady_ns();
            log.lag_ms.push_back((t0 - due) / 1e6);
            log.round_ms.push_back((t1 - due) / 1e6);
            // The Pusher publishes internally. Its MQTT client's
            // publish -> PUBACK histogram keeps an exact ns sum, so each
            // round yields the exact mean ack time of its messages.
            const auto ack_after = ack_hist.snapshot();
            const auto round_ack = delta(ack_after, ack_before);
            if (round_ack.count() > 0)
                log.ack_us.push_back(static_cast<double>(round_ack.sum) / 1e3 /
                                     static_cast<double>(round_ack.count()));
            ack_before = ack_after;
            ++rounds;
            ++attempted_;
            if (args_.trace && std::string(seg) == "t") harvest(spans);
            if ((rounds & 15) == 0) budget_.sample(1);
        }
        const std::uint64_t wall = steady_ns() - start;
        const std::uint64_t cpu = process_cpu_ns() - cpu0;
        emit("MARK end %s", seg);

        const auto stats1 = pusher_->stats();
        log.readings = stats1.readings_pushed - stats0.readings_pushed;
        const auto ack = delta(ack_hist.snapshot(), ack0);
        const auto sample = delta(sample_hist.snapshot(), sample0);
        for (const auto& [id, ns] : spans) log.publish_us.push_back(ns / 1e3);
        report_segment(seg, log, cpu, wall);
        const std::string p = std::string(seg) + ".";
        // Per message, only the log2-bucket histogram is available: its
        // interpolated p99 is a per-layer figure, not a gated one.
        emit_r(p + "ack_p99_us", ack.quantile(0.99) / 1e3);
        emit_r(p + "sample_latency_us_p50", sample.quantile(0.5) / 1e3);
        emit_r(p + "messages_per_push",
               static_cast<double>(stats1.messages_sent -
                                   stats0.messages_sent) /
                   static_cast<double>(std::max<std::uint64_t>(rounds, 1)));
        for (const auto& [id, ns] : spans)
            emit("T %llu %llu", static_cast<unsigned long long>(id),
                 static_cast<unsigned long long>(ns));
    }

    /// Collect publish spans from the Pusher's flight recorder.
    void harvest(std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
        for (const auto& span : pusher_->tracer().ring_snapshot()) {
            if (span.stage != trace::Stage::kPublish) continue;
            if (seen_.insert(span.trace_id).second)
                out.emplace_back(span.trace_id, span.duration_ns);
        }
    }

    GenArgs args_;
    std::unique_ptr<dcdb::pusher::Pusher> pusher_;
    int segment_{0};
    std::unordered_set<std::uint64_t> seen_;
    std::uint64_t attempted_{0}, failed_{0};
    std::uint64_t failures_{0}, requeued_{0}, dropped_{0};
    Budget budget_;
};

// ------------------------------------------------------ query_dashboard

/// The dashboard query classes in fixed proportions: every block of 20
/// requests holds 16 `recent`, 3 `history` and 1 `default` query in a
/// seeded order, so the class counts of a run do not vary with the seed.
class QueryMix {
  public:
    explicit QueryMix(std::uint64_t seed) : rng_(seed) { refill(); }
    int next() const { return block_[pos_]; }
    void advance() {
        if (++pos_ == block_.size()) refill();
    }

  private:
    void refill() {
        block_.assign(20, 0);
        block_[0] = 2;
        block_[1] = block_[2] = block_[3] = 1;
        for (std::size_t i = block_.size() - 1; i > 0; --i)
            std::swap(block_[i], block_[rng_.below(i + 1)]);
        pos_ = 0;
    }

    Rng rng_;
    std::vector<int> block_;
    std::size_t pos_{0};
};

class DashboardGen {
  public:
    explicit DashboardGen(const GenArgs& args)
        : args_(args),
          topics_(dashboard_topics(args.seed)),
          series_(dashboard_series(args.seed)),
          wtopics_(writer_topics(args.seed)),
          wseries_(writer_series(args.seed)),
          rr_{wtopics_.size(), 1},
          mint_{mix64(args.seed + 1) & 0xFFFF000000000000ull},
          rng_(args.seed ^ 0x9E37),
          mix_(args.seed ^ 0x313) {}

    void setup() {
        writer_.client = dcdb::mqtt::MqttClient::connect_tcp(
            "127.0.0.1", args_.mqtt_port, "bench-writer");
        while (writer_.next_j < wtopics_.size() &&
               writer_.send(rr_, wtopics_, wseries_, {})) {
        }
        budget_.sample(1);
    }

    void window() {
        const bool traced = args_.trace;
        const double seg_s = traced ? args_.seconds / 2 : args_.seconds;
        segment("u", seg_s, false);
        if (traced) segment("t", seg_s, true);
    }

    void finish() {
        emit("ACK 0 %llu", static_cast<unsigned long long>(writer_.acked));
        emit_r("gen.attempted",
               static_cast<double>(writer_.acked + writer_.failed +
                                   queries_attempted_));
        emit_r("gen.failed",
               static_cast<double>(writer_.failed + queries_failed_));
        budget_.report();
    }

    void disconnect() {
        if (writer_.client) writer_.client->disconnect();
    }

  private:
    /// Expected answer of query class `cls` on sensor `i`: the first
    /// reading index and count.
    static std::pair<std::uint64_t, std::uint64_t> expected(int cls) {
        const std::uint64_t n = dashboard_points();
        if (cls == 0) {
            const std::uint64_t rows = kDbRecentNs / kDbStepNs + 1;
            return {n - rows, rows};
        }
        if (cls == 1) return {n / 6, kDbHistoryNs / kDbStepNs};
        return {0, n};
    }

    std::string target(int cls, std::size_t i) const {
        std::string t = "/query?topic=" + topics_[i];
        if (cls == 2) return t;  // the REST default range
        const auto [k0, rows] = expected(cls);
        return t + "&t0=" + std::to_string(series_.ts(k0)) +
               "&t1=" + std::to_string(series_.ts(k0 + rows - 1));
    }

    bool verify(int cls, std::size_t i, const HttpResult& res) {
        if (res.status != 200) return false;
        if (!parse_query_csv(res.body, topics_[i], rows_)) return false;
        const auto [k0, n] = expected(cls);
        if (rows_.size() != n) return false;
        for (std::uint64_t k = 0; k < n; ++k) {
            const Reading want = series_.reading(i, k0 + k);
            if (rows_[k].ts != want.ts || rows_[k].value != want.value)
                return false;
        }
        return true;
    }

    void run_writer(std::uint64_t start, std::uint64_t end, bool traced,
                    SegmentLog& log,
                    std::vector<std::pair<std::uint64_t, std::uint64_t>>& ids) {
        const std::uint64_t first_j = writer_.next_j;
        std::uint64_t round_due = start;
        for (std::uint64_t due = start; due < end;
             due += kDbWriterSpacingNs) {
            sleep_until_steady(due);
            const std::uint64_t t0 = steady_ns();
            const auto ctx = traced ? mint_.mint() : trace::TraceContext{};
            if (!writer_.send(rr_, wtopics_, wseries_, ctx)) break;
            const std::uint64_t t1 = steady_ns();
            log.lag_ms.push_back((t0 - due) / 1e6);
            // The ack time counts from the send. Counted from the due time
            // it also held the wake-up and any backlog of this single
            // synchronous sender: its run medians spread from 211 to
            // 966 us over ten runs of the same code. The lateness is
            // checked and reported on its own (lag_ms).
            log.ack_us.push_back((t1 - t0) / 1e3);
            ++log.readings;
            if (traced) {
                log.publish_us.push_back((t1 - t0) / 1e3);
                ids.emplace_back(ctx.trace_id, t1 - t0);
            }
            if ((writer_.next_j - first_j) % wtopics_.size() == 0) {
                log.round_ms.push_back((t1 - round_due) / 1e6);
                round_due = due + kDbWriterSpacingNs;
            }
        }
    }

    void segment(const char* seg, double seconds, bool traced) {
        SegmentLog wlog;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ids;

        emit("MARK begin %s", seg);
        const std::uint64_t cpu0 = process_cpu_ns();
        const std::uint64_t main_cpu0 = thread_cpu_ns();
        const std::uint64_t start = steady_ns() + 1'000'000;
        const std::uint64_t end =
            start + static_cast<std::uint64_t>(seconds * 1e9);
        std::thread writer([&] { run_writer(start, end, traced, wlog, ids); });

        // The query mix on this thread, open loop at kDbQueryRate.
        const QueryLog qlog = run_queries(
            args_.rest_port, start, end,
            static_cast<std::uint64_t>(1e9 / kDbQueryRate),
            [&]() -> std::optional<PlannedQuery> {
                const int cls = mix_.next();
                mix_.advance();
                const std::size_t i = rng_.below(topics_.size());
                return PlannedQuery{cls, target(cls, i), i};
            },
            [&](const PlannedQuery& pq, const HttpResult& res) {
                return verify(pq.cls, pq.key, res);
            },
            &budget_, 1);
        queries_attempted_ += qlog.attempted;
        queries_failed_ += qlog.failed;
        writer.join();
        const std::uint64_t wall = steady_ns() - start;
        const std::uint64_t main_cpu = thread_cpu_ns() - main_cpu0;
        const std::uint64_t cpu = process_cpu_ns() - cpu0;
        emit("MARK end %s", seg);

        wlog.lag_ms.insert(wlog.lag_ms.end(), qlog.lag_ms.begin(),
                           qlog.lag_ms.end());
        // The writer's share of the generator's CPU: everything but the
        // query thread.
        report_segment(seg, wlog, cpu - std::min(cpu, main_cpu), wall);
        const std::string p = std::string(seg) + ".";
        emit_r(p + "gen_cpu_ns", static_cast<double>(cpu));
        emit_r(p + "recent_p50_ms", median(qlog.ms[0]));
        emit_r(p + "recent_p99_ms", quantile(qlog.ms[0], 0.99));
        emit_r(p + "history_p50_ms", median(qlog.ms[1]));
        emit_r(p + "default_p50_ms", median(qlog.ms[2]));
        emit_r(p + "queries", static_cast<double>(qlog.attempted));
        emit_r(p + "recent_n", static_cast<double>(qlog.ms[0].size()));
        emit_r(p + "default_n", static_cast<double>(qlog.ms[2].size()));
        for (const auto& [id, ns] : ids)
            if ((id & 7) == 0)
                emit("T %llu %llu", static_cast<unsigned long long>(id),
                     static_cast<unsigned long long>(ns));
    }

    GenArgs args_;
    std::vector<std::string> topics_;
    Series series_;
    std::vector<std::string> wtopics_;
    Series wseries_;
    RoundRobin rr_;
    TraceMint mint_;
    Rng rng_;
    QueryMix mix_;
    Sender writer_;
    std::vector<Reading> rows_;
    std::uint64_t queries_attempted_{0}, queries_failed_{0};
    Budget budget_;
};

template <typename Gen>
int drive(Gen& gen, const GenArgs& args) {
    gen.setup();
    emit("READY");
    if (read_command() != "GO") return 0;  // a set-up-only repetition
    gen.window();
    gen.finish();
    emit("WINDOW_DONE");
    run_probe(args.rest_port);
    emit("DONE");
    return 0;
}

}  // namespace

int generator_main(const GenArgs& args) {
    // Open-loop sends start from a sleep. The default 50 us timer slack
    // would add up to 50 us to every due-time latency and its jitter;
    // threads started from here inherit the 1 ns slack.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    dcdb::Logger::instance().set_level(dcdb::LogLevel::kError);
    try {
        if (args.workload == kPerSensor) {
            PerSensorGen gen(args);
            return drive(gen, args);
        }
        if (args.workload == kPusher) {
            PusherGen gen(args);
            return drive(gen, args);
        }
        if (args.workload == kDashboard) {
            DashboardGen gen(args);
            const int rc = drive(gen, args);
            gen.disconnect();
            return rc;
        }
        std::fprintf(stderr, "generator: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "generator failed: %s\n", e.what());
        return 1;
    }
}

}  // namespace perfbench
