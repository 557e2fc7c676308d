// End-to-end pipeline benchmark for the DCDB reproduction.
//
//   pipeline_bench --workload W --seed N --seconds S --trace 0|1
//                  --workdir DIR
//
// This process hosts the measured system: a StoreCluster, a MetaStore
// and a CollectAgent (embedded MQTT broker + REST API), so its CPU time
// and RSS are the agent's alone. Load comes from one child process (the
// same binary in --gen mode, see generator.cpp) over TCP. The last line
// of standard output is one JSON object with the verdict and metrics:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "collectagent/collect_agent.hpp"
#include "common.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "generator.hpp"
#include "libdcdb/connection.hpp"
#include "replay.hpp"
#include "selftest.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace trace = dcdb::telemetry::trace;
using dcdb::steady_ns;

/// Set-ups per run; setup_s is their median. A Pusher set-up is short
/// and waits for an aligned first sample, so it is repeated more often.
int setup_reps(std::string_view workload) {
    return workload == kPusher ? 11 : workload == kDashboard ? 3 : 5;
}
/// A run whose open-loop generator started its operations later than
/// this (p99) is invalid: it no longer offered the planned load. A slow
/// agent also delays a synchronous push round, so the bound is loose.
constexpr double kMaxLagMs = 1000.0;

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10};
    bool trace{false};
    std::string workdir;
};

// ------------------------------------------------------------ the child

class Child {
  public:
    Child(const std::string& self, const std::vector<std::string>& args) {
        int to_child[2], from_child[2];
        if (::pipe2(to_child, O_CLOEXEC) != 0 ||
            ::pipe2(from_child, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
        posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
        std::vector<char*> argv;
        argv.push_back(const_cast<char*>(self.c_str()));
        for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, self.c_str(), &actions, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(to_child[0]);
        ::close(from_child[1]);
        if (rc != 0) {
            ::close(to_child[1]);
            ::close(from_child[0]);
            throw std::runtime_error("cannot start the load generator");
        }
        in_ = ::fdopen(to_child[1], "w");
        out_ = ::fdopen(from_child[0], "r");
    }

    ~Child() {
        if (in_) std::fclose(in_);
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (out_) std::fclose(out_);
    }

    Child(const Child&) = delete;
    Child& operator=(const Child&) = delete;

    bool read_line(std::string& line) {
        char* buf = nullptr;
        std::size_t cap = 0;
        const ssize_t n = ::getline(&buf, &cap, out_);
        if (n > 0) line.assign(buf, static_cast<std::size_t>(n));
        std::free(buf);
        if (n > 0 && line.back() == '\n') line.pop_back();
        return n > 0;
    }

    /// Read lines until `marker`; false if the child ended first.
    bool expect(const std::string& marker) {
        std::string line;
        while (read_line(line))
            if (line == marker) return true;
        return false;
    }

    void send(const std::string& line) {
        std::fputs((line + "\n").c_str(), in_);
        std::fflush(in_);
    }

    /// Close the command pipe and wait for the exit status.
    int wait() {
        if (in_) std::fclose(in_);
        in_ = nullptr;
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    }

  private:
    pid_t pid_{-1};
    FILE* in_{nullptr};
    FILE* out_{nullptr};
};

// ------------------------------------------------------ the agent side

/// The measured system: store, metastore and agent of one set-up.
struct Env {
    std::string dir;
    store::ClusterConfig cluster_config;
    dcdb::telemetry::MetricRegistry registry;
    std::unique_ptr<store::StoreCluster> cluster;
    store::MetaStore meta;
    std::unique_ptr<dcdb::collectagent::CollectAgent> agent;
};

/// Multi-day history of the dashboard sensors, inserted in time order
/// through StoreCluster::insert_batch; every part but the last is
/// flushed, so the data sits in several SSTables plus the memtable.
void preload(Env& env, std::uint64_t seed) {
    const auto topics = dashboard_topics(seed);
    const Series series = dashboard_series(seed);
    std::vector<dcdb::SensorId> sids;
    for (const auto& t : topics) sids.push_back(env.agent->mapper().to_sid(t));
    const std::uint64_t points = dashboard_points();
    std::vector<store::BatchEntry> batch;
    batch.reserve(1 << 15);
    for (int part = 0; part < kDbPreloadParts; ++part) {
        const std::uint64_t k0 = points * part / kDbPreloadParts;
        const std::uint64_t k1 = points * (part + 1) / kDbPreloadParts;
        for (std::uint64_t k = k0; k < k1; ++k) {
            for (std::size_t i = 0; i < topics.size(); ++i) {
                const Reading r = series.reading(i, k);
                batch.push_back(
                    {dcdb::sensor_key(sids[i], r.ts), r.ts, r.value, 0});
            }
            if (batch.size() >= (1 << 15) - topics.size() || k + 1 == k1) {
                env.cluster->insert_batch(batch);
                batch.clear();
            }
        }
        if (part + 1 < kDbPreloadParts) env.cluster->flush_all();
    }
}

std::unique_ptr<Env> make_env(const Options& o, const std::string& dir) {
    auto env = std::make_unique<Env>();
    env->dir = dir;
    auto& cc = env->cluster_config;
    cc.base_dir = dir;
    cc.nodes = 1;
    cc.replication = 1;
    // Per-sensor ingest keeps the store default (8 MiB); at 32 MiB its
    // peak RSS jumped between runs with whether a flush fell inside the
    // window. In the Pusher workload the 5 s maintenance rounds flush
    // the memtable (about 500k readings each; the fourth flush brings
    // the first compaction), and the 32 MiB limit keeps size-triggered
    // flushes from adding to them. With 1 s rounds the cascade of small
    // compactions competed with the push rounds, and push and ack
    // latency drifted by up to 3x within a run and between runs. The
    // dashboard store only flushes where preload() says, so the SSTable
    // count stays fixed while queries run.
    cc.memtable_flush_bytes = o.workload == kDashboard ? std::size_t{1} << 30
                              : o.workload == kPusher  ? 32u << 20
                                                       : 8u << 20;
    cc.commitlog_enabled = true;
    cc.commitlog_sync_every = 256;
    cc.registry = &env->registry;
    env->cluster = std::make_unique<store::StoreCluster>(cc);
    const std::string maintenance =
        o.workload == kPusher ? "5s" : "0";
    env->agent = std::make_unique<dcdb::collectagent::CollectAgent>(
        dcdb::parse_config("global { listenTcp true ; mqttPort 0 ; "
                           "restApi true ; storeMaintenance " +
                           maintenance + " }"),
        env->cluster.get(), &env->meta, &env->registry);
    if (o.workload == kDashboard) preload(*env, o.seed);
    return env;
}

/// Agent-side spans of traced messages, harvested from the agent's
/// flight recorder while the traced segment runs (the ring wraps, so it
/// is read every few milliseconds).
class SpanHarvester {
  public:
    using Stages = std::array<std::int64_t, trace::kStageCount>;

    explicit SpanHarvester(const trace::Tracer& tracer) : tracer_(tracer) {}
    ~SpanHarvester() { stop(); }
    SpanHarvester(const SpanHarvester&) = delete;
    SpanHarvester& operator=(const SpanHarvester&) = delete;

    void start() {
        running_ = true;
        thread_ = std::thread([this] {
            while (running_.load()) {
                collect();
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            collect();
        });
    }
    void stop() {
        running_ = false;
        if (thread_.joinable()) thread_.join();
    }

    /// trace id -> span duration per stage (-1 where not seen).
    const std::unordered_map<std::uint64_t, Stages>& spans() const {
        return spans_;
    }

  private:
    void collect() {
        for (const auto& span : tracer_.ring_snapshot()) {
            auto [it, fresh] = spans_.try_emplace(span.trace_id);
            if (fresh) it->second.fill(-1);
            it->second[static_cast<std::size_t>(span.stage)] =
                static_cast<std::int64_t>(span.duration_ns);
        }
    }

    const trace::Tracer& tracer_;
    std::atomic<bool> running_{false};
    std::unordered_map<std::uint64_t, Stages> spans_;
    std::thread thread_;
};

// ----------------------------------------------------------- the oracle

struct Verdict {
    bool ok{true};
    std::uint64_t verified{0};  // readings read back and matched
    std::uint64_t mismatches{0};
    std::vector<std::string> why;

    void fail(const std::string& reason) {
        ok = false;
        if (why.size() < 8) why.push_back(reason);
    }
};

/// Round-robin senders: every acknowledged reading is stored, exactly
/// once, with the seeded value; nothing else is.
void check_round_robin(dcdb::lib::Connection& conn,
                       const std::vector<std::string>& topics,
                       const Series& series, const RoundRobin& rr,
                       const std::map<std::size_t, std::uint64_t>& acks,
                       Verdict& v,
                       std::vector<std::uint64_t>* counts = nullptr) {
    if (acks.size() != rr.conns) {
        v.fail("missing acknowledgement counts");
        return;
    }
    for (std::size_t t = 0; t < topics.size(); ++t) {
        const std::uint64_t n = rr.count_for(t, acks.at(t % rr.conns));
        if (counts) counts->push_back(n);
        // One step beyond the last expected reading catches extras.
        const auto rows = conn.query_raw(topics[t], series.ts(0), series.ts(n));
        bool match = rows.size() == n;
        for (std::uint64_t k = 0; match && k < n; ++k)
            match = rows[k].ts == series.ts(k) &&
                    rows[k].value == series.value(t, k);
        if (match) {
            v.verified += n;
        } else {
            ++v.mismatches;
            v.fail("stored series of " + topics[t] + " differs (" +
                   std::to_string(rows.size()) + " rows, want " +
                   std::to_string(n) + ")");
        }
    }
}

/// Tester plugin: each group's counter yields 0, 1, 2, ... per read, and
/// every sensor of the group stores the same (ts, value) sequence.
void check_tester(dcdb::lib::Connection& conn, const std::string& prefix,
                  const std::map<int, std::uint64_t>& reads,
                  TimestampNs t0, TimestampNs t1, double pushed, Verdict& v,
                  std::map<std::string, std::vector<Reading>>* keep) {
    const auto topics = pusher_topics(prefix);
    if (reads.size() != static_cast<std::size_t>(kPuGroups)) {
        v.fail("missing group read counts for " + prefix);
        return;
    }
    std::uint64_t stored = 0;
    for (int g = 0; g < kPuGroups; ++g) {
        std::vector<Reading> first;
        for (int s = 0; s < kPuSensorsPerGroup; ++s) {
            const auto& topic = topics[g * kPuSensorsPerGroup + s];
            auto rows = conn.query_raw(topic, t0, t1);
            bool match = rows.size() == reads.at(g);
            for (std::size_t k = 0; match && k < rows.size(); ++k)
                match = rows[k].value == static_cast<Value>(k) &&
                        rows[k].ts % kPuIntervalNs == 0 &&
                        (k == 0 || rows[k].ts > rows[k - 1].ts);
            if (s == 0) first = rows;
            match = match && rows.size() == first.size() &&
                    std::equal(rows.begin(), rows.end(), first.begin(),
                               [](const Reading& a, const Reading& b) {
                                   return a.ts == b.ts && a.value == b.value;
                               });
            if (match) {
                v.verified += rows.size();
                stored += rows.size();
            } else {
                ++v.mismatches;
                v.fail("tester series of " + topic + " differs");
            }
            if (keep && s % 10 == 0) (*keep)[topic] = std::move(rows);
        }
    }
    if (static_cast<double>(stored) != pushed)
        v.fail("stored " + std::to_string(stored) + " tester readings but " +
               std::to_string(static_cast<std::uint64_t>(pushed)) +
               " were acknowledged");
}

QuerySpec make_query(int cls, const std::string& topic,
                     const std::vector<Reading>& series_rows) {
    QuerySpec q;
    q.cls = cls;
    q.topic = topic;
    std::size_t first = 0;
    if (cls == 0 && series_rows.size() > 10) first = series_rows.size() - 10;
    if (cls == 2) {
        q.t0 = 0;
        q.t1 = dcdb::kTimestampMax;
    } else {
        q.t0 = series_rows[first].ts;
        q.t1 = series_rows.back().ts;
    }
    q.rows = series_rows.size() - first;
    for (std::size_t k = first; k < series_rows.size(); ++k)
        q.hash += row_hash(series_rows[k].ts, series_rows[k].value);
    return q;
}

std::string query_line(const QuerySpec& q) {
    const bool dflt = q.cls == 2;
    return "Q " + std::to_string(q.cls) + " " + q.topic + " " +
           (dflt ? "-" : std::to_string(q.t0)) + " " +
           (dflt ? "-" : std::to_string(q.t1)) + " " +
           std::to_string(q.rows) + " " + std::to_string(q.hash);
}

/// The post-window REST probe of the ingest workloads, sent at 100/s
/// (generator.cpp): 7.5 s, with a default-range query every 125 ms,
/// longer than one takes, and enough of them for a steady median.
constexpr int kProbeRecent = 600;
constexpr int kProbeHistory = 90;
constexpr int kProbeDefault = 60;

/// A dashboard-shaped query list (mostly recent, some history, a few
/// default-range) over the given series, topics drawn with the run's
/// seed. Each class is spread evenly over the list: its k-th of n
/// queries sits at (k + 1/2) / n of the way, so two default-range
/// queries are never back to back.
std::vector<QuerySpec> probe_queries(
    const std::vector<std::pair<std::string, std::vector<Reading>>>& pool,
    std::uint64_t seed, int recent, int history, int dflt) {
    std::vector<std::pair<double, QuerySpec>> placed;
    Rng rng(seed ^ 0x9B0BE);
    const int counts[3] = {recent, history, dflt};
    for (int cls = 0; cls < 3; ++cls)
        for (int i = 0; i < counts[cls] && !pool.empty(); ++i) {
            const auto& [topic, rows] = pool[rng.below(pool.size())];
            if (!rows.empty())
                placed.emplace_back((i + 0.5) / counts[cls],
                                    make_query(cls, topic, rows));
        }
    std::stable_sort(placed.begin(), placed.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<QuerySpec> out;
    for (auto& [pos, q] : placed) out.push_back(std::move(q));
    return out;
}

// ------------------------------------------------------------- the run

struct Observed {
    std::map<std::string, double> r;  // R lines
    std::map<std::size_t, std::uint64_t> acks;
    std::map<int, std::map<int, std::uint64_t>> groups;
    std::unordered_map<std::uint64_t, std::uint64_t> publish_ns;
    std::map<std::string, std::uint64_t> cpu_begin, cpu_end;
    std::uint64_t rss_peak_kb{0};
    std::uint64_t vm0_kb{0}, requests0{0};

    double get(const std::string& key, double fallback = 0) const {
        const auto it = r.find(key);
        return it == r.end() ? fallback : it->second;
    }
    double agent_cpu_ns(const std::string& seg) const {
        if (!cpu_begin.count(seg) || !cpu_end.count(seg)) return NAN;
        return static_cast<double>(cpu_end.at(seg) - cpu_begin.at(seg));
    }
};

double hist_quantile(dcdb::telemetry::MetricRegistry& reg,
                     const std::string& name, double q) {
    return reg.histogram(name).snapshot().quantile(q);
}

std::string json_number(double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

struct Metric {
    const char* name;
    const char* unit;
    double value;
};

int run_benchmark(const Options& o, const std::string& self) {
    dcdb::Logger::instance().set_level(dcdb::LogLevel::kError);
    Verdict verdict;
    if (!run_selftest()) verdict.fail("helper self-test failed");
    fs::create_directories(o.workdir);
    const TimestampNs wall_start = dcdb::now_ns();

    // ---- set-up, repeated; the last one is measured.
    std::vector<double> setup_s;
    std::unique_ptr<Env> env;
    std::unique_ptr<Child> child;
    const int reps = setup_reps(o.workload);
    for (int rep = 0; rep < reps; ++rep) {
        const std::string dir = o.workdir + "/store" + std::to_string(rep);
        fs::remove_all(dir);
        const std::uint64_t t0 = steady_ns();
        env = make_env(o, dir);
        child = std::make_unique<Child>(
            self,
            std::vector<std::string>{
                "--gen", o.workload, "--seed", std::to_string(o.seed),
                "--seconds", std::to_string(o.seconds), "--trace",
                o.trace ? "1" : "0", "--mqtt-port",
                std::to_string(env->agent->mqtt_port()), "--rest-port",
                std::to_string(env->agent->rest_port())});
        if (!child->expect("READY")) {
            std::fprintf(stderr, "load generator failed during set-up\n");
            return 1;
        }
        setup_s.push_back((steady_ns() - t0) / 1e9);
        if (rep + 1 < reps) {
            child->send("QUIT");
            child->wait();
            child.reset();
            env.reset();
            fs::remove_all(dir);
        }
    }

    // ---- the timed window.
    Observed obs;
    auto& reg = env->registry;
    auto& http_requests = reg.counter("http.requests");
    SpanHarvester harvester(env->agent->tracer());
    child->send("GO");
    std::string line;
    bool window_done = false;
    while (child->read_line(line)) {
        const auto w = words(line);
        if (w.empty()) continue;
        if (w[0] == "WINDOW_DONE") {
            window_done = true;
            break;
        }
        if (w[0] == "MARK" && w.size() == 3) {
            const bool begin = w[1] == "begin";
            (begin ? obs.cpu_begin : obs.cpu_end)[w[2]] = process_cpu_ns();
            if (begin && w[2] == "u") {
                obs.vm0_kb = status_kb("VmSize");
                obs.requests0 = http_requests.value();
            }
            if (!begin && w[2] == "u") obs.rss_peak_kb = status_kb("VmHWM");
            if (w[2] == "t") begin ? harvester.start() : harvester.stop();
        } else if (w[0] == "R" && w.size() == 3) {
            obs.r[w[1]] = std::strtod(w[2].c_str(), nullptr);
        } else if (w[0] == "ACK" && w.size() == 3) {
            obs.acks[std::stoul(w[1])] = std::stoull(w[2]);
        } else if (w[0] == "GROUP" && w.size() == 4) {
            obs.groups[std::stoi(w[1])][std::stoi(w[2])] = std::stoull(w[3]);
        } else if (w[0] == "T" && w.size() == 3) {
            obs.publish_ns[std::stoull(w[1])] = std::stoull(w[2]);
        }
    }
    harvester.stop();
    if (!window_done) {
        std::fprintf(stderr, "load generator ended during the window\n");
        return 1;
    }

    // The store as the window left it, before the probe reshapes it.
    const auto node = env->cluster->stats().per_node.at(0);
    const std::uint64_t disk_bytes = dir_bytes(env->dir);
    const double stall_ms_max =
        hist_quantile(reg, "store.node0.compaction.stall", 1.0) / 1e6;

    // ---- correctness: read every acknowledged reading back.
    dcdb::lib::Connection conn(*env->cluster, env->meta);
    std::vector<std::pair<std::string, std::vector<Reading>>> pool;
    std::vector<QuerySpec> queries;
    if (o.workload == kPerSensor) {
        const auto topics = per_sensor_topics(o.seed);
        const Series series = per_sensor_series(o.seed);
        std::vector<std::uint64_t> counts;
        check_round_robin(conn, topics, series,
                          RoundRobin{topics.size(), kPsConnections}, obs.acks,
                          verdict, &counts);
        for (std::size_t t = 0; t < topics.size() && !counts.empty();
             t += 7) {
            std::vector<Reading> rows;
            for (std::uint64_t k = 0; k < counts[t]; ++k)
                rows.push_back(series.reading(t, k));
            pool.emplace_back(topics[t], std::move(rows));
        }
        queries = probe_queries(pool, o.seed, kProbeRecent, kProbeHistory,
                                kProbeDefault);
    } else if (o.workload == kPusher) {
        std::map<std::string, std::vector<Reading>> keep;
        for (const auto& [seg, reads] : obs.groups)
            check_tester(conn, pusher_prefix(o.seed, seg), reads,
                         wall_start - 60 * kNsPerSec,
                         dcdb::now_ns() + 60 * kNsPerSec,
                         obs.get("seg" + std::to_string(seg) +
                                 ".readings_pushed", -1),
                         verdict, &keep);
        if (obs.groups.empty()) verdict.fail("no Pusher segment reported");
        for (auto& [topic, rows] : keep) pool.emplace_back(topic, std::move(rows));
        queries = probe_queries(pool, o.seed, kProbeRecent, kProbeHistory,
                                kProbeDefault);
    } else {
        const auto topics = writer_topics(o.seed);
        check_round_robin(conn, topics, writer_series(o.seed),
                          RoundRobin{topics.size(), 1}, obs.acks, verdict);
        // The in-process replay mirrors the REST mix over the preload.
        const auto dtopics = dashboard_topics(o.seed);
        const Series series = dashboard_series(o.seed);
        for (std::size_t i = 0; i < dtopics.size(); i += 50) {
            std::vector<Reading> rows;
            for (std::uint64_t k = 0; k < dashboard_points(); ++k)
                rows.push_back(series.reading(i, k));
            pool.emplace_back(dtopics[i], std::move(rows));
        }
        queries = probe_queries(pool, o.seed, 200, 50, 3);
    }
    const auto agent_stats = env->agent->stats();
    if (agent_stats.decode_errors != 0 || agent_stats.dead_letters != 0)
        verdict.fail("agent dropped readings (decode errors " +
                     std::to_string(agent_stats.decode_errors) +
                     ", dead letters " +
                     std::to_string(agent_stats.dead_letters) + ")");

    // ---- REST probe (ingest workloads) and /healthz (traced runs). How
    // many SSTables the window leaves depends on when maintenance rounds
    // fell, and a default-range query's cost grows with that count. The
    // probe therefore runs on one fixed shape: maintenance stopped, the
    // memtable flushed and every table merged into one.
    if (o.workload != kDashboard) {
        env->cluster->stop_maintenance();
        env->cluster->flush_all();
        env->cluster->compact_all();
        for (const auto& q : queries) child->send(query_line(q));
    }
    if (o.trace) child->send("HEALTHZ 200");
    child->send("QEND");
    while (child->read_line(line)) {
        const auto w = words(line);
        if (!w.empty() && w[0] == "DONE") break;
        if (w.size() == 3 && w[0] == "R")
            obs.r[w[1]] = std::strtod(w[2].c_str(), nullptr);
    }
    const std::uint64_t vm1_kb = status_kb("VmSize");
    const std::uint64_t requests1 = http_requests.value();
    if (child->wait() != 0) verdict.fail("load generator exited with error");
    child.reset();

    // ---- failure accounting and generator validity.
    const double attempted =
        obs.get("gen.attempted") + obs.get("probe.attempted");
    const double failed = obs.get("gen.failed") + obs.get("probe.failed") +
                          static_cast<double>(verdict.mismatches);
    if (failed > 0) verdict.fail("failed operations: " + json_number(failed));
    if (obs.get("pusher.readings_dropped") > 0 ||
        obs.get("pusher.readings_requeued") > 0)
        verdict.fail("the Pusher dropped or requeued readings");
    if (obs.get("gen_max_threads") > kGenThreadCap ||
        obs.get("gen_max_conns") > kGenThreadCap)
        verdict.fail("load generator exceeded its thread/connection cap");
    const double lag = std::max({obs.get("u.lag_p99_ms"), obs.get("t.lag_p99_ms"),
                                 obs.get("probe.lag_p99_ms")});
    if (lag > kMaxLagMs)
        verdict.fail("load generator fell behind its schedule (lag p99 " +
                     json_number(lag) + " ms)");

    const bool dashboard = o.workload == kDashboard;
    const double readings_u = obs.get("u.readings");
    const double wall_u = obs.get("u.wall_s");
    std::vector<Metric> metrics;
    if (!o.trace) {
        const std::string q = dashboard ? "u." : "probe.";
        metrics = {
            {"setup_s", "s", median(setup_s)},
            {"ingest_readings_per_s", "1/s", readings_u / wall_u},
            {"ingest_ack_p50_us", "us", obs.get("u.ack_p50_us")},
            {"agent_cpu_us_per_reading", "us",
             obs.agent_cpu_ns("u") / 1e3 / readings_u},
            {"pusher_cpu_us_per_reading", "us",
             obs.get("u.cpu_ns") / 1e3 / readings_u},
            {"push_p50_ms", "ms", obs.get("u.round_p50_ms")},
            {"query_recent_p50_ms", "ms", obs.get(q + "recent_p50_ms")},
            {"query_history_p50_ms", "ms", obs.get(q + "history_p50_ms")},
            {"query_default_p50_ms", "ms", obs.get(q + "default_p50_ms")},
            {"agent_peak_rss_mb", "MB", obs.rss_peak_kb / 1024.0},
        };
    } else {
        // Agent spans of traced messages, joined with the generator's
        // publish round trips by trace ID.
        std::vector<double> route, decode, insert, append, sync, book, wire,
            coverage;
        const auto stage = [](const SpanHarvester::Stages& s, trace::Stage st) {
            return s[static_cast<std::size_t>(st)];
        };
        for (const auto& [id, s] : harvester.spans()) {
            const auto r = stage(s, trace::Stage::kBrokerRoute);
            const auto d = stage(s, trace::Stage::kDecode);
            const auto i = stage(s, trace::Stage::kInsert);
            if (r >= 0) route.push_back(r / 1e3);
            if (d >= 0) decode.push_back(d / 1e3);
            if (i >= 0) insert.push_back(i / 1e3);
            if (stage(s, trace::Stage::kLogAppend) >= 0)
                append.push_back(stage(s, trace::Stage::kLogAppend) / 1e3);
            if (stage(s, trace::Stage::kSync) >= 0)
                sync.push_back(stage(s, trace::Stage::kSync) / 1e3);
            if (r >= 0 && d >= 0 && i >= 0)
                book.push_back((r - d - i) / 1e3);
            const auto p = obs.publish_ns.find(id);
            if (r >= 0 && p != obs.publish_ns.end() && p->second > 0) {
                wire.push_back((static_cast<double>(p->second) - r) / 1e3);
                coverage.push_back(100.0 * r / static_cast<double>(p->second));
            }
        }
        if (coverage.empty()) verdict.fail("no traced message was matched");

        const auto ingest = replay_ingest(replay_input(o.workload, o.seed),
                                          o.workdir + "/replay",
                                          env->cluster_config);
        const auto reads = replay_queries(queries, *env->cluster, env->meta);
        if (reads.at("replay.failed") > 0)
            verdict.fail("in-process query replay returned wrong answers");
        const bool pusher = o.workload == kPusher;
        const double gen_cpu =
            obs.get(dashboard ? "u.gen_cpu_ns" : "u.cpu_ns");
        // These tail percentiles did not repeat across runs (they follow
        // fsync, flush and compaction stalls), so they are reported here,
        // from the untraced segment, instead of gated.
        metrics = {
            {"ingest_ack_p99_us", "us", obs.get("u.ack_p99_us")},
            {"push_p90_ms", "ms", obs.get("u.round_p90_ms")},
            {"query_recent_p99_ms", "ms",
             obs.get(dashboard ? "u.recent_p99_ms" : "probe.recent_p99_ms")},
            {"mqtt.publish_us_p50", "us", obs.get("t.publish_us_p50")},
            {"mqtt.publish_us_p99", "us", obs.get("t.publish_us_p99")},
            {"mqtt.broker_route_us_p50", "us", median(route)},
            {"mqtt.wire_us_p50", "us", median(wire)},
            {"collectagent.decode_us_p50", "us", median(decode)},
            {"collectagent.insert_us_p50", "us", median(insert)},
            {"collectagent.insert_us_p99", "us", quantile(insert, 0.99)},
            {"collectagent.bookkeeping_us_p50", "us", median(book)},
            {"collectagent.store_latency_us_p99", "us",
             hist_quantile(reg, "collectagent.store.latency", 0.99) / 1e3},
            {"core.to_sid_ns", "ns", ingest.at("core.to_sid_ns")},
            {"core.to_sid_allocs", "count", ingest.at("core.to_sid_allocs")},
            {"core.tree_add_ns", "ns", ingest.at("core.tree_add_ns")},
            {"core.tree_add_allocs", "count",
             ingest.at("core.tree_add_allocs")},
            {"core.cache_push_ns", "ns", ingest.at("core.cache_push_ns")},
            {"core.cache_push_allocs", "count",
             ingest.at("core.cache_push_allocs")},
            {"core.decode_batch_ns_per_reading", "ns",
             ingest.at("core.decode_batch_ns_per_reading")},
            {"core.decode_batch_allocs_per_msg", "count",
             ingest.at("core.decode_batch_allocs_per_msg")},
            {"core.encode_batch_ns_per_reading", "ns",
             ingest.at("core.encode_batch_ns_per_reading")},
            {"store.insert_batch_ns_per_reading", "ns",
             ingest.at("store.insert_batch_ns_per_reading")},
            {"store.insert_batch_allocs_per_batch", "count",
             ingest.at("store.insert_batch_allocs_per_batch")},
            {"store.log_append_us_p50", "us", median(append)},
            {"store.sync_us_p50", "us", median(sync)},
            {"store.sync_us_p99", "us",
             hist_quantile(reg, "store.node0.commitlog.sync.latency", 0.99) /
                 1e3},
            {"store.syncs_per_1k_readings", "count",
             ingest.at("store.syncs_per_1k_readings")},
            {"store.flushes", "count", static_cast<double>(node.flushes)},
            {"store.sstables_end", "count", static_cast<double>(node.sstables)},
            {"store.compaction_stall_ms_max", "ms", stall_ms_max},
            {"store.disk_bytes_per_reading", "B",
             static_cast<double>(disk_bytes) /
                 static_cast<double>(std::max<std::uint64_t>(node.writes, 1))},
            {"pusher.sample_latency_us_p50", "us",
             pusher ? obs.get("u.sample_latency_us_p50") : 0},
            {"pusher.publish_us_p50", "us",
             pusher ? obs.get("t.publish_us_p50") : 0},
            {"pusher.messages_per_push", "count",
             pusher ? obs.get("u.messages_per_push") : 0},
            {"pusher.publish_failures", "count",
             obs.get("pusher.publish_failures")},
            {"pusher.readings_requeued", "count",
             obs.get("pusher.readings_requeued")},
            {"pusher.readings_dropped", "count",
             obs.get("pusher.readings_dropped")},
            {"net.http_healthz_us_p50", "us", obs.get("probe.healthz_us_p50")},
            {"net.vm_kb_per_request", "kB",
             static_cast<double>(vm1_kb - std::min(vm1_kb, obs.vm0_kb)) /
                 static_cast<double>(std::max<std::uint64_t>(
                     requests1 - obs.requests0, 1))},
            {"libdcdb.query_raw_recent_us_p50", "us",
             reads.at("libdcdb.query_raw_recent_us_p50")},
            {"libdcdb.query_raw_history_us_p50", "us",
             reads.at("libdcdb.query_raw_history_us_p50")},
            {"libdcdb.query_raw_default_ms_p50", "ms",
             reads.at("libdcdb.query_raw_default_ms_p50")},
            {"store.query_us_per_bucket", "us",
             reads.at("store.query_us_per_bucket")},
            {"store.query_us_per_empty_bucket", "us",
             reads.at("store.query_us_per_empty_bucket")},
            {"trace.coverage_pct", "%", median(coverage)},
            {"trace.overhead_pct", "%",
             100.0 * (obs.get("t.ack_p50_us") / obs.get("u.ack_p50_us") - 1.0)},
            {"gen.lag_ms_p99", "ms", obs.get("u.lag_p99_ms")},
            {"gen.cpu_pct", "%", 100.0 * gen_cpu / 1e9 / wall_u},
        };
    }
    for (const auto& m : metrics)
        if (!o.trace && !(std::isfinite(m.value) && m.value > 0))
            verdict.fail(std::string("metric ") + m.name + " not measured");

    env.reset();
    fs::remove_all(o.workdir);

    for (const auto& why : verdict.why)
        std::fprintf(stderr, "incorrect: %s\n", why.c_str());
    std::string json = std::string("{\"correct\": ") +
                       (verdict.ok ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(static_cast<std::uint64_t>(
                           std::max(attempted, 1.0))) +
                       ", \"failed\": " +
                       std::to_string(static_cast<std::uint64_t>(failed)) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + std::string(metrics[i].name) +
                "\": {\"value\": " + json_number(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

std::string arg_value(int& i, int argc, char** argv) {
    if (i + 1 >= argc) throw std::runtime_error(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    try {
        GenArgs gen;
        Options o;
        bool is_gen = false;
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--selftest") return run_selftest() ? 0 : 1;
            if (a == "--gen") {
                is_gen = true;
                gen.workload = arg_value(i, argc, argv);
            } else if (a == "--workload") {
                o.workload = arg_value(i, argc, argv);
            } else if (a == "--seed") {
                o.seed = gen.seed = std::stoull(arg_value(i, argc, argv));
            } else if (a == "--seconds") {
                o.seconds = gen.seconds = std::stod(arg_value(i, argc, argv));
            } else if (a == "--trace") {
                o.trace = gen.trace = arg_value(i, argc, argv) == "1";
            } else if (a == "--workdir") {
                o.workdir = arg_value(i, argc, argv);
            } else if (a == "--mqtt-port") {
                gen.mqtt_port = static_cast<std::uint16_t>(
                    std::stoul(arg_value(i, argc, argv)));
            } else if (a == "--rest-port") {
                gen.rest_port = static_cast<std::uint16_t>(
                    std::stoul(arg_value(i, argc, argv)));
            } else {
                throw std::runtime_error("unknown argument " + a);
            }
        }
        if (is_gen) return generator_main(gen);
        if (o.workload != kPerSensor && o.workload != kPusher &&
            o.workload != kDashboard)
            throw std::runtime_error("unknown workload '" + o.workload + "'");
        if (o.workdir.empty()) throw std::runtime_error("--workdir required");
        if (!(o.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
        return run_benchmark(
            o, std::filesystem::read_symlink("/proc/self/exe").string());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
        return 2;
    }
}
