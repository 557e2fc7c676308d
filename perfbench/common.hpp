// Shared pieces of the pipeline benchmark: the seeded inputs both the
// load generator and the agent side derive from a seed, the statistics
// helpers, the line protocol between the two processes, and process
// meters.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using dcdb::Reading;
using dcdb::TimestampNs;
using dcdb::Value;

inline constexpr TimestampNs kNsPerSec = 1'000'000'000ull;
inline constexpr TimestampNs kNsPerDay = 86'400ull * kNsPerSec;

// ------------------------------------------------------------ workloads

inline constexpr std::string_view kPerSensor = "ingest_per_sensor";
inline constexpr std::string_view kPusher = "ingest_pusher";
inline constexpr std::string_view kDashboard = "query_dashboard";

// ingest_per_sensor: a host/node/sensor grid, one reading per PUBLISH.
inline constexpr int kPsHosts = 25;
inline constexpr int kPsNodes = 20;
inline constexpr int kPsSensors = 20;  // 10 000 topics
inline constexpr int kPsConnections = 2;

// ingest_pusher: tester groups read every 10 ms (100k readings/s).
inline constexpr int kPuGroups = 10;
inline constexpr int kPuSensorsPerGroup = 100;
inline constexpr TimestampNs kPuIntervalNs = 10'000'000;
inline constexpr TimestampNs kPuRoundNs = 100'000'000;

// query_dashboard: preloaded history, a background writer and an
// open-loop REST /query mix. README.md ("Where the dashboard rates come
// from") states what the rates assume.
inline constexpr int kDbSensors = 1000;
inline constexpr int kDbDays = 3;
inline constexpr TimestampNs kDbStepNs = 60 * kNsPerSec;
inline constexpr int kDbPreloadParts = 5;  // 4 SSTables + the memtable
inline constexpr int kDbWriterSensors = 100;
inline constexpr TimestampNs kDbWriterSpacingNs = 1'000'000;  // 1000/s
inline constexpr double kDbQueryRate = 100.0;                  // per second
inline constexpr TimestampNs kDbRecentNs = 10 * 60 * kNsPerSec;
inline constexpr TimestampNs kDbHistoryNs = 2 * kNsPerDay;
inline constexpr int kDbMaxInflight = 3;

/// Load-generator budget: the child process may use at most this many
/// threads (an MqttClient brings a reader thread of its own) and at most
/// this many connections, the core count of the reference machine.
inline constexpr int kGenThreadCap = 4;

// ------------------------------------------------------- seeded inputs

inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(mix64(seed)) {}
    std::uint64_t next() { return state_ = mix64(state_); }
    std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

  private:
    std::uint64_t state_;
};

/// A deterministic series: reading k of topic i has timestamp
/// base + k * step and a value derived from (salt, i, k).
struct Series {
    TimestampNs base{0};
    TimestampNs step{kNsPerSec};
    std::uint64_t salt{0};

    TimestampNs ts(std::uint64_t k) const { return base + k * step; }
    Value value(std::uint64_t topic, std::uint64_t k) const {
        return static_cast<Value>(
            mix64(salt ^ mix64(topic * 0x100000001B3ull + k)) % 1'000'000);
    }
    Reading reading(std::uint64_t topic, std::uint64_t k) const {
        return Reading{ts(k), value(topic, k)};
    }
};

/// Day-aligned base time for a seed, well inside 2023-2024 so every
/// series stays far from the timestamp range ends.
inline TimestampNs seeded_base(std::uint64_t seed, std::uint64_t tag) {
    const std::uint64_t day = 19'500 + mix64(seed * 31 + tag) % 200;
    return day * kNsPerDay + kNsPerSec * 3600;  // 01:00 of that day
}

inline Series per_sensor_series(std::uint64_t seed) {
    return {seeded_base(seed, 1), kNsPerSec, mix64(seed ^ 0xA11CE)};
}
inline Series dashboard_series(std::uint64_t seed) {
    Series s{seeded_base(seed, 2), kDbStepNs, mix64(seed ^ 0xDA5B)};
    s.base -= kNsPerSec * 3600;  // preload spans whole day buckets
    return s;
}
inline Series writer_series(std::uint64_t seed) {
    return {seeded_base(seed, 3), kNsPerSec, mix64(seed ^ 0x3717E)};
}
inline std::uint64_t dashboard_points() {
    return static_cast<std::uint64_t>(kDbDays) * (kNsPerDay / kDbStepNs);
}

/// Topic names. The seed picks the site name, so every seed maps a
/// different set of strings onto the SID dictionary.
inline std::string site_name(std::uint64_t seed, const char* kind) {
    return std::string("/") + kind + std::to_string(mix64(seed) % 100000);
}

std::vector<std::string> per_sensor_topics(std::uint64_t seed);
std::vector<std::string> dashboard_topics(std::uint64_t seed);
std::vector<std::string> writer_topics(std::uint64_t seed);
std::string pusher_prefix(std::uint64_t seed, int segment);
std::vector<std::string> pusher_topics(const std::string& prefix);

/// Round-robin sending: topic i belongs to connection i % conns, and
/// connection c's j-th message carries reading j / share of its
/// (j % share)-th topic. `acked` messages of a connection therefore
/// determine exactly which readings must be stored.
struct RoundRobin {
    std::size_t topics{0};
    std::size_t conns{1};

    std::size_t share(std::size_t c) const {
        return topics / conns + (c < topics % conns ? 1 : 0);
    }
    std::size_t topic_of(std::size_t c, std::uint64_t j) const {
        return c + (j % share(c)) * conns;
    }
    std::uint64_t seq_of(std::size_t c, std::uint64_t j) const {
        return j / share(c);
    }
    /// Readings stored for topic `t` after `acked` messages of its
    /// connection.
    std::uint64_t count_for(std::size_t t, std::uint64_t acked) const {
        const std::size_t c = t % conns;
        const std::size_t pos = t / conns;
        const std::uint64_t n = share(c);
        return acked / n + (pos < acked % n ? 1 : 0);
    }
};

// ----------------------------------------------------------- statistics

/// Quantile q in [0, 1] with linear interpolation between closest ranks
/// (NumPy's default). NaN for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Order-independent checksum of (ts, value) rows, for verifying query
/// answers without shipping them between processes.
inline std::uint64_t row_hash(TimestampNs ts, Value value) {
    return mix64(ts ^ mix64(static_cast<std::uint64_t>(value)));
}

/// Parse a /query CSV body ("topic,ts,value" lines); returns false on a
/// malformed line or a topic other than `topic`.
bool parse_query_csv(std::string_view body, std::string_view topic,
                     std::vector<Reading>& out);

// ------------------------------------------------------- line protocol

/// Split a protocol line into space-separated words.
std::vector<std::string> words(const std::string& line);

// ------------------------------------------------------- process meters

/// user+system CPU time of the calling process, in ns.
std::uint64_t process_cpu_ns();
/// CPU time of the calling thread, in ns.
std::uint64_t thread_cpu_ns();
/// A field of /proc/self/status in kB (VmHWM, VmSize, ...); 0 if absent.
std::uint64_t status_kb(const char* field);
/// Threads of the calling process.
int thread_count();
/// Bytes of regular files below `dir`.
std::uint64_t dir_bytes(const std::string& dir);

/// Heap allocations made by the calling thread so far (counted by the
/// benchmark's own operator new).
std::uint64_t thread_allocations();

}  // namespace perfbench
