#include "replay.hpp"

#include <filesystem>

#include "common/clock.hpp"
#include "core/hierarchy.hpp"
#include "core/payload.hpp"
#include "core/sensor_cache.hpp"
#include "core/sensor_id.hpp"
#include "libdcdb/connection.hpp"

namespace perfbench {

namespace {

using dcdb::steady_ns;

constexpr int kPasses = 3;

/// Results of the replayed calls land here so none is optimized away.
volatile std::uint64_t g_sink = 0;

/// Runs `body` kPasses times; returns the median pass's ns per `ops`
/// and the last pass's allocations per `ops`.
template <typename Body>
std::pair<double, double> measure(std::size_t ops, Body&& body) {
    std::vector<double> ns;
    double allocs = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        const std::uint64_t a0 = thread_allocations();
        const std::uint64_t t0 = steady_ns();
        body();
        const std::uint64_t dt = steady_ns() - t0;
        allocs = static_cast<double>(thread_allocations() - a0);
        ns.push_back(static_cast<double>(dt) / static_cast<double>(ops));
    }
    return {median(ns), allocs / static_cast<double>(ops)};
}

struct Section {
    std::string_view topic;
    Reading last;
};

}  // namespace

ReplayInput replay_input(std::string_view workload, std::uint64_t seed) {
    ReplayInput in;
    if (workload == kPusher) {
        // Ten coalesced group payloads per push round, 100 sensors x 10
        // readings each: the Pusher's message shape at 100k readings/s.
        in.topics = pusher_topics(pusher_prefix(seed, 0));
        const int per_round = static_cast<int>(kPuRoundNs / kPuIntervalNs);
        const TimestampNs base = seeded_base(seed, 4);
        for (int round = 0; round < 20; ++round) {
            for (int g = 0; g < kPuGroups; ++g) {
                ReplayMessage m;
                for (int s = 0; s < kPuSensorsPerGroup; ++s) {
                    std::vector<Reading> readings;
                    for (int i = 0; i < per_round; ++i) {
                        const auto k =
                            static_cast<std::uint64_t>(round * per_round + i);
                        readings.push_back(
                            {base + k * kPuIntervalNs, static_cast<Value>(k)});
                    }
                    m.sections.emplace_back(
                        static_cast<std::size_t>(g * kPuSensorsPerGroup + s),
                        std::move(readings));
                }
                in.messages.push_back(std::move(m));
            }
        }
        return in;
    }
    // Single-reading, single-section messages, one per topic per round.
    const bool dashboard = workload == kDashboard;
    in.topics = dashboard ? writer_topics(seed) : per_sensor_topics(seed);
    const Series series =
        dashboard ? writer_series(seed) : per_sensor_series(seed);
    const int rounds = dashboard ? 20 : 1;
    for (int round = 1; round <= rounds; ++round)
        for (std::size_t t = 0; t < in.topics.size(); ++t) {
            ReplayMessage m;
            m.sections.emplace_back(
                t, std::vector<Reading>{series.reading(t, round)});
            in.messages.push_back(std::move(m));
        }
    return in;
}

Metrics replay_ingest(const ReplayInput& input, const std::string& dir,
                      const store::ClusterConfig& like) {
    Metrics m;
    std::size_t readings = 0;
    for (const auto& msg : input.messages)
        for (const auto& [t, r] : msg.sections) readings += r.size();

    // encode_batch: the Pusher-side serialization.
    std::vector<std::vector<std::uint8_t>> payloads(input.messages.size());
    std::vector<dcdb::SensorBatch> batch;
    m["core.encode_batch_ns_per_reading"] =
        measure(readings, [&] {
            for (std::size_t i = 0; i < input.messages.size(); ++i) {
                batch.clear();
                for (const auto& [t, r] : input.messages[i].sections)
                    batch.push_back({input.topics[t], r});
                payloads[i] = dcdb::encode_batch(batch);
            }
        }).first;

    // decode_batch into a reused view, as the agent does.
    dcdb::BatchPayloadView view;
    std::size_t decoded = 0;
    const auto [decode_ns, decode_allocs] = measure(payloads.size(), [&] {
        for (const auto& p : payloads) {
            dcdb::decode_batch(p, view);
            decoded += view.total_readings;
        }
    });
    m["core.decode_batch_ns_per_reading"] =
        decode_ns * static_cast<double>(payloads.size()) /
        static_cast<double>(readings);
    m["core.decode_batch_allocs_per_msg"] = decode_allocs;

    std::vector<Section> sections;
    for (const auto& p : payloads) {
        dcdb::decode_batch(p, view);
        for (const auto& s : view.sections)
            sections.push_back({s.topic, s.readings[s.readings.size() - 1]});
    }

    // Agent bookkeeping on known topics: register every topic first (the
    // benchmark's set-up does the same over MQTT).
    dcdb::store::MetaStore meta;
    dcdb::TopicMapper mapper(meta);
    dcdb::SensorTree tree;
    dcdb::CacheSet cache;
    for (const auto& t : input.topics) {
        mapper.to_sid(t);
        tree.add(t);
        cache.push(t, Reading{1, 0});
    }
    std::string scratch;
    scratch.reserve(256);
    std::uint64_t sink = 0;
    const auto [sid_ns, sid_allocs] = measure(sections.size(), [&] {
        for (const auto& s : sections) {
            scratch.assign(s.topic);
            sink += mapper.to_sid(scratch).bytes[15];
        }
    });
    m["core.to_sid_ns"] = sid_ns;
    m["core.to_sid_allocs"] = sid_allocs;
    const auto [push_ns, push_allocs] = measure(sections.size(), [&] {
        for (const auto& s : sections) {
            scratch.assign(s.topic);
            cache.push(scratch, s.last);
        }
    });
    m["core.cache_push_ns"] = push_ns;
    m["core.cache_push_allocs"] = push_allocs;
    const auto [tree_ns, tree_allocs] = measure(sections.size(), [&] {
        for (const auto& s : sections) {
            scratch.assign(s.topic);
            tree.add(scratch);
        }
    });
    m["core.tree_add_ns"] = tree_ns;
    m["core.tree_add_allocs"] = tree_allocs;

    // Store batch insert into a fresh cluster with the agent's settings.
    std::vector<std::vector<dcdb::store::BatchEntry>> batches;
    for (const auto& msg : input.messages) {
        auto& b = batches.emplace_back();
        for (const auto& [t, rs] : msg.sections) {
            const dcdb::SensorId sid = mapper.to_sid(input.topics[t]);
            for (const auto& r : rs)
                b.push_back({dcdb::sensor_key(sid, r.ts), r.ts, r.value, 0});
        }
    }
    std::filesystem::remove_all(dir);
    {
        store::ClusterConfig cc = like;
        cc.base_dir = dir;
        cc.registry = nullptr;
        store::StoreCluster cluster(cc);
        const std::uint64_t a0 = thread_allocations();
        const std::uint64_t t0 = steady_ns();
        for (const auto& b : batches) cluster.insert_batch(b);
        const double dt = static_cast<double>(steady_ns() - t0);
        const double da = static_cast<double>(thread_allocations() - a0);
        m["store.insert_batch_ns_per_reading"] =
            dt / static_cast<double>(readings);
        m["store.insert_batch_allocs_per_batch"] =
            da / static_cast<double>(batches.size());
        const auto stats = cluster.stats();
        m["store.syncs_per_1k_readings"] =
            1000.0 * static_cast<double>(stats.per_node.at(0).commitlog_syncs) /
            static_cast<double>(readings);
    }
    std::filesystem::remove_all(dir);
    g_sink = sink + decoded;
    return m;
}

Metrics replay_queries(const std::vector<QuerySpec>& queries,
                       store::StoreCluster& cluster, store::MetaStore& meta) {
    Metrics m;
    dcdb::lib::Connection conn(cluster, meta);
    std::vector<double> us[3];
    double failed = 0;
    int per_class[3] = {0, 0, 0};
    constexpr int kMaxPerClass[3] = {200, 50, 3};
    for (const auto& q : queries) {
        if (per_class[q.cls] >= kMaxPerClass[q.cls]) continue;
        ++per_class[q.cls];
        const std::uint64_t t0 = steady_ns();
        const auto rows = conn.query_raw(q.topic, q.t0, q.t1);
        us[q.cls].push_back((steady_ns() - t0) / 1e3);
        std::uint64_t hash = 0;
        for (const auto& r : rows) hash += row_hash(r.ts, r.value);
        if (rows.size() != q.rows || hash != q.hash) failed += 1;
    }
    m["libdcdb.query_raw_recent_us_p50"] = median(us[0]);
    m["libdcdb.query_raw_history_us_p50"] = median(us[1]);
    m["libdcdb.query_raw_default_ms_p50"] = median(us[2]) / 1e3;

    // StoreCluster::query per day-bucket, on buckets that hold the
    // queried sensor's data and on empty ones (what a default-range
    // query walks ~213k of).
    dcdb::TopicMapper mapper(meta);
    std::vector<double> bucket_us;
    double empty_ns = 0;
    std::size_t empty_calls = 0;
    for (const auto& q : queries) {
        if (q.cls == 2 || bucket_us.size() >= 200) continue;
        dcdb::SensorId sid;
        if (!mapper.lookup(q.topic, sid)) continue;
        const dcdb::store::Key key = dcdb::sensor_key(sid, q.t1);
        const std::uint64_t t0 = steady_ns();
        const auto rows = cluster.query(key, 0, dcdb::kTimestampMax);
        bucket_us.push_back((steady_ns() - t0) / 1e3);
        if (rows.empty()) failed += 1;
        if (empty_calls == 0) {
            dcdb::store::Key empty = key;
            constexpr std::size_t kEmpty = 20000;
            const std::uint64_t e0 = steady_ns();
            for (std::size_t i = 0; i < kEmpty; ++i) {
                empty.bucket = key.bucket + 1000 + static_cast<std::uint32_t>(i);
                if (!cluster.query(empty, 0, dcdb::kTimestampMax).empty())
                    failed += 1;
            }
            empty_ns = static_cast<double>(steady_ns() - e0);
            empty_calls = kEmpty;
        }
    }
    m["store.query_us_per_bucket"] = median(bucket_us);
    m["store.query_us_per_empty_bucket"] =
        empty_calls ? empty_ns / 1e3 / static_cast<double>(empty_calls) : 0;
    m["replay.failed"] = failed;
    return m;
}

}  // namespace perfbench
