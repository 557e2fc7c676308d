// Per-layer replay: the workload's own topics and payload shapes driven
// single-threaded through each module's public functions, timed and
// allocation-counted per call site.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "store/cluster.hpp"
#include "store/metastore.hpp"

namespace perfbench {

namespace store = dcdb::store;
using Metrics = std::map<std::string, double>;

/// One message of a replay: (topic index, readings) per section.
struct ReplayMessage {
    std::vector<std::pair<std::size_t, std::vector<Reading>>> sections;
};

struct ReplayInput {
    std::vector<std::string> topics;
    std::vector<ReplayMessage> messages;
};

/// The replay input for `workload` (its topics, its message shape).
ReplayInput replay_input(std::string_view workload, std::uint64_t seed);

/// core.*: encode_batch, decode_batch, TopicMapper::to_sid,
/// SensorTree::add and CacheSet::push on known topics.
/// store.*: StoreCluster::insert_batch into a fresh cluster configured
/// like the agent's (`like`), under `dir`.
Metrics replay_ingest(const ReplayInput& input, const std::string& dir,
                      const store::ClusterConfig& like);

/// A query with its expected row count; t0/t1 = 0/kTimestampMax is the
/// REST default range.
struct QuerySpec {
    int cls{0};  // 0 recent, 1 history, 2 default
    std::string topic;
    TimestampNs t0{0};
    TimestampNs t1{0};
    std::uint64_t rows{0};
    std::uint64_t hash{0};
};

/// libdcdb.* and store.query_*: the query list replayed in-process
/// through lib::Connection::query_raw and StoreCluster::query. Adds a
/// count of wrong answers as "replay.failed".
Metrics replay_queries(const std::vector<QuerySpec>& queries,
                       store::StoreCluster& cluster, store::MetaStore& meta);

}  // namespace perfbench
