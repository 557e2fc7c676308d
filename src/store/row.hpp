// Row format shared by memtable, commit log and SSTables.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "store/key.hpp"

namespace dcdb::store {

/// One clustered row: timestamp is the clustering key, value the payload,
/// expiry implements Cassandra-style per-write TTL (absolute UNIX seconds,
/// 0 = never expires).
struct Row {
    TimestampNs ts{0};
    Value value{0};
    std::uint32_t expiry_s{0};

    static constexpr std::size_t kBytes = 20;  // 8 + 8 + 4 serialized

    bool expired(TimestampNs now) const {
        return expiry_s != 0 &&
               static_cast<TimestampNs>(expiry_s) * kNsPerSec <= now;
    }

    friend bool operator==(const Row&, const Row&) = default;
};

/// One partition's rows of a range read, in timestamp order.
struct PartitionRows {
    Key key;
    std::vector<Row> rows;
};

}  // namespace dcdb::store
