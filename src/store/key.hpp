// Partition keys for the wide-column store.
//
// Mirrors Cassandra's data model as used by DCDB (paper, Section 4.3): the
// partition key is the sensor's 128-bit SID plus a coarse time bucket (so
// a sensor's unbounded time series is split into bounded partitions, as
// the production schema does with day-granularity buckets); the clustering
// key within a partition is the reading timestamp.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>

#include "common/types.hpp"

namespace dcdb::store {

/// Width of one partition in time: a sensor's series is split into
/// day-sized buckets, as in DCDB's production Cassandra schema.
inline constexpr TimestampNs kBucketWidthNs = 24ull * 3600 * kNsPerSec;

inline std::uint32_t time_bucket(TimestampNs ts) {
    return static_cast<std::uint32_t>(ts / kBucketWidthNs);
}

/// The 128-bit sensor id a partition key starts with.
using SidBytes = std::array<std::uint8_t, 16>;

struct Key {
    SidBytes sid{};             // 128-bit sensor id
    std::uint32_t bucket{0};    // coarse time bucket

    friend bool operator==(const Key&, const Key&) = default;
    friend auto operator<=>(const Key& a, const Key& b) {
        const int c = std::memcmp(a.sid.data(), b.sid.data(), a.sid.size());
        if (c != 0) return c <=> 0;
        return a.bucket <=> b.bucket;
    }

    /// Serialized wire/file size.
    static constexpr std::size_t kBytes = 20;

    void serialize(std::uint8_t out[kBytes]) const {
        std::memcpy(out, sid.data(), 16);
        out[16] = static_cast<std::uint8_t>(bucket >> 24);
        out[17] = static_cast<std::uint8_t>(bucket >> 16);
        out[18] = static_cast<std::uint8_t>(bucket >> 8);
        out[19] = static_cast<std::uint8_t>(bucket);
    }
    static Key deserialize(const std::uint8_t in[kBytes]) {
        Key k;
        std::memcpy(k.sid.data(), in, 16);
        k.bucket = (static_cast<std::uint32_t>(in[16]) << 24) |
                   (static_cast<std::uint32_t>(in[17]) << 16) |
                   (static_cast<std::uint32_t>(in[18]) << 8) |
                   static_cast<std::uint32_t>(in[19]);
        return k;
    }
};

/// Partition selector for range reads; an empty filter keeps every key.
using KeyFilter = std::function<bool(const Key&)>;

struct KeyHash {
    std::size_t operator()(const Key& k) const {
        std::uint64_t h = 1469598103934665603ull;  // FNV-1a
        for (const auto b : k.sid) h = (h ^ b) * 1099511628211ull;
        h = (h ^ k.bucket) * 1099511628211ull;
        return static_cast<std::size_t>(h);
    }
};

}  // namespace dcdb::store
