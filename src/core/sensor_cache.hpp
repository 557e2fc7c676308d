// Sensor caches: the most recent readings of each sensor, bounded by a
// time window.
//
// Both Pushers and Collect Agents keep one (paper, Section 5.3): it backs
// the RESTful API ("access to a sensor cache that stores the latest
// readings of all sensors"), decouples sampling from sending, and its
// size is "configurable" — the paper's Figure 6 memory footprint is
// dominated by exactly this structure, so it is preallocated and
// allocation-free on the sampling hot path once warm.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/types.hpp"

namespace dcdb {

/// Ring buffer of readings covering (at least) a fixed time window.
class SensorCache {
  public:
    /// `window_ns`: how much history to retain (default 2 minutes, the
    /// production configuration used in the paper's experiments).
    /// `interval_hint_ns`: expected sampling interval, used to right-size
    /// the ring upfront.
    explicit SensorCache(TimestampNs window_ns = 120 * kNsPerSec,
                         TimestampNs interval_hint_ns = kNsPerSec);

    /// O(1), allocation-free once the ring reached its steady size.
    void push(const Reading& r);

    std::optional<Reading> latest() const;

    /// Readings within [t0, t1], oldest first.
    std::vector<Reading> view(TimestampNs t0, TimestampNs t1) const;

    /// Average over the cached window (the REST API exposes this).
    std::optional<double> average(TimestampNs horizon_ns) const;

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }
    TimestampNs window_ns() const { return window_ns_; }

    /// Memory footprint of this cache in bytes.
    std::size_t memory_bytes() const {
        return ring_.capacity() * sizeof(Reading) + sizeof(*this);
    }

  private:
    void grow();

    TimestampNs window_ns_;
    std::vector<Reading> ring_;
    std::size_t head_{0};   // next write position
    std::size_t count_{0};  // valid entries
};

/// Thread-safe set of named sensor caches (one per sensor topic), shared
/// by the sampler threads and the REST server.
class CacheSet {
  public:
    explicit CacheSet(TimestampNs window_ns = 120 * kNsPerSec)
        : window_ns_(window_ns) {}

    /// Stable handle to one topic's cache (caches are never removed):
    /// resolve it once with slot(), then push() without hashing the topic.
    class Slot {
      public:
        Slot() = default;
        explicit operator bool() const { return cache_ != nullptr; }

      private:
        friend class CacheSet;
        explicit Slot(SensorCache* cache) : cache_(cache) {}
        SensorCache* cache_{nullptr};
    };

    /// The cache of `topic`, created empty on first sight.
    Slot slot(const std::string& topic,
              TimestampNs interval_hint_ns = kNsPerSec) DCDB_EXCLUDES(mutex_);

    /// Insert a reading through a handle from slot().
    void push(Slot slot, const Reading& r) DCDB_EXCLUDES(mutex_);

    /// Insert a reading for `topic`, creating the cache on first sight.
    void push(const std::string& topic, const Reading& r,
              TimestampNs interval_hint_ns = kNsPerSec) DCDB_EXCLUDES(mutex_);

    std::optional<Reading> latest(const std::string& topic) const
        DCDB_EXCLUDES(mutex_);
    std::vector<Reading> view(const std::string& topic, TimestampNs t0,
                              TimestampNs t1) const DCDB_EXCLUDES(mutex_);
    std::optional<double> average(const std::string& topic,
                                  TimestampNs horizon_ns) const
        DCDB_EXCLUDES(mutex_);

    std::vector<std::string> topics() const DCDB_EXCLUDES(mutex_);
    std::size_t sensor_count() const DCDB_EXCLUDES(mutex_);
    std::size_t memory_bytes() const DCDB_EXCLUDES(mutex_);
    TimestampNs window_ns() const { return window_ns_; }

  private:
    SensorCache& find_or_create(const std::string& topic,
                                TimestampNs interval_hint_ns)
        DCDB_REQUIRES(mutex_);

    TimestampNs window_ns_;
    mutable Mutex mutex_;
    std::unordered_map<std::string, SensorCache> caches_
        DCDB_GUARDED_BY(mutex_);
};

}  // namespace dcdb
