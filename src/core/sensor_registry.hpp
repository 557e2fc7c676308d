// Sensor registry: resolve each sensor once on the ingest path.
//
// A Collect Agent sees the same few thousand topics in every message. The
// registry maps a topic, spelled exactly as it arrived, to what ingest
// needs about its sensor: the SID (paper, Section 4.2), the sensor's
// cache slot and whether it is already in the hierarchy. A known topic
// costs one string_view hash lookup under a reader lock and no heap
// allocation. Only a topic's first sight goes to the TopicMapper
// (normalise, split, MetaStore), and only its first persisted reading
// adds it to the SensorTree and creates its cache: the tree and the
// cache set are filled by the registry, not rebuilt per message.
//
// Entries are never removed, so what resolve() returns stays valid for
// the registry's lifetime. Two spellings of one sensor ("/a/b", "a//b")
// are two entries with one SID, one hierarchy leaf and, as before the
// registry, one cache each (the cache is keyed by the topic as received).
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.hpp"
#include "core/hierarchy.hpp"
#include "core/sensor_cache.hpp"
#include "core/sensor_id.hpp"

namespace dcdb {

class SensorRegistry {
    struct Entry {
        SensorId sid;
        CacheSet::Slot slot;  // empty until the first reading landed
    };

  public:
    /// `mapper`, `cache` and `tree` must outlive the registry.
    SensorRegistry(TopicMapper& mapper, CacheSet& cache, SensorTree& tree)
        : mapper_(mapper), cache_(cache), tree_(tree) {}

    SensorRegistry(const SensorRegistry&) = delete;
    SensorRegistry& operator=(const SensorRegistry&) = delete;

    /// One resolved sensor, copied out of the registry under its lock.
    struct Sensor {
        const std::string* topic{nullptr};  // as received; registry-owned
        SensorId sid;
        CacheSet::Slot slot;
    };

    /// Resolve `topic`. A miss maps it with TopicMapper::to_sid and adds
    /// an entry; an unmappable topic throws Error (as to_sid does) and
    /// adds nothing.
    Sensor resolve(std::string_view topic) DCDB_EXCLUDES(mutex_);

    /// Readings of `sensor` are persisted: cache `newest` and, on the
    /// sensor's first landing, add it to the hierarchy.
    void landed(Sensor& sensor, const Reading& newest) DCDB_EXCLUDES(mutex_);

  private:
    struct TopicHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view topic) const {
            return std::hash<std::string_view>{}(topic);
        }
    };

    TopicMapper& mapper_;
    CacheSet& cache_;
    SensorTree& tree_;
    // Leaf lock: never held while calling into the mapper, the cache set
    // or the tree.
    mutable SharedMutex mutex_;
    std::unordered_map<std::string, Entry, TopicHash, std::equal_to<>>
        entries_ DCDB_GUARDED_BY(mutex_);
};

}  // namespace dcdb
