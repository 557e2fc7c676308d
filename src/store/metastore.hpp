// Persistent key-value metadata table.
//
// Plays the role of DCDB's auxiliary Cassandra column families: the
// topic-to-SID dictionary, published sensor metadata (units, scales,
// intervals) and virtual sensor definitions all live here. Implemented
// as an append-only log of (key, value) records compacted on load; a
// deletion is an empty-value tombstone.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"

namespace dcdb::store {

class MetaStore {
  public:
    /// Open (creating if needed) the backing log at `path`; pass an empty
    /// path for a purely in-memory store.
    explicit MetaStore(std::string path = "");
    ~MetaStore();

    MetaStore(const MetaStore&) = delete;
    MetaStore& operator=(const MetaStore&) = delete;

    void put(const std::string& key, const std::string& value)
        DCDB_EXCLUDES(mutex_);
    std::optional<std::string> get(const std::string& key) const
        DCDB_EXCLUDES(mutex_);
    void erase(const std::string& key) DCDB_EXCLUDES(mutex_);

    /// Atomically store `value` under `key` unless the key exists. Returns
    /// nullopt when this call stored it, else the value already present
    /// (which is left untouched). Lets several writers sharing one store
    /// claim keys without a lock of their own.
    std::optional<std::string> put_if_absent(const std::string& key,
                                             const std::string& value)
        DCDB_EXCLUDES(mutex_);
    bool contains(const std::string& key) const DCDB_EXCLUDES(mutex_);

    /// All (key, value) pairs whose key starts with `prefix`, sorted.
    std::vector<std::pair<std::string, std::string>> scan_prefix(
        const std::string& prefix) const DCDB_EXCLUDES(mutex_);

    std::size_t size() const DCDB_EXCLUDES(mutex_);

    /// Rewrite the log with only live entries.
    void compact() DCDB_EXCLUDES(mutex_);

  private:
    void append_record(const std::string& key, const std::string& value,
                       bool tombstone) DCDB_REQUIRES(mutex_);

    std::string path_;
    std::FILE* file_ DCDB_PT_GUARDED_BY(mutex_){nullptr};
    mutable dcdb::Mutex mutex_;
    std::unordered_map<std::string, std::string> map_
        DCDB_GUARDED_BY(mutex_);
};

}  // namespace dcdb::store
