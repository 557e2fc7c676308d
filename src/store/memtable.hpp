// In-memory write buffer, one per storage node (Cassandra memtable).
//
// Writes land here first (after the commit log) and are served from here
// until a flush turns the memtable into an immutable SSTable. Rows within
// a partition are kept sorted by clustering timestamp; monitoring data
// arrives nearly in order, so insertion is amortized O(1) by appending
// and only sorting the (rare) out-of-order tail.
#pragma once

#include <map>
#include <vector>

#include "store/key.hpp"
#include "store/row.hpp"

namespace dcdb::store {

class Memtable {
  public:
    void insert(const Key& key, const Row& row);

    /// Rows in [t0, t1] of every partition with a key in [first, last]
    /// that `keep` accepts: one entry per non-empty partition, appended
    /// to `out` in key order. Seeks to `first`, so the cost follows the
    /// partitions that exist, not the width of the key range.
    void query_range(const Key& first, const Key& last, TimestampNs t0,
                     TimestampNs t1, const KeyFilter& keep,
                     std::vector<PartitionRows>& out) const;

    /// Sorted contents, consumed by the SSTable writer.
    const std::map<Key, std::vector<Row>>& partitions() const {
        return partitions_;
    }

    std::size_t approx_bytes() const { return approx_bytes_; }
    std::size_t row_count() const { return row_count_; }
    bool empty() const { return partitions_.empty(); }
    void clear();

  private:
    std::map<Key, std::vector<Row>> partitions_;
    std::size_t approx_bytes_{0};
    std::size_t row_count_{0};
};

}  // namespace dcdb::store
