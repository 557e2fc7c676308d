#include "store/memtable.hpp"

#include <algorithm>

namespace dcdb::store {

void Memtable::insert(const Key& key, const Row& row) {
    auto [it, inserted] = partitions_.try_emplace(key);
    auto& rows = it->second;
    if (inserted) approx_bytes_ += Key::kBytes + 48;  // map node overhead

    // Fast path: monitoring data arrives in timestamp order.
    if (rows.empty() || rows.back().ts < row.ts) {
        rows.push_back(row);
        approx_bytes_ += Row::kBytes;
        ++row_count_;
        return;
    }
    // Stragglers and re-writes: positional upsert keeps the partition
    // sorted and guarantees newest-write-wins for equal timestamps.
    const auto pos = std::lower_bound(
        rows.begin(), rows.end(), row.ts,
        [](const Row& r, TimestampNs t) { return r.ts < t; });
    if (pos != rows.end() && pos->ts == row.ts) {
        *pos = row;
    } else {
        rows.insert(pos, row);
        approx_bytes_ += Row::kBytes;
        ++row_count_;
    }
}

void Memtable::query_range(const Key& first, const Key& last, TimestampNs t0,
                           TimestampNs t1, const KeyFilter& keep,
                           std::vector<PartitionRows>& out) const {
    for (auto it = partitions_.lower_bound(first);
         it != partitions_.end() && !(last < it->first); ++it) {
        if (keep && !keep(it->first)) continue;
        const auto& rows = it->second;
        const auto lo = std::lower_bound(
            rows.begin(), rows.end(), t0,
            [](const Row& r, TimestampNs t) { return r.ts < t; });
        auto hi = lo;
        while (hi != rows.end() && hi->ts <= t1) ++hi;
        if (lo != hi) out.push_back({it->first, std::vector<Row>(lo, hi)});
    }
}

void Memtable::clear() {
    partitions_.clear();
    approx_bytes_ = 0;
    row_count_ = 0;
}

}  // namespace dcdb::store
