#include "core/sensor_cache.hpp"

#include <algorithm>

namespace dcdb {

SensorCache::SensorCache(TimestampNs window_ns, TimestampNs interval_hint_ns)
    : window_ns_(window_ns) {
    interval_hint_ns = std::max<TimestampNs>(interval_hint_ns, 1);
    const std::size_t hint =
        static_cast<std::size_t>(window_ns / interval_hint_ns) + 2;
    ring_.resize(std::clamp<std::size_t>(hint, 4, 1u << 20));
}

void SensorCache::grow() {
    // Re-linearize into a doubled ring (rare; only when the hint was off).
    std::vector<Reading> bigger(ring_.size() * 2);
    const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i)
        bigger[i] = ring_[(start + i) % ring_.size()];
    head_ = count_;
    ring_ = std::move(bigger);
}

void SensorCache::push(const Reading& r) {
    // Evict entries older than the window only when the ring is full, so
    // the common path is a single store.
    if (count_ == ring_.size()) {
        const std::size_t oldest = head_;  // == start when full
        // Clamp the window start at 0: timestamps smaller than the window
        // (early boot, test clocks) must not underflow the unsigned
        // subtraction — every reading is in-window then, so grow.
        const TimestampNs window_start =
            r.ts >= window_ns_ ? r.ts - window_ns_ : 0;
        if (ring_[oldest].ts >= window_start) {
            // Oldest entry still inside the window: ring too small.
            grow();
        } else {
            --count_;  // drop the oldest
        }
    }
    ring_[head_ % ring_.size()] = r;
    head_ = (head_ + 1) % ring_.size();
    ++count_;
}

std::optional<Reading> SensorCache::latest() const {
    if (count_ == 0) return std::nullopt;
    return ring_[(head_ + ring_.size() - 1) % ring_.size()];
}

std::vector<Reading> SensorCache::view(TimestampNs t0, TimestampNs t1) const {
    std::vector<Reading> out;
    const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i) {
        const Reading& r = ring_[(start + i) % ring_.size()];
        if (r.ts >= t0 && r.ts <= t1) out.push_back(r);
    }
    return out;
}

std::optional<double> SensorCache::average(TimestampNs horizon_ns) const {
    const auto newest = latest();
    if (!newest) return std::nullopt;
    const TimestampNs t0 =
        newest->ts >= horizon_ns ? newest->ts - horizon_ns : 0;
    double sum = 0;
    std::size_t n = 0;
    const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i) {
        const Reading& r = ring_[(start + i) % ring_.size()];
        if (r.ts >= t0) {
            sum += static_cast<double>(r.value);
            ++n;
        }
    }
    if (n == 0) return std::nullopt;
    return sum / static_cast<double>(n);
}

SensorCache& CacheSet::find_or_create(const std::string& topic,
                                     TimestampNs interval_hint_ns) {
    auto it = caches_.find(topic);
    if (it == caches_.end()) {
        it = caches_
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(topic),
                          std::forward_as_tuple(window_ns_, interval_hint_ns))
                 .first;
    }
    return it->second;
}

CacheSet::Slot CacheSet::slot(const std::string& topic,
                              TimestampNs interval_hint_ns) {
    MutexLock lock(mutex_);
    // unordered_map nodes never move, so the pointer outlives rehashes.
    return Slot(&find_or_create(topic, interval_hint_ns));
}

void CacheSet::push(Slot slot, const Reading& r) {
    MutexLock lock(mutex_);
    slot.cache_->push(r);
}

void CacheSet::push(const std::string& topic, const Reading& r,
                    TimestampNs interval_hint_ns) {
    MutexLock lock(mutex_);
    find_or_create(topic, interval_hint_ns).push(r);
}

std::optional<Reading> CacheSet::latest(const std::string& topic) const {
    MutexLock lock(mutex_);
    const auto it = caches_.find(topic);
    if (it == caches_.end()) return std::nullopt;
    return it->second.latest();
}

std::vector<Reading> CacheSet::view(const std::string& topic, TimestampNs t0,
                                    TimestampNs t1) const {
    MutexLock lock(mutex_);
    const auto it = caches_.find(topic);
    if (it == caches_.end()) return {};
    return it->second.view(t0, t1);
}

std::optional<double> CacheSet::average(const std::string& topic,
                                        TimestampNs horizon_ns) const {
    MutexLock lock(mutex_);
    const auto it = caches_.find(topic);
    if (it == caches_.end()) return std::nullopt;
    return it->second.average(horizon_ns);
}

std::vector<std::string> CacheSet::topics() const {
    MutexLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(caches_.size());
    for (const auto& [topic, cache] : caches_) out.push_back(topic);
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t CacheSet::sensor_count() const {
    MutexLock lock(mutex_);
    return caches_.size();
}

std::size_t CacheSet::memory_bytes() const {
    MutexLock lock(mutex_);
    std::size_t total = 0;
    for (const auto& [topic, cache] : caches_)
        total += cache.memory_bytes() + topic.size();
    return total;
}

}  // namespace dcdb
