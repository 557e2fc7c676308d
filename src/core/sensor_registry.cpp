#include "core/sensor_registry.hpp"

namespace dcdb {

SensorRegistry::Sensor SensorRegistry::resolve(std::string_view topic) {
    {
        ReaderLock lock(mutex_);
        const auto it = entries_.find(topic);
        if (it != entries_.end())
            return {&it->first, it->second.sid, it->second.slot};
    }
    // First sight: map outside the lock (the mapper serializes itself and
    // gives concurrent callers the same SID), then publish the entry. A
    // concurrent miss on the same topic may have published it first.
    std::string key(topic);
    const SensorId sid = mapper_.to_sid(key);
    WriterLock lock(mutex_);
    const auto it = entries_.try_emplace(std::move(key), Entry{sid, {}}).first;
    return {&it->first, it->second.sid, it->second.slot};
}

void SensorRegistry::landed(Sensor& sensor, const Reading& newest) {
    if (!sensor.slot) {
        // First landing (or a race with another session's first landing:
        // both steps are idempotent).
        tree_.add(*sensor.topic);
        sensor.slot = cache_.slot(*sensor.topic);
        WriterLock lock(mutex_);
        entries_.find(*sensor.topic)->second.slot = sensor.slot;
    }
    cache_.push(sensor.slot, newest);
}

}  // namespace dcdb
