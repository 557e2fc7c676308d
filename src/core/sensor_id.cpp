#include "core/sensor_id.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/string_utils.hpp"
#include "mqtt/topic.hpp"

namespace dcdb {

std::string SensorId::hex() const {
    std::string out;
    out.reserve(32);
    char tmp[3];
    for (const auto b : bytes) {
        std::snprintf(tmp, sizeof tmp, "%02x", b);
        out += tmp;
    }
    return out;
}

namespace {

std::string dict_key(std::size_t level, const std::string& component) {
    return "sidmap/" + std::to_string(level) + "/" + component;
}

std::string rev_key(std::size_t level, std::uint16_t id) {
    return "sidrev/" + std::to_string(level) + "/" + std::to_string(id);
}

}  // namespace

TopicMapper::TopicMapper(store::MetaStore& meta) : meta_(meta) {
    MutexLock lock(mutex_);
    next_id_.fill(1);
    // Rebuild the in-memory dictionaries from the persistent store.
    for (std::size_t level = 0; level < kSidLevels; ++level) {
        const std::string prefix = "sidmap/" + std::to_string(level) + "/";
        for (const auto& [key, value] : meta_.scan_prefix(prefix)) {
            const auto id = parse_u64(value);
            if (!id || *id == 0 || *id > 0xFFFF) continue;
            remember(level, key.substr(prefix.size()),
                     static_cast<std::uint16_t>(*id));
        }
    }
    known_topics_ = meta_.scan_prefix("topics/").size();
}

void TopicMapper::remember(std::size_t level, const std::string& component,
                           std::uint16_t id) const {
    forward_[level][component] = id;
    reverse_[level][id] = component;
    // 0xFFFF + 1 wraps to 0: the level is exhausted.
    if (next_id_[level] != 0 && id >= next_id_[level])
        next_id_[level] = static_cast<std::uint16_t>(id + 1);
}

std::uint16_t TopicMapper::find_id(std::size_t level,
                                   const std::string& component) const {
    const auto it = forward_[level].find(component);
    if (it != forward_[level].end()) return it->second;
    const auto stored = meta_.get(dict_key(level, component));
    if (!stored) return 0;
    const auto id = parse_u64(*stored);
    if (!id || *id == 0 || *id > 0xFFFF)
        throw Error("corrupt SID dictionary entry " +
                    dict_key(level, component));
    remember(level, component, static_cast<std::uint16_t>(*id));
    return static_cast<std::uint16_t>(*id);
}

std::uint16_t TopicMapper::allocate_id(std::size_t level,
                                       const std::string& component) {
    // Reserve an id through its reverse key first, then bind the name
    // through its forward key. Both are put-if-absent, so mappers sharing
    // the MetaStore never hand one id to two names, and the forward key
    // decides which id a name gets. An id reserved by a mapper that lost
    // the forward race stays reserved and unused.
    for (std::uint32_t id = next_id_[level]; id != 0 && id <= 0xFFFF; ++id) {
        const auto holder = meta_.put_if_absent(
            rev_key(level, static_cast<std::uint16_t>(id)), component);
        if (holder && *holder != component) continue;  // id belongs to another
        next_id_[level] = static_cast<std::uint16_t>(id + 1);
        if (!meta_.put_if_absent(dict_key(level, component),
                                 std::to_string(id))) {
            remember(level, component, static_cast<std::uint16_t>(id));
            return static_cast<std::uint16_t>(id);
        }
        return find_id(level, component);  // the concurrent mapper's id
    }
    next_id_[level] = 0;
    throw Error("hierarchy level " + std::to_string(level) +
                " dictionary exhausted");
}

SensorId TopicMapper::to_sid(const std::string& topic) {
    const std::string normalized = normalize_sensor_topic(topic);
    const auto levels = split_nonempty(normalized, '/');
    if (levels.empty()) throw Error("empty sensor topic");
    if (levels.size() > kSidLevels)
        throw Error("topic exceeds " + std::to_string(kSidLevels) +
                    " hierarchy levels: " + topic);

    MutexLock lock(mutex_);
    SensorId sid;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        std::uint16_t id = find_id(i, levels[i]);
        if (id == 0) id = allocate_id(i, levels[i]);
        sid.set_level(i, id);
    }
    const std::string topic_key = "topics/" + normalized;
    if (!meta_.contains(topic_key) &&
        !meta_.put_if_absent(topic_key, sid.hex()))
        ++known_topics_;
    return sid;
}

std::string TopicMapper::to_topic(const SensorId& sid) const {
    MutexLock lock(mutex_);
    std::string out;
    for (std::size_t i = 0; i < kSidLevels; ++i) {
        const std::uint16_t id = sid.level(i);
        if (id == 0) break;
        auto it = reverse_[i].find(id);
        if (it == reverse_[i].end()) {
            // Another mapper may have allocated it: a reverse key only
            // counts when the forward key binds its name back to `id`.
            const auto name = meta_.get(rev_key(i, id));
            if (name && find_id(i, *name) == id) it = reverse_[i].find(id);
        }
        if (it == reverse_[i].end())
            throw Error("unknown SID component at level " +
                        std::to_string(i));
        out.push_back('/');
        out += it->second;
    }
    if (out.empty()) throw Error("SID has no components");
    return out;
}

bool TopicMapper::lookup(const std::string& topic, SensorId& out) const {
    const auto levels = split_nonempty(normalize_sensor_topic(topic), '/');
    if (levels.empty() || levels.size() > kSidLevels) return false;
    MutexLock lock(mutex_);
    SensorId sid;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const std::uint16_t id = find_id(i, levels[i]);
        if (id == 0) return false;
        sid.set_level(i, id);
    }
    out = sid;
    return true;
}

std::size_t TopicMapper::known_topics() const {
    MutexLock lock(mutex_);
    return known_topics_;
}

}  // namespace dcdb
