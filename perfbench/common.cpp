#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>

namespace perfbench {

namespace {

const char* const kSensorNames[] = {"power", "temp", "freq", "util",
                                    "energy"};

}  // namespace

std::vector<std::string> per_sensor_topics(std::uint64_t seed) {
    const std::string site = site_name(seed, "ps");
    std::vector<std::string> out;
    out.reserve(kPsHosts * kPsNodes * kPsSensors);
    for (int h = 0; h < kPsHosts; ++h)
        for (int n = 0; n < kPsNodes; ++n)
            for (int s = 0; s < kPsSensors; ++s)
                out.push_back(site + "/h" + std::to_string(h) + "/n" +
                              std::to_string(n) + "/" + kSensorNames[s % 5] +
                              std::to_string(s / 5));
    return out;
}

std::vector<std::string> dashboard_topics(std::uint64_t seed) {
    const std::string site = site_name(seed, "db");
    std::vector<std::string> out;
    out.reserve(kDbSensors);
    for (int i = 0; i < kDbSensors; ++i)
        out.push_back(site + "/r" + std::to_string(i / 100) + "/n" +
                      std::to_string(i / 10 % 10) + "/" +
                      kSensorNames[i % 5] + std::to_string(i % 10 / 5));
    return out;
}

std::vector<std::string> writer_topics(std::uint64_t seed) {
    const std::string site = site_name(seed, "wr");
    std::vector<std::string> out;
    out.reserve(kDbWriterSensors);
    for (int i = 0; i < kDbWriterSensors; ++i)
        out.push_back(site + "/n" + std::to_string(i / 10) + "/" +
                      kSensorNames[i % 5] + std::to_string(i % 10));
    return out;
}

std::string pusher_prefix(std::uint64_t seed, int segment) {
    return site_name(seed, "pu") + "/seg" + std::to_string(segment);
}

std::vector<std::string> pusher_topics(const std::string& prefix) {
    // The tester plugin's naming: <prefix>/tester/<group>/s<i>.
    std::vector<std::string> out;
    out.reserve(kPuGroups * kPuSensorsPerGroup);
    for (int g = 0; g < kPuGroups; ++g)
        for (int s = 0; s < kPuSensorsPerGroup; ++s)
            out.push_back(prefix + "/tester/g" + std::to_string(g) + "/s" +
                          std::to_string(s));
    return out;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= values.size()) return values.back();
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[lo + 1] - values[lo]);
}

bool parse_query_csv(std::string_view body, std::string_view topic,
                     std::vector<Reading>& out) {
    out.clear();
    while (!body.empty()) {
        const std::size_t eol = body.find('\n');
        const std::string_view line = body.substr(0, eol);
        body = eol == std::string_view::npos ? std::string_view{}
                                             : body.substr(eol + 1);
        if (line.empty()) continue;
        const std::size_t c2 = line.rfind(',');
        if (c2 == std::string_view::npos || c2 == 0) return false;
        const std::size_t c1 = line.rfind(',', c2 - 1);
        if (c1 == std::string_view::npos || line.substr(0, c1) != topic)
            return false;
        Reading r{};
        const char* ts_end = line.data() + c2;
        const char* v_end = line.data() + line.size();
        const auto ts_res = std::from_chars(line.data() + c1 + 1, ts_end, r.ts);
        const auto v_res = std::from_chars(line.data() + c2 + 1, v_end, r.value);
        if (ts_res.ec != std::errc{} || ts_res.ptr != ts_end ||
            v_res.ec != std::errc{} || v_res.ptr != v_end)
            return false;
        out.push_back(r);
    }
    return true;
}

std::vector<std::string> words(const std::string& line) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && line[i] == ' ') ++i;
        const std::size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\n') ++i;
        if (i > start) out.push_back(line.substr(start, i - start));
        if (i < line.size() && line[i] == '\n') break;
    }
    return out;
}

std::uint64_t process_cpu_ns() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv_ns = [](const timeval& tv) {
        return static_cast<std::uint64_t>(tv.tv_sec) * kNsPerSec +
               static_cast<std::uint64_t>(tv.tv_usec) * 1000;
    };
    return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

std::uint64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * kNsPerSec +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t status_kb(const char* field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0) continue;
        std::uint64_t v = 0;
        std::size_t i = key.size();
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
        std::from_chars(line.data() + i, line.data() + line.size(), v);
        return v;
    }
    return 0;
}

int thread_count() { return static_cast<int>(status_kb("Threads")); }

std::uint64_t dir_bytes(const std::string& dir) {
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec)) total += entry.file_size(ec);
    }
    return total;
}

}  // namespace perfbench
