// Shared helpers for the evaluation harness binaries.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/string_utils.hpp"

namespace dcdb::bench {

/// Heap allocations made so far by the whole process, on every thread.
/// Defined in alloc_counter.cpp, which replaces the global operator new;
/// only binaries that link that file may call it.
std::uint64_t heap_allocations();

/// Repetitions per measurement. The paper uses 10; default here is a
/// faster 3, overridable with DCDB_BENCH_REPS.
inline int repetitions(int fallback = 3) {
    if (const char* env = std::getenv("DCDB_BENCH_REPS")) {
        const auto v = parse_i64(env);
        if (v && *v > 0) return static_cast<int>(*v);
    }
    return fallback;
}

/// Scale factor for run durations (DCDB_BENCH_FAST=1 halves them).
inline double duration_scale() {
    if (const char* env = std::getenv("DCDB_BENCH_FAST")) {
        if (std::string(env) == "1") return 0.5;
    }
    return 1.0;
}

/// Scratch directory for store backends, removed on destruction.
class ScratchDir {
  public:
    explicit ScratchDir(const std::string& tag) {
        path_ = std::filesystem::temp_directory_path() /
                ("dcdb_bench_" + tag + "_" + std::to_string(::getpid()));
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
    std::string bar(title.size() + 4, '=');
    std::printf("\n%s\n= %s =\n%s\n(reproduces %s)\n\n", bar.c_str(),
                title.c_str(), bar.c_str(), paper_ref.c_str());
}

}  // namespace dcdb::bench
