// Process-wide heap-allocation counter for the smoke gates.
//
// Replaces the global operator new so every allocation, on any thread,
// bumps one relaxed counter; a gate reads bench::heap_allocations()
// around the code it holds allocation-free. A replaced operator new may
// not be inline, so it lives here rather than in bench_util.hpp; link
// this file into each bench binary that calls heap_allocations().
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

namespace dcdb::bench {
std::uint64_t heap_allocations() {
    return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace dcdb::bench

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
    return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
