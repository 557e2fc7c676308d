// Heap-allocation counting for the replay pass: the global operator new
// of this binary bumps a per-thread counter, so a single-threaded replay
// loop reads its own allocations without seeing other threads' traffic.
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

namespace perfbench {
std::uint64_t thread_allocations() { return t_allocations; }
}  // namespace perfbench

void* operator new(std::size_t size) {
    ++t_allocations;
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    ++t_allocations;
    return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
    return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
