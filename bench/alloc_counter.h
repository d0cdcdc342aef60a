// Host-side heap-allocation counter for the benches: replaces the global
// operator new/delete so every allocation in the program bumps one
// counter. Replacement functions may be defined only once per program, so
// include this header from exactly one translation unit — each bench is a
// single .cpp.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace agilla::bench {

inline std::atomic<unsigned long long> g_allocs{0};

/// Heap allocations so far; take differences around a measured stretch.
inline unsigned long long allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace agilla::bench

// noinline: letting GCC inline one half of a replaced new/delete pair
// trips false -Wmismatched-new-delete / -Wfree-nonheap-object warnings.
[[gnu::noinline]] void* operator new(std::size_t size) {
  agilla::bench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
