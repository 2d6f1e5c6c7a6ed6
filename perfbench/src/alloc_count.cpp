// Global operator new/delete replacement: counts heap allocations made
// anywhere in the process (enclave, gateway lanes, worker threads)
// while the traced phase has counting switched on. With counting off
// the replacement is a plain malloc/free, so the untraced phase pays
// one predictable branch per allocation.
#include <cstdlib>
#include <new>

#include "bench.hpp"

// Every operator new in this binary routes through std::malloc below,
// so new/delete pairing is globally consistent; GCC's heuristic cannot
// see that once inlining crosses the replacement boundary.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace perfbench {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace perfbench

namespace {
void* counted_alloc(std::size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed))
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
