// Counting global operator new, linked only into aquamac_perf_traced so
// the timed binary allocates exactly as a user's program does. Counts are
// process-wide relaxed atomics: exact for serial runs, which are the only
// ones the traced run reads them around.
//
// aquamac-lint: allow-file(shard-shared-mutable) -- the lint reads the
// replacement operator new/new[] declarations below as variables; the
// only shared state here is two std::atomic tallies.

#include <atomic>
#include <cstdlib>
#include <new>

#include "probes.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

namespace aquamac::perf {

AllocSnapshot alloc_snapshot() {
  return {g_allocs.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

bool alloc_counting() { return true; }

}  // namespace aquamac::perf

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
