// alloc_count.cpp - global operator new/delete replacements that count
// lmon_bench's heap allocations (host.allocs / host.alloc_mb). A translation
// unit of its own, so that no caller inlines the malloc/free pairing.
#include <cstdlib>
#include <new>

#include "workloads/common.hpp"

namespace {
lmon::benchmark::AllocCounters g_allocs;
}  // namespace

lmon::benchmark::AllocCounters& lmon::benchmark::alloc_counters() {
  return g_allocs;
}

void* operator new(std::size_t n) {
  g_allocs.count += 1;
  g_allocs.bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
