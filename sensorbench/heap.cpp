// Live-heap accounting for bytes_per_flow: global operator new/delete keep a
// per-thread balance of malloc_usable_size bytes. Per-thread counters keep
// the shard workers' allocations free of a shared contended cache line; the
// bytes_per_flow measurement runs on the main thread alone.
#include <malloc.h>

#include <cstdlib>
#include <new>

#include "sensorbench.h"

namespace {
thread_local std::int64_t t_live_bytes = 0;
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  t_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  t_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

std::int64_t sensorbench::thread_live_heap_bytes() { return t_live_bytes; }
