// Heap counter for the traced run.
//
// The library replaces the global operator new with a malloc-backed one
// (src/obs/profiler.cpp), so a second replacement in this binary would not
// link.  Instead the benchmark's build wraps malloc, calloc and realloc at
// link time (-Wl,--wrap, perfbench/CMakeLists.txt): every heap call of the
// library's objects and this binary lands here.  While counting is off
// the wrapper costs one relaxed load.
#include <atomic>
#include <cstddef>

#include "bench.hpp"

extern "C" {
void* __real_malloc(std::size_t size);
void* __real_calloc(std::size_t count, std::size_t size);
void* __real_realloc(void* ptr, std::size_t size);
}

namespace {

// Constant-initialized, so they are valid before any static constructor
// runs (the wrappers are called during start-up).
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

inline void note(std::size_t bytes) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace

extern "C" {

void* __wrap_malloc(std::size_t size) {
  note(size);
  return __real_malloc(size);
}

void* __wrap_calloc(std::size_t count, std::size_t size) {
  note(count * size);
  return __real_calloc(count, size);
}

void* __wrap_realloc(void* ptr, std::size_t size) {
  note(size);
  return __real_realloc(ptr, size);
}

}  // extern "C"

namespace perfbench {

void set_heap_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

HeapCount heap_count() {
  return HeapCount{g_allocs.load(std::memory_order_relaxed),
                   g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench
