#include "engine/alloc_counter.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace psra::engine {
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  return p;
}
}  // namespace

std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace psra::engine

// ---- global operator new/delete replacements ------------------------------
// Every operator new signature forwards to the counted primitive above, so
// one counter covers scalar/array, aligned and nothrow forms; every operator
// delete signature forwards to free.

void* operator new(std::size_t size) {
  void* p = psra::engine::CountedAlloc(size, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = psra::engine::CountedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return psra::engine::CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return psra::engine::CountedAlloc(size, 0);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
