// Counting replacement of the global allocation functions. Every operator
// new variant funnels into counted_alloc; deletes go straight to free.
#include "alloc_count.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p != nullptr) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return p;
}

void* throwing_alloc(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

namespace perfbench {

AllocSnapshot alloc_snapshot() {
  return {g_count.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void* operator new(std::size_t size) { return throwing_alloc(size, kDefaultAlign); }
void* operator new[](std::size_t size) { return throwing_alloc(size, kDefaultAlign); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kDefaultAlign);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return throwing_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return throwing_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
