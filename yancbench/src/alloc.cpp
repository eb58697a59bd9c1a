// Replacement global operator new/delete that count allocations per
// thread.  Counting is switched on only for traced runs; untraced runs
// pay one predictable branch on top of malloc.
#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

std::atomic<bool> g_counting{false};
thread_local yb::alloc::Count t_count;

inline void note(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    ++t_count.count;
    t_count.bytes += size;
  }
}

void* allocate(std::size_t size) {
  note(size);
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (!handler) throw std::bad_alloc();
    handler();
  }
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  note(size);
  auto a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  std::size_t rounded = (size + a - 1) / a * a;
  if (rounded == 0) rounded = a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    std::new_handler handler = std::get_new_handler();
    if (!handler) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

namespace yb::alloc {
void enable(bool on) { g_counting.store(on, std::memory_order_relaxed); }
Count thread_count() { return t_count; }
}  // namespace yb::alloc

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
