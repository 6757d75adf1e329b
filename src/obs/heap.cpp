#include "ccg/obs/heap.hpp"

#include <cstdlib>
#include <new>

// The operator new/delete replacements live in the SAME translation unit
// as the sink API every caller links against: a static-library TU is only
// pulled in when something references a symbol in it, and the replacements
// themselves are never referenced by name.

namespace ccg::obs::prof {

namespace {

std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_free_bytes{0};
std::atomic<std::uint64_t> g_free_count{0};

thread_local HeapSink* tls_sink = nullptr;

#if !defined(CCG_NO_HEAP_HOOKS)
inline void note_alloc(std::size_t size) noexcept {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  HeapSink* sink = tls_sink;
  if (sink != nullptr) sink->add(size);
}

inline void note_free(std::size_t size) noexcept {
  g_free_bytes.fetch_add(size, std::memory_order_relaxed);
  g_free_count.fetch_add(1, std::memory_order_relaxed);
}
#endif

}  // namespace

bool heap_tracking_available() noexcept {
#if defined(CCG_NO_HEAP_HOOKS)
  return false;
#else
  return true;
#endif
}

HeapUsage process_heap_totals() noexcept {
  return {g_alloc_bytes.load(std::memory_order_relaxed),
          g_alloc_count.load(std::memory_order_relaxed)};
}

HeapUsage process_heap_freed() noexcept {
  return {g_free_bytes.load(std::memory_order_relaxed),
          g_free_count.load(std::memory_order_relaxed)};
}

HeapSink::HeapSink() : parent_(tls_sink) {}

detail::HeapSinkScope::HeapSinkScope(HeapSink* sink) noexcept
    : previous_(tls_sink), installed_(sink != nullptr) {
  if (installed_) tls_sink = sink;
}

detail::HeapSinkScope::~HeapSinkScope() {
  if (installed_) tls_sink = previous_;
}

HeapSink* current_heap_sink() noexcept { return tls_sink; }

}  // namespace ccg::obs::prof

#if !defined(CCG_NO_HEAP_HOOKS)

namespace {

void* tracked_alloc(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  while (p == nullptr) {
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
    p = std::malloc(size != 0 ? size : 1);
  }
  ccg::obs::prof::note_alloc(size);
  return p;
}

void* tracked_alloc_nothrow(std::size_t size) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr) ccg::obs::prof::note_alloc(size);
  return p;
}

void* tracked_aligned_alloc(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (align < alignof(void*)) align = alignof(void*);
  while (posix_memalign(&p, align, size != 0 ? size : align) != 0) {
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
  ccg::obs::prof::note_alloc(size);
  return p;
}

void* tracked_aligned_alloc_nothrow(std::size_t size,
                                    std::size_t align) noexcept {
  void* p = nullptr;
  if (align < alignof(void*)) align = alignof(void*);
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) return nullptr;
  ccg::obs::prof::note_alloc(size);
  return p;
}

void tracked_free(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  ccg::obs::prof::note_free(size);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return tracked_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return tracked_alloc_nothrow(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return tracked_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return tracked_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return tracked_aligned_alloc_nothrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return tracked_aligned_alloc_nothrow(size, static_cast<std::size_t>(align));
}

// Unsized deletes bill 0 bytes (the size is unknown without per-block
// headers); sized deletes — what containers and scalar deletes emit under
// C++14+ — carry the real figure, so freed-bytes totals are close, not
// exact.
void operator delete(void* p) noexcept { tracked_free(p, 0); }
void operator delete[](void* p) noexcept { tracked_free(p, 0); }
void operator delete(void* p, std::size_t size) noexcept {
  tracked_free(p, size);
}
void operator delete[](void* p, std::size_t size) noexcept {
  tracked_free(p, size);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p, 0);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p, 0);
}
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p, 0); }
void operator delete[](void* p, std::align_val_t) noexcept {
  tracked_free(p, 0);
}
void operator delete(void* p, std::size_t size, std::align_val_t) noexcept {
  tracked_free(p, size);
}
void operator delete[](void* p, std::size_t size, std::align_val_t) noexcept {
  tracked_free(p, size);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  tracked_free(p, 0);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  tracked_free(p, 0);
}

#endif  // !CCG_NO_HEAP_HOOKS
