// Per-stage heap accounting via global operator new/delete replacements.
//
// Every allocation is counted twice: into the process totals (always) and
// into the calling thread's installed HeapSink chain (when one is
// installed). Sinks chain through the parent captured at construction, so
// a stage sink nested inside a window sink bills both, and pool workers
// that install the submitting thread's sink bill the same chain from any
// thread. Frees are not tracked per-sink — a sink reports what its scope
// *allocated* (churn), not live bytes; process totals track both sides.
// An obs::Stage whose row bills heap installs its own sink for its scope
// and records the sink's usage into `ccg.prof.heap.<suffix>.*`.
//
// Caveats (documented in docs/OBSERVABILITY.md): only operator new/delete
// traffic is seen (malloc/mmap bypass it); the accounting adds two relaxed
// atomic adds per allocation; under ASan/TSan the replacements would fight
// the sanitizer allocator, so CCG_NO_HEAP_HOOKS compiles them out and
// heap_tracking_available() returns false.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ccg::obs::prof {

struct HeapUsage {
  std::uint64_t bytes = 0;   // bytes allocated (not net of frees)
  std::uint64_t allocs = 0;  // allocation count
};

/// False when the hooks are compiled out (CCG_NO_HEAP_HOOKS, set for
/// sanitizer builds) — callers should then skip heap assertions/reports.
bool heap_tracking_available() noexcept;

/// Process-wide allocation totals since start (allocated side only).
HeapUsage process_heap_totals() noexcept;
/// Process-wide freed side: bytes/allocs passed to operator delete.
HeapUsage process_heap_freed() noexcept;

/// An attribution bucket for allocations. Construction captures the
/// calling thread's current sink as parent; add() recurses up the chain.
class HeapSink {
 public:
  HeapSink();
  HeapSink(const HeapSink&) = delete;
  HeapSink& operator=(const HeapSink&) = delete;

  void add(std::uint64_t bytes) noexcept {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    allocs_.fetch_add(1, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->add(bytes);
  }

  HeapUsage usage() const noexcept {
    return {bytes_.load(std::memory_order_relaxed),
            allocs_.load(std::memory_order_relaxed)};
  }

  HeapSink* parent() const noexcept { return parent_; }

 private:
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> allocs_{0};
  HeapSink* parent_;  // current sink at construction; must outlive this
};

namespace detail {

/// Installs `sink` as the calling thread's attribution target for the
/// scope; restores the previous sink on exit. Null sink = no-op scope
/// (used by pool workers when the submitter had no sink installed).
/// obs-internal: obs::Stage and obs::Resume install sinks.
class HeapSinkScope {
 public:
  explicit HeapSinkScope(HeapSink* sink) noexcept;
  HeapSinkScope(const HeapSinkScope&) = delete;
  HeapSinkScope& operator=(const HeapSinkScope&) = delete;
  ~HeapSinkScope();

 private:
  HeapSink* previous_;
  bool installed_;
};

}  // namespace detail

/// The calling thread's installed sink (null when none). Stage::handoff()
/// captures this so pool workers bill the submitter's chain.
HeapSink* current_heap_sink() noexcept;

}  // namespace ccg::obs::prof
