// Causal trace propagation and the in-memory trace ring.
//
// A TraceContext names the telemetry window a piece of work belongs to
// (trace id) and the span it nests under (parent span id). The context is
// thread-local; every obs::Stage records a span under the ambient context,
// and the thread pool hands the submitter's context to its workers
// (obs::Stage::handoff / obs::Resume), so spans land in the right window's
// tree wherever they run. Completed spans go to the TraceRing when tracing
// is on.
//
// Trace ids for windows are minted deterministically from the window start
// minute: a live run and a store replay of the same data produce the same
// trace ids, which is what makes their span trees comparable.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ccg/obs/ring.hpp"

namespace ccg::obs {

/// The ambient "what window / which parent span" for the current thread.
/// trace_id 0 means "no trace installed"; span_id 0 means "root of the
/// trace" (spans opened under it have no parent).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool active() const noexcept { return trace_id != 0; }
};

/// The calling thread's current context (all-zero when none installed).
TraceContext current_trace() noexcept;

/// Process-unique span id; never returns 0.
std::uint64_t next_span_id() noexcept;

/// Deterministic trace id for the telemetry window starting at minute
/// `begin_minute` (splitmix64 of the minute index; never 0). Live
/// streaming and store replay of the same window agree on this id.
std::uint64_t window_trace_id(std::int64_t begin_minute) noexcept;

namespace detail {

/// RAII: installs `ctx` for the current thread, restores the previous
/// context on destruction. obs-internal: library code installs a window's
/// trace with obs::Stage(row, begin_minute).
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx) noexcept;
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope();

 private:
  TraceContext prev_;
};

}  // namespace detail

/// One completed span, as kept by the TraceRing.
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;     // steady_clock, process-relative
  std::uint64_t duration_ns = 0;
  std::uint64_t thread_hash = 0;  // std::hash of std::thread::id
  std::uint64_t trace_id = 0;     // owning window trace (0 = untraced work)
  std::uint64_t span_id = 0;      // this span (0 only while tracing is off)
  std::uint64_t parent_id = 0;    // enclosing span (0 = trace root)
};

/// Bounded ring of recent spans. Disabled (capacity 0) by default; the
/// enabled check is a relaxed atomic load so disabled tracing costs one
/// branch per span.
class TraceRing : public Ring<TraceEvent> {
 public:
  static TraceRing& global();

  /// Empties the ring and keeps the next `capacity` spans.
  void enable(std::size_t capacity) {
    reset(capacity);
    enabled_.store(capacity > 0, std::memory_order_relaxed);
  }
  /// Stops recording; retained spans stay readable.
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Oldest-first copy of the retained events.
  std::vector<TraceEvent> events() const { return items(); }

 private:
  std::atomic<bool> enabled_{false};
};

/// TraceRing capacity used when a component enables tracing without an
/// explicit size: the `trace_ring` knob of runtime_config(). Each
/// retained slot is one TraceEvent (~96 bytes + the span-name string), so
/// the default ring holds on the order of 8 MB once warm.
std::size_t default_trace_ring_capacity();

}  // namespace ccg::obs
