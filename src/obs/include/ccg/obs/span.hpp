// Scoped span timing: RAII timers that feed latency histograms in the
// global registry, plus an optional in-memory trace ring for post-mortem
// "what ran when" inspection.
//
//   void merge() {
//     CCG_OBS_SPAN("ccg.dist.agg.window_merge");
//     ...                       // records into ccg.dist.agg.window_merge.seconds
//   }
//
// The macro resolves its histogram once per call site (magic static), so
// steady state is two steady_clock reads and one Histogram::record. When
// the TraceRing is disabled (default) spans skip it entirely.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ccg/obs/metrics.hpp"
#include "ccg/obs/prof.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg::obs {

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
class TraceRing {
 public:
  static TraceRing& global();

  void enable(std::size_t capacity);
  void disable();
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  void push(TraceEvent event);

  /// Oldest-first copy of the retained events.
  std::vector<TraceEvent> events() const;
  std::size_t dropped() const;
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;      // ring write cursor
  std::size_t dropped_ = 0;   // events overwritten
};

/// Times its scope into a latency histogram (and the TraceRing when on).
/// While tracing is enabled the span also mints a span id, records the
/// ambient TraceContext as its parent, and installs itself as the current
/// parent for its scope — nested spans (even on other threads, via
/// TraceScope handoff) form a tree without any caller involvement.
class ScopedSpan {
 public:
  explicit ScopedSpan(Histogram& histogram, const char* name = "") noexcept
      : histogram_(&histogram),
        name_(name),
        start_(std::chrono::steady_clock::now()) {
    if (TraceRing::global().enabled()) open_trace();
    if (prof::frames_enabled() && name != nullptr && name[0] != '\0') {
      prof_framed_ = true;
      prof::push_frame(name);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Seconds since construction, without closing the span.
  double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  ~ScopedSpan();

 private:
  void open_trace() noexcept;

  Histogram* histogram_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  TraceContext parent_;         // ambient context at construction
  std::uint64_t span_id_ = 0;   // nonzero iff traced_
  bool traced_ = false;
  bool prof_framed_ = false;    // pushed onto the profiler frame stack
};

/// TraceRing capacity used when a component enables tracing without an
/// explicit size: the `trace_ring` knob of runtime_config(). Each
/// retained slot is one TraceEvent (~96 bytes + the span-name string), so
/// the default ring holds on the order of 8 MB once warm.
std::size_t default_trace_ring_capacity();

/// Default bucket layout for latency histograms: 1 µs first bucket,
/// doubling, top finite bucket ≈ 17 minutes.
inline HistogramOptions latency_buckets() { return HistogramOptions{}; }

/// Registers (once) and returns the `<name>.seconds` latency histogram.
Histogram& span_histogram(std::string_view name);

}  // namespace ccg::obs

#define CCG_OBS_CONCAT_INNER(a, b) a##b
#define CCG_OBS_CONCAT(a, b) CCG_OBS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope into `<name>.seconds` in the
/// global registry. `name` must be a string literal (it is kept by
/// reference for trace events).
#define CCG_OBS_SPAN(name)                                              \
  static ::ccg::obs::Histogram& CCG_OBS_CONCAT(ccg_obs_span_hist_,      \
                                               __LINE__) =              \
      ::ccg::obs::span_histogram(name);                                 \
  ::ccg::obs::ScopedSpan CCG_OBS_CONCAT(ccg_obs_span_, __LINE__)(       \
      CCG_OBS_CONCAT(ccg_obs_span_hist_, __LINE__), name)
