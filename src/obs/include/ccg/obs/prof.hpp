// Continuous sampling profiler with trace-context attribution.
//
// The paper's COGS claim (§3) is about resource cost per window; spans and
// counters say how long a stage took, this says where the CPU actually
// went. A SIGPROF (CPU time) or SIGALRM (wall time) timer samples the
// process at a fixed rate; each sample captures the sampled thread's
// *profiler frame stack* — the names of its open obs::Stage scopes, pool
// jobs included (`ccg.parallel.job.<kernel>`) — and the ambient
// TraceContext's window trace id. Because the frames mirror the span tree,
// a flamegraph of the folded stacks lines up with `ccgraph trace` output:
// stage frames nest under `ccg.analytics.window`, kernel/pool frames under
// their stage.
//
//   prof::start({.hz = 197});
//   ... run the pipeline ...
//   const prof::Profile p = prof::stop();
//   std::fputs(p.table_text().c_str(), stdout);   // per-stage self/total
//   write(p.folded_text());                        // flamegraph.pl-ready
//
// While no profiler runs, the only cost anywhere is one relaxed atomic
// load per obs::Stage (frames_enabled()). The frame stack is
// maintained with plain per-thread writes ordered by release stores, so
// the signal handler — which always runs on the interrupted thread —
// reads a consistent prefix without locks or allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ccg::obs::prof {

/// Deepest attribution stack a sample keeps. Deeper nesting is truncated
/// at the root end (the leaf frames are what cost attribution needs).
inline constexpr std::size_t kMaxFrames = 24;

namespace detail {
extern std::atomic<bool> g_frames_on;
}  // namespace detail

/// True while a profiler is running; gates every frame push so idle cost
/// is one relaxed load.
inline bool frames_enabled() noexcept {
  return detail::g_frames_on.load(std::memory_order_relaxed);
}

/// Pushes `name` onto the calling thread's attribution stack. `name` must
/// outlive the profile (span names are string literals; pool job names are
/// interned and leaked). Must be balanced with pop_frame() on the same
/// thread. Async-signal-safe with respect to the sampling handler.
void push_frame(const char* name) noexcept;
void pop_frame() noexcept;

namespace detail {

/// RAII frame, tolerant of a null name and of the profiler being off.
/// obs-internal: obs::Stage and obs::Resume push frames.
class FrameScope {
 public:
  explicit FrameScope(const char* name) noexcept
      : pushed_(name != nullptr && frames_enabled()) {
    if (pushed_) push_frame(name);
  }
  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;
  ~FrameScope() {
    if (pushed_) pop_frame();
  }

 private:
  bool pushed_;
};

}  // namespace detail

struct ProfilerOptions {
  /// Samples per second. A prime default avoids lockstep with periodic
  /// work. Clamped to [1, 1000].
  int hz = 197;
  /// false: sample CPU time (ITIMER_PROF/SIGPROF) — samples land on
  /// whichever thread is burning cycles. true: sample wall time
  /// (ITIMER_REAL/SIGALRM) — fires even while the process sleeps, which is
  /// what you want when hunting a stall rather than a hot loop.
  bool wall = false;
  /// Sample buffer size; further samples are counted as dropped.
  std::size_t max_samples = std::size_t{1} << 20;
};

/// One sample: the window the thread was working for and its frame stack,
/// outermost first.
struct Sample {
  std::uint64_t trace_id = 0;
  std::uint32_t depth = 0;
  const char* frames[kMaxFrames] = {};
};

/// Aggregated cost of one frame name across all samples.
struct FrameCost {
  std::string name;
  std::uint64_t self = 0;   // samples with this frame as the leaf
  std::uint64_t total = 0;  // samples with this frame anywhere on the stack
};

/// A completed profiling run.
struct Profile {
  ProfilerOptions options;
  std::vector<Sample> samples;
  std::size_t dropped = 0;
  double duration_seconds = 0.0;

  double seconds_per_sample() const {
    return options.hz > 0 ? 1.0 / options.hz : 0.0;
  }

  /// Folded stacks ("a;b;c" -> sample count), sorted by stack string.
  /// Samples with an empty stack fold to "(untracked)".
  std::vector<std::pair<std::string, std::uint64_t>> folded() const;

  /// Per-frame self/total sample counts, sorted by self descending (ties
  /// by name). This is the `ccgraph profile` cost table.
  std::vector<FrameCost> frame_costs() const;

  /// (window trace id, samples) sorted by trace id; untraced samples under 0.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples_by_window() const;

  /// flamegraph.pl / speedscope "folded" text: one `a;b;c count` per line.
  std::string folded_text() const;

  /// Human-readable self/total table (what `ccgraph profile` prints).
  std::string table_text() const;

  /// JSON export: metadata, per-frame costs, per-window sample counts and
  /// the folded stacks.
  std::string to_json() const;
};

/// Starts the process-wide sampling profiler. Returns false (and changes
/// nothing) when a profiler is already running or the platform lacks
/// setitimer. At most one profiler runs per process.
bool start(const ProfilerOptions& options = {});

/// Stops sampling and returns everything collected. Safe to call when no
/// profiler is running (returns an empty Profile).
Profile stop();

bool running() noexcept;

}  // namespace ccg::obs::prof
