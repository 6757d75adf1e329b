// Hardware/OS resource counters with tiered graceful fallback.
//
// Tier 1 (kPerfEvent): perf_event_open cycles / instructions / cache and
// branch misses. Containers and CI runners routinely deny the syscall
// (seccomp, perf_event_paranoid), so failure to open any event silently
// drops to tier 2. Tier 2 (kRusage): getrusage + CLOCK_PROCESS_CPUTIME_ID
// — CPU split, faults, context switches, peak RSS; always available on
// POSIX. Tier 3 (kNone): non-POSIX builds; reads return zeros. Collection
// never fails the run — that is the contract bench and CLI code rely on.
//
//   enable_counters();                     // once, openers are process-wide
//   { CounterScope scope(values); ... }    // delta into `values`
//
// The `prof_no_perf` knob (CCG_PROF_NO_PERF=1) forces tier 2, used by CI to
// pin the fallback path.
#pragma once

#include <cstdint>
#include <string>

namespace ccg::obs::prof {

enum class CounterTier {
  kNone = 0,    // no counters at all (non-POSIX)
  kRusage = 1,  // getrusage + process CPU clock
  kPerfEvent = 2,
};

const char* tier_name(CounterTier tier) noexcept;

/// One reading (or delta) of every counter we track. Fields the active
/// tier cannot fill stay zero.
struct CounterValues {
  CounterTier tier = CounterTier::kNone;

  // kPerfEvent only.
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;

  // kRusage and up.
  double cpu_seconds = 0.0;  // CLOCK_PROCESS_CPUTIME_ID
  double cpu_user_seconds = 0.0;
  double cpu_system_seconds = 0.0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;
  std::uint64_t max_rss_bytes = 0;  // absolute high-water mark, not a delta

  /// Instructions per cycle; 0 when either counter is unavailable.
  double ipc() const noexcept {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
};

/// Opens the perf fds (or settles on a fallback tier) once per process.
/// Returns the tier in effect. Idempotent and cheap after the first call.
/// Open this before spawning worker threads: the perf events use
/// inherit=1, which only covers threads created after the fd exists.
CounterTier enable_counters();

CounterTier counter_tier() noexcept;
bool counters_enabled() noexcept;

/// Current absolute reading at the active tier. Zeros at kNone.
CounterValues read_counters() noexcept;

/// The counters' change since `begin` (a read_counters() value).
/// `max_rss_bytes` is the absolute peak now (RSS high-water marks don't
/// subtract meaningfully).
CounterValues since(const CounterValues& begin) noexcept;

/// Delta of the counters across a scope, into `out`. obs::Stage rows
/// flagged as kernels accumulate theirs into `ccg.prof.kernel.<name>.*`.
class CounterScope {
 public:
  explicit CounterScope(CounterValues& out) noexcept
      : out_(out), begin_(read_counters()) {}
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;
  ~CounterScope() { out_ = since(begin_); }

 private:
  CounterValues& out_;
  CounterValues begin_;
};

}  // namespace ccg::obs::prof
