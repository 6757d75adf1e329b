#include "ccg/obs/prof_counters.hpp"

#include <cstring>
#include <mutex>

#include "ccg/obs/config.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CCG_PROF_HAVE_RUSAGE 1
#include <sys/resource.h>
#include <time.h>
#else
#define CCG_PROF_HAVE_RUSAGE 0
#endif

#if defined(__linux__)
#define CCG_PROF_HAVE_PERF 1
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace ccg::obs::prof {

namespace {

struct PerfFds {
  int cycles = -1;
  int instructions = -1;
  int cache_references = -1;
  int cache_misses = -1;
  int branch_misses = -1;
};

CounterTier g_tier = CounterTier::kNone;
bool g_enabled = false;
PerfFds g_perf;
std::once_flag g_enable_once;

#if defined(CCG_PROF_HAVE_PERF)
int open_perf_event(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = type;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // Threads spawned after the open inherit the counter, which is why
  // enable_counters() must run before the pool comes up.
  attr.inherit = 1;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0 /* this process */, -1 /* any cpu */,
              -1 /* no group: inherit forbids grouped reads */, 0));
}

std::uint64_t read_perf(int fd) noexcept {
  if (fd < 0) return 0;
  std::uint64_t value = 0;
  if (read(fd, &value, sizeof(value)) != sizeof(value)) return 0;
  return value;
}

bool open_all_perf() {
  g_perf.cycles =
      open_perf_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  if (g_perf.cycles < 0) return false;  // syscall denied or no PMU
  g_perf.instructions =
      open_perf_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
  g_perf.cache_references =
      open_perf_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES);
  g_perf.cache_misses =
      open_perf_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES);
  g_perf.branch_misses =
      open_perf_event(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES);
  return true;
}
#endif  // CCG_PROF_HAVE_PERF

#if CCG_PROF_HAVE_RUSAGE
double timeval_seconds(const timeval& tv) noexcept {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

void fill_rusage(CounterValues& v) noexcept {
  rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    v.cpu_user_seconds = timeval_seconds(usage.ru_utime);
    v.cpu_system_seconds = timeval_seconds(usage.ru_stime);
    v.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
    v.major_faults = static_cast<std::uint64_t>(usage.ru_majflt);
    v.voluntary_ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw);
    v.involuntary_ctx_switches = static_cast<std::uint64_t>(usage.ru_nivcsw);
#if defined(__APPLE__)
    v.max_rss_bytes = static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes
#else
    v.max_rss_bytes = static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB
#endif
  }
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    v.cpu_seconds =
        static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
}
#endif  // CCG_PROF_HAVE_RUSAGE

std::uint64_t sub_sat(std::uint64_t a, std::uint64_t b) noexcept {
  return a > b ? a - b : 0;
}

}  // namespace

const char* tier_name(CounterTier tier) noexcept {
  switch (tier) {
    case CounterTier::kPerfEvent:
      return "perf_event";
    case CounterTier::kRusage:
      return "rusage";
    case CounterTier::kNone:
      return "none";
  }
  return "none";
}

CounterTier enable_counters() {
  std::call_once(g_enable_once, [] {
    g_enabled = true;
    g_tier = CounterTier::kNone;
#if CCG_PROF_HAVE_RUSAGE
    g_tier = CounterTier::kRusage;
#endif
#if defined(CCG_PROF_HAVE_PERF)
    if (!runtime_config().prof_no_perf && open_all_perf()) {
      g_tier = CounterTier::kPerfEvent;
    }
#endif
  });
  return g_tier;
}

CounterTier counter_tier() noexcept { return g_tier; }

bool counters_enabled() noexcept { return g_enabled; }

CounterValues read_counters() noexcept {
  CounterValues v;
  v.tier = g_tier;
  if (!g_enabled) return v;
#if CCG_PROF_HAVE_RUSAGE
  fill_rusage(v);
#endif
#if defined(CCG_PROF_HAVE_PERF)
  if (g_tier == CounterTier::kPerfEvent) {
    v.cycles = read_perf(g_perf.cycles);
    v.instructions = read_perf(g_perf.instructions);
    v.cache_references = read_perf(g_perf.cache_references);
    v.cache_misses = read_perf(g_perf.cache_misses);
    v.branch_misses = read_perf(g_perf.branch_misses);
  }
#endif
  return v;
}

CounterValues since(const CounterValues& begin) noexcept {
  const CounterValues end = read_counters();
  CounterValues d;
  d.tier = end.tier;
  d.cycles = sub_sat(end.cycles, begin.cycles);
  d.instructions = sub_sat(end.instructions, begin.instructions);
  d.cache_references = sub_sat(end.cache_references, begin.cache_references);
  d.cache_misses = sub_sat(end.cache_misses, begin.cache_misses);
  d.branch_misses = sub_sat(end.branch_misses, begin.branch_misses);
  d.cpu_seconds = end.cpu_seconds - begin.cpu_seconds;
  d.cpu_user_seconds = end.cpu_user_seconds - begin.cpu_user_seconds;
  d.cpu_system_seconds = end.cpu_system_seconds - begin.cpu_system_seconds;
  d.minor_faults = sub_sat(end.minor_faults, begin.minor_faults);
  d.major_faults = sub_sat(end.major_faults, begin.major_faults);
  d.voluntary_ctx_switches =
      sub_sat(end.voluntary_ctx_switches, begin.voluntary_ctx_switches);
  d.involuntary_ctx_switches =
      sub_sat(end.involuntary_ctx_switches, begin.involuntary_ctx_switches);
  d.max_rss_bytes = end.max_rss_bytes;
  return d;
}

}  // namespace ccg::obs::prof
