#include "ccg/obs/prof_counters.hpp"

#include <cstring>
#include <map>
#include <mutex>

#include "ccg/obs/config.hpp"
#include "ccg/obs/metrics.hpp"

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

/// Registry instruments for one kernel, resolved once and cached (same
/// pattern as the pool's tag_instruments).
struct KernelInstruments {
  Counter* calls;
  Counter* cycles;
  Counter* instructions;
  Counter* cache_misses;
  Counter* branch_misses;
  Counter* cpu_ns;
};

const KernelInstruments& kernel_instruments(const char* name) {
  static std::mutex mutex;
  static std::map<std::string, KernelInstruments> cache;
  std::lock_guard lock(mutex);
  const auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  Registry& reg = Registry::global();
  const std::string base = std::string("ccg.prof.kernel.") + name;
  KernelInstruments inst{
      &reg.counter(base + ".calls"),
      &reg.counter(base + ".cycles"),
      &reg.counter(base + ".instructions"),
      &reg.counter(base + ".cache_misses"),
      &reg.counter(base + ".branch_misses"),
      &reg.counter(base + ".cpu_ns"),
  };
  return cache.emplace(name, inst).first->second;
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

CounterScope::~CounterScope() {
  const CounterValues end = read_counters();
  out_.tier = end.tier;
  out_.cycles = sub_sat(end.cycles, begin_.cycles);
  out_.instructions = sub_sat(end.instructions, begin_.instructions);
  out_.cache_references =
      sub_sat(end.cache_references, begin_.cache_references);
  out_.cache_misses = sub_sat(end.cache_misses, begin_.cache_misses);
  out_.branch_misses = sub_sat(end.branch_misses, begin_.branch_misses);
  out_.cpu_seconds = end.cpu_seconds - begin_.cpu_seconds;
  out_.cpu_user_seconds = end.cpu_user_seconds - begin_.cpu_user_seconds;
  out_.cpu_system_seconds = end.cpu_system_seconds - begin_.cpu_system_seconds;
  out_.minor_faults = sub_sat(end.minor_faults, begin_.minor_faults);
  out_.major_faults = sub_sat(end.major_faults, begin_.major_faults);
  out_.voluntary_ctx_switches =
      sub_sat(end.voluntary_ctx_switches, begin_.voluntary_ctx_switches);
  out_.involuntary_ctx_switches =
      sub_sat(end.involuntary_ctx_switches, begin_.involuntary_ctx_switches);
  out_.max_rss_bytes = end.max_rss_bytes;
}

KernelCounterScope::KernelCounterScope(const char* name) noexcept
    : name_(name), active_(g_enabled) {
  if (active_) begin_ = read_counters();
}

KernelCounterScope::~KernelCounterScope() {
  if (!active_) return;
  const CounterValues end = read_counters();
  const KernelInstruments& inst = kernel_instruments(name_);
  inst.calls->add(1);
  inst.cycles->add(sub_sat(end.cycles, begin_.cycles));
  inst.instructions->add(sub_sat(end.instructions, begin_.instructions));
  inst.cache_misses->add(sub_sat(end.cache_misses, begin_.cache_misses));
  inst.branch_misses->add(sub_sat(end.branch_misses, begin_.branch_misses));
  const double cpu = end.cpu_seconds - begin_.cpu_seconds;
  if (cpu > 0) inst.cpu_ns->add(static_cast<std::uint64_t>(cpu * 1e9));
}

}  // namespace ccg::obs::prof
