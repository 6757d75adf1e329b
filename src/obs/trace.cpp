#include "ccg/obs/trace.hpp"

#include "ccg/obs/config.hpp"

namespace ccg::obs {

namespace {

thread_local TraceContext tls_trace;

std::atomic<std::uint64_t> g_next_span_id{1};

/// splitmix64 finalizer: full-avalanche mix so adjacent window minutes get
/// unrelated-looking trace ids.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

TraceContext current_trace() noexcept { return tls_trace; }

detail::TraceScope::TraceScope(TraceContext ctx) noexcept : prev_(tls_trace) {
  tls_trace = ctx;
}

detail::TraceScope::~TraceScope() { tls_trace = prev_; }

std::uint64_t next_span_id() noexcept {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t window_trace_id(std::int64_t begin_minute) noexcept {
  const std::uint64_t id = mix64(static_cast<std::uint64_t>(begin_minute));
  return id != 0 ? id : 1;
}

std::size_t default_trace_ring_capacity() {
  return static_cast<std::size_t>(runtime_config().trace_ring);
}

TraceRing& TraceRing::global() {
  static TraceRing* instance = new TraceRing();  // leaked, like the registry
  return *instance;
}

}  // namespace ccg::obs
