#include "ccg/obs/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "ccg/obs/config.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg::obs {

namespace {

/// Process-relative steady clock: first call pins the epoch, so log and
/// trace timestamps share an origin close to process start.
std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::atomic<int>& stderr_level_storage() {
  static std::atomic<int> level{static_cast<int>(
      parse_level(runtime_config().log_level, LogLevel::kWarn))};
  return level;
}

/// Quotes a value for logfmt rendering when it contains whitespace,
/// quotes, `=`, or a backslash. Control characters are escaped (never
/// emitted raw) so a value can't break the one-record-per-line framing.
void append_value(std::string& out, const std::string& value) {
  const bool needs_quotes =
      value.empty() ||
      value.find_first_of(" \t\n\r\"=\\") != std::string::npos;
  if (!needs_quotes) {
    out += value;
    return;
  }
  out.push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
}

/// Keys are caller-controlled identifiers; anything that would break
/// `key=` framing (whitespace, `=`, quotes) is replaced with `_`.
void append_key(std::string& out, const std::string& key) {
  for (const char c : key) {
    const bool unsafe = c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
                        c == '=' || c == '"' || c == '\\';
    out.push_back(unsafe ? '_' : c);
  }
}

Counter& level_counter(LogLevel level) {
  static Counter* counters[4] = {
      &Registry::global().counter("ccg.log.debug"),
      &Registry::global().counter("ccg.log.info"),
      &Registry::global().counter("ccg.log.warn"),
      &Registry::global().counter("ccg.log.error"),
  };
  return *counters[static_cast<int>(level)];
}

}  // namespace

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

LogLevel parse_level(std::string_view name, LogLevel fallback) noexcept {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  return fallback;
}

LogField field(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return {std::string(key), buf};
}

std::string LogRecord::render() const {
  std::string out = "level=";
  out += level_name(level);
  char buf[64];
  std::snprintf(buf, sizeof(buf), " ts=%.6f",
                static_cast<double>(ts_ns) * 1e-9);
  out += buf;
  if (trace_id != 0) {
    std::snprintf(buf, sizeof(buf), " trace=0x%llx",
                  static_cast<unsigned long long>(trace_id));
    out += buf;
  }
  out += " msg=";
  append_value(out, message);
  for (const LogField& f : fields) {
    out.push_back(' ');
    append_key(out, f.key);
    out.push_back('=');
    append_value(out, f.value);
  }
  return out;
}

LogRing& LogRing::global() {
  static LogRing* instance = [] {
    auto* ring = new LogRing();  // leaked, like the registry
    // Each retained slot owns a LogRecord (~88 bytes + message and field
    // strings); the 1024-record default stays well under 1 MB.
    ring->set_capacity(static_cast<std::size_t>(runtime_config().log_ring));
    return ring;
  }();
  return *instance;
}

LogLevel stderr_level() noexcept {
  return static_cast<LogLevel>(
      stderr_level_storage().load(std::memory_order_relaxed));
}

void set_stderr_level(LogLevel level) noexcept {
  stderr_level_storage().store(static_cast<int>(level),
                               std::memory_order_relaxed);
}

StderrRateLimiter::StderrRateLimiter(double rate_per_sec, double burst)
    : rate_(rate_per_sec), burst_(burst) {
  for (Bucket& b : buckets_) b.tokens = burst_;
}

StderrRateLimiter::Decision StderrRateLimiter::admit(LogLevel level,
                                                     std::uint64_t now_ns) {
  std::lock_guard lock(mutex_);
  Bucket& b = buckets_[static_cast<int>(level)];
  // Refill from elapsed time; a timestamp going backwards (clamped to the
  // last one) just refills nothing, it never drains.
  if (now_ns > b.last_ns) {
    b.tokens = std::min(
        burst_, b.tokens + rate_ * static_cast<double>(now_ns - b.last_ns) * 1e-9);
    b.last_ns = now_ns;
  }
  if (b.tokens < 1.0) {
    ++b.dropped;
    ++suppressed_total_;
    return {false, 0};
  }
  b.tokens -= 1.0;
  Decision d{true, b.dropped};
  b.dropped = 0;
  return d;
}

std::uint64_t StderrRateLimiter::suppressed() const {
  std::lock_guard lock(mutex_);
  return suppressed_total_;
}

namespace {

Counter& stderr_dropped_counter() {
  static Counter* c = &Registry::global().counter("ccg.log.stderr_dropped");
  return *c;
}

/// Runs a record through the threshold + rate limiter and prints it (with
/// an optional extra logfmt tail) when admitted. Shared by the local
/// mirror and the shipped-record mirror.
void mirror_to_stderr(const LogRecord& record, const std::string& tail) {
  const StderrRateLimiter::Decision d =
      stderr_rate_limiter().admit(record.level, record.ts_ns);
  if (!d.mirror) {
    stderr_dropped_counter().add();
    return;
  }
  if (d.recovered > 0) {
    std::fprintf(stderr,
                 "ccg: level=%s msg=\"stderr mirror resumed\" suppressed=%llu\n",
                 level_name(record.level),
                 static_cast<unsigned long long>(d.recovered));
  }
  std::fprintf(stderr, "ccg: %s%s\n", record.render().c_str(), tail.c_str());
}

}  // namespace

StderrRateLimiter& stderr_rate_limiter() {
  static StderrRateLimiter* limiter = [] {
    const double rate = runtime_config().log_stderr_rps;
    return new StderrRateLimiter(rate, 2.0 * rate);  // leaked, like the ring
  }();
  return *limiter;
}

void mirror_shard_record(std::uint32_t shard, const LogRecord& record) {
  if (record.level < stderr_level()) return;
  mirror_to_stderr(record, " shard=" + std::to_string(shard));
}

void log(LogLevel level, std::string_view message,
         std::initializer_list<LogField> fields) {
  LogRecord record;
  record.level = level;
  record.ts_ns = now_ns();
  record.thread_hash = std::hash<std::thread::id>{}(std::this_thread::get_id());
  record.trace_id = current_trace().trace_id;
  record.message = std::string(message);
  record.fields.assign(fields.begin(), fields.end());

  level_counter(level).add();
  if (level >= stderr_level()) {
    mirror_to_stderr(record, "");
  }
  LogRing::global().push(std::move(record));
}

}  // namespace ccg::obs
