#include "ccg/obs/flight.hpp"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>

#include "ccg/obs/config.hpp"
#include "ccg/obs/export.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg::obs {

namespace {

std::atomic<std::uint64_t> g_dump_seq{0};

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

/// Every knob as "value (source)", the way `ccgraph --version` prints it.
std::string config_json(const RuntimeConfig& config) {
  std::string out = "{";
  for (std::size_t i = 0; i < kKnobCount; ++i) {
    out += std::string(i == 0 ? "\n" : ",\n") + "    \"" + knobs()[i].name;
    out += "\": \"";
    json_escape_into(out, value_text(config, knobs()[i]) + " (" +
                              source_name(config.sources[i]) + ")");
    out += "\"";
  }
  return out + "\n  }";
}

std::string log_records_json(const std::vector<LogRecord>& records) {
  std::string out = "[";
  bool first = true;
  for (const LogRecord& r : records) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"level\": \"";
    out += level_name(r.level);
    out += "\", \"ts\": " + std::to_string(static_cast<double>(r.ts_ns) * 1e-9);
    if (r.trace_id != 0) out += ", \"trace\": \"" + hex_id(r.trace_id) + "\"";
    out += ", \"msg\": \"";
    json_escape_into(out, r.message);
    out += "\"";
    for (const LogField& f : r.fields) {
      out += ", \"";
      json_escape_into(out, f.key);
      out += "\": \"";
      json_escape_into(out, f.value);
      out += "\"";
    }
    out += "}";
  }
  out += first ? "]" : "\n  ]";
  return out;
}

// --- crash handlers ----------------------------------------------------------

std::mutex g_crash_mutex;                   // guards g_crash_dir
std::string g_crash_dir;                    // set by install_crash_handler
std::terminate_handler g_prev_terminate = nullptr;
std::atomic<bool> g_handlers_installed{false};

void dump_from_crash(const char* reason) {
  std::string dir;
  {
    std::lock_guard lock(g_crash_mutex);
    dir = g_crash_dir;
  }
  if (!dir.empty()) dump_flight_record(dir, reason);
}

extern "C" void ccg_crash_signal_handler(int sig) {
  // Best effort: the dump allocates and locks, which is formally unsafe in
  // a signal handler, but the alternative is losing the evidence entirely.
  dump_from_crash("signal");
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

[[noreturn]] void ccg_terminate_handler() {
  dump_from_crash("terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

std::string dump_flight_record(const std::string& dir,
                               const std::string& reason,
                               std::uint64_t trace_id,
                               const std::string& label) {
  const std::uint64_t seq = g_dump_seq.fetch_add(1, std::memory_order_relaxed);
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path += "ccg-flight-" + reason + "-" + std::to_string(seq) + ".json";

  TraceRing& ring = TraceRing::global();
  const auto events = ring.events();
  const auto records = LogRing::global().records();

  std::string out = "{\n  \"reason\": \"";
  json_escape_into(out, reason);
  out += "\",\n";
  if (trace_id != 0) {
    out += "  \"window_trace\": \"" + hex_id(trace_id) + "\",\n";
  }
  if (!label.empty()) {
    out += "  \"window_label\": \"";
    json_escape_into(out, label);
    out += "\",\n";
  }
  out += "  \"span_count\": " + std::to_string(events.size()) + ",\n";
  out += "  \"spans_dropped\": " + std::to_string(ring.dropped()) + ",\n";
  out += "  \"log_dropped\": " +
         std::to_string(LogRing::global().dropped()) + ",\n";
  out += "  \"config\": " + config_json(runtime_config()) + ",\n";
  out += "  \"log\": " + log_records_json(records) + ",\n";
  out += "  \"metrics\": " + to_json(Registry::global().snapshot());
  // to_json ends with "}\n"; splice the remaining members in.
  out.pop_back();  // '\n'
  out += ",\n  \"trace\": " + to_trace_json(events, ring.dropped());
  out.pop_back();
  out += "\n}\n";

  std::ofstream file(path);
  if (!file || !(file << out)) return "";
  return path;
}

void install_crash_handler(const std::string& dir) {
  {
    std::lock_guard lock(g_crash_mutex);
    g_crash_dir = dir;
  }
  bool expected = false;
  if (!g_handlers_installed.compare_exchange_strong(expected, true)) return;
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, ccg_crash_signal_handler);
  }
  g_prev_terminate = std::set_terminate(ccg_terminate_handler);
}

Watchdog& Watchdog::global() {
  static Watchdog* instance = new Watchdog();  // leaked: monitor may outlive main
  return *instance;
}

void Watchdog::start(std::chrono::milliseconds deadline, std::string dir) {
  std::unique_lock lock(mutex_);
  deadline_ = deadline;
  dir_ = std::move(dir);
  if (running_) {
    cv_.notify_all();
    return;
  }
  if (monitor_.joinable()) monitor_.join();  // a previously stopped thread
  shutdown_ = false;
  running_ = true;
  monitor_ = std::thread([this] { monitor_loop(); });
}

void Watchdog::stop() {
  std::thread to_join;
  {
    std::unique_lock lock(mutex_);
    if (!running_) return;
    shutdown_ = true;
    cv_.notify_all();
    to_join = std::move(monitor_);
  }
  if (to_join.joinable()) to_join.join();
  std::unique_lock lock(mutex_);
  running_ = false;
  shutdown_ = false;
}

bool Watchdog::running() const {
  std::lock_guard lock(mutex_);
  return running_;
}

void Watchdog::begin_window(std::uint64_t trace_id, std::string label) {
  std::lock_guard lock(mutex_);
  window_open_ = true;
  window_dumped_ = false;
  window_since_ = std::chrono::steady_clock::now();
  window_trace_ = trace_id;
  window_label_ = std::move(label);
}

void Watchdog::end_window() {
  std::lock_guard lock(mutex_);
  window_open_ = false;
}

std::size_t Watchdog::dumps() const {
  std::lock_guard lock(mutex_);
  return dumps_;
}

void Watchdog::monitor_loop() {
  std::unique_lock lock(mutex_);
  while (!shutdown_) {
    // Poll at a quarter of the deadline so a stall is caught within ~1.25x
    // the configured limit.
    const auto poll = deadline_.count() >= 4 ? deadline_ / 4
                                             : std::chrono::milliseconds(1);
    cv_.wait_for(lock, poll);
    if (shutdown_) break;
    if (!window_open_ || window_dumped_) continue;
    const auto open_for = std::chrono::steady_clock::now() - window_since_;
    if (open_for < deadline_) continue;

    window_dumped_ = true;
    const std::uint64_t trace = window_trace_;
    const std::string label = window_label_;
    const std::string dir = dir_;
    const double stalled_s = std::chrono::duration<double>(open_for).count();
    lock.unlock();
    log_error("window stalled past watchdog deadline",
              {field("label", label), field("stalled_seconds", stalled_s)});
    const std::string path = dump_flight_record(dir, "stall", trace, label);
    lock.lock();
    if (!path.empty()) ++dumps_;
  }
}

}  // namespace ccg::obs
