// Flight recorder: durable failure evidence for the streaming pipeline.
//
// dump_flight_record() writes one JSON file combining the three in-memory
// diagnostics — recent log records (LogRing), recent spans (TraceRing, when
// tracing is on), and a full metrics snapshot — stamped with a reason and
// the trace id of the window under suspicion. Two producers call it:
//
//  - install_crash_handler(): SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL and
//    std::terminate handlers that dump before re-raising, so a crashed run
//    leaves its last moments on disk. (The dump path allocates and takes
//    locks — not strictly async-signal-safe, but the process is dying
//    anyway; best-effort evidence beats none.)
//
//  - Watchdog: a monitor thread armed with a stall deadline. The pipeline
//    brackets each window with begin_window()/end_window(); a window still
//    open past the deadline triggers one dump tagged with that window's
//    trace id. Deadline and dump directory come from the caller (ccgraph
//    reads the `watchdog_ms` and `flight_dir` knobs of runtime_config()).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace ccg::obs {

/// Writes `<dir>/ccg-flight-<reason>-<seq>.json` with the reason, the
/// suspect window (trace id + label, when given), the log ring, a metrics
/// snapshot, and the trace ring. Returns the path written, or "" on I/O
/// failure. `seq` is a process-wide counter, so repeated dumps never
/// clobber each other.
std::string dump_flight_record(const std::string& dir,
                               const std::string& reason,
                               std::uint64_t trace_id = 0,
                               const std::string& label = "");

/// Installs fatal-signal and std::terminate handlers that dump a flight
/// record ("signal" / "terminate") to `dir` and then re-raise. Idempotent;
/// the latest `dir` wins.
void install_crash_handler(const std::string& dir);

/// Stall detector for window processing. One global instance; all methods
/// are thread-safe. begin/end cost one mutex acquisition each and are
/// no-ops while the watchdog is not started.
class Watchdog {
 public:
  static Watchdog& global();

  /// Starts (or re-arms) the monitor thread: any window open longer than
  /// `deadline` gets one flight-record dump into `dir`.
  void start(std::chrono::milliseconds deadline, std::string dir);
  /// Stops the monitor thread; open-window state is kept.
  void stop();
  bool running() const;

  /// Marks a window as in progress. Nested begins overwrite (the watchdog
  /// tracks the innermost window).
  void begin_window(std::uint64_t trace_id, std::string label);
  void end_window();

  /// Flight records written by this watchdog since process start.
  std::size_t dumps() const;

 private:
  Watchdog() = default;
  void monitor_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::thread monitor_;
  bool running_ = false;
  bool shutdown_ = false;
  std::chrono::milliseconds deadline_{0};
  std::string dir_;

  bool window_open_ = false;
  bool window_dumped_ = false;  // one dump per stalled window
  std::chrono::steady_clock::time_point window_since_;
  std::uint64_t window_trace_ = 0;
  std::string window_label_;
  std::size_t dumps_ = 0;
};

}  // namespace ccg::obs
