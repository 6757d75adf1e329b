// Flight recorder: dump contents, sequence numbering, the watchdog's
// stalled-window detection (the acceptance path: a deliberately stalled
// analytics window must produce a dump holding that window's trace id,
// recent log records and a metrics snapshot), and the crash handler.
//
// Suites here are intentionally NOT named Obs*: they sleep, fork (death
// test) and install signal handlers, none of which belong in the TSan run.
#include "ccg/obs/config.hpp"
#include "ccg/obs/flight.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/stage.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ccg_flight_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<fs::path> dumps_in(const std::string& dir,
                               const std::string& reason) {
  std::vector<fs::path> out;
  const std::string prefix = "ccg-flight-" + reason + "-";
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      out.push_back(entry.path());
    }
  }
  return out;
}

constexpr obs::StageRow kFlightRow{"ccg.test.flight"};

TEST(FlightDump, CombinesLogSpansAndMetrics) {
  const auto dir = fresh_dir("dump");
  obs::TraceRing::global().enable(64);
  obs::LogRing::global().clear();
  const std::uint64_t trace = obs::window_trace_id(42);
  {
    obs::Stage stage(kFlightRow, 42);  // roots window 42's trace
    obs::log_info("evidence line", {obs::field("k", "v")});
  }
  const std::string path =
      obs::dump_flight_record(dir, "test", trace, "window [42, 43)");
  obs::TraceRing::global().disable();
  ASSERT_FALSE(path.empty());

  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"reason\": \"test\""), std::string::npos);
  EXPECT_NE(body.find("\"window_trace\": \""), std::string::npos);
  EXPECT_NE(body.find("\"window_label\": \"window [42, 43)\""),
            std::string::npos);
  EXPECT_NE(body.find("evidence line"), std::string::npos) << "log ring";
  EXPECT_NE(body.find("\"metrics\": {"), std::string::npos);
  // The effective runtime config rides along, one entry per knob.
  const obs::RuntimeConfig& config = obs::runtime_config();
  EXPECT_NE(body.find("\"config\": {"), std::string::npos);
  EXPECT_NE(body.find("\"simd\": \"" + config.simd + " ("), std::string::npos);
  EXPECT_NE(body.find("\"trace_out\": \""), std::string::npos);
  EXPECT_NE(body.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(body.find("ccg.test.flight"), std::string::npos) << "span made it";
  EXPECT_EQ(body.find("\"span_count\": 0"), std::string::npos);
}

TEST(FlightDump, SequenceNumbersNeverClobber) {
  const auto dir = fresh_dir("seq");
  const std::string first = obs::dump_flight_record(dir, "test");
  const std::string second = obs::dump_flight_record(dir, "test");
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_NE(first, second);
  EXPECT_TRUE(fs::exists(first));
  EXPECT_TRUE(fs::exists(second));
}

/// The acceptance scenario: a window whose analysis stalls past the
/// deadline triggers exactly one dump, within the polling budget, holding
/// the window's trace id, the stall log record and a metrics snapshot.
TEST(Watchdog, StalledWindowDumpsFlightRecordWithinDeadline) {
  const auto dir = fresh_dir("stall");
  obs::TraceRing::global().enable(1 << 12);
  obs::LogRing::global().clear();

  Cluster cluster(presets::tiny(), 99);
  TelemetryHub hub(ProviderProfile::azure(), 99);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  AnalyticsService service(
      {.graph = {.facet = GraphFacet::kIp, .window_minutes = 5},
       .training_windows = 1,
       .stall_injection_ms = 400},
      {ips.begin(), ips.end()}, [](const WindowReport&) {});
  hub.set_sink(&service);

  const std::size_t dumps_before = obs::Watchdog::global().dumps();
  obs::Watchdog::global().start(std::chrono::milliseconds(100), dir);
  driver.run(TimeWindow::minutes(0, 5));
  service.flush();  // closes window [0, 5); its analysis sleeps 400 ms
  obs::Watchdog::global().stop();
  obs::TraceRing::global().disable();

  // The 100 ms deadline is polled every 25 ms, so the dump must have landed
  // while deliver() was still sleeping — no waiting needed here.
  ASSERT_EQ(obs::Watchdog::global().dumps(), dumps_before + 1);
  const auto dumps = dumps_in(dir, "stall");
  ASSERT_EQ(dumps.size(), 1u) << "one dump per stalled window";

  const std::string body = slurp(dumps.front());
  char expected_trace[64];
  std::snprintf(expected_trace, sizeof(expected_trace),
                "\"window_trace\": \"0x%llx\"",
                static_cast<unsigned long long>(obs::window_trace_id(0)));
  EXPECT_NE(body.find(expected_trace), std::string::npos)
      << "dump names the stalled window's trace";
  EXPECT_NE(body.find("window stalled past watchdog deadline"),
            std::string::npos)
      << "stall log record captured";
  EXPECT_NE(body.find("\"metrics\": {"), std::string::npos);
  EXPECT_EQ(body.find("\"span_count\": 0,"), std::string::npos)
      << "spans from the run are present";
}

/// After one window stalls and dumps, the next window must get a fresh
/// deadline and a fresh one-dump budget — the watchdog re-arms per window
/// rather than going quiet after its first catch.
TEST(Watchdog, ReArmsAcrossConsecutiveWindows) {
  const auto dir = fresh_dir("rearm");
  const std::size_t dumps_before = obs::Watchdog::global().dumps();
  obs::Watchdog::global().start(std::chrono::milliseconds(80), dir);

  // Window 1: healthy — closed well inside the deadline, no dump.
  obs::Watchdog::global().begin_window(obs::window_trace_id(100), "w100");
  obs::Watchdog::global().end_window();
  EXPECT_EQ(obs::Watchdog::global().dumps(), dumps_before);

  // Windows 2 and 3: each stalls past the deadline; each earns its own dump.
  for (const std::int64_t begin_minute : {200, 300}) {
    obs::Watchdog::global().begin_window(obs::window_trace_id(begin_minute),
                                         "w" + std::to_string(begin_minute));
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    obs::Watchdog::global().end_window();
  }
  obs::Watchdog::global().stop();

  EXPECT_EQ(obs::Watchdog::global().dumps(), dumps_before + 2);
  const auto dumps = dumps_in(dir, "stall");
  ASSERT_EQ(dumps.size(), 2u) << "one dump per stalled window, none extra";

  // Each dump names its own window's trace — evidence isn't recycled.
  std::string bodies;
  for (const auto& path : dumps) bodies += slurp(path);
  for (const std::int64_t begin_minute : {200, 300}) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "\"window_trace\": \"0x%llx\"",
                  static_cast<unsigned long long>(
                      obs::window_trace_id(begin_minute)));
    EXPECT_NE(bodies.find(expected), std::string::npos)
        << "missing dump for window starting at minute " << begin_minute;
  }
}

/// The `<seq>` in ccg-flight-<reason>-<seq>.json is a process-wide counter:
/// successive dumps carry strictly increasing sequence numbers, so sorting
/// by filename is sorting by time and no dump can clobber another.
TEST(FlightDump, SequenceNumbersIncreaseMonotonically) {
  const auto dir = fresh_dir("monoseq");
  std::vector<long> seqs;
  for (int i = 0; i < 3; ++i) {
    const std::string path = obs::dump_flight_record(dir, "test");
    ASSERT_FALSE(path.empty());
    const std::string name = fs::path(path).filename().string();
    // ccg-flight-test-<seq>.json
    const auto dash = name.rfind('-');
    const auto dot = name.rfind(".json");
    ASSERT_NE(dash, std::string::npos);
    ASSERT_NE(dot, std::string::npos);
    seqs.push_back(std::stol(name.substr(dash + 1, dot - dash - 1)));
  }
  EXPECT_LT(seqs[0], seqs[1]);
  EXPECT_LT(seqs[1], seqs[2]);
}

TEST(Watchdog, HealthyWindowsNeverDump) {
  const auto dir = fresh_dir("quiet");
  Cluster cluster(presets::tiny(), 17);
  TelemetryHub hub(ProviderProfile::azure(), 17);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  AnalyticsService service(
      {.graph = {.facet = GraphFacet::kIp, .window_minutes = 5},
       .training_windows = 1},
      {ips.begin(), ips.end()}, [](const WindowReport&) {});
  hub.set_sink(&service);

  const std::size_t dumps_before = obs::Watchdog::global().dumps();
  obs::Watchdog::global().start(std::chrono::milliseconds(2000), dir);
  driver.run(TimeWindow::minutes(0, 10));
  service.flush();
  obs::Watchdog::global().stop();

  EXPECT_EQ(obs::Watchdog::global().dumps(), dumps_before);
  EXPECT_TRUE(dumps_in(dir, "stall").empty());
}

TEST(Watchdog, StartStopIsIdempotent) {
  obs::Watchdog::global().stop();  // no-op when not running
  EXPECT_FALSE(obs::Watchdog::global().running());
  obs::Watchdog::global().start(std::chrono::milliseconds(500), ".");
  EXPECT_TRUE(obs::Watchdog::global().running());
  obs::Watchdog::global().start(std::chrono::milliseconds(700), ".");  // re-arm
  EXPECT_TRUE(obs::Watchdog::global().running());
  obs::Watchdog::global().stop();
  EXPECT_FALSE(obs::Watchdog::global().running());
}

#if GTEST_HAS_DEATH_TEST
TEST(FlightCrashDeathTest, FatalSignalLeavesADump) {
  const auto dir = fresh_dir("crash");
  EXPECT_EXIT(
      {
        obs::install_crash_handler(dir);
        obs::log_error("about to crash");
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  const auto dumps = dumps_in(dir, "signal");
  ASSERT_EQ(dumps.size(), 1u);
  const std::string body = slurp(dumps.front());
  EXPECT_NE(body.find("\"reason\": \"signal\""), std::string::npos);
  EXPECT_NE(body.find("about to crash"), std::string::npos);
  EXPECT_NE(body.find("\"metrics\": {"), std::string::npos);
}
#endif

}  // namespace
}  // namespace ccg
