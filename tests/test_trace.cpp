// Causal tracing: TraceContext propagation, the TraceRing (wraparound,
// concurrent writers), obs::Stage parenting, the Chrome trace-event JSON
// exporter goldens, and the end-to-end contracts the flight recorder and
// `ccgraph trace` rely on — every parent id exists, window spans cover
// stage spans, and store replay reproduces the live run's span tree.
#include "ccg/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/obs/export.hpp"
#include "ccg/obs/stage.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/store/store.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

namespace fs = std::filesystem;

/// Every test owns the global ring: enable a fresh one on entry, disable
/// and empty it on exit so suites that expect tracing off (the default)
/// are unaffected, also when they run in the same process.
class ObsTraceRingTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::TraceRing::global().enable(kCapacity); }
  void TearDown() override {
    obs::TraceRing::global().disable();
    obs::TraceRing::global().clear();
  }
  static constexpr std::size_t kCapacity = 8;
};

TEST(ObsTraceContext, DefaultIsInactive) {
  EXPECT_FALSE(obs::current_trace().active());
  EXPECT_EQ(obs::current_trace().trace_id, 0u);
}

TEST(ObsTraceContext, ScopeInstallsAndRestores) {
  {
    obs::detail::TraceScope outer({42, 7});
    EXPECT_EQ(obs::current_trace().trace_id, 42u);
    EXPECT_EQ(obs::current_trace().span_id, 7u);
    {
      obs::detail::TraceScope inner({43, 9});
      EXPECT_EQ(obs::current_trace().trace_id, 43u);
    }
    EXPECT_EQ(obs::current_trace().trace_id, 42u);
    EXPECT_EQ(obs::current_trace().span_id, 7u);
  }
  EXPECT_FALSE(obs::current_trace().active());
}

TEST(ObsTraceContext, WindowTraceIdIsDeterministicAndNonZero) {
  EXPECT_EQ(obs::window_trace_id(60), obs::window_trace_id(60));
  EXPECT_NE(obs::window_trace_id(60), obs::window_trace_id(120));
  for (const std::int64_t m : {std::int64_t{0}, std::int64_t{-1},
                               std::int64_t{1} << 40}) {
    EXPECT_NE(obs::window_trace_id(m), 0u) << m;
  }
}

TEST(ObsTraceContext, SpanIdsAreUniqueAcrossThreads) {
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      for (int i = 0; i < kPerThread; ++i) ids[t].push_back(obs::next_span_id());
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> unique;
  for (const auto& v : ids) unique.insert(v.begin(), v.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST_F(ObsTraceRingTest, KeepsNewestEventsOldestFirstOnWrap) {
  for (std::uint64_t i = 0; i < kCapacity + 5; ++i) {
    obs::TraceRing::global().push({.name = "e" + std::to_string(i),
                                   .start_ns = i});
  }
  const auto events = obs::TraceRing::global().events();
  ASSERT_EQ(events.size(), kCapacity);
  EXPECT_EQ(obs::TraceRing::global().dropped(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_ns, 5 + i) << "oldest-first order";
  }
}

TEST_F(ObsTraceRingTest, ConcurrentWritersNeverLoseMoreThanCapacity) {
  constexpr int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::TraceRing::global().push({.name = "c"});
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(obs::TraceRing::global().events().size(), kCapacity);
  EXPECT_EQ(obs::TraceRing::global().dropped(),
            static_cast<std::size_t>(kThreads * kPerThread) - kCapacity);
}

constexpr obs::StageRow kOuterRow{"outer"};
constexpr obs::StageRow kInnerRow{"inner"};
constexpr obs::StageRow kDisabledRow{"ccg.test.disabled"};
constexpr obs::StageRow kTraceTestKernel{"ccg.test.tracetest", obs::kKernel};

TEST_F(ObsTraceRingTest, StagesFormATreeUnderTheAmbientTrace) {
  {
    obs::Stage outer(kOuterRow, 0);  // roots window 0's trace
    obs::Stage inner(kInnerRow);
  }
  const auto events = obs::TraceRing::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inside-out.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].trace_id, obs::window_trace_id(0));
  EXPECT_EQ(events[1].trace_id, obs::window_trace_id(0));
  EXPECT_EQ(events[0].parent_id, events[1].span_id);
  EXPECT_EQ(events[1].parent_id, 0u) << "outer is the trace root";
  EXPECT_NE(events[0].span_id, events[1].span_id);
}

TEST(ObsTraceRing, DisabledSpansRecordNothing) {
  ASSERT_FALSE(obs::TraceRing::global().enabled());
  obs::Histogram& h =
      obs::Registry::global().histogram("ccg.test.disabled.seconds");
  const std::uint64_t before = h.count();
  { obs::Stage stage(kDisabledRow); }
  EXPECT_EQ(h.count(), before + 1) << "histogram still records";
  EXPECT_TRUE(obs::TraceRing::global().events().empty());
}

TEST_F(ObsTraceRingTest, PoolJobsInheritTraceAndCarryTheirTag) {
  // A kernel stage names the jobs submitted inside it after the kernel.
  obs::Stage kernel(kTraceTestKernel, 5);
  std::vector<int> out(64, 0);
  parallel::parallel_for(out.size(), 8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out[i] = 1;
  });
  EXPECT_EQ(std::count(out.begin(), out.end(), 1),
            static_cast<std::ptrdiff_t>(out.size()));

  // On a single hardware thread the pool runs inline and records neither
  // the job span nor the per-kernel histogram — attribution is a pool
  // concern.
  if (parallel::thread_count() <= 1) return;
  const auto events = obs::TraceRing::global().events();
  const auto job = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.name == "ccg.parallel.job.tracetest";
  });
  ASSERT_NE(job, events.end());
  EXPECT_EQ(job->trace_id, obs::window_trace_id(5));
  EXPECT_NE(job->span_id, 0u);
  EXPECT_GT(obs::Registry::global()
                .histogram("ccg.parallel.job.tracetest.seconds")
                .count(),
            0u);
}

// --- exporter goldens -------------------------------------------------------

TEST(ObsTraceExport, EmptyRingIsValidJson) {
  EXPECT_EQ(obs::to_trace_json({}, 0),
            "{\n"
            "  \"displayTimeUnit\": \"ms\",\n"
            "  \"otherData\": {\"dropped\": 0},\n"
            "  \"traceEvents\": []\n"
            "}\n");
}

TEST(ObsTraceExport, GoldenEventFormatting) {
  std::vector<obs::TraceEvent> events;
  events.push_back({.name = "win\"dow",
                    .start_ns = 1500,
                    .duration_ns = 2000,
                    .thread_hash = 0xDEAD,
                    .trace_id = 0xA,
                    .span_id = 0x1,
                    .parent_id = 0});
  events.push_back({.name = "stage",
                    .start_ns = 123456789,
                    .duration_ns = 250,
                    .thread_hash = 0xBEEF,
                    .trace_id = 0xA,
                    .span_id = 0x2,
                    .parent_id = 0x1});
  EXPECT_EQ(obs::to_trace_json(events, 3),
            "{\n"
            "  \"displayTimeUnit\": \"ms\",\n"
            "  \"otherData\": {\"dropped\": 3},\n"
            "  \"traceEvents\": [\n"
            "    {\"name\": \"win\\\"dow\", \"cat\": \"ccg\", \"ph\": \"X\", "
            "\"ts\": 1.500, \"dur\": 2.000, \"pid\": 1, \"tid\": 1, "
            "\"args\": {\"trace\": \"0xa\", \"span\": \"0x1\"}},\n"
            "    {\"name\": \"stage\", \"cat\": \"ccg\", \"ph\": \"X\", "
            "\"ts\": 123456.789, \"dur\": 0.250, \"pid\": 1, \"tid\": 2, "
            "\"args\": {\"trace\": \"0xa\", \"span\": \"0x2\", "
            "\"parent\": \"0x1\"}}\n"
            "  ]\n"
            "}\n");
}

// --- end-to-end structure ---------------------------------------------------

/// Buffered telemetry stream (same shape as test_store's CaptureSink).
struct CaptureSink : TelemetrySink {
  std::vector<std::pair<MinuteBucket, std::vector<ConnectionSummary>>> batches;
  void on_batch(MinuteBucket time,
                const std::vector<ConnectionSummary>& batch) override {
    batches.emplace_back(time, batch);
  }
  void replay_into(TelemetrySink& sink) const {
    for (const auto& [time, batch] : batches) sink.on_batch(time, batch);
  }
};

struct Workload {
  CaptureSink stream;
  std::unordered_set<IpAddr> monitored;
};

Workload simulate_minutes(std::int64_t minutes, std::uint64_t seed) {
  Workload w;
  Cluster cluster(presets::tiny(), seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);
  hub.set_sink(&w.stream);
  driver.run(TimeWindow::minutes(0, minutes));
  const auto ips = cluster.monitored_ips();
  w.monitored = {ips.begin(), ips.end()};
  return w;
}

constexpr std::int64_t kWindowMinutes = 5;

AnalyticsServiceOptions service_options() {
  return {.graph = {.facet = GraphFacet::kIp,
                    .window_minutes = kWindowMinutes,
                    .collapse_threshold = 0.001},
          .training_windows = 2};
}

/// name -> multiset of (parent name) edges, ignoring ids: the structural
/// fingerprint of a window's span tree that live and replayed runs share.
std::multiset<std::pair<std::string, std::string>> tree_shape(
    const std::vector<obs::TraceEvent>& events, std::uint64_t trace_id) {
  std::map<std::uint64_t, std::string> names;
  for (const auto& e : events) {
    if (e.trace_id == trace_id) names[e.span_id] = e.name;
  }
  std::multiset<std::pair<std::string, std::string>> shape;
  for (const auto& e : events) {
    if (e.trace_id != trace_id) continue;
    const auto parent = names.find(e.parent_id);
    shape.emplace(e.name, parent == names.end() ? "" : parent->second);
  }
  return shape;
}

TEST(ObsTraceEndToEnd, WindowSpansCoverStagesAndParentsExist) {
  obs::TraceRing::global().enable(1 << 14);
  const Workload w = simulate_minutes(3 * kWindowMinutes, 11);

  std::size_t reports = 0;
  AnalyticsService service(service_options(), w.monitored,
                           [&](const WindowReport&) { ++reports; });
  obs::TraceRing::global().clear();
  w.stream.replay_into(service);
  service.flush();
  const auto events = obs::TraceRing::global().events();
  obs::TraceRing::global().disable();
  ASSERT_EQ(obs::TraceRing::global().dropped(), 0u) << "ring sized for the run";
  ASSERT_GE(reports, 3u);

  // Every parent id resolves to a span in the same trace.
  std::map<std::uint64_t, const obs::TraceEvent*> by_span;
  for (const auto& e : events) {
    EXPECT_NE(e.span_id, 0u);
    by_span[e.span_id] = &e;
  }
  std::size_t window_spans = 0;
  for (const auto& e : events) {
    if (e.parent_id == 0) continue;
    const auto parent = by_span.find(e.parent_id);
    ASSERT_NE(parent, by_span.end()) << e.name << " has a dangling parent";
    EXPECT_EQ(parent->second->trace_id, e.trace_id) << e.name;
  }
  // Each window root covers its stage spans in time and parents them.
  for (const auto& e : events) {
    if (e.name != "ccg.analytics.window") continue;
    ++window_spans;
    for (const auto& stage : events) {
      if (stage.parent_id != e.span_id) continue;
      EXPECT_GE(stage.start_ns, e.start_ns) << stage.name;
      EXPECT_LE(stage.start_ns + stage.duration_ns, e.start_ns + e.duration_ns)
          << stage.name;
    }
  }
  EXPECT_EQ(window_spans, reports) << "one root span per reported window";
}

TEST(ObsTraceEndToEnd, ReplayFromStoreReproducesTheSpanTree) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ccg_trace_replay_store";
  fs::remove_all(dir);
  fs::create_directories(dir);

  obs::TraceRing::global().enable(1 << 14);
  const Workload w = simulate_minutes(4 * kWindowMinutes, 23);

  // Live run, appending each window to the store.
  auto writer = store::StoreWriter::open(dir.string(), {});
  ASSERT_TRUE(writer.has_value());
  AnalyticsService live(service_options(), w.monitored,
                        [](const WindowReport&) {});
  live.set_store(&*writer);
  obs::TraceRing::global().clear();
  w.stream.replay_into(live);
  live.flush();
  writer->close();
  const auto live_events = obs::TraceRing::global().events();

  // Replay run from the store, fresh service, fresh ring.
  auto reader = store::StoreReader::open(dir.string());
  ASSERT_TRUE(reader.has_value());
  AnalyticsService replayed(service_options(), w.monitored,
                            [](const WindowReport&) {});
  obs::TraceRing::global().clear();
  const std::size_t n = replayed.replay(*reader);
  const auto replay_events = obs::TraceRing::global().events();
  obs::TraceRing::global().disable();
  ASSERT_GE(n, 4u);

  // Same deterministic window trace ids on both sides...
  std::set<std::uint64_t> live_traces, replay_traces;
  for (const auto& e : live_events) {
    if (e.name == "ccg.analytics.window") live_traces.insert(e.trace_id);
  }
  for (const auto& e : replay_events) {
    if (e.name == "ccg.analytics.window") replay_traces.insert(e.trace_id);
  }
  ASSERT_EQ(live_traces, replay_traces);

  // ...and per window, the same parent/child name structure for everything
  // under the analytics root (the live run additionally contains telemetry
  // and store-append spans replay doesn't execute).
  for (const std::uint64_t trace : replay_traces) {
    const auto replay_shape = tree_shape(replay_events, trace);
    auto live_shape = tree_shape(live_events, trace);
    for (const auto& edge : replay_shape) {
      const auto it = live_shape.find(edge);
      ASSERT_NE(it, live_shape.end())
          << "replay span '" << edge.first << "' under '" << edge.second
          << "' missing from live trace";
      live_shape.erase(it);
    }
  }
}

}  // namespace
}  // namespace ccg
