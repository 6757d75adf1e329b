// Continuous profiler: frame-stack attribution, CPU/wall sampling, folded
// and JSON export, hardware-counter tiers, and per-stage heap accounting.
//
// Suites are intentionally NOT named Obs*: the sampler installs signal
// handlers and timers that do not belong in the TSan run (each suite here
// is its own ctest process, so process-global profiler state is safe).
#include "ccg/obs/prof.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/obs/heap.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/prof_counters.hpp"
#include "ccg/obs/stage.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

namespace prof = obs::prof;

/// Publishes a pointer through a volatile global so the optimizer cannot
/// elide the new/delete pair that produced it (C++14 allocation elision
/// would otherwise skip the heap hooks entirely).
const void* volatile escaped_pointer = nullptr;

void escape_pointer(const void* p) { escaped_pointer = p; }

/// Burns CPU until `seconds` of wall time pass (the work is real, so CPU
/// time advances roughly in step while spinning).
void busy_loop(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  volatile double sink = 0.0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  }
}

constexpr obs::StageRow kOuterRow{"ccg.test.prof.outer"};
constexpr obs::StageRow kInnerRow{"ccg.test.prof.inner"};
constexpr obs::StageRow kSleepyRow{"ccg.test.prof.sleepy"};
constexpr obs::StageRow kKernelRow{"ccg.test.test_kernel", obs::kKernel};

TEST(ProfFrames, FrameScopeIsInertWhileProfilerIsOff) {
  ASSERT_FALSE(prof::frames_enabled());
  prof::detail::FrameScope null_frame(nullptr);
  prof::detail::FrameScope named_frame("ccg.test.frame");
  // Nothing observable to assert beyond "does not crash / does not leak a
  // frame": start a profiler afterwards and confirm the stack is empty.
  ASSERT_TRUE(prof::start({.hz = 101}));
  busy_loop(0.05);
  const prof::Profile profile = prof::stop();
  for (const auto& [stack, count] : profile.folded()) {
    EXPECT_EQ(stack, "(untracked)") << "frame leaked from disabled scope";
  }
}

TEST(ProfSampling, StartIsExclusiveAndStopIsIdempotent) {
  EXPECT_FALSE(prof::running());
  EXPECT_EQ(prof::stop().samples.size(), 0u);  // stop without start: empty
  ASSERT_TRUE(prof::start({.hz = 101}));
  EXPECT_TRUE(prof::running());
  EXPECT_FALSE(prof::start({.hz = 101})) << "second profiler must be refused";
  const prof::Profile profile = prof::stop();
  EXPECT_FALSE(prof::running());
  EXPECT_GT(profile.duration_seconds, 0.0);
  EXPECT_EQ(profile.options.hz, 101);
}

TEST(ProfSampling, CpuSamplesAttributeNestedSpans) {
  ASSERT_TRUE(prof::start({.hz = 757}));
  {
    obs::Stage outer(kOuterRow, 7);  // roots window 7's trace
    busy_loop(0.15);
    {
      obs::Stage inner(kInnerRow);
      busy_loop(0.15);
    }
  }
  const prof::Profile profile = prof::stop();
  ASSERT_GT(profile.samples.size(), 0u) << "no CPU samples in 300 ms of spin";

  // Folded stacks mirror span nesting: inner only ever appears under outer.
  bool saw_nested = false;
  for (const auto& [stack, count] : profile.folded()) {
    if (stack.find("ccg.test.prof.inner") != std::string::npos) {
      EXPECT_EQ(stack, "ccg.test.prof.outer;ccg.test.prof.inner");
      saw_nested = true;
    }
  }

  std::uint64_t outer_total = 0, inner_total = 0, outer_self = 0;
  for (const prof::FrameCost& cost : profile.frame_costs()) {
    if (cost.name == "ccg.test.prof.outer") {
      outer_total = cost.total;
      outer_self = cost.self;
    }
    if (cost.name == "ccg.test.prof.inner") inner_total = cost.total;
  }
  EXPECT_GT(outer_total, 0u);
  EXPECT_GE(outer_total, inner_total) << "parent total covers child samples";
  if (saw_nested) {
    EXPECT_GT(inner_total, 0u);
  }
  EXPECT_EQ(outer_self + inner_total, outer_total)
      << "self + nested child = total for a two-frame tree";

  // Every in-span sample carries the window's trace id.
  bool saw_window = false;
  for (const auto& [trace_id, count] : profile.samples_by_window()) {
    EXPECT_TRUE(trace_id == 0 || trace_id == obs::window_trace_id(7));
    if (trace_id == obs::window_trace_id(7)) saw_window = true;
  }
  EXPECT_TRUE(saw_window);

  // Exports agree with the aggregates.
  const std::string folded = profile.folded_text();
  EXPECT_NE(folded.find("ccg.test.prof.outer"), std::string::npos);
  const std::string table = profile.table_text();
  EXPECT_NE(table.find("ccg.test.prof.outer"), std::string::npos);
  EXPECT_NE(table.find("self(s)"), std::string::npos);
  const std::string json = profile.to_json();
  EXPECT_NE(json.find("\"mode\": \"cpu\""), std::string::npos);
  EXPECT_NE(json.find("\"folded\": ["), std::string::npos);
}

TEST(ProfSampling, WallModeSamplesThroughSleep) {
  ASSERT_TRUE(prof::start({.hz = 197, .wall = true}));
  {
    obs::Stage stage(kSleepyRow);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  const prof::Profile profile = prof::stop();
  ASSERT_GT(profile.samples.size(), 0u)
      << "wall sampling must fire while the process sleeps";
  bool saw_sleepy = false;
  for (const auto& [stack, count] : profile.folded()) {
    if (stack.find("ccg.test.prof.sleepy") != std::string::npos) {
      saw_sleepy = true;
    }
  }
  EXPECT_TRUE(saw_sleepy);
  EXPECT_NE(profile.to_json().find("\"mode\": \"wall\""), std::string::npos);
}

TEST(ProfAggregation, FoldedAndCostsFromSyntheticSamples) {
  prof::Profile profile;
  profile.options.hz = 100;
  const auto sample = [](std::initializer_list<const char*> frames,
                         std::uint64_t trace) {
    prof::Sample s;
    s.trace_id = trace;
    for (const char* f : frames) s.frames[s.depth++] = f;
    return s;
  };
  profile.samples = {
      sample({"a", "b"}, 1), sample({"a", "b"}, 1), sample({"a"}, 1),
      sample({}, 0),
  };

  const auto folded = profile.folded();
  ASSERT_EQ(folded.size(), 3u);  // "(untracked)", "a", "a;b" (sorted)
  EXPECT_EQ(folded[0].first, "(untracked)");
  EXPECT_EQ(folded[0].second, 1u);
  EXPECT_EQ(folded[1].first, "a");
  EXPECT_EQ(folded[1].second, 1u);
  EXPECT_EQ(folded[2].first, "a;b");
  EXPECT_EQ(folded[2].second, 2u);

  const auto costs = profile.frame_costs();
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_EQ(costs[0].name, "b");  // self 2 sorts first
  EXPECT_EQ(costs[0].self, 2u);
  EXPECT_EQ(costs[0].total, 2u);
  EXPECT_EQ(costs[1].name, "a");
  EXPECT_EQ(costs[1].self, 1u);
  EXPECT_EQ(costs[1].total, 3u);

  EXPECT_EQ(profile.folded_text(), "(untracked) 1\na 1\na;b 2\n");

  const auto by_window = profile.samples_by_window();
  ASSERT_EQ(by_window.size(), 2u);
  EXPECT_EQ(by_window[0], (std::pair<std::uint64_t, std::uint64_t>{0, 1}));
  EXPECT_EQ(by_window[1], (std::pair<std::uint64_t, std::uint64_t>{1, 3}));
}

/// The acceptance criterion: folded-stack attribution from a profiled
/// pipeline run matches the span tree `ccgraph trace` prints — stage
/// frames appear under the window root, never orphaned, and every sampled
/// trace id is a real window id from the run.
TEST(ProfIntegration, PipelineFoldedStacksMatchSpanTree) {
  obs::TraceRing::global().enable(1 << 12);

  Cluster cluster(presets::tiny(), 31);
  TelemetryHub hub(ProviderProfile::azure(), 31);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  AnalyticsService service(
      {.graph = {.facet = GraphFacet::kIp, .window_minutes = 5},
       .training_windows = 1,
       .stall_injection_ms = 30},  // guarantees wall samples inside windows
      {ips.begin(), ips.end()}, [](const WindowReport&) {});
  hub.set_sink(&service);

  ASSERT_TRUE(prof::start({.hz = 397, .wall = true}));
  driver.run(TimeWindow::minutes(0, 15));
  service.flush();
  const prof::Profile profile = prof::stop();
  const auto events = obs::TraceRing::global().events();
  obs::TraceRing::global().disable();

  ASSERT_GT(profile.samples.size(), 0u);

  // Valid trace ids for this run are the ones the span tree recorded:
  // the windows beginning at minutes 0, 5 and 10, plus each minute's
  // telemetry interval, which roots its own trace (minutes 0..14).
  std::set<std::uint64_t> recorded_traces;
  for (const auto& e : events) recorded_traces.insert(e.trace_id);
  for (const std::int64_t begin : {0, 5, 10}) {
    EXPECT_EQ(recorded_traces.count(obs::window_trace_id(begin)), 1u);
  }
  for (const auto& [trace_id, count] : profile.samples_by_window()) {
    EXPECT_TRUE(trace_id == 0 || recorded_traces.count(trace_id) != 0)
        << "sample attributed to nonexistent trace 0x" << std::hex << trace_id;
  }

  // Folded stacks: an analysis-stage frame is always preceded by the
  // window root, exactly as the span tree nests stages under
  // ccg.analytics.window. stage.build is the exception by design — graph
  // building runs during per-minute ingestion, before the window closes,
  // so it is a root span in the trace and a root frame here.
  bool saw_window_stack = false;
  for (const auto& [stack, count] : profile.folded()) {
    const auto stage_at = stack.find("ccg.analytics.stage.");
    const auto window_at = stack.find("ccg.analytics.window");
    if (window_at != std::string::npos) saw_window_stack = true;
    if (stage_at == std::string::npos) continue;
    if (stack.compare(stage_at, 25, "ccg.analytics.stage.build") == 0) {
      continue;
    }
    ASSERT_NE(window_at, std::string::npos)
        << "orphaned stage frame in: " << stack;
    EXPECT_LT(window_at, stage_at) << "window must be outer in: " << stack;
  }
  EXPECT_TRUE(saw_window_stack)
      << "30 ms stalls at 397 Hz must land samples inside windows";

  // And the span tree agrees: every recorded stage span's parent chain
  // reaches the window root span of its trace.
  std::map<std::uint64_t, const obs::TraceEvent*> by_id;
  for (const auto& e : events) by_id[e.span_id] = &e;
  std::size_t stage_spans = 0;
  for (const auto& e : events) {
    if (e.name.rfind("ccg.analytics.stage.", 0) != 0) continue;
    if (e.name == "ccg.analytics.stage.build") continue;  // ingestion-side
    ++stage_spans;
    const obs::TraceEvent* cursor = &e;
    bool reached_window = false;
    while (cursor->parent_id != 0 && by_id.count(cursor->parent_id) != 0) {
      cursor = by_id[cursor->parent_id];
      if (cursor->name == "ccg.analytics.window") {
        reached_window = true;
        break;
      }
    }
    EXPECT_TRUE(reached_window) << e.name << " span not under window root";
  }
  EXPECT_GT(stage_spans, 0u);
}

TEST(ProfCounters, TierDegradesGracefullyAndScopesMeasureCpu) {
  const prof::CounterTier tier = prof::enable_counters();
  EXPECT_TRUE(prof::counters_enabled());
  EXPECT_EQ(tier, prof::counter_tier());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_NE(tier, prof::CounterTier::kNone) << "rusage tier always exists";
#endif
  EXPECT_STRNE(prof::tier_name(tier), "");

  prof::CounterValues delta;
  {
    prof::CounterScope scope(delta);
    busy_loop(0.05);
  }
  EXPECT_EQ(delta.tier, tier);
  if (tier != prof::CounterTier::kNone) {
    EXPECT_GT(delta.cpu_seconds, 0.0) << "50 ms spin must show CPU time";
    EXPECT_GT(delta.max_rss_bytes, 0u);
  }
  if (tier == prof::CounterTier::kPerfEvent) {
    EXPECT_GT(delta.cycles, 0u);
    EXPECT_GT(delta.instructions, 0u);
  }

  // Absolute readings are monotone in CPU.
  const prof::CounterValues a = prof::read_counters();
  busy_loop(0.02);
  const prof::CounterValues b = prof::read_counters();
  EXPECT_GE(b.cpu_seconds, a.cpu_seconds);
}

TEST(ProfCounters, KernelScopeAccumulatesIntoRegistry) {
  prof::enable_counters();
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& calls = registry.counter("ccg.prof.kernel.test_kernel.calls");
  obs::Counter& cpu_ns = registry.counter("ccg.prof.kernel.test_kernel.cpu_ns");
  const std::uint64_t calls_before = calls.value();
  const std::uint64_t cpu_before = cpu_ns.value();
  for (int i = 0; i < 2; ++i) {
    obs::Stage stage(kKernelRow);
    busy_loop(0.02);
  }
  EXPECT_EQ(calls.value(), calls_before + 2);
  if (prof::counter_tier() != prof::CounterTier::kNone) {
    EXPECT_GT(cpu_ns.value(), cpu_before);
  }
}

TEST(ProfHeap, SinksAttributeAllocationsAndChainToParents) {
  if (!prof::heap_tracking_available()) {
    GTEST_SKIP() << "heap hooks compiled out (sanitizer build)";
  }
  const prof::HeapUsage before = prof::process_heap_totals();

  prof::HeapSink window_sink;
  prof::detail::HeapSinkScope window_scope(&window_sink);
  {
    prof::HeapSink stage_sink;  // chains to window_sink automatically
    EXPECT_EQ(stage_sink.parent(), &window_sink);
    prof::detail::HeapSinkScope stage_scope(&stage_sink);
    auto* block = new char[32 * 1024];
    escape_pointer(block);  // defeat allocation elision
    delete[] block;
    const prof::HeapUsage stage = stage_sink.usage();
    EXPECT_GE(stage.bytes, 32u * 1024u);
    EXPECT_GE(stage.allocs, 1u);
  }
  const prof::HeapUsage window = window_sink.usage();
  EXPECT_GE(window.bytes, 32u * 1024u) << "stage allocations bill the window";

  const std::uint64_t window_bytes_after_stage = window.bytes;
  {
    std::vector<char> v(8 * 1024);
    escape_pointer(v.data());
  }
  EXPECT_GE(window_sink.usage().bytes, window_bytes_after_stage + 8 * 1024)
      << "window sink keeps billing after the stage closed";

  const prof::HeapUsage after = prof::process_heap_totals();
  EXPECT_GT(after.bytes, before.bytes);
  EXPECT_GT(after.allocs, before.allocs);
  EXPECT_GE(prof::process_heap_freed().allocs, 1u);
}

TEST(ProfHeap, PoolWorkersBillTheSubmittersSink) {
  if (!prof::heap_tracking_available()) {
    GTEST_SKIP() << "heap hooks compiled out (sanitizer build)";
  }
  parallel::set_thread_count(4);
  prof::HeapSink sink;
  std::atomic<std::uint64_t> expected{0};
  {
    prof::detail::HeapSinkScope scope(&sink);
    parallel::parallel_for(64, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        std::vector<char> block(4096);
        escape_pointer(block.data());
        expected.fetch_add(block.size(), std::memory_order_relaxed);
      }
    });
  }
  parallel::set_thread_count(0);
  EXPECT_GE(sink.usage().bytes, expected.load())
      << "chunk allocations on worker threads must bill the submitter";
  EXPECT_GE(sink.usage().allocs, 64u);
}

TEST(ProfRings, DefaultTraceRingCapacityIsPositive) {
  const std::size_t capacity = obs::default_trace_ring_capacity();
  EXPECT_GT(capacity, 0u);
  if (std::getenv("CCG_TRACE_RING") == nullptr) {
    EXPECT_EQ(capacity, std::size_t{1} << 16);
  }
}

}  // namespace
}  // namespace ccg
