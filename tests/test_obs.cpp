#include "ccg/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/obs/export.hpp"
#include "ccg/obs/stage.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

using obs::Histogram;
using obs::HistogramOptions;
using obs::Registry;

// --- histogram buckets & quantiles -------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreUpperInclusive) {
  // Bounds: 1, 2, 4, 8 plus the +Inf overflow bucket.
  Histogram h({.first_bound = 1.0, .growth = 2.0, .buckets = 4});
  ASSERT_EQ(h.bucket_count(), 5u);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(1), 2.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(2), 4.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(3), 8.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(4)));

  h.record(0.5);   // bucket 0
  h.record(1.0);   // bucket 0: bounds are upper-inclusive
  h.record(1.01);  // bucket 1
  h.record(2.0);   // bucket 1
  h.record(4.0);   // bucket 2
  h.record(8.0);   // bucket 3
  h.record(8.01);  // overflow
  h.record(1e9);   // overflow

  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 2u);
  EXPECT_EQ(h.bucket_value(2), 1u);
  EXPECT_EQ(h.bucket_value(3), 1u);
  EXPECT_EQ(h.bucket_value(4), 2u);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(ObsHistogram, QuantileInterpolatesInsideBucket) {
  Histogram h({.first_bound = 10.0, .growth = 2.0, .buckets = 3});
  h.record(5.0);
  h.record(15.0);
  h.record(15.0);
  h.record(35.0);
  // p50 rank = 2 of 4: one sample below bucket (10,20], half way through
  // its two samples -> 10 + 0.5 * (20 - 10) = 15.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  // p100 is the observed max, p0 clamps to the observed min.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 35.0);
  EXPECT_GE(h.quantile(0.0), 5.0 - 1e-12);
}

TEST(ObsHistogram, SingleValueQuantilesCollapseToThatValue) {
  Histogram h;
  h.record(0.003);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.003) << q;
  }
}

TEST(ObsHistogram, QuantilesAreMonotoneAndEmptyIsZero) {
  Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);

  Histogram h;
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    h.record(1e-6 * static_cast<double>(1 + rng.uniform(1'000'000)));
  }
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_LE(h.quantile(0.99), h.max());
  EXPECT_GE(h.quantile(0.5), h.min());
}

TEST(ObsHistogram, OverflowQuantileIsCappedByObservedMax) {
  Histogram h({.first_bound = 1.0, .growth = 2.0, .buckets = 2});
  h.record(100.0);  // overflow bucket (bounds are 1, 2)
  h.record(200.0);
  EXPECT_GE(h.quantile(0.99), 100.0);
  EXPECT_LE(h.quantile(0.99), 200.0);
}

// --- concurrency -------------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  Registry registry;
  obs::Counter& counter = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsHistogram, ConcurrentRecordsKeepExactCountAndSum) {
  Histogram h;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(0.001);
    });
  }
  for (auto& t : threads) t.join();
  const auto total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.count(), total);
  EXPECT_NEAR(h.sum(), 0.001 * static_cast<double>(total), 1e-6);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    bucket_total += h.bucket_value(i);
  }
  EXPECT_EQ(bucket_total, total);
}

TEST(ObsGauge, ConcurrentUpdateMaxKeepsMaximum) {
  Registry registry;
  obs::Gauge& gauge = registry.gauge("test.hwm");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 10'000; ++i) {
        gauge.update_max(static_cast<double>(t * 10'000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 79'999.0);
}

TEST(ObsRegistry, SameNameReturnsSameInstrument) {
  Registry registry;
  EXPECT_EQ(&registry.counter("a"), &registry.counter("a"));
  EXPECT_NE(&registry.counter("a"), &registry.counter("b"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
  EXPECT_EQ(registry.instrument_count(), 3u);

  registry.counter("a").add(5);
  registry.reset();
  EXPECT_EQ(registry.counter("a").value(), 0u);
  EXPECT_EQ(registry.instrument_count(), 3u);  // registrations survive reset
}

// --- exporters ---------------------------------------------------------------

Registry& golden_registry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    r->counter("ccg.test.requests").add(3);
    r->gauge("ccg.test.depth").set(2.5);
    Histogram& h =
        r->histogram("ccg.test.latency", {.first_bound = 1.0, .growth = 2.0, .buckets = 2});
    h.record(0.5);
    h.record(3.0);
    h.record(100.0);
    return r;
  }();
  return *registry;
}

TEST(ObsExport, PrometheusGolden) {
  const std::string expected =
      "# HELP ccg_test_requests_total ccg.test.requests\n"
      "# TYPE ccg_test_requests_total counter\n"
      "ccg_test_requests_total 3\n"
      "# HELP ccg_test_depth ccg.test.depth\n"
      "# TYPE ccg_test_depth gauge\n"
      "ccg_test_depth 2.5\n"
      "# HELP ccg_test_latency ccg.test.latency\n"
      "# TYPE ccg_test_latency histogram\n"
      "ccg_test_latency_bucket{le=\"1\"} 1\n"
      "ccg_test_latency_bucket{le=\"2\"} 1\n"
      "ccg_test_latency_bucket{le=\"+Inf\"} 3\n"
      "ccg_test_latency_sum 103.5\n"
      "ccg_test_latency_count 3\n";
  EXPECT_EQ(obs::to_prometheus(golden_registry().snapshot()), expected);
}

TEST(ObsExport, PrometheusLabeledSeriesShareOneHeaderBlock) {
  // Fleet-merged snapshots put the unlabeled local series first, then one
  // labeled series per shard, all adjacent. The exposition format allows
  // exactly one HELP/TYPE block per metric family.
  obs::Snapshot snap;
  snap.counters.push_back({"ccg.dist.agg.windows_merged", 4, {}});
  snap.counters.push_back({"ccg.dist.shard.windows", 2, {{"shard", "0"}}});
  snap.counters.push_back({"ccg.dist.shard.windows", 3, {{"shard", "1"}}});
  const std::string expected =
      "# HELP ccg_dist_agg_windows_merged_total ccg.dist.agg.windows_merged\n"
      "# TYPE ccg_dist_agg_windows_merged_total counter\n"
      "ccg_dist_agg_windows_merged_total 4\n"
      "# HELP ccg_dist_shard_windows_total ccg.dist.shard.windows\n"
      "# TYPE ccg_dist_shard_windows_total counter\n"
      "ccg_dist_shard_windows_total{shard=\"0\"} 2\n"
      "ccg_dist_shard_windows_total{shard=\"1\"} 3\n";
  EXPECT_EQ(obs::to_prometheus(snap), expected);
}

TEST(ObsExport, PrometheusLabelValuesAreEscaped) {
  obs::Snapshot snap;
  snap.gauges.push_back({"ccg.test.g", 1.0, {{"path", "a\\b\"c\nd"}}});
  const std::string text = obs::to_prometheus(snap);
  EXPECT_NE(text.find("ccg_test_g{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos)
      << text;
}

TEST(ObsExport, PrometheusLabeledHistogramAppendsLe) {
  obs::Snapshot snap;
  obs::HistogramSample h;
  h.name = "ccg.test.lat";
  h.buckets = {{1.0, 2}, {std::numeric_limits<double>::infinity(), 1}};
  h.count = 3;
  h.sum = 4.5;
  h.labels = {{"shard", "2"}};
  snap.histograms.push_back(std::move(h));
  const std::string expected =
      "# HELP ccg_test_lat ccg.test.lat\n"
      "# TYPE ccg_test_lat histogram\n"
      "ccg_test_lat_bucket{shard=\"2\",le=\"1\"} 2\n"
      "ccg_test_lat_bucket{shard=\"2\",le=\"+Inf\"} 3\n"
      "ccg_test_lat_sum{shard=\"2\"} 4.5\n"
      "ccg_test_lat_count{shard=\"2\"} 3\n";
  EXPECT_EQ(obs::to_prometheus(snap), expected);
}

// --- snapshot deltas (the telemetry shipping primitive) ----------------------

TEST(ObsDelta, CounterDeltaOmitsUnchangedAndShipsResets) {
  Registry r;
  obs::Counter& a = r.counter("a");
  obs::Counter& b = r.counter("b");
  a.add(5);
  b.add(2);

  // Bootstrap against a default-constructed prev: the full snapshot ships.
  obs::Snapshot base;
  obs::Snapshot first = r.snapshot_delta(base, &base);
  ASSERT_EQ(first.counters.size(), 2u);
  EXPECT_EQ(first.counters[0].name, "a");
  EXPECT_EQ(first.counters[0].value, 5u);

  a.add(3);
  obs::Snapshot d = r.snapshot_delta(base, &base);
  ASSERT_EQ(d.counters.size(), 1u);  // b unchanged -> omitted
  EXPECT_EQ(d.counters[0].name, "a");
  EXPECT_EQ(d.counters[0].value, 3u);

  // A value below prev is a reset: the current value ships, so the
  // receiver's accumulation stays monotone-ish instead of wrapping.
  a.reset();
  a.add(1);
  d = r.snapshot_delta(base, &base);
  ASSERT_EQ(d.counters.size(), 1u);
  EXPECT_EQ(d.counters[0].value, 1u);

  EXPECT_TRUE(r.snapshot_delta(base).counters.empty());
}

TEST(ObsDelta, GaugeShipsOnlyOnChange) {
  Registry r;
  obs::Gauge& g = r.gauge("depth");
  g.set(2.5);
  obs::Snapshot base;
  obs::Snapshot d = r.snapshot_delta(base, &base);
  ASSERT_EQ(d.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(d.gauges[0].value, 2.5);

  EXPECT_TRUE(r.snapshot_delta(base, nullptr).gauges.empty());

  g.set(3.0);
  d = r.snapshot_delta(base, &base);
  ASSERT_EQ(d.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(d.gauges[0].value, 3.0);
}

TEST(ObsDelta, HistogramShipsBucketDiffsAndCurrentMinMax) {
  Registry r;
  Histogram& h =
      r.histogram("lat", {.first_bound = 1.0, .growth = 2.0, .buckets = 2});
  h.record(0.5);
  h.record(3.0);
  obs::Snapshot base;
  obs::Snapshot d = r.snapshot_delta(base, &base);
  ASSERT_EQ(d.histograms.size(), 1u);
  EXPECT_EQ(d.histograms[0].count, 2u);

  h.record(0.7);
  h.record(100.0);
  d = r.snapshot_delta(base, &base);
  ASSERT_EQ(d.histograms.size(), 1u);
  const obs::HistogramSample& s = d.histograms[0];
  EXPECT_EQ(s.count, 2u);  // the diff, not the cumulative count
  EXPECT_DOUBLE_EQ(s.sum, 100.7);
  ASSERT_EQ(s.buckets.size(), 3u);
  EXPECT_EQ(s.buckets[0].second, 1u);  // 0.7 -> (0,1]
  EXPECT_EQ(s.buckets[1].second, 0u);
  EXPECT_EQ(s.buckets[2].second, 1u);  // 100 -> overflow
  // min/max are last-write state, not diffs: the receiver overwrites.
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);

  EXPECT_TRUE(r.snapshot_delta(base).histograms.empty());
}

TEST(ObsDelta, CurrentOutParamIsTheNextBaseline) {
  Registry r;
  r.counter("a").add(7);
  obs::Snapshot base;
  obs::Snapshot current;
  (void)r.snapshot_delta(base, &current);
  // `current` holds the cumulative snapshot the delta was computed
  // against — handing it back avoids racing updates that land between
  // delta computation and a second snapshot() call.
  ASSERT_EQ(current.counters.size(), 1u);
  EXPECT_EQ(current.counters[0].value, 7u);
  r.counter("a").add(1);
  const obs::Snapshot d = r.snapshot_delta(current);
  ASSERT_EQ(d.counters.size(), 1u);
  EXPECT_EQ(d.counters[0].value, 1u);
}

TEST(ObsExport, JsonGolden) {
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"ccg.test.requests\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"ccg.test.depth\": 2.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      // p50/p90/p99 by hand: rank q*3 with one sample in (0,1] and two in
      // the overflow bucket interpolated over (2, max=100].
      "    \"ccg.test.latency\": {\"count\": 3, \"sum\": 103.5, \"min\": 0.5,"
      " \"max\": 100, \"p50\": 26.5, \"p90\": 85.3, \"p99\": 98.53,"
      " \"buckets\": [{\"le\": 1, \"n\": 1}, {\"le\": \"+Inf\", \"n\": 2}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(obs::to_json(golden_registry().snapshot()), expected);
}

TEST(ObsExport, SummaryTextSkipsZeroInstruments) {
  Registry registry;
  registry.counter("test.zero");
  registry.counter("test.nonzero").add(7);
  registry.histogram("test.empty");
  const std::string text = obs::summary_text(registry.snapshot());
  EXPECT_EQ(text.find("test.zero"), std::string::npos);
  EXPECT_EQ(text.find("test.empty"), std::string::npos);
  EXPECT_NE(text.find("test.nonzero"), std::string::npos);
}

// --- spans & trace ring ------------------------------------------------------

constexpr obs::StageRow kSpannedRow{"ccg.test.spanned"};
constexpr obs::StageRow kTracedRow{"ccg.test.traced"};

TEST(ObsSpan, StageFeedsLatencyHistogram) {
  obs::Histogram& h =
      obs::Registry::global().histogram("ccg.test.spanned.seconds");
  const std::uint64_t before = h.count();
  for (int i = 0; i < 3; ++i) {
    obs::Stage stage(kSpannedRow);
  }
  EXPECT_EQ(h.count(), before + 3);
  EXPECT_GT(h.sum(), 0.0);
}

TEST(ObsSpan, TraceRingKeepsMostRecentEvents) {
  obs::TraceRing& ring = obs::TraceRing::global();
  ring.enable(2);
  for (int i = 0; i < 3; ++i) {
    obs::Stage stage(kTracedRow);
  }
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "ccg.test.traced");
  EXPECT_EQ(ring.dropped(), 1u);
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  ring.disable();
}

// --- end-to-end instrumentation ----------------------------------------------

TEST(ObsIntegration, AnalyticsServiceRecordsEveryStage) {
  Registry& registry = Registry::global();
  registry.reset();

  Cluster cluster(presets::tiny(), 7);
  TelemetryHub hub(ProviderProfile::azure(), 7);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  std::size_t reports = 0;
  AnalyticsService service(
      {.graph = {.facet = GraphFacet::kIp, .window_minutes = 60},
       .training_windows = 3,
       .spectral = {.rank = 8}},
      {ips.begin(), ips.end()}, [&](const WindowReport&) { ++reports; });
  hub.set_sink(&service);
  driver.run(TimeWindow::minutes(0, 5 * 60));
  service.flush();
  ASSERT_EQ(reports, 5u);

  // Every pipeline stage must have fired: 5 windows total, 3 of them
  // training-only (no spectral scoring).
  for (const char* stage :
       {"ccg.analytics.stage.build.seconds", "ccg.analytics.stage.edges.seconds",
        "ccg.analytics.stage.tracker.seconds",
        "ccg.analytics.stage.patterns.seconds",
        "ccg.analytics.stage.spectral.seconds",
        "ccg.analytics.spectral_fit.seconds"}) {
    EXPECT_GT(registry.histogram(stage).count(), 0u) << stage;
  }
  EXPECT_EQ(registry.counter("ccg.analytics.windows").value(), 5u);
  EXPECT_EQ(registry.counter("ccg.analytics.training_windows").value(), 3u);
  EXPECT_EQ(registry.histogram("ccg.analytics.stage.spectral.seconds").count(), 2u);
  EXPECT_EQ(registry.histogram("ccg.analytics.stage.tracker.seconds").count(), 5u);
  // The telemetry hub metered the same stream it handed to the service.
  EXPECT_GT(registry.counter("ccg.telemetry.records").value(), 0u);
  EXPECT_EQ(registry.counter("ccg.telemetry.batches").value(), 300u);
  EXPECT_GT(registry.histogram("ccg.telemetry.flush.seconds").count(), 0u);
}

}  // namespace
}  // namespace ccg
