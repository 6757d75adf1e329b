// The stage table and obs::Stage: every row is unique and namespaced, the
// names rows derive (heap, kernel, pool job) do not collide, and real runs
// record a `.seconds` histogram for every stage they reach.
#include "ccg/obs/stage.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/telemetry/flow_log.hpp"
#include "ccg/telemetry/serialize.hpp"
#include "dist_harness.hpp"

namespace ccg {
namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST(ObsStageTable, RowsAreUniqueAndNamespaced) {
  std::set<std::string> names;
  for (const obs::StageRow* row : obs::stage::kTable) {
    const std::string name = row->name;
    EXPECT_TRUE(starts_with(name, "ccg.")) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate row " << name;
  }
}

TEST(ObsStageTable, DerivedNamesAreUnique) {
  std::set<std::string> heap, kernels;
  std::set<std::string> jobs = {obs::stage::kOtherJob.name};
  std::set<std::string> rows;
  for (const obs::StageRow* row : obs::stage::kTable) rows.insert(row->name);
  for (const obs::StageRow* row : obs::stage::kTable) {
    const std::string suffix = obs::heap_suffix(*row);
    EXPECT_EQ(suffix.empty(), !(row->flags & obs::kBillHeap)) << row->name;
    if (!suffix.empty()) {
      EXPECT_TRUE(heap.insert(suffix).second) << "heap suffix " << suffix;
    }
    const std::string kernel = obs::kernel_name(*row);
    EXPECT_EQ(kernel.empty(), !(row->flags & obs::kKernel)) << row->name;
    if (!kernel.empty()) {
      EXPECT_TRUE(kernels.insert(kernel).second) << "kernel " << kernel;
      const std::string job = "ccg.parallel.job." + kernel;
      EXPECT_TRUE(jobs.insert(job).second) << "job " << job;
      EXPECT_EQ(rows.count(job), 0u) << job << " is also a row";
    }
  }
  EXPECT_EQ(obs::heap_suffix(obs::stage::kBuild), "stage.build");
  EXPECT_EQ(obs::heap_suffix(obs::stage::kWindow), "window");
  EXPECT_EQ(obs::kernel_name(obs::stage::kTopKEigen), "top_k_eigen");
  EXPECT_EQ(heap.size(), 7u);
  EXPECT_EQ(kernels.size(), 8u);
}

/// Table rows whose name starts with one of `prefixes`.
std::vector<const obs::StageRow*> rows_under(
    std::initializer_list<const char*> prefixes) {
  std::vector<const obs::StageRow*> out;
  for (const obs::StageRow* row : obs::stage::kTable) {
    for (const char* prefix : prefixes) {
      if (starts_with(row->name, prefix)) out.push_back(row);
    }
  }
  return out;
}

std::uint64_t seconds_count(const obs::StageRow& row) {
  return obs::Registry::global()
      .histogram(std::string(row.name) + ".seconds")
      .count();
}

std::vector<ConnectionSummary> random_minute(std::int64_t minute, Rng& rng) {
  std::vector<ConnectionSummary> batch;
  for (int i = 0; i < 120; ++i) {
    const IpAddr local(0x0A000001 + static_cast<std::uint32_t>(rng.uniform(32)));
    IpAddr remote(0x0A000001 + static_cast<std::uint32_t>(rng.uniform(32)));
    if (remote == local) remote = IpAddr(remote.bits() + 1);
    batch.push_back(ConnectionSummary{
        .time = MinuteBucket(minute),
        .flow = FlowKey{.local_ip = local,
                        .local_port =
                            static_cast<std::uint16_t>(33000 + rng.uniform(1000)),
                        .remote_ip = remote,
                        .remote_port = 443,
                        .protocol = Protocol::kTcp},
        .counters = TrafficCounters{.packets_sent = 1 + rng.uniform(10),
                                    .packets_rcvd = 1,
                                    .bytes_sent = 100 + rng.uniform(10000),
                                    .bytes_rcvd = 50}});
  }
  return batch;
}

TEST(ObsStageTable, ServiceRunRecordsEveryStageItReaches) {
  // A flow log streamed into an AnalyticsService: five 60-minute windows,
  // two of them training, so every analytics stage runs.
  Rng rng(41);
  std::string text = csv_header() + "\n";
  for (std::int64_t m = 0; m < 300; ++m) {
    for (const ConnectionSummary& r : random_minute(m, rng)) {
      text += to_csv(r) + "\n";
    }
  }
  const std::string path = ::testing::TempDir() + "stage_run_" +
                           std::to_string(::getpid()) + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);

  obs::Registry::global().reset();
  std::size_t reports = 0;
  AnalyticsService service(
      {.graph = {.facet = GraphFacet::kIp, .window_minutes = 60},
       .training_windows = 2},
      {}, [&](const WindowReport&) { ++reports; });
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(stream_flow_log(fd, service).has_value());
  ::close(fd);
  service.flush();
  std::remove(path.c_str());
  ASSERT_EQ(reports, 5u);

  const auto reached =
      rows_under({"ccg.analytics.", "ccg.graph.", "ccg.ingest."});
  ASSERT_EQ(reached.size(), 9u);
  for (const obs::StageRow* row : reached) {
    EXPECT_GT(seconds_count(*row), 0u) << row->name;
  }
  EXPECT_EQ(seconds_count(obs::stage::kWindow), 5u);
  EXPECT_EQ(seconds_count(obs::stage::kGraphFinalize), 5u);
  EXPECT_EQ(seconds_count(obs::stage::kSpectralFit), 1u);
  EXPECT_EQ(seconds_count(obs::stage::kSpectral), 3u);
}

TEST(ObsStageTable, RoutedRunRecordsEveryDistStage) {
  Rng rng(42);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 30; ++m) minutes.push_back(random_minute(m, rng));
  obs::Registry::global().reset();
  const auto merged = dist::run_routed_distributed(
      minutes, {.facet = GraphFacet::kIp, .window_minutes = 10}, 2);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->size(), 3u);

  const auto reached = rows_under({"ccg.dist.", "ccg.graph."});
  ASSERT_EQ(reached.size(), 6u);
  for (const obs::StageRow* row : reached) {
    EXPECT_GT(seconds_count(*row), 0u) << row->name;
  }
  EXPECT_EQ(seconds_count(obs::stage::kDistMerge), 3u);
  EXPECT_EQ(seconds_count(obs::stage::kDistShip), 2u * 3u) << "per shard";
}

}  // namespace
}  // namespace ccg
