// End-to-end tests of the distributed collector's determinism contract
// (docs/DISTRIBUTED.md): a sharded multi-connection run must be
// byte-identical to a single-process build, and every failure mode must be
// an explicit fail-fast, never a silent drop.
#include "ccg/dist/aggregator.hpp"
#include "ccg/dist/shard_worker.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <ostream>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/dist/wire.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/store/format.hpp"
#include "ccg/telemetry/flow_log.hpp"
#include "ccg/telemetry/serialize.hpp"
#include "dist_harness.hpp"

namespace ccg::dist {
namespace {

std::vector<ConnectionSummary> random_minute(std::int64_t minute, std::size_t n,
                                             Rng& rng) {
  std::vector<ConnectionSummary> batch;
  for (std::size_t i = 0; i < n; ++i) {
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

std::unordered_set<IpAddr> all_monitored() {
  std::unordered_set<IpAddr> monitored;
  for (std::uint32_t i = 0; i < 64; ++i) monitored.insert(IpAddr(0x0A000001 + i));
  return monitored;
}

std::vector<std::uint8_t> frame_bytes(const CommGraph& graph) {
  return store::encode_frame(store::FrameKind::kKeyframe, CommGraph(), graph);
}

TEST(ShardHash, GoldenAssignmentsArePinned) {
  // shard_of_record is part of the wire contract: shard workers and any
  // future external partitioner must agree. These values pin the hash —
  // if this test breaks, the shard key changed and kWireVersion must be
  // bumped.
  Rng rng(7);
  const auto batch = random_minute(0, 8, rng);
  const std::vector<std::size_t> golden_4 = {1, 1, 2, 0, 3, 3, 3, 0};
  ASSERT_EQ(batch.size(), golden_4.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(shard_of_record(batch[i], GraphFacet::kIp, 4), golden_4[i])
        << "record " << i;
  }
}

TEST(ShardHash, BothFlowOrientationsLandInOneShard) {
  // An edge's two endpoints may each report the same conversation; the
  // merge is a disjoint union only if both records hash to the same shard.
  Rng rng(21);
  for (const auto& record : random_minute(0, 200, rng)) {
    ConnectionSummary flipped = record;
    std::swap(flipped.flow.local_ip, flipped.flow.remote_ip);
    std::swap(flipped.flow.local_port, flipped.flow.remote_port);
    for (const std::size_t shards : {2u, 4u, 7u}) {
      for (const GraphFacet facet : {GraphFacet::kIp, GraphFacet::kIpPort}) {
        EXPECT_EQ(shard_of_record(record, facet, shards),
                  shard_of_record(flipped, facet, shards));
      }
    }
  }
}

TEST(ShardHash, EveryShardGetsWork) {
  Rng rng(5);
  const auto batch = random_minute(0, 2000, rng);
  std::vector<std::size_t> counts(4, 0);
  for (const auto& r : batch) {
    ++counts[shard_of_record(r, GraphFacet::kIp, 4)];
  }
  for (std::size_t s = 0; s < counts.size(); ++s) {
    EXPECT_GT(counts[s], 100u) << "shard " << s << " starved";
  }
}

/// Byte-identity contract of the distributed collector (paper §3.2: graph
/// construction is a sharded group-by-aggregate whose merge is a disjoint
/// union): at any shard count, over either transport, the merged windows
/// serialize to exactly the keyframe bytes of one GraphBuilder.
struct TransportCase {
  Transport transport;
  std::size_t shards;
};

/// Names each case in test listings, e.g. `tcp_7shards`.
void PrintTo(const TransportCase& c, std::ostream* os) {
  *os << (c.transport == Transport::kSocketPair ? "socketpair" : "tcp") << '_'
      << c.shards << "shards";
}

std::vector<TransportCase> transport_cases() {
  std::vector<TransportCase> cases;
  for (const Transport transport : {Transport::kSocketPair, Transport::kLoopbackTcp}) {
    for (const std::size_t shards : {1u, 2u, 3u, 4u, 7u, 8u}) {
      cases.push_back({transport, shards});
    }
  }
  return cases;
}

class DistributedCollectorEquivalence
    : public ::testing::TestWithParam<TransportCase> {};

TEST_P(DistributedCollectorEquivalence, ByteIdenticalToOneGraphBuilder) {
  const auto [transport, shards] = GetParam();
  Rng rng(99);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 120; ++m) {
    minutes.push_back(random_minute(m, 200, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp,
                                .window_minutes = 60,
                                .collapse_threshold = 0.01};

  GraphBuilder reference(config, all_monitored());
  for (std::size_t m = 0; m < minutes.size(); ++m) {
    reference.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
  }
  reference.flush();
  const auto expected = reference.take_graphs();
  ASSERT_EQ(expected.size(), 2u);

  const auto merged =
      run_distributed(minutes, config, shards, all_monitored(), transport);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->size(), expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    EXPECT_EQ((*merged)[w].window(), expected[w].window());
    // Keyframe bytes cover every node key, monitored flag, collapsed
    // membership, edge endpoint, port hint and traffic counter.
    EXPECT_EQ(frame_bytes((*merged)[w]), frame_bytes(expected[w]))
        << "window " << w << " differs";
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, DistributedCollectorEquivalence,
                         ::testing::ValuesIn(transport_cases()));

/// `ccgraph serve`'s data path: the aggregator parses once and routes each
/// shard its partition. At every shard count the merged windows must equal
/// one GraphBuilder's byte for byte, with the monitored set learned online
/// on both sides, even when one shard's partition stays empty all run and
/// every socket buffer is shrunk to the kernel minimum. Without the empty
/// window frames that shard would hold the merge barrier while the other
/// shards' frames filled their sockets, and the run would deadlock (here:
/// time out and fail).
class DistributedCollectorRouted : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistributedCollectorRouted, ByteIdenticalWithAStarvedShard) {
  const std::size_t shards = GetParam();
  const GraphBuildConfig config{.facet = GraphFacet::kIp,
                                .window_minutes = 5,
                                .collapse_threshold = 0.01};
  Rng rng(1234);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 60; ++m) {
    std::vector<ConnectionSummary> batch;
    for (const ConnectionSummary& r : random_minute(m, 200, rng)) {
      // The last shard gets nothing, ever (with one shard, it gets all).
      if (shards == 1 ||
          shard_of_record(r, config.facet, shards) != shards - 1) {
        batch.push_back(r);
      }
    }
    minutes.push_back(std::move(batch));
  }
  GraphBuilder reference(config, {});
  for (std::size_t m = 0; m < minutes.size(); ++m) {
    reference.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
  }
  reference.flush();
  const auto expected = reference.take_graphs();
  ASSERT_EQ(expected.size(), 12u);

  const auto merged = run_routed_distributed(minutes, config, shards,
                                             Transport::kSocketPair, 1);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->size(), expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    EXPECT_EQ(frame_bytes((*merged)[w]), frame_bytes(expected[w]))
        << "window " << w << " differs";
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DistributedCollectorRouted,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(DistributedCollectorRouted, WindowWithoutRecordsIsNotEmitted) {
  // Minutes 5..9 carry no records at all: every shard ships an empty
  // frame for that window and the merge drops it, as one GraphBuilder
  // emits nothing for it. The TCP transport, as `serve` uses.
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 5};
  Rng rng(8);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 15; ++m) {
    minutes.push_back(m >= 5 && m < 10 ? std::vector<ConnectionSummary>{}
                                        : random_minute(m, 50, rng));
  }
  const auto merged =
      run_routed_distributed(minutes, config, 3, Transport::kLoopbackTcp);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->size(), 2u);
  EXPECT_EQ((*merged)[0].window().begin().index(), 0);
  EXPECT_EQ((*merged)[1].window().begin().index(), 10);
}

TEST(DistributedCollectorRouted, FeedStoppingEarlyFailsTheRun) {
  // The input fails after 30 of 60 minutes: the workers never see
  // end-of-input, so neither they nor the run may finish cleanly.
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 10};
  Rng rng(9);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 60; ++m) minutes.push_back(random_minute(m, 50, rng));
  EXPECT_FALSE(run_routed_distributed(minutes, config, 3, Transport::kSocketPair,
                                      0, 30)
                   .has_value());
}

TEST(DistributedCollectorRouted, RouteAndSendAreTimedOncePerMinute) {
  // Partition + encode and the blocking send loop are separate stages, so
  // a feeder waiting on a full worker socket is not billed as routing.
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 10};
  Rng rng(21);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 40; ++m) minutes.push_back(random_minute(m, 50, rng));
  obs::Registry& registry = obs::Registry::global();
  const obs::Histogram& route = registry.histogram("ccg.dist.route.seconds");
  const obs::Histogram& send = registry.histogram("ccg.dist.route.send.seconds");
  const std::uint64_t route_before = route.count();
  const std::uint64_t send_before = send.count();
  ASSERT_TRUE(run_routed_distributed(minutes, config, 2).has_value());
  EXPECT_EQ(route.count() - route_before, minutes.size());
  EXPECT_EQ(send.count() - send_before, minutes.size());
}

TEST(DistributedCollectorRouted, FailedInputDumpsOneFeedFailureRecord) {
  // A header-only log fails the feed. The flight record must blame the
  // input, and the shards the cut-off feed then fails must not add
  // shard-failure records of their own.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("feed_failure_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  int input[2];
  ASSERT_EQ(::pipe(input), 0);
  const std::string header = csv_header() + "\n";
  ASSERT_EQ(::write(input[1], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  ::close(input[1]);
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 10};
  const auto merged = run_routed_feed(
      [&](RecordRouter& router) {
        const auto stats = stream_flow_log(input[0], router, router.stop_fd());
        if (!stats || stats->rows == 0) {
          throw std::runtime_error("the flow log contains no records");
        }
        return true;
      },
      config, 2, Transport::kSocketPair, 0, dir.string());
  ::close(input[0]);
  EXPECT_FALSE(merged.has_value());

  std::vector<std::filesystem::path> dumps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    dumps.push_back(entry.path());
  }
  ASSERT_EQ(dumps.size(), 1u) << "one flight record, for the feed only";
  EXPECT_EQ(dumps[0].filename().string().rfind("ccg-flight-feed-failure-", 0), 0u)
      << dumps[0];
  std::ostringstream body;
  body << std::ifstream(dumps[0]).rdbuf();
  EXPECT_NE(body.str().find("\"reason\": \"feed-failure\""), std::string::npos);
  EXPECT_NE(body.str().find("the flow log contains no records"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(DistributedCollectorRouted, FailedMergeEndsAFeederBlockedOnAnIdlePipe) {
  // The flow log is a pipe whose writer sent two minutes and then went
  // quiet without closing it. The feeder routes minute 0 and blocks
  // reading; shard 1 dies once minute 0 reaches it. The merge fails at
  // once, and the feeder must end with it instead of waiting for input
  // that may never come.
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  Rng rng(11);
  std::string text = csv_header() + "\n";
  for (std::int64_t m = 0; m < 2; ++m) {
    for (const ConnectionSummary& r : random_minute(m, 20, rng)) {
      text += to_csv(r) + "\n";
    }
  }
  int input[2];
  ASSERT_EQ(::pipe(input), 0);
  ASSERT_EQ(::write(input[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));

  auto pairs = connect_shards(Transport::kSocketPair, 2);
  ASSERT_TRUE(pairs.has_value());
  std::vector<net::FrameConn> agg_side;
  for (auto& pair : *pairs) agg_side.push_back(std::move(pair.first));
  bool live_ok = true;
  std::thread live([&, conn = std::move((*pairs)[0].second)]() mutable {
    ShardWorker worker({.shard_id = 0, .shard_count = 2, .graph = config}, {},
                       std::move(conn));
    live_ok = worker.handshake() && worker.run(10000);
  });
  std::thread dying([&, conn = std::move((*pairs)[1].second)]() mutable {
    // Closing the connection on scope exit is a crashed shard.
    Hello hello;
    hello.shard_id = 1;
    hello.shard_count = 2;
    hello.config = wire_config(config);
    EXPECT_TRUE(conn.send(encode_hello(hello)));
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(conn.recv(payload, 10000), net::RecvStatus::kOk);  // the ack
    EXPECT_EQ(conn.recv(payload, 10000), net::RecvStatus::kOk);
    EXPECT_EQ(peek_type(payload), MsgType::kRecords);
  });

  std::promise<bool> done;
  std::future<bool> finished = done.get_future();
  std::string feed_error;
  std::thread aggregation([&] {
    Aggregator aggregator({.graph = config,
                           .recv_timeout_ms = 10000,
                           .flight_dir = ::testing::TempDir()},
                          std::move(agg_side));
    bool merged = false;
    if (aggregator.handshake()) {
      merged = run_routed(
                   aggregator, config.facet,
                   [&](RecordRouter& router) {
                     return stream_flow_log(input[0], router, router.stop_fd())
                         .has_value();
                   },
                   [](const CommGraph&) {}, &feed_error)
                   .has_value();
    }
    done.set_value(merged);
  });
  const bool ended =
      finished.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  ::close(input[1]);  // ends a feeder that missed the stop signal
  aggregation.join();
  live.join();
  dying.join();
  ::close(input[0]);
  ASSERT_TRUE(ended) << "the feeder outlived the failed merge";
  EXPECT_FALSE(finished.get());
  EXPECT_FALSE(feed_error.empty());
  EXPECT_FALSE(live_ok);
}

/// What a ShardWorker in its run() role did with a scripted feed.
struct FedWorker {
  bool ok = false;
  std::vector<WindowFrame> windows;  // the window frames it shipped
};

/// Runs one ShardWorker (shard 0 of 1) against a scripted aggregator that
/// acks the hello, sends `feed`, shuts its sending side and collects
/// whatever the worker ships.
FedWorker feed_worker(const GraphBuildConfig& config,
                      const std::vector<std::vector<std::uint8_t>>& feed) {
  auto pair = net::socket_pair();
  EXPECT_TRUE(pair.has_value());
  FedWorker result;
  std::thread aggregator([&, conn = std::move(pair->first)]() mutable {
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(conn.recv(payload, 2000), net::RecvStatus::kOk);
    EXPECT_TRUE(conn.send(encode_hello_ack()));
    for (const auto& frame : feed) EXPECT_TRUE(conn.send(frame));
    conn.shutdown(false);
    while (conn.recv(payload, 2000) == net::RecvStatus::kOk) {
      if (auto window = decode_window(payload)) {
        result.windows.push_back(std::move(*window));
      }
    }
  });
  {
    // Destroyed before the join: closing its end ends the collection.
    ShardWorker worker({.shard_id = 0, .shard_count = 1, .graph = config}, {},
                       std::move(pair->second));
    result.ok = worker.handshake() && worker.run(2000);
  }
  aggregator.join();
  return result;
}

TEST(DistributedCollectorRouted, WorkerRejectsABadFeed) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  Rng rng(10);
  const RecordsFrame minute0{
      .minute = 0, .new_locals = {}, .records = random_minute(0, 20, rng)};
  // Control: a complete, consistent feed succeeds.
  EXPECT_TRUE(feed_worker(config, {encode_records(minute0), encode_end_of_input(20)}).ok);
  // End-of-input whose count disagrees with the records sent.
  EXPECT_FALSE(
      feed_worker(config, {encode_records(minute0), encode_end_of_input(19)}).ok);
  // No end-of-input at all: the feed just stops.
  EXPECT_FALSE(feed_worker(config, {encode_records(minute0)}).ok);
  // A minute that goes backwards.
  const RecordsFrame minute1{.minute = 1, .new_locals = {}, .records = {}};
  EXPECT_FALSE(feed_worker(config, {encode_records(minute1), encode_records(minute0),
                                    encode_end_of_input(20)})
                   .ok);
  // A message only a shard sends.
  EXPECT_FALSE(feed_worker(config, {encode_end_of_stream({0, 0, 0})}).ok);
}

TEST(DistributedCollectorRouted, StarvedShardShipsEveryWindowEmpty) {
  // Ten minutes without a single record for this shard, five-minute
  // windows: it still ships both windows, as empty keyframes.
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 5};
  std::vector<std::vector<std::uint8_t>> feed;
  for (std::int64_t m = 0; m < 10; ++m) {
    feed.push_back(encode_records({.minute = m, .new_locals = {}, .records = {}}));
  }
  feed.push_back(encode_end_of_input(0));
  const FedWorker worker = feed_worker(config, feed);
  EXPECT_TRUE(worker.ok);
  ASSERT_EQ(worker.windows.size(), 2u);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(worker.windows[w].window_begin, static_cast<std::int64_t>(5 * w));
    const auto part = store::decode_frame(worker.windows[w].keyframe, CommGraph());
    ASSERT_TRUE(part.has_value());
    EXPECT_EQ(part->edge_count(), 0u);
    EXPECT_EQ(part->window().begin().index(), static_cast<std::int64_t>(5 * w));
  }
}

TEST(DistributedCollector, CollapseAppliedAfterMerge) {
  // Heavy edge (60 concurrent flows) plus 60 tiny remotes spread across 3
  // shards. A shard alone cannot judge traffic shares, so the tiny nodes
  // must fall below the byte, packet AND connection-minute thresholds of
  // the merged window to collapse.
  const GraphBuildConfig config{.facet = GraphFacet::kIp,
                                .window_minutes = 60,
                                .collapse_threshold = 0.01};
  std::vector<ConnectionSummary> batch;
  for (std::uint16_t k = 0; k < 60; ++k) {
    batch.push_back(ConnectionSummary{
        .time = MinuteBucket(0),
        .flow = FlowKey{.local_ip = IpAddr(0x0A000001),
                        .local_port = static_cast<std::uint16_t>(40000 + k),
                        .remote_ip = IpAddr(0x0B000001), .remote_port = 443,
                        .protocol = Protocol::kTcp},
        .counters = TrafficCounters{.packets_sent = 200, .bytes_sent = 10'000'000}});
  }
  for (std::uint32_t i = 0; i < 60; ++i) {
    batch.push_back(ConnectionSummary{
        .time = MinuteBucket(0),
        .flow = FlowKey{.local_ip = IpAddr(0x0A000001), .local_port = 39000,
                        .remote_ip = IpAddr(0x64000000 + i), .remote_port = 443,
                        .protocol = Protocol::kTcp},
        .counters = TrafficCounters{.packets_sent = 1, .bytes_sent = 10}});
  }
  std::vector<std::size_t> per_shard(3, 0);
  for (const auto& record : batch) ++per_shard[shard_of_record(record, config.facet, 3)];
  EXPECT_EQ(std::count(per_shard.begin(), per_shard.end(), 0u), 0)
      << "every shard should hold part of the window";

  const auto graphs = run_distributed({batch}, config, 3, all_monitored());
  ASSERT_TRUE(graphs.has_value());
  ASSERT_EQ(graphs->size(), 1u);
  const CommGraph& g = (*graphs)[0];
  // monitored + heavy remote + <other>.
  EXPECT_EQ(g.node_count(), 3u);
  const auto other = g.find_node(NodeKey::collapsed());
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(g.node_stats(*other).collapsed_members, 60u);
}

TEST(ObsIntegration, DistributedRunPopulatesPerShardMetrics) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset();

  Rng rng(13);
  std::vector<std::vector<ConnectionSummary>> minutes;
  std::uint64_t total = 0;
  for (std::int64_t m = 0; m < 60; ++m) {
    minutes.push_back(random_minute(m, 200, rng));
    total += minutes.back().size();
  }
  const auto graphs = run_distributed(
      minutes, {.facet = GraphFacet::kIp, .window_minutes = 60}, 2, all_monitored());
  ASSERT_TRUE(graphs.has_value());
  ASSERT_EQ(graphs->size(), 1u);

  // Every record lands in exactly one shard, and every shard ships its
  // partial graph of every window.
  std::uint64_t shard_sum = 0;
  for (const char* shard : {"0", "1"}) {
    const std::string prefix = std::string("ccg.dist.shard.") + shard;
    const std::uint64_t records = registry.counter(prefix + ".records").value();
    EXPECT_GT(records, 0u) << prefix;
    shard_sum += records;
    EXPECT_EQ(registry.counter(prefix + ".windows_shipped").value(), graphs->size())
        << prefix;
  }
  EXPECT_EQ(shard_sum, total);
}

TEST(DistributedCollector, AnalyticsSummariesMatchSingleProcess) {
  Rng rng(31);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 300; ++m) {
    minutes.push_back(random_minute(m, 120, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};

  // Single process: the normal streaming path.
  std::vector<std::string> single;
  AnalyticsService single_service(
      {.graph = config, .training_windows = 2},
      all_monitored(),
      [&](const WindowReport& r) { single.push_back(r.summary()); });
  for (std::size_t m = 0; m < minutes.size(); ++m) {
    single_service.on_batch(MinuteBucket(static_cast<std::int64_t>(m)),
                            minutes[m]);
  }
  single_service.flush();
  ASSERT_EQ(single.size(), 5u);

  // Distributed: merged windows enter through ingest_window.
  const auto merged = run_distributed(minutes, config, 4, all_monitored());
  ASSERT_TRUE(merged.has_value());
  std::vector<std::string> distributed;
  AnalyticsService dist_service(
      {.graph = config, .training_windows = 2}, {},
      [&](const WindowReport& r) { distributed.push_back(r.summary()); });
  for (const CommGraph& graph : *merged) dist_service.ingest_window(graph);

  EXPECT_EQ(distributed, single);
}

TEST(DistributedCollector, WindowTraceIdsSurviveTheWire) {
  Rng rng(13);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 120; ++m) {
    minutes.push_back(random_minute(m, 50, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  const auto merged = run_distributed(minutes, config, 2, all_monitored());
  ASSERT_TRUE(merged.has_value());
  for (const CommGraph& graph : *merged) {
    // The aggregator refuses frames whose shipped trace id disagrees with
    // the deterministic one, so surviving windows must satisfy this.
    EXPECT_NE(obs::window_trace_id(graph.window().begin().index()), 0u);
  }
}

// --- failure semantics -------------------------------------------------------

TEST(DistributedCollector, AggregatorRefusesVersionMismatch) {
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};

  Hello hello;
  hello.version = kWireVersion + 1;
  hello.shard_id = 0;
  hello.shard_count = 1;
  hello.config = wire_config(config);
  ASSERT_TRUE(pair->second.send(encode_hello(hello)));

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  EXPECT_FALSE(aggregator.handshake());
  // The refused shard sees a closed connection, not an ack.
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(pair->second.recv(payload, 2000), net::RecvStatus::kEof);
}

TEST(DistributedCollector, AggregatorRefusesConfigMismatch) {
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());
  const GraphBuildConfig agg_config{.facet = GraphFacet::kIp,
                                    .window_minutes = 60};
  GraphBuildConfig shard_config = agg_config;
  shard_config.window_minutes = 30;  // disagreement → refusal

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = agg_config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));

  std::thread worker([&, conn = std::move(pair->second)]() mutable {
    ShardWorker shard({.shard_id = 0, .shard_count = 1, .graph = shard_config},
                      all_monitored(), std::move(conn));
    // The worker must read the missing ack as a refusal.
    EXPECT_FALSE(shard.handshake());
  });
  EXPECT_FALSE(aggregator.handshake());
  worker.join();
}

TEST(DistributedCollector, DuplicateShardIdRefused) {
  auto a = net::socket_pair();
  auto b = net::socket_pair();
  ASSERT_TRUE(a.has_value() && b.has_value());
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};

  Hello hello;
  hello.shard_id = 1;
  hello.shard_count = 2;
  hello.config = wire_config(config);
  ASSERT_TRUE(a->second.send(encode_hello(hello)));
  ASSERT_TRUE(b->second.send(encode_hello(hello)));  // same shard id twice

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(a->first));
  conns.push_back(std::move(b->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  EXPECT_FALSE(aggregator.handshake());
}

TEST(DistributedCollector, ShardDyingMidStreamFailsTheRun) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));

  std::thread worker([&, conn = std::move(pair->second)]() mutable {
    ShardWorker shard({.shard_id = 0, .shard_count = 1, .graph = config},
                      all_monitored(), std::move(conn));
    ASSERT_TRUE(shard.handshake());
    Rng rng(3);
    // Two windows' worth of records, then vanish without end-of-stream:
    // the aggregator must treat the EOF as a crash, not completion.
    for (std::int64_t m = 0; m < 90; ++m) {
      shard.on_batch(MinuteBucket(m), random_minute(m, 20, rng));
    }
  });
  ASSERT_TRUE(aggregator.handshake());
  std::vector<CommGraph> merged;
  EXPECT_FALSE(
      aggregator.run([&](const CommGraph& g) { merged.push_back(g); })
          .has_value());
  worker.join();
}

TEST(DistributedCollector, SilentShardTimesOutAndFailsTheRun) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());

  Hello hello;
  hello.shard_id = 0;
  hello.shard_count = 1;
  hello.config = wire_config(config);
  ASSERT_TRUE(pair->second.send(encode_hello(hello)));

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 100,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  ASSERT_TRUE(aggregator.handshake());
  // The shard never ships anything: the run must fail fast (timeout), not
  // hang or report success.
  EXPECT_FALSE(aggregator.run([](const CommGraph&) {}).has_value());
}

TEST(DistributedCollector, ForgedTraceIdFailsTheRun) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());

  Hello hello;
  hello.shard_id = 0;
  hello.shard_count = 1;
  hello.config = wire_config(config);
  ASSERT_TRUE(pair->second.send(encode_hello(hello)));

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  ASSERT_TRUE(aggregator.handshake());
  std::vector<std::uint8_t> ack;
  ASSERT_EQ(pair->second.recv(ack, 2000), net::RecvStatus::kOk);

  // A syntactically valid window frame whose trace id is not the
  // deterministic one for its window: the processes disagree about window
  // identity, which poisons cross-process trace correlation.
  GraphBuilder builder(config, all_monitored());
  Rng rng(4);
  for (std::int64_t m = 0; m < 61; ++m) {
    builder.on_batch(MinuteBucket(m), random_minute(m, 10, rng));
  }
  auto graphs = builder.take_graphs();
  ASSERT_FALSE(graphs.empty());
  WindowFrame frame;
  frame.shard_id = 0;
  frame.window_begin = graphs[0].window().begin().index();
  frame.trace_id = obs::window_trace_id(frame.window_begin) ^ 1;
  frame.keyframe = frame_bytes(graphs[0]);
  ASSERT_TRUE(pair->second.send(encode_window(frame)));

  EXPECT_FALSE(aggregator.run([](const CommGraph&) {}).has_value());
}

TEST(DistributedCollector, InconsistentEndOfStreamFailsTheRun) {
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};
  auto pair = net::socket_pair();
  ASSERT_TRUE(pair.has_value());

  Hello hello;
  hello.shard_id = 0;
  hello.shard_count = 1;
  hello.config = wire_config(config);
  ASSERT_TRUE(pair->second.send(encode_hello(hello)));
  // Claims one shipped window, shipped none: the aggregator must notice
  // the hole instead of reporting a clean (but incomplete) run.
  ASSERT_TRUE(pair->second.send(encode_end_of_stream({0, 100, 1})));

  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(pair->first));
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 2000,
                         .flight_dir = ::testing::TempDir()},
                        std::move(conns));
  ASSERT_TRUE(aggregator.handshake());
  EXPECT_FALSE(aggregator.run([](const CommGraph&) {}).has_value());
}

TEST(DistributedCollector, ArrivalOrderDoesNotMatter) {
  // Workers race to connect in `serve`; the hello's shard id, not arrival
  // order, decides the slot. Swap the connection order and the result must
  // still be byte-identical.
  Rng rng(55);
  std::vector<std::vector<ConnectionSummary>> minutes;
  for (std::int64_t m = 0; m < 60; ++m) {
    minutes.push_back(random_minute(m, 100, rng));
  }
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 60};

  GraphBuilder reference(config, all_monitored());
  for (std::size_t m = 0; m < minutes.size(); ++m) {
    reference.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
  }
  reference.flush();
  const auto expected = reference.take_graphs();
  ASSERT_EQ(expected.size(), 1u);

  auto a = net::socket_pair();
  auto b = net::socket_pair();
  ASSERT_TRUE(a.has_value() && b.has_value());
  std::vector<std::thread> workers;
  std::array<net::FrameConn, 2> worker_conns = {std::move(a->second),
                                                std::move(b->second)};
  for (std::size_t s = 0; s < 2; ++s) {
    workers.emplace_back([&, s, conn = std::move(worker_conns[s])]() mutable {
      ShardWorker worker({.shard_id = static_cast<std::uint32_t>(s),
                          .shard_count = 2,
                          .graph = config},
                         all_monitored(), std::move(conn));
      ASSERT_TRUE(worker.handshake());
      for (std::size_t m = 0; m < minutes.size(); ++m) {
        worker.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
      }
      EXPECT_TRUE(worker.finish());
    });
  }
  // Deliberately reversed: shard 1's connection first.
  std::vector<net::FrameConn> conns;
  conns.push_back(std::move(b->first));
  conns.push_back(std::move(a->first));
  Aggregator aggregator({.graph = config, .recv_timeout_ms = 10000},
                        std::move(conns));
  ASSERT_TRUE(aggregator.handshake());
  std::vector<CommGraph> merged;
  const auto result =
      aggregator.run([&](const CommGraph& g) { merged.push_back(g); });
  for (auto& t : workers) t.join();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(frame_bytes(merged[0]), frame_bytes(expected[0]));
}

}  // namespace
}  // namespace ccg::dist
