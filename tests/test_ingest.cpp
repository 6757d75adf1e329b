// Streaming flow-log ingest: the in-place row parser against a reference
// built on parse_csv_line, the block reader over pipes, and the streaming
// contracts downstream of it (reports before EOF, the online monitored
// set, closed windows staying closed).
#include "ccg/telemetry/flow_log.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/common/csv.hpp"
#include "ccg/common/expect.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/telemetry/serialize.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

// --- reference row parser -----------------------------------------------------

std::optional<std::uint64_t> ref_u64(const std::string& s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// Reference row parser: every field allocated through parse_csv_line,
/// then converted.
std::optional<ConnectionSummary> reference_from_csv(std::string_view line) {
  const std::vector<std::string> f = parse_csv_line(line);
  if (f.size() != 11) return std::nullopt;
  std::int64_t t = 0;
  auto [ptr, ec] = std::from_chars(f[0].data(), f[0].data() + f[0].size(), t);
  if (ec != std::errc{} || ptr != f[0].data() + f[0].size()) return std::nullopt;
  const auto proto = ref_u64(f[1]);
  const auto lip = IpAddr::parse(f[2]);
  const auto lport = ref_u64(f[3]);
  const auto rip = IpAddr::parse(f[4]);
  const auto rport = ref_u64(f[5]);
  const auto ps = ref_u64(f[6]);
  const auto pr = ref_u64(f[7]);
  const auto bs = ref_u64(f[8]);
  const auto br = ref_u64(f[9]);
  const auto init = ref_u64(f[10]);
  if (!proto || !lip || !lport || !rip || !rport || !ps || !pr || !bs || !br ||
      !init) {
    return std::nullopt;
  }
  if (*lport > 0xFFFF || *rport > 0xFFFF) return std::nullopt;
  if (*proto != 1 && *proto != 6 && *proto != 17) return std::nullopt;
  if (*init > 2) return std::nullopt;
  return ConnectionSummary{
      .time = MinuteBucket(t),
      .flow = FlowKey{.local_ip = *lip,
                      .local_port = static_cast<std::uint16_t>(*lport),
                      .remote_ip = *rip,
                      .remote_port = static_cast<std::uint16_t>(*rport),
                      .protocol = static_cast<Protocol>(*proto)},
      .counters = TrafficCounters{.packets_sent = *ps,
                                  .packets_rcvd = *pr,
                                  .bytes_sent = *bs,
                                  .bytes_rcvd = *br},
      .initiator = static_cast<Initiator>(*init)};
}

ConnectionSummary golden_record(Rng& rng) {
  const Protocol protocols[] = {Protocol::kTcp, Protocol::kUdp, Protocol::kIcmp};
  return ConnectionSummary{
      .time = MinuteBucket(static_cast<std::int64_t>(rng.uniform(5000)) - 100),
      .flow = FlowKey{.local_ip = IpAddr(static_cast<std::uint32_t>(rng.next())),
                      .local_port = static_cast<std::uint16_t>(rng.uniform(65536)),
                      .remote_ip = IpAddr(static_cast<std::uint32_t>(rng.next())),
                      .remote_port = static_cast<std::uint16_t>(rng.uniform(65536)),
                      .protocol = protocols[rng.uniform(3)]},
      .counters = TrafficCounters{.packets_sent = rng.uniform(1 << 20),
                                  .packets_rcvd = rng.uniform(1 << 20),
                                  .bytes_sent = rng.next(),
                                  .bytes_rcvd = rng.next() % (1ull << 40)},
      .initiator = static_cast<Initiator>(rng.uniform(3))};
}

/// Field [begin, end) offsets of a golden (unquoted) row.
std::vector<std::pair<std::size_t, std::size_t>> field_spans(const std::string& row) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= row.size(); ++i) {
    if (i == row.size() || row[i] == ',') {
      spans.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  return spans;
}

/// One random edit of the kinds a hostile or sloppy exporter produces.
std::string mutate(std::string row, Rng& rng) {
  const auto spans = field_spans(row);
  const auto [b, e] = spans[rng.uniform(spans.size())];
  const std::size_t at = rng.uniform(row.size() + 1);
  switch (rng.uniform(16)) {
    case 0:  // quote a whole field
      row.insert(e, "\"");
      row.insert(b, "\"");
      break;
    case 1:  // stray quote anywhere
      row.insert(at, "\"");
      break;
    case 2:  // doubled quote inside a quoted field
      row.insert(e, "\"\"\"");
      row.insert(b, "\"");
      break;
    case 3:  // \r inside a field
      row.insert(b + rng.uniform(e - b + 1), "\r");
      break;
    case 4:  // \r inside a quoted field
      row.insert(e, "\r\"");
      row.insert(b, "\"");
      break;
    case 5:  // empty field
      row.erase(b, e - b);
      break;
    case 6:  // missing field
      row.erase(b, std::min(e + 1, row.size()) - b);
      break;
    case 7:  // extra field
      row.insert(at, ",");
      break;
    case 8:
      row.insert(b, "+");
      break;
    case 9:
      row.insert(b, "-");
      break;
    case 10:  // leading zeros
      row.insert(b, std::string(1 + rng.uniform(25), '0'));
      break;
    case 11: {  // 20+ digit number
      std::string digits = std::to_string(1 + rng.uniform(9));
      digits.append(19 + rng.uniform(4), static_cast<char>('0' + rng.uniform(10)));
      row.replace(b, e - b, digits);
      break;
    }
    case 12:  // NUL byte
      row.insert(at, std::string(1, '\0'));
      break;
    case 13:  // trailing \r (CRLF)
      row.push_back('\r');
      break;
    case 14:  // whitespace
      row.insert(at, " ");
      break;
    default:  // byte flip
      if (!row.empty()) row[rng.uniform(row.size())] = static_cast<char>(rng.next());
      break;
  }
  return row;
}

TEST(IngestParser, MatchesReferenceOnMutatedRows) {
  Rng rng(20231113);
  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 40000; ++i) {
    std::string row = to_csv(golden_record(rng));
    const int edits = 1 + static_cast<int>(rng.uniform(3));
    for (int k = 0; k < edits; ++k) row = mutate(std::move(row), rng);
    const auto expected = reference_from_csv(row);
    const auto actual = from_csv(row);
    ASSERT_EQ(expected.has_value(), actual.has_value()) << "row: " << row;
    if (expected) {
      ASSERT_EQ(*expected, *actual) << "row: " << row;
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Both verdicts must be well exercised for the comparison to mean much.
  EXPECT_GT(accepted, 4000u);
  EXPECT_GT(rejected, 4000u);
}

TEST(IngestParser, AcceptsQuotedAndCrlfRowsLikeTheReference) {
  const std::string plain = "5,6,10.0.0.1,443,10.0.0.2,50000,1,2,3,4,1";
  const auto rec = from_csv(plain);
  ASSERT_TRUE(rec.has_value());
  for (const std::string& row :
       {plain + "\r", std::string("\"5\",6,\"10.0.0.1\",443,10.0.0.2,50000,1,2,3,4,1"),
        std::string("5,6,10.0.\"0\".1,443,10.0.0.2,50000,1,2,3,4,1\r"),
        std::string("5,6,10.0.0.1,4\r43,10.0.0.2,50000,1,2,3,4,1")}) {
    const auto parsed = from_csv(row);
    ASSERT_TRUE(parsed.has_value()) << row;
    EXPECT_EQ(*parsed, *rec);
  }
  EXPECT_FALSE(from_csv("\"5,6,10.0.0.1,443,10.0.0.2,50000,1,2,3,4,1\""));
  EXPECT_FALSE(from_csv(plain + ",7"));
  EXPECT_FALSE(from_csv("+5,6,10.0.0.1,443,10.0.0.2,50000,1,2,3,4,1"));
  EXPECT_FALSE(from_csv("5,6,10.0.0.1,443,10.0.0.2,50000,1,2,3,18446744073709551616,1"));
}

// --- the block reader ---------------------------------------------------------

/// Records every batch the reader delivers.
struct CaptureSink : TelemetrySink {
  std::vector<std::pair<MinuteBucket, std::vector<ConnectionSummary>>> batches;
  void on_batch(MinuteBucket time, const std::vector<ConnectionSummary>& batch) override {
    batches.emplace_back(time, batch);
  }
  std::vector<ConnectionSummary> records() const {
    std::vector<ConnectionSummary> out;
    for (const auto& [time, batch] : batches) out.insert(out.end(), batch.begin(), batch.end());
    return out;
  }
};

/// A few minutes of tiny-preset telemetry, sorted by minute as simulate
/// writes it.
std::vector<ConnectionSummary> simulated_records(int minutes, std::uint64_t seed = 5) {
  Cluster cluster(presets::tiny(), seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);
  std::vector<ConnectionSummary> out;
  for (std::int64_t m = 0; m < minutes; ++m) {
    const auto batch = driver.step(MinuteBucket(m));
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

std::string csv_text(const std::vector<ConnectionSummary>& records,
                     const std::string& eol = "\n", bool trailing_eol = true) {
  std::string text = csv_header() + eol;
  for (std::size_t i = 0; i < records.size(); ++i) {
    text += to_csv(records[i]);
    if (trailing_eol || i + 1 < records.size()) text += eol;
  }
  return text;
}

/// Writes `text` into a pipe from a thread, in chunks whose sizes cycle
/// through `chunks`, while the reader drains the other end: rows split
/// across read(2) calls wherever the chunks cut them.
std::optional<IngestStats> stream_through_pipe(const std::string& text,
                                               std::vector<std::size_t> chunks,
                                               TelemetrySink& sink) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    std::size_t pos = 0, k = 0;
    while (pos < text.size()) {
      const std::size_t n = std::min(chunks[k++ % chunks.size()], text.size() - pos);
      EXPECT_EQ(::write(fds[1], text.data() + pos, n), static_cast<ssize_t>(n));
      pos += n;
    }
    ::close(fds[1]);
  });
  const auto stats = stream_flow_log(fds[0], sink);
  writer.join();
  ::close(fds[0]);
  return stats;
}

/// The minute batches a correct reader must deliver for `records`.
std::vector<std::pair<MinuteBucket, std::vector<ConnectionSummary>>> minute_batches(
    const std::vector<ConnectionSummary>& records) {
  std::vector<std::pair<MinuteBucket, std::vector<ConnectionSummary>>> out;
  for (const auto& r : records) {
    if (out.empty() || out.back().first != r.time) out.emplace_back(r.time, std::vector<ConnectionSummary>{});
    out.back().second.push_back(r);
  }
  return out;
}

TEST(FlowLogReader, SplitsRowsAcrossArbitraryChunks) {
  const auto records = simulated_records(6);
  ASSERT_GT(records.size(), 100u);
  const std::string text = csv_text(records);
  const auto expected = minute_batches(records);
  const std::vector<std::vector<std::size_t>> chunkings = {
      {1}, {3, 17, 61, 1, 250}, {4093}, {1 << 16}};
  for (const auto& chunks : chunkings) {
    CaptureSink sink;
    const auto stats = stream_through_pipe(text, chunks, sink);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->rows, records.size());
    EXPECT_EQ(stats->bytes, text.size());
    EXPECT_EQ(stats->malformed_rows, 0u);
    EXPECT_EQ(sink.batches, expected) << "first chunk " << chunks[0];
  }
}

TEST(FlowLogReader, ReadsTheLastRowWithoutATrailingNewline) {
  const auto records = simulated_records(2);
  CaptureSink sink;
  const auto stats =
      stream_through_pipe(csv_text(records, "\n", false), {5}, sink);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rows, records.size());
  EXPECT_EQ(sink.records(), records);
}

TEST(FlowLogReader, ReadsCrlfLogs) {
  const auto records = simulated_records(3);
  CaptureSink sink;
  const auto stats = stream_through_pipe(csv_text(records, "\r\n"), {9}, sink);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->malformed_rows, 0u);
  EXPECT_EQ(sink.batches, minute_batches(records));
}

TEST(FlowLogReader, HeaderOnlyLogHasNoRows) {
  CaptureSink sink;
  const auto stats = stream_through_pipe(csv_header() + "\n", {1}, sink);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rows, 0u);
  EXPECT_EQ(stats->malformed_rows, 0u);
  EXPECT_TRUE(sink.batches.empty());
}

TEST(FlowLogReader, StopFdEndsAReadBlockedOnAnIdlePipe) {
  // Two minutes arrive, then the writer goes quiet without closing: the
  // reader delivers minute 0 and blocks. Closing the stop pipe's write end
  // must end the read with an exception, minute 1 (still open) undelivered.
  const auto records = simulated_records(2);
  std::string text = csv_header() + "\n";
  for (const auto& r : records) text += to_csv(r) + "\n";
  int input[2], stop[2];
  ASSERT_EQ(::pipe(input), 0);
  ASSERT_EQ(::pipe(stop), 0);
  ASSERT_EQ(::write(input[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(stop[1]);
  });
  CaptureSink sink;
  EXPECT_THROW(stream_flow_log(input[0], sink, stop[0]), std::runtime_error);
  stopper.join();
  ASSERT_EQ(sink.batches.size(), 1u);
  EXPECT_EQ(sink.batches[0].first, MinuteBucket(0));
  for (int fd : {input[0], input[1], stop[0]}) ::close(fd);
}

TEST(FlowLogReader, CountsMalformedRowsWithTheFirstLineNumber) {
  const auto records = simulated_records(2);
  std::string text = csv_header() + "\n" + to_csv(records[0]) + "\n\nnot,a,row\n";
  for (std::size_t i = 1; i < records.size(); ++i) text += to_csv(records[i]) + "\n";
  text += "1,2,3\n";
  text += std::string(kFlowLogMaxLineBytes + 10, '7') + "\n";  // over-long line
  text += to_csv(records.back()) + "\n";

  const obs::Counter& malformed =
      obs::Registry::global().counter("ccg.ingest.malformed_rows");
  const obs::Counter& rows = obs::Registry::global().counter("ccg.ingest.rows");
  const std::uint64_t malformed0 = malformed.value();
  const std::uint64_t rows0 = rows.value();
  CaptureSink sink;
  const auto stats = stream_through_pipe(text, {4096}, sink);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->malformed_rows, 3u);
  EXPECT_EQ(stats->first_malformed_line, 4u);  // header, row, empty line, then it
  EXPECT_EQ(stats->rows, records.size() + 1);
  EXPECT_EQ(malformed.value() - malformed0, 3u);
  EXPECT_EQ(rows.value() - rows0, records.size() + 1);
}

TEST(FlowLogReader, ReadCsvRunsTheSameRowParser) {
  const auto records = simulated_records(2);
  std::istringstream in(csv_text(records, "\r\n") + "garbage\n");
  std::size_t dropped = 0;
  EXPECT_EQ(read_csv(in, &dropped), records);
  EXPECT_EQ(dropped, 1u);
}

// --- streaming behaviour ------------------------------------------------------

TEST(StreamingIngest, ReportsAWindowBeforeTheMinuteAfterNextIsSent) {
  constexpr int kMinutes = 6;
  const auto records = simulated_records(kMinutes, 9);
  const auto batches = minute_batches(records);
  ASSERT_EQ(batches.size(), static_cast<std::size_t>(kMinutes));

  std::mutex mu;
  std::condition_variable cv;
  std::size_t reported = 0;
  AnalyticsServiceOptions options;
  options.graph.window_minutes = 1;
  options.training_windows = 1;
  options.spectral.rank = 2;
  AnalyticsService service(
      options, {}, [&](const WindowReport&) {
        std::lock_guard lock(mu);
        ++reported;
        cv.notify_all();
      });

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<int> waited_out{0};
  std::thread writer([&] {
    const std::string header = csv_header() + "\n";
    EXPECT_EQ(::write(fds[1], header.data(), header.size()),
              static_cast<ssize_t>(header.size()));
    for (int m = 0; m < kMinutes; ++m) {
      if (m >= 2) {
        // Window m-2 must have been reported before minute m goes out.
        std::unique_lock lock(mu);
        if (!cv.wait_for(lock, std::chrono::seconds(20),
                         [&] { return reported >= static_cast<std::size_t>(m - 1); })) {
          ++waited_out;
        }
      }
      std::string text;
      for (const auto& r : batches[static_cast<std::size_t>(m)].second) {
        text += to_csv(r) + "\n";
      }
      EXPECT_EQ(::write(fds[1], text.data(), text.size()),
                static_cast<ssize_t>(text.size()));
    }
    ::close(fds[1]);
  });
  const auto stats = stream_flow_log(fds[0], service);
  writer.join();
  ::close(fds[0]);
  service.flush();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(waited_out.load(), 0) << "a report waited for later minutes";
  EXPECT_EQ(service.windows_reported(), static_cast<std::size_t>(kMinutes));
}

ConnectionSummary flow(std::int64_t minute, const char* local, const char* remote) {
  return ConnectionSummary{
      .time = MinuteBucket(minute),
      .flow = FlowKey{.local_ip = *IpAddr::parse(local),
                      .local_port = 443,
                      .remote_ip = *IpAddr::parse(remote),
                      .remote_port = 50000,
                      .protocol = Protocol::kTcp},
      .counters = TrafficCounters{.packets_sent = 1, .packets_rcvd = 1,
                                  .bytes_sent = 100, .bytes_rcvd = 100},
      .initiator = Initiator::kRemote};
}

/// Writes `text` into a pipe and closes it; the reader gets the other end.
int pipe_with(const std::string& text) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_EQ(::write(fds[1], text.data(), text.size()), static_cast<ssize_t>(text.size()));
  ::close(fds[1]);
  return fds[0];
}

/// Late-monitored warn records in the log ring.
std::ptrdiff_t late_warns() {
  const auto records = obs::LogRing::global().records();
  return std::count_if(records.begin(), records.end(), [](const obs::LogRecord& r) {
    return r.level == obs::LogLevel::kWarn &&
           r.message.find("turned local") != std::string::npos;
  });
}

TEST(StreamingIngest, CountsAnIpThatTurnsLocalAfterAFinalizedWindow) {
  const IpAddr x = *IpAddr::parse("10.9.9.9");
  const std::vector<ConnectionSummary> log = {
      // Window 0: X only as a remote, of several locals.
      flow(0, "10.0.0.1", "10.9.9.9"), flow(0, "10.0.0.3", "10.9.9.9"),
      flow(0, "10.0.0.4", "10.9.9.9"), flow(0, "10.0.0.5", "10.9.9.9"),
      flow(1, "10.0.0.1", "10.0.0.2"),
      flow(2, "10.9.9.9", "10.0.0.1"),  // window 2: X reports as local
      flow(3, "10.9.9.9", "10.0.0.2")};
  const std::string text = csv_text(log);
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 1};
  const obs::Counter& late = obs::Registry::global().counter("ccg.graph.late_monitored");
  const auto check = [&](const std::vector<CommGraph>& graphs) {
    ASSERT_EQ(graphs.size(), 4u);
    const auto x0 = graphs[0].find_node(NodeKey::for_ip(x));
    ASSERT_TRUE(x0.has_value());
    EXPECT_FALSE(graphs[0].node_stats(*x0).monitored);
    const auto x2 = graphs[2].find_node(NodeKey::for_ip(x));
    ASSERT_TRUE(x2.has_value());
    EXPECT_TRUE(graphs[2].node_stats(*x2).monitored);
  };

  {
    SCOPED_TRACE("one builder");
    obs::LogRing::global().clear();
    const std::uint64_t late0 = late.value();
    GraphBuilder builder(config, {});
    const int fd = pipe_with(text);
    ASSERT_TRUE(stream_flow_log(fd, builder).has_value());
    ::close(fd);
    builder.flush();
    check(builder.graphs());
    EXPECT_EQ(late.value() - late0, 1u);
    EXPECT_EQ(late_warns(), 1);
  }
  {
    // `ccgraph report` streams into one builder and hands each finished
    // window to an analytics service through ingest_window. The service's
    // own builder never sees a record, so the late IP is counted once.
    SCOPED_TRACE("report: one builder + ingest_window");
    obs::LogRing::global().clear();
    const std::uint64_t late0 = late.value();
    GraphBuilder builder(config, {});
    const int fd = pipe_with(text);
    ASSERT_TRUE(stream_flow_log(fd, builder).has_value());
    ::close(fd);
    builder.flush();
    AnalyticsServiceOptions options;
    options.graph = config;
    options.training_windows = 1;
    std::size_t reports = 0;
    AnalyticsService service(options, {}, [&](const WindowReport&) { ++reports; });
    for (const CommGraph& graph : builder.graphs()) service.ingest_window(graph);
    EXPECT_EQ(reports, builder.graphs().size());
    check(builder.graphs());
    EXPECT_EQ(late.value() - late0, 1u);
    EXPECT_EQ(late_warns(), 1);
  }
}

TEST(StreamingIngest, NoLateIpsWhenLocalsAppearFirst) {
  const obs::Counter& late = obs::Registry::global().counter("ccg.graph.late_monitored");
  const std::uint64_t late0 = late.value();
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 2}, {});
  const auto records = simulated_records(10);
  for (const auto& [time, batch] : minute_batches(records)) builder.on_batch(time, batch);
  builder.flush();
  EXPECT_EQ(builder.graphs().size(), 5u);
  EXPECT_EQ(late.value(), late0);
}

TEST(StreamingIngest, ARecordInsideAClosedWindowFailsLoudly) {
  const std::vector<ConnectionSummary> log = {
      flow(0, "10.0.0.1", "10.0.0.2"), flow(1, "10.0.0.1", "10.0.0.3"),
      flow(2, "10.0.0.1", "10.0.0.2"),
      flow(1, "10.0.0.1", "10.0.0.4")};  // back inside the closed window [0, 2)
  std::size_t reports = 0;
  AnalyticsServiceOptions options;
  options.graph.window_minutes = 2;
  options.training_windows = 1;
  AnalyticsService service(options, {}, [&](const WindowReport&) { ++reports; });
  const int fd = pipe_with(csv_text(log));
  EXPECT_THROW(stream_flow_log(fd, service), std::runtime_error);
  ::close(fd);
  EXPECT_EQ(reports, 1u);  // minutes 0 and 1 went out before the bad row

  // The builder itself: the closed window is neither reopened nor emitted
  // twice.
  GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 2}, {});
  builder.on_batch(MinuteBucket(0), {log[0]});
  builder.on_batch(MinuteBucket(1), {log[1]});
  ASSERT_EQ(builder.graphs().size(), 1u);  // closed with its last minute
  EXPECT_THROW(builder.on_batch(MinuteBucket(1), {log[3]}), ContractViolation);
  EXPECT_THROW(builder.ingest(log[0]), ContractViolation);
  builder.flush();
  EXPECT_EQ(builder.graphs().size(), 1u);
}

TEST(FlowLogReader, RejectsADecreasingMinuteWhereverItFalls) {
  // One rule whether the recurring minute lies inside the open 60-minute
  // window (57, 58, 57) or behind the one its predecessor closes
  // (58, 59, 58): the run stops at the row, naming its line, and only the
  // minutes before it are delivered, so no window closes or reopens.
  for (const std::int64_t m : {57, 58}) {
    SCOPED_TRACE(m);
    const std::vector<ConnectionSummary> log = {
        flow(m, "10.0.0.1", "10.0.0.2"), flow(m + 1, "10.0.0.1", "10.0.0.3"),
        flow(m, "10.0.0.1", "10.0.0.4"), flow(m + 2, "10.0.0.1", "10.0.0.2")};
    CaptureSink capture;
    GraphBuilder builder({.facet = GraphFacet::kIp, .window_minutes = 60}, {});
    for (TelemetrySink* sink : {static_cast<TelemetrySink*>(&capture),
                                static_cast<TelemetrySink*>(&builder)}) {
      const int fd = pipe_with(csv_text(log));
      try {
        stream_flow_log(fd, *sink);
        ADD_FAILURE() << "a decreasing minute was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 4: minute " + std::to_string(m) +
                                             " follows minute " + std::to_string(m + 1)),
                  std::string::npos)
            << e.what();
      }
      ::close(fd);
    }
    ASSERT_EQ(capture.batches.size(), 1u);
    EXPECT_EQ(capture.batches[0].first, MinuteBucket(m));
    EXPECT_TRUE(builder.graphs().empty());
  }
}

}  // namespace
}  // namespace ccg
