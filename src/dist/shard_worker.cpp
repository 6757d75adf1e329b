#include "ccg/dist/shard_worker.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ccg/common/expect.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/stage.hpp"
#include "ccg/store/format.hpp"

namespace ccg::dist {

namespace {

/// Shards build partial graphs: same facet and window length as the job,
/// collapse off. The aggregator collapses after the merge, through the
/// same finalize_window_graph a single GraphBuilder uses.
GraphBuildConfig partial_config(const GraphBuildConfig& job) {
  GraphBuildConfig config = job;
  config.collapse_threshold = 0.0;
  return config;
}

}  // namespace

ShardWorker::ShardWorker(ShardWorkerOptions options,
                         std::unordered_set<IpAddr> monitored,
                         net::FrameConn conn)
    : options_(options),
      builder_(partial_config(options.graph), std::move(monitored)),
      conn_(std::move(conn)) {
  conn_.set_shard(static_cast<int>(options_.shard_id));
  obs::Registry& registry = obs::Registry::global();
  const std::string prefix =
      "ccg.dist.shard." + std::to_string(options_.shard_id);
  m_records_ = &registry.counter(prefix + ".records");
  m_windows_ = &registry.counter(prefix + ".windows_shipped");
  m_bytes_ = &registry.counter(prefix + ".bytes_shipped");
  m_telemetry_ = &registry.counter(prefix + ".telemetry_frames");
  obs::declare_stages({&obs::stage::kDistShip});
}

bool ShardWorker::handshake() {
  Hello hello;
  hello.shard_id = options_.shard_id;
  hello.shard_count = options_.shard_count;
  hello.config = wire_config(options_.graph);
  if (!conn_.send(encode_hello(hello))) {
    failed_ = true;
    return false;
  }
  std::vector<std::uint8_t> payload;
  const net::RecvStatus status = conn_.recv(payload);
  if (status != net::RecvStatus::kOk || !decode_hello_ack(payload)) {
    // A clean EOF here is the aggregator's refusal (version or config
    // mismatch): it closes without acking.
    obs::log_error("dist: handshake refused by aggregator",
                   {obs::field("shard", options_.shard_id),
                    obs::field("peer", conn_.peer()),
                    obs::field("recv_status", static_cast<int>(status))});
    failed_ = true;
    return false;
  }
  return true;
}

bool ShardWorker::feed_failed(const char* reason) {
  obs::log_error("dist: shard feed failed",
                 {obs::field("shard", options_.shard_id),
                  obs::field("reason", reason),
                  obs::field("records", records_)});
  failed_ = true;
  return false;
}

bool ShardWorker::run(int recv_timeout_ms) {
  std::vector<std::uint8_t> payload;
  std::optional<std::int64_t> last_minute;
  for (;;) {
    const net::RecvStatus status = conn_.recv(payload, recv_timeout_ms);
    if (status == net::RecvStatus::kEof) {
      // The aggregator stopped feeding without kEndOfInput: its input
      // failed or it gave up, and a partial run must not look complete.
      return feed_failed("feed ended without end-of-input");
    }
    if (status != net::RecvStatus::kOk) return feed_failed("feed receive failed");
    switch (peek_type(payload).value_or(static_cast<MsgType>(0))) {
      case MsgType::kRecords: {
        const auto frame = decode_records(payload);
        if (!frame) return feed_failed("undecodable records frame");
        if (last_minute && frame->minute <= *last_minute) {
          return feed_failed("records frame out of minute order");
        }
        last_minute = frame->minute;
        ingest_minute(MinuteBucket(frame->minute), frame->new_locals,
                      frame->records);
        if (failed_) return false;  // a window ship failed; logged there
        break;
      }
      case MsgType::kEndOfInput: {
        const auto sent = decode_end_of_input(payload);
        if (!sent || *sent != records_) {
          return feed_failed("end-of-input record count disagrees");
        }
        return finish();
      }
      default:
        return feed_failed("unexpected message from aggregator");
    }
  }
}

void ShardWorker::on_batch(MinuteBucket time,
                           const std::vector<ConnectionSummary>& batch) {
  // Learn the monitored set from the whole minute, not just the partition:
  // an IP another shard sees as local may appear here only as a remote,
  // and the merged window must flag it exactly as `anomaly` does.
  locals_.clear();
  scratch_.clear();
  for (const ConnectionSummary& record : batch) {
    if (locals_.empty() || locals_.back() != record.flow.local_ip) {
      locals_.push_back(record.flow.local_ip);
    }
    if (shard_of_record(record, options_.graph.facet, options_.shard_count) ==
        options_.shard_id) {
      scratch_.push_back(record);
    }
  }
  ingest_minute(time, locals_, scratch_);
}

void ShardWorker::ingest_minute(MinuteBucket time,
                                std::span<const IpAddr> locals,
                                const std::vector<ConnectionSummary>& records) {
  // Earlier windows close first, so this minute's IPs never leak into them.
  const std::optional<TimeWindow> before = builder_.current_window();
  builder_.advance_to(time);
  const TimeWindow window = *builder_.current_window();
  if (before && *before != window) ship_window(before->begin().index());
  for (const IpAddr ip : locals) builder_.learn_local(ip);
  records_ += records.size();
  m_records_->add(records.size());
  builder_.on_batch(time, records);  // closes the window at its last minute
  if (!builder_.current_window()) ship_window(window.begin().index());
  // Piggyback one telemetry shipment per minute: the aggregator sees fresh
  // per-shard series without a timer.
  ship_telemetry();
}

void ShardWorker::ship_window(std::int64_t begin) {
  static const CommGraph empty_base;
  std::vector<CommGraph> graphs = builder_.take_graphs();
  // The builder emits a graph only for a window with edges, and only the
  // window closing now can be complete.
  CCG_EXPECT(graphs.size() <= 1);
  const CommGraph graph =
      graphs.empty()
          ? CommGraph(TimeWindow::minutes(begin, options_.graph.window_minutes))
          : std::move(graphs.front());
  CCG_EXPECT(graph.window().begin().index() == begin);
  WindowFrame frame;
  frame.shard_id = options_.shard_id;
  frame.window_begin = begin;
  frame.trace_id = obs::window_trace_id(begin);
  // The ship span belongs to the window being shipped; the aggregator
  // re-installs the same trace id around its merge, so the distributed
  // window's spans line up across processes.
  obs::Stage stage(obs::stage::kDistShip, begin);
  frame.keyframe =
      store::encode_frame(store::FrameKind::kKeyframe, empty_base, graph);
  const std::vector<std::uint8_t> payload = encode_window(frame);
  if (!conn_.send(payload)) {
    obs::log_error("dist: window ship failed",
                   {obs::field("shard", options_.shard_id),
                    obs::field("window_begin", begin),
                    obs::field("trace", frame.trace_id)});
    failed_ = true;
    return;
  }
  ++windows_;
  m_windows_->add();
  m_bytes_->add(payload.size());
}

void ShardWorker::ship_telemetry() {
  TelemetryFrame frame;
  frame.shard_id = options_.shard_id;
  obs::Snapshot current;
  frame.metrics =
      obs::Registry::global().snapshot_delta(last_shipped_, &current);

  obs::LogRing& logs = obs::LogRing::global();
  const std::vector<obs::LogRecord> retained_logs = logs.records();
  const std::size_t logs_total = retained_logs.size() + logs.dropped();
  if (logs_total > logs_seen_) {
    const std::size_t fresh =
        std::min(logs_total - logs_seen_, retained_logs.size());
    frame.logs.assign(retained_logs.end() - static_cast<std::ptrdiff_t>(fresh),
                      retained_logs.end());
  }

  obs::TraceRing& traces = obs::TraceRing::global();
  const std::vector<obs::TraceEvent> retained_spans = traces.events();
  const std::size_t spans_total = retained_spans.size() + traces.dropped();
  if (spans_total > spans_seen_) {
    const std::size_t fresh =
        std::min(spans_total - spans_seen_, retained_spans.size());
    frame.spans.assign(
        retained_spans.end() - static_cast<std::ptrdiff_t>(fresh),
        retained_spans.end());
  }

  if (frame.metrics.counters.empty() && frame.metrics.gauges.empty() &&
      frame.metrics.histograms.empty() && frame.logs.empty() &&
      frame.spans.empty()) {
    return;  // nothing new; don't burn a frame
  }
  frame.seq = telemetry_seq_;
  if (!conn_.send(encode_telemetry(frame))) {
    // Out-of-band: a lost telemetry frame never fails the worker. The
    // baselines are not advanced, so the data rides the next shipment.
    obs::log_warn("dist: telemetry ship failed",
                  {obs::field("shard", options_.shard_id),
                   obs::field("seq", frame.seq)});
    return;
  }
  ++telemetry_seq_;
  m_telemetry_->add();
  last_shipped_ = std::move(current);
  logs_seen_ = logs_total;
  spans_seen_ = spans_total;
}

bool ShardWorker::finish() {
  const std::optional<TimeWindow> open = builder_.current_window();
  builder_.flush();
  if (open) ship_window(open->begin().index());
  ship_telemetry();
  EndOfStream eos;
  eos.shard_id = options_.shard_id;
  eos.records = records_;
  eos.windows = windows_;
  if (!conn_.send(encode_end_of_stream(eos))) failed_ = true;
  if (failed_) {
    obs::log_error("dist: shard worker finished with transport errors",
                   {obs::field("shard", options_.shard_id),
                    obs::field("records", records_),
                    obs::field("windows", windows_)});
  }
  return !failed_;
}

}  // namespace ccg::dist
