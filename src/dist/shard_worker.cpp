#include "ccg/dist/shard_worker.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ccg/obs/log.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/store/format.hpp"

namespace ccg::dist {

namespace {

/// Shards build partial graphs: same facet and window length as the job,
/// collapse off. The aggregator collapses after the merge, exactly like
/// the in-process pipeline.
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
  m_ship_ = &obs::span_histogram("ccg.dist.shard.ship");
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

void ShardWorker::on_batch(MinuteBucket time,
                           const std::vector<ConnectionSummary>& batch) {
  // Learn the monitored set from the whole minute before the partition
  // filter: an IP another shard sees as local may appear here only as a
  // remote, and the merged window must flag it exactly as `anomaly` does.
  // Earlier windows close first, so this minute's IPs never leak into them.
  builder_.advance_to(time);
  scratch_.clear();
  for (const ConnectionSummary& record : batch) {
    builder_.learn_local(record.flow.local_ip);
    if (shard_of_record(record, options_.graph.facet, options_.shard_count) ==
        options_.shard_id) {
      scratch_.push_back(record);
    }
  }
  records_ += scratch_.size();
  m_records_->add(scratch_.size());
  builder_.on_batch(time, scratch_);
  if (!ship_closed_windows()) failed_ = true;
}

bool ShardWorker::ship_closed_windows() {
  static const CommGraph empty_base;
  bool ok = true;
  for (const CommGraph& graph : builder_.take_graphs()) {
    const std::int64_t begin = graph.window().begin().index();
    WindowFrame frame;
    frame.shard_id = options_.shard_id;
    frame.window_begin = begin;
    frame.trace_id = obs::window_trace_id(begin);
    // The ship span belongs to the window being shipped; the aggregator
    // re-installs the same trace id around its merge, so the distributed
    // window's spans line up across processes.
    obs::TraceScope trace({frame.trace_id, 0});
    obs::ScopedSpan span(*m_ship_, "ccg.dist.shard.ship");
    frame.keyframe =
        store::encode_frame(store::FrameKind::kKeyframe, empty_base, graph);
    const std::vector<std::uint8_t> payload = encode_window(frame);
    if (!conn_.send(payload)) {
      obs::log_error("dist: window ship failed",
                     {obs::field("shard", options_.shard_id),
                      obs::field("window_begin", begin),
                      obs::field("trace", frame.trace_id)});
      ok = false;
      continue;
    }
    ++windows_;
    m_windows_->add();
    m_bytes_->add(payload.size());
  }
  // Piggyback one telemetry shipment on window traffic: the aggregator
  // sees fresh per-shard series at window granularity without a timer.
  ship_telemetry();
  return ok;
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
  builder_.flush();
  if (!ship_closed_windows()) failed_ = true;
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
