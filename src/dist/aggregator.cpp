#include "ccg/dist/aggregator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "ccg/obs/config.hpp"
#include "ccg/obs/fleet.hpp"
#include "ccg/obs/flight.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/stage.hpp"
#include "ccg/store/format.hpp"

namespace ccg::dist {

namespace {

void dump(const std::string& flight_dir, const char* reason,
          std::uint64_t trace_id, const std::string& label) {
  const std::string path = obs::dump_flight_record(
      flight_dir.empty() ? "." : flight_dir, reason, trace_id, label);
  if (!path.empty()) {
    obs::log_error("dist: flight record dumped", {obs::field("path", path)});
  }
}

}  // namespace

Aggregator::Aggregator(AggregatorOptions options,
                       std::vector<net::FrameConn> conns)
    : options_(std::move(options)), incoming_(std::move(conns)) {
  obs::Registry& registry = obs::Registry::global();
  m_windows_merged_ = &registry.counter("ccg.dist.agg.windows_merged");
  m_frames_ = &registry.counter("ccg.dist.agg.frames_received");
  m_telemetry_ = &registry.counter("ccg.dist.agg.telemetry_frames");
  m_pending_hwm_ = &registry.gauge("ccg.dist.agg.queue_depth_hwm");
  obs::declare_stages({&obs::stage::kDistMergeWait, &obs::stage::kDistMerge});

  shards_.resize(incoming_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "ccg.dist.agg.shard." + std::to_string(s);
    shards_[s].windows = &registry.counter(prefix + ".windows");
    shards_[s].bytes = &registry.counter(prefix + ".bytes");
  }
}

bool Aggregator::handshake() {
  const WireConfig expected = wire_config(options_.graph);
  for (net::FrameConn& conn : incoming_) {
    std::vector<std::uint8_t> payload;
    const net::RecvStatus status = conn.recv(payload, options_.recv_timeout_ms);
    if (status != net::RecvStatus::kOk) {
      fail(0, "no hello from shard", 0);
      return false;
    }
    const auto hello = decode_hello(payload);
    if (!hello || hello->version != kWireVersion) {
      obs::log_error("dist: handshake version mismatch — refusing shard",
                     {obs::field("got_version", hello ? hello->version : 0),
                      obs::field("want_version", kWireVersion)});
      conn.close();  // no ack: the shard reads this as refusal
      return false;
    }
    if (hello->shard_count != shards_.size() ||
        hello->shard_id >= shards_.size() ||
        shards_[hello->shard_id].conn.valid() ||
        !(hello->config == expected)) {
      obs::log_error("dist: handshake config mismatch — refusing shard",
                     {obs::field("announced_shard", hello->shard_id),
                      obs::field("announced_count", hello->shard_count),
                      obs::field("want_count", shards_.size())});
      conn.close();
      return false;
    }
    // Workers race to connect, so arrival order is arbitrary: the hello's
    // shard id decides the slot, which keeps the merge order (ascending
    // shard id) independent of connection timing.
    const std::size_t s = hello->shard_id;
    shards_[s].conn = std::move(conn);
    shards_[s].conn.set_shard(static_cast<int>(s));
    if (!shards_[s].conn.send(encode_hello_ack())) {
      fail(s, "hello ack send failed", 0);
      return false;
    }
  }
  incoming_.clear();
  return true;
}

bool Aggregator::advance(std::size_t s) {
  ShardState& shard = shards_[s];
  const long timeout_ms = options_.recv_timeout_ms >= 0
                              ? options_.recv_timeout_ms
                              : obs::runtime_config().net_timeout_ms;
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::vector<pollfd> fds;
  std::vector<std::size_t> ids;
  while (!shard.done && shard.pending.empty()) {
    // Wait on every live shard, not just s: a shard whose frames went
    // unread would block in send, stop reading its feed, and stall the
    // feeder that s is waiting on.
    fds.clear();
    ids.clear();
    for (std::size_t t = 0; t < shards_.size(); ++t) {
      if (shards_[t].done) continue;
      fds.push_back({shards_[t].conn.fd(), POLLIN, 0});
      ids.push_back(t);
    }
    int wait_ms = -1;  // timeout 0: wait forever
    if (timeout_ms > 0) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - Clock::now());
      wait_ms = static_cast<int>(std::max<std::int64_t>(left.count(), 0));
    }
    const int ready = ::poll(fds.data(), fds.size(), wait_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      fail(s, ready == 0 ? "shard timed out" : "poll failed", 0);
      return false;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (!receive(ids[i])) return false;
      if (ids[i] == s) {
        deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
      }
    }
  }
  return true;
}

bool Aggregator::receive(std::size_t s) {
  ShardState& shard = shards_[s];
  std::vector<std::uint8_t> payload;
  const net::RecvStatus status =
      shard.conn.recv(payload, options_.recv_timeout_ms);
  if (status != net::RecvStatus::kOk) {
    // A clean EOF without kEndOfStream is a crashed shard: its final
    // windows may be missing, so the run cannot be trusted.
    fail(s,
         status == net::RecvStatus::kTimeout ? "shard timed out"
         : status == net::RecvStatus::kEof   ? "shard closed without end-of-stream"
                                             : "shard stream error",
         0);
    return false;
  }
  m_frames_->add();
  switch (peek_type(payload).value_or(static_cast<MsgType>(0))) {
    case MsgType::kWindow: {
      auto frame = decode_window(payload);
      if (!frame || frame->shard_id != s) {
        fail(s, "undecodable window frame", 0);
        return false;
      }
      // The shipped trace id must be the deterministic one — a mismatch
      // means the processes disagree about window identity.
      if (frame->trace_id != obs::window_trace_id(frame->window_begin)) {
        fail(s, "window trace id mismatch", frame->window_begin);
        return false;
      }
      // Windows must arrive in increasing order per shard; the barrier
      // relies on it.
      shard.bytes->add(payload.size());
      shard.pending.push_back(std::move(*frame));
      ++pending_;
      m_pending_hwm_->update_max(static_cast<double>(pending_));
      break;
    }
    case MsgType::kEndOfStream: {
      const auto eos = decode_end_of_stream(payload);
      if (!eos || eos->shard_id != s ||
          eos->windows != shard.merged + shard.pending.size()) {
        fail(s, "inconsistent end-of-stream", 0);
        return false;
      }
      shard.records = eos->records;
      shard.done = true;
      break;
    }
    case MsgType::kTelemetry: {
      // Out-of-band: merged into the fleet registry and the barrier loop
      // keeps reading. A malformed frame still fails the run — the
      // transport is supposed to be clean.
      auto frame = decode_telemetry(payload);
      if (!frame || frame->shard_id != s) {
        fail(s, "undecodable telemetry frame", 0);
        return false;
      }
      obs::FleetRegistry& fleet = obs::FleetRegistry::global();
      fleet.apply(frame->shard_id, frame->metrics);
      if (!frame->logs.empty()) {
        // Shipped records worth mirroring reach this terminal too,
        // tagged with their shard — through the same threshold and rate
        // limiter as local records.
        for (const obs::LogRecord& record : frame->logs) {
          obs::mirror_shard_record(frame->shard_id, record);
        }
        fleet.add_logs(frame->shard_id, frame->logs);
      }
      if (!frame->spans.empty()) {
        fleet.add_spans(frame->shard_id, frame->spans);
      }
      m_telemetry_->add();
      break;
    }
    default:
      fail(s, "unexpected message type", 0);
      return false;
  }
  return true;
}

std::vector<net::FrameConn*> Aggregator::connections() {
  std::vector<net::FrameConn*> conns;
  for (ShardState& shard : shards_) conns.push_back(&shard.conn);
  return conns;
}

std::optional<Aggregator::Result> Aggregator::run(const WindowSink& sink) {
  Result result;
  std::int64_t last_window = std::numeric_limits<std::int64_t>::min();
  for (;;) {
    // Barrier: learn every live shard's next window (or its end-of-stream)
    // before deciding what to merge. The wait is how long the slowest
    // shard held the merge back, tracked per window.
    {
      obs::Stage stage(obs::stage::kDistMergeWait);
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (!advance(s)) return std::nullopt;
      }
    }

    std::int64_t window = std::numeric_limits<std::int64_t>::max();
    for (const ShardState& shard : shards_) {
      if (!shard.pending.empty()) {
        window = std::min(window, shard.pending.front().window_begin);
      }
    }
    if (pending_ == 0) break;  // every shard done and drained

    if (window <= last_window) {
      // Out-of-order shipment breaks the barrier invariant.
      fail(0, "window order violation", window);
      return std::nullopt;
    }
    last_window = window;

    obs::Stage stage(obs::stage::kDistMerge, window);

    // Ascending shard order: merge order is part of the determinism
    // contract (merge_graphs assigns NodeIds in first-seen order, and the
    // canonical pass needs identical inputs to be provably identical).
    std::vector<CommGraph> parts;
    bool edgeless = true;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ShardState& shard = shards_[s];
      if (shard.pending.empty() || shard.pending.front().window_begin != window) {
        continue;
      }
      auto part = store::decode_frame(shard.pending.front().keyframe, CommGraph());
      if (!part || part->window().begin().index() != window) {
        fail(s, "undecodable window keyframe", window);
        return std::nullopt;
      }
      shard.windows->add();
      ++shard.merged;
      edgeless = edgeless && part->edge_count() == 0;
      parts.push_back(std::move(*part));
      shard.pending.pop_front();
      --pending_;
    }
    // Every shard ships every window the minute stream closes; one whose
    // parts are all empty is a window a single GraphBuilder never emits.
    if (edgeless) continue;
    const CommGraph merged =
        finalize_window_graph(merge_graphs(parts), options_.graph);
    sink(merged);
    ++result.windows;
    m_windows_merged_->add();
  }

  for (const ShardState& shard : shards_) result.records += shard.records;
  return result;
}

void Aggregator::fail(std::size_t shard, const char* reason,
                      std::int64_t window_begin) {
  const std::uint64_t trace_id =
      window_begin != 0 ? obs::window_trace_id(window_begin) : 0;
  obs::log_error("dist: aggregation failed — aborting run",
                 {obs::field("shard", shard), obs::field("reason", reason),
                  obs::field("window_begin", window_begin),
                  obs::field("trace", trace_id)});
  // A shard that fails because the feed was cut off is not the cause: the
  // feed-failure record already names it.
  if (feed_failed_.load()) return;
  dump(options_.flight_dir, "shard-failure", trace_id,
       "shard " + std::to_string(shard) + ": " + reason);
}

void Aggregator::fail_feed(const std::string& error) {
  obs::log_error("dist: the feed's input failed — aborting run",
                 {obs::field("error", error)});
  feed_failed_.store(true);
  dump(options_.flight_dir, "feed-failure", 0, error);
}

}  // namespace ccg::dist
