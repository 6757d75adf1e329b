// The aggregator's feed of the distributed collector (docs/DISTRIBUTED.md).
//
// The aggregator is the only process that reads the flow log. A feeder
// thread streams it into a RecordRouter, which partitions every minute by
// shard_of_record and sends each shard one kRecords frame: the minute, the
// IPs first seen as local in it, and that shard's records. Each worker sees
// only its own stream, like the per-worker gutters of GraphStreamingCC, and
// parsing happens once however many shards there are. Meanwhile the
// aggregator's own thread runs the barrier merge on the same connections.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "ccg/dist/aggregator.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/telemetry/collector.hpp"

namespace ccg::dist {

class RecordRouter : public TelemetrySink {
 public:
  /// `shards` in shard-id order (Aggregator::connections()).
  RecordRouter(GraphFacet facet, std::vector<net::FrameConn*> shards);
  ~RecordRouter() override;
  RecordRouter(const RecordRouter&) = delete;
  RecordRouter& operator=(const RecordRouter&) = delete;

  /// Routes one minute: a kRecords frame to every shard, even one whose
  /// partition is empty, so every worker closes every window in step and
  /// the merge barrier never waits on a shard starved of input. Throws
  /// std::runtime_error when a send fails, which stops the feed.
  void on_batch(MinuteBucket time,
                const std::vector<ConnectionSummary>& batch) override;

  /// Ends a complete feed: kEndOfInput, with the number of records the
  /// shard was sent, to every shard. False when a send failed.
  bool finish();

  /// Ends a feed that stopped early: shuts down every connection's sending
  /// side, so each worker reads end-of-stream without kEndOfInput and
  /// fails, and with it the run. `both` (the merge failed) also shuts the
  /// receiving side, which unblocks a feeder stuck in send, and signals
  /// stop_fd(), which unblocks one waiting for input.
  void abort(bool both);

  /// Readable once abort(true) ran; -1 when the pipe behind it could not
  /// be made. A feed whose input can stall (a FIFO) waits on it next to
  /// the input, as stream_flow_log's `stop_fd` does, so a failed merge
  /// always ends the feeder.
  int stop_fd() const { return stop_read_; }

  /// True once a send failed or abort(true) ran: the feed was cut off by
  /// its shards or the merge, not by its input. Any thread.
  bool cut_off() const { return cut_off_.load(); }

  /// Records routed so far, over every shard.
  std::uint64_t records() const { return records_; }

 private:
  void send(std::size_t shard, std::span<const std::uint8_t> payload);

  GraphFacet facet_;
  std::vector<net::FrameConn*> shards_;
  std::unordered_set<IpAddr> seen_locals_;
  std::vector<IpAddr> new_locals_;  // this minute's first-seen local IPs
  std::vector<std::vector<ConnectionSummary>> parts_;  // per-shard minute
  std::vector<std::uint64_t> sent_;  // records sent to each shard
  std::vector<std::vector<std::uint8_t>> scratch_;  // per-shard frame buffer
  std::vector<std::span<const std::uint8_t>> payloads_;  // views of scratch_
  std::uint64_t records_ = 0;
  int stop_read_ = -1;   // stop_fd()
  int stop_write_ = -1;  // closed by abort(true): stop_read_ hangs up
  std::atomic<bool> cut_off_{false};

  obs::Counter* m_bytes_ = nullptr;   // ccg.dist.route.bytes
};

/// One parse-once aggregation over handshaken connections: `feed` streams
/// the input into the router on a feeder thread (returning false, or
/// throwing, when the input fails) while this thread runs
/// aggregator.run(sink). A complete feed ends with kEndOfInput; a failed
/// one is aborted, so the workers and the run fail loudly; when its input
/// failed, the aggregator dumps one `feed-failure` flight record labelled
/// with the feed's exception text. A failed merge
/// aborts the router, so the feeder cannot stay blocked in send or, if the
/// feed waits on router.stop_fd(), on input. The
/// result's record count, summed from the workers' end-of-stream messages,
/// must equal the records routed. nullopt when anything failed; the feed's
/// exception text, if any, lands in `feed_error`.
std::optional<Aggregator::Result> run_routed(
    Aggregator& aggregator, GraphFacet facet,
    const std::function<bool(RecordRouter&)>& feed,
    const Aggregator::WindowSink& sink, std::string* feed_error = nullptr);

}  // namespace ccg::dist
