// The shard-worker role of the distributed collector (docs/DISTRIBUTED.md).
//
// A ShardWorker builds per-window *partial* graphs (collapse disabled:
// traffic shares are meaningless on a partition) from its own partition of
// the record stream (shard_of_record), and ships every window the minute
// stream closes to the aggregator as a canonical keyframe tagged with shard
// id, window begin and the deterministic window trace id — an empty
// keyframe when the partition had no records in that window, so the
// aggregator's barrier never waits on a shard that has nothing to say.
//
// In `serve` the worker never opens the flow log: run() receives its
// partition from the aggregator, one kRecords frame per minute. on_batch()
// is the same ingest for a caller holding whole minutes (tests, benches).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "ccg/dist/wire.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/telemetry/collector.hpp"

namespace ccg::dist {

struct ShardWorkerOptions {
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  /// The *full* job config (including collapse): announced in the
  /// handshake so aggregator and shards provably agree; the local builder
  /// runs with collapse disabled regardless.
  GraphBuildConfig graph{};
};

class ShardWorker : public TelemetrySink {
 public:
  ShardWorker(ShardWorkerOptions options, std::unordered_set<IpAddr> monitored,
              net::FrameConn conn);

  /// Sends kHello and waits for kHelloAck. False (with a structured log
  /// record) when the aggregator refuses or the transport fails.
  bool handshake();

  /// Receives the aggregator's feed until kEndOfInput, ingesting each
  /// kRecords frame through ingest_minute, then checks the record count
  /// and finish()es. False, without kEndOfStream so the aggregator fails
  /// the run, when the feed ends early or times out, a frame is malformed
  /// or out of order, the count disagrees, or shipping fails.
  /// recv_timeout_ms follows FrameConn::recv.
  bool run(int recv_timeout_ms = -1);

  /// TelemetrySink hook for a whole minute: learns monitored IPs from
  /// every record, ingests this shard's records, ships the windows the
  /// minute closed. Transport errors surface in finish().
  void on_batch(MinuteBucket time,
                const std::vector<ConnectionSummary>& batch) override;

  /// Closes the final window, ships it, sends kEndOfStream. False if any
  /// ship failed (the aggregator is gone or refused).
  bool finish();

  std::uint64_t records() const { return records_; }
  std::uint64_t windows_shipped() const { return windows_; }
  std::uint64_t telemetry_shipped() const { return telemetry_seq_; }

 private:
  /// One minute of this shard's partition. Learns `locals` (IPs local in
  /// this minute, whichever shard owns their records) before ingesting
  /// `records`, then ships every window the minute closed.
  void ingest_minute(MinuteBucket time, std::span<const IpAddr> locals,
                     const std::vector<ConnectionSummary>& records);
  /// Ships the closed window beginning at `begin`: the builder's graph, or
  /// an empty keyframe when this shard had no edges in it.
  void ship_window(std::int64_t begin);
  /// Ships one out-of-band kTelemetry frame: the metrics delta since the
  /// last shipment plus any new log records / trace spans. Best-effort —
  /// a failed ship is logged but never fails the worker (telemetry must
  /// not affect the data-plane contract).
  void ship_telemetry();
  /// Logs why the feed failed; returns false for run() to pass on.
  bool feed_failed(const char* reason);

  ShardWorkerOptions options_;
  GraphBuilder builder_;
  net::FrameConn conn_;
  std::vector<ConnectionSummary> scratch_;  // on_batch's partition buffer
  std::vector<IpAddr> locals_;              // on_batch's local IPs
  std::uint64_t records_ = 0;
  std::uint64_t windows_ = 0;
  bool failed_ = false;

  obs::Snapshot last_shipped_;          // metrics baseline for the next delta
  std::uint64_t telemetry_seq_ = 0;     // frames shipped so far
  std::size_t logs_seen_ = 0;           // LogRing records()+dropped() shipped
  std::size_t spans_seen_ = 0;          // TraceRing events()+dropped() shipped

  obs::Counter* m_records_ = nullptr;   // ccg.dist.shard.<id>.records
  obs::Counter* m_windows_ = nullptr;   // ccg.dist.shard.<id>.windows_shipped
  obs::Counter* m_bytes_ = nullptr;     // ccg.dist.shard.<id>.bytes_shipped
  obs::Counter* m_telemetry_ = nullptr; // ccg.dist.shard.<id>.telemetry_frames
  obs::Histogram* m_ship_ = nullptr;    // ccg.dist.shard.ship.seconds
};

}  // namespace ccg::dist
