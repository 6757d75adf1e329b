// The aggregator role of the distributed collector (docs/DISTRIBUTED.md).
//
// Pulls per-window partial graphs from N shard connections and performs a
// barrier-per-window merge: it blocks until every live shard's next window
// is known, takes the minimum window begin, merges that window's frames in
// ascending shard order, finalizes through the shared canonicalize-and-
// collapse path, and hands the graph to a sink — which makes a distributed
// run byte-identical to the single-process one. Shards ship windows in
// increasing order, so a shard whose head is past W (or which sent
// end-of-stream) provably has nothing for W; a shard with no records in W
// simply skips it. A shard that times out or sends garbage is a fail-fast:
// the aggregator logs, dumps a flight record, and aborts the run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ccg/dist/wire.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/obs/metrics.hpp"

namespace ccg::dist {

struct AggregatorOptions {
  /// The full job config (facet / window / collapse); shards must announce
  /// an equal config in their handshake.
  GraphBuildConfig graph;
  /// Per-recv timeout; -1 uses the `net_timeout_ms` knob. A shard that
  /// stays silent longer than this fails the run.
  int recv_timeout_ms = -1;
  /// Where the shard-failure flight record lands ("" = current directory).
  std::string flight_dir;
};

class Aggregator {
 public:
  /// Receives each finalized window's graph, in window order.
  using WindowSink = std::function<void(const CommGraph&)>;

  struct Result {
    std::uint64_t windows = 0;  // merged windows delivered to the sink
    std::uint64_t records = 0;  // sum of shard end-of-stream record counts
  };

  /// `conns` are accepted connections in arbitrary arrival order (forked
  /// workers race to connect); each one's kHello announces which shard it
  /// is. `conns.size()` fixes the expected shard count.
  Aggregator(AggregatorOptions options, std::vector<net::FrameConn> conns);

  /// Reads every connection's kHello, validates version + config + shard
  /// identity (each shard id 0..N-1 exactly once), slots the connection,
  /// acks. On any mismatch: logs, closes that connection (the shard sees
  /// the missing ack as a refusal) and returns false.
  bool handshake();

  /// Runs the barrier-per-window merge loop to completion. nullopt on
  /// shard failure (timeout, torn stream, decode failure, trace-id
  /// mismatch) — after logging and dumping a flight record.
  std::optional<Result> run(const WindowSink& sink);

 private:
  struct ShardState {
    net::FrameConn conn;
    std::optional<WindowFrame> head;  // next unmerged window, if known
    bool done = false;                // kEndOfStream received
    std::uint64_t records = 0;        // from kEndOfStream
    std::uint64_t merged = 0;         // windows merged from this shard
    obs::Counter* windows = nullptr;  // ccg.dist.agg.shard.<id>.windows
    obs::Counter* bytes = nullptr;    // ccg.dist.agg.shard.<id>.bytes
  };

  /// Blocks until shard s has a head window or is done. False = failure.
  bool advance(std::size_t s);
  void fail(std::size_t shard, const char* reason, std::int64_t window_begin);

  AggregatorOptions options_;
  std::vector<net::FrameConn> incoming_;  // consumed by handshake()
  std::vector<ShardState> shards_;

  obs::Counter* m_windows_merged_ = nullptr;  // ccg.dist.agg.windows_merged
  obs::Counter* m_frames_ = nullptr;          // ccg.dist.agg.frames_received
  obs::Counter* m_telemetry_ = nullptr;       // ccg.dist.agg.telemetry_frames
  obs::Gauge* m_pending_hwm_ = nullptr;  // ccg.dist.agg.queue_depth_hwm
  obs::Histogram* m_merge_wait_ = nullptr;  // ccg.dist.agg.merge_wait.seconds
  obs::Histogram* m_merge_ = nullptr;  // ccg.dist.agg.window_merge.seconds
};

}  // namespace ccg::dist
