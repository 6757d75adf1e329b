// The aggregator role of the distributed collector (docs/DISTRIBUTED.md).
//
// Pulls per-window partial graphs from N shard connections and performs a
// barrier-per-window merge: it blocks until every live shard's next window
// is known, takes the minimum window begin, merges that window's frames in
// ascending shard order, finalizes through the shared canonicalize-and-
// collapse path, and hands the graph to a sink — which makes a distributed
// run byte-identical to the single-process one. Shards ship windows in
// increasing order, so a shard whose head is past W (or which sent
// end-of-stream) provably has nothing for W. Every shard ships every
// window the minute stream closes, an empty keyframe when it had no
// records there, and a window whose parts are all empty is dropped, as
// one GraphBuilder would never emit it. A shard that times out or sends
// garbage is a fail-fast: the aggregator logs, dumps a flight record, and
// aborts the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
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
  GraphBuildConfig graph{};
  /// Per-recv timeout; -1 uses the `net_timeout_ms` knob. A shard that
  /// stays silent longer than this fails the run.
  int recv_timeout_ms = -1;
  /// Where the shard-failure flight record lands ("" = current directory).
  std::string flight_dir{};
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

  /// The shard connections in shard-id order, valid after handshake().
  /// A RecordRouter sends the feed on them from its own thread while run()
  /// receives on this one.
  std::vector<net::FrameConn*> connections();

  /// Runs the barrier-per-window merge loop to completion. nullopt on
  /// shard failure (timeout, torn stream, decode failure, trace-id
  /// mismatch) — after logging and dumping a flight record.
  std::optional<Result> run(const WindowSink& sink);

  /// The feed's input failed (an unreadable or empty log, a backwards
  /// minute): logs `error` and dumps one `feed-failure` flight record
  /// labelled with it. The shard failures that follow when the feed is cut
  /// off are then logged without a dump of their own. Callable from the
  /// feeder thread while run() runs.
  void fail_feed(const std::string& error);

 private:
  struct ShardState {
    net::FrameConn conn;
    std::deque<WindowFrame> pending;  // received, unmerged windows in order
    bool done = false;                // kEndOfStream received
    std::uint64_t records = 0;        // from kEndOfStream
    std::uint64_t merged = 0;         // windows merged from this shard
    obs::Counter* windows = nullptr;  // ccg.dist.agg.shard.<id>.windows
    obs::Counter* bytes = nullptr;    // ccg.dist.agg.shard.<id>.bytes
  };

  /// Blocks until shard s has a pending window or is done, reading every
  /// shard that has a frame meanwhile. False = failure.
  bool advance(std::size_t s);
  /// Reads and handles one frame from shard s. False = failure.
  bool receive(std::size_t s);
  void fail(std::size_t shard, const char* reason, std::int64_t window_begin);

  AggregatorOptions options_;
  std::vector<net::FrameConn> incoming_;  // consumed by handshake()
  std::vector<ShardState> shards_;
  std::size_t pending_ = 0;  // windows received and not yet merged

  obs::Counter* m_windows_merged_ = nullptr;  // ccg.dist.agg.windows_merged
  obs::Counter* m_frames_ = nullptr;          // ccg.dist.agg.frames_received
  obs::Counter* m_telemetry_ = nullptr;       // ccg.dist.agg.telemetry_frames
  obs::Gauge* m_pending_hwm_ = nullptr;  // ccg.dist.agg.queue_depth_hwm
                                         // (most windows held at once)
  std::atomic<bool> feed_failed_{false};  // set by fail_feed()
};

}  // namespace ccg::dist
