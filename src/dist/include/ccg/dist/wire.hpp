// Shard <-> aggregator message codec for the distributed collector
// (docs/DISTRIBUTED.md has the byte-level spec). Messages travel inside
// net::FrameConn frames; a message payload is `u8 type | body`, with body
// fields varint/zigzag packed exactly like the store format.
//
// The handshake is versioned and config-checked: a shard announces its
// wire version, shard id/count and graph build config in kHello; the
// aggregator replies kHelloAck only when everything agrees — on mismatch
// it closes the connection and the shard treats the missing ack as a
// refusal. After the handshake the aggregator, the only process that reads
// the flow log, sends each shard one kRecords frame per minute and a
// closing kEndOfInput; the shard answers with one kWindow frame per closed
// window and a closing kEndOfStream. Window frames embed the store's
// keyframe encoding, so the per-window partial graph crosses the wire in
// canonical node order.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ccg/graph/builder.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/telemetry/record.hpp"

namespace ccg::dist {

/// First varint of every kHello: "CCGD" little-endian.
inline constexpr std::uint32_t kMagic = 0x44474343;

/// Bumped on any incompatible wire or semantics change.
/// v2: adds the out-of-band kTelemetry frame (metrics/log/span shipping).
/// v3: the aggregator feeds the shards (kRecords, kEndOfInput), and a shard
///     ships a window frame for every window the minute stream closes, an
///     empty keyframe when its partition had no records in it.
inline constexpr std::uint16_t kWireVersion = 3;

enum class MsgType : std::uint8_t {
  kHello = 1,        // shard -> aggregator: version + shard identity + config
  kHelloAck = 2,     // aggregator -> shard: handshake accepted
  kWindow = 3,       // shard -> aggregator: one window's partial graph
  kEndOfStream = 4,  // shard -> aggregator: clean shutdown + final counts
  kTelemetry = 5,    // shard -> aggregator: out-of-band observability data
  kRecords = 6,      // aggregator -> shard: one minute of its partition
  kEndOfInput = 7,   // aggregator -> shard: the feed is complete
};

/// The graph-build parameters both sides must agree on for the merge to be
/// deterministic. Mismatch is a handshake refusal, not a silent skew.
struct WireConfig {
  GraphFacet facet = GraphFacet::kIp;
  std::int64_t window_minutes = 60;
  double collapse_threshold = 0.0;
  bool collapse_monitored = false;

  friend bool operator==(const WireConfig&, const WireConfig&) = default;
};

WireConfig wire_config(const GraphBuildConfig& config);

struct Hello {
  std::uint16_t version = kWireVersion;
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  WireConfig config;
};

/// One window's partial graph from one shard. `keyframe` is the store
/// codec's kKeyframe frame payload (store::encode_frame against an empty
/// base); `trace_id` is the deterministic window trace id, shipped so the
/// aggregator's merge spans land in the same trace as the shard's build
/// spans — and verified against window_begin on receipt.
struct WindowFrame {
  std::uint32_t shard_id = 0;
  std::int64_t window_begin = 0;
  std::uint64_t trace_id = 0;
  std::vector<std::uint8_t> keyframe;
};

struct EndOfStream {
  std::uint32_t shard_id = 0;
  std::uint64_t records = 0;   // records this shard ingested
  std::uint64_t windows = 0;   // window frames it shipped
};

/// One minute of flow records routed to one shard. `new_locals` are the
/// IPs that first appear as a record's local IP in this minute, across the
/// whole log: every shard gets the same list and learns it before
/// ingesting, so each one's monitored set is the one a single process
/// would have. `records` is the shard's partition of the minute, each
/// stamped with `minute`. A shard with no records still gets the frame;
/// it is how the shard sees windows close.
struct RecordsFrame {
  std::int64_t minute = 0;
  std::vector<IpAddr> new_locals;
  std::vector<ConnectionSummary> records;
};

/// One out-of-band observability shipment from a shard worker: a metrics
/// *delta* (Registry::snapshot_delta against the last shipped snapshot —
/// counters and histogram buckets are increments, gauges and histogram
/// min/max are last-write), plus the log records and trace spans emitted
/// since the previous shipment. Strictly out-of-band: the aggregator's
/// merge output is byte-identical whether or not these frames arrive.
/// Histogram quantiles are NOT shipped; the receiver recomputes them from
/// the accumulated buckets. `seq` increments per shipment so drops are
/// observable.
struct TelemetryFrame {
  std::uint32_t shard_id = 0;
  std::uint64_t seq = 0;
  obs::Snapshot metrics;
  std::vector<obs::LogRecord> logs;
  std::vector<obs::TraceEvent> spans;
};

std::vector<std::uint8_t> encode_hello(const Hello& hello);
std::vector<std::uint8_t> encode_hello_ack();
std::vector<std::uint8_t> encode_window(const WindowFrame& frame);
std::vector<std::uint8_t> encode_end_of_stream(const EndOfStream& eos);
std::vector<std::uint8_t> encode_telemetry(const TelemetryFrame& frame);
std::vector<std::uint8_t> encode_records(const RecordsFrame& frame);
/// encode_records without a copy: the payload is written into `scratch`,
/// which only ever grows, and returned as a view of it (valid until the
/// next call with the same scratch). The records body is encode_binary's.
std::span<const std::uint8_t> encode_records(
    std::int64_t minute, std::span<const IpAddr> new_locals,
    std::span<const ConnectionSummary> records,
    std::vector<std::uint8_t>& scratch);
/// `records` is the number of records the shard was sent in all.
std::vector<std::uint8_t> encode_end_of_input(std::uint64_t records);

/// Message type of a payload (nullopt on empty/unknown).
std::optional<MsgType> peek_type(std::span<const std::uint8_t> payload);

// Decoders are total: malformed input yields nullopt/false, never UB.
std::optional<Hello> decode_hello(std::span<const std::uint8_t> payload);
bool decode_hello_ack(std::span<const std::uint8_t> payload);
std::optional<WindowFrame> decode_window(std::span<const std::uint8_t> payload);
std::optional<EndOfStream> decode_end_of_stream(
    std::span<const std::uint8_t> payload);
std::optional<TelemetryFrame> decode_telemetry(
    std::span<const std::uint8_t> payload);
/// Also rejects a record whose minute is not the frame's.
std::optional<RecordsFrame> decode_records(std::span<const std::uint8_t> payload);
std::optional<std::uint64_t> decode_end_of_input(
    std::span<const std::uint8_t> payload);

}  // namespace ccg::dist
