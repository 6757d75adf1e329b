// Streaming flow-log ingest: CSV bytes in, per-minute batches out.
//
// SmartNICs flush one summary batch per minute (paper §3), and every
// consumer downstream — graph builder, analytics service, shard worker,
// store sink — is a TelemetrySink that expects exactly that shape. The
// reader turns a flow-log CSV (a file or a live FIFO) into the same
// stream: it read(2)s fixed blocks, splits lines in place, parses each row
// with from_csv and hands every complete minute to the sink as soon as the
// first record of a later minute is parsed, or at EOF. Memory is one block
// plus one minute, whatever the size of the log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "ccg/telemetry/collector.hpp"

namespace ccg {

/// Totals of one ingest run. Mirrored into the global registry as
/// `ccg.ingest.{rows,bytes,malformed_rows}`.
struct IngestStats {
  std::uint64_t rows = 0;            // records parsed and delivered
  std::uint64_t bytes = 0;           // bytes read, header included
  std::uint64_t malformed_rows = 0;  // non-empty lines from_csv rejected
  std::uint64_t first_malformed_line = 0;  // 1-based; 0 when none
};

/// read(2) size: large enough that the per-block bookkeeping vanishes on a
/// file, while a FIFO returns whatever the writer has sent.
inline constexpr std::size_t kFlowLogBlockBytes = std::size_t{1} << 20;

/// Longest line kept in memory. A longer line cannot be a plausible row;
/// it is counted malformed and skipped without buffering it.
inline constexpr std::size_t kFlowLogMaxLineBytes = std::size_t{1} << 16;

/// Streams the flow-log CSV readable from `fd` into `sink` until EOF.
///
/// Line rules are those of read_csv: an optional first line starting with
/// "time_minute" is the header, empty lines are skipped, every other line
/// is one row (a final line without '\n' included), and rows from_csv
/// rejects are counted, not delivered. Minutes must be non-decreasing, so
/// the rows of one minute are contiguous and form one batch. Each block's
/// parse runs under a `ccg.ingest.parse` span, outside the sink's work.
///
/// Returns nullopt on a read error (logged with errno). A row whose minute
/// precedes the previous row's throws std::runtime_error naming its line
/// number, after every minute before it has been delivered; the open
/// minute is not. Exceptions from the sink propagate. Does not close `fd`.
///
/// `stop_fd` >= 0 makes the read cancellable: each read(2) waits on both
/// descriptors, and once `stop_fd` turns readable (or hangs up) the stream
/// throws std::runtime_error without delivering the open minute. A reader
/// blocked on an idle FIFO therefore ends when its consumer gives up.
std::optional<IngestStats> stream_flow_log(int fd, TelemetrySink& sink,
                                           int stop_fd = -1);

}  // namespace ccg
