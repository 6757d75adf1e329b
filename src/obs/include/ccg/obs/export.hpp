// Exporters for Registry snapshots: Prometheus text exposition format
// (scrape-ready), a JSON snapshot (for `--metrics-out` files and the bench
// perf-trajectory logs), and a human-readable summary table for CLI
// output. All three render the same Snapshot, so they always agree.
#pragma once

#include <string>
#include <vector>

#include "ccg/obs/metrics.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg::obs {

/// Prometheus text format (version 0.0.4). Dotted metric names are
/// sanitized to underscores; counters get a `_total` suffix; histograms
/// emit cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
/// Every distinct metric gets one `# HELP` line (the original dotted name)
/// and one `# TYPE` line; labeled samples of the same metric (the fleet
/// registry's `shard="N"` series) share a single header block, and label
/// values are escaped per the exposition spec (`\\`, `\"`, `\n`). Series
/// order is the snapshot order, which is sorted — so scrapes are stable
/// across runs.
std::string to_prometheus(const Snapshot& snapshot);

/// JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
/// Histogram buckets carry non-cumulative occupancy; the overflow bucket's
/// "le" is the string "+Inf" (JSON numbers cannot express infinity).
std::string to_json(const Snapshot& snapshot);

/// Fixed-width table of histograms (count/mean/p50/p90/p99/max, with
/// `.seconds` metrics pretty-printed as durations) followed by non-zero
/// counters and gauges. For `ccgraph report` and bench output.
std::string summary_text(const Snapshot& snapshot);

/// Writes to_json(snapshot) to `path`. Returns false on I/O failure.
bool write_json_file(const std::string& path, const Snapshot& snapshot);

/// Chrome trace-event JSON (the format chrome://tracing and Perfetto load):
/// one complete-phase ("ph":"X") event per span, timestamps/durations in
/// microseconds, thread hashes mapped to small dense tids in order of first
/// appearance. Span/trace/parent ids ride in "args" as hex strings; a
/// parent of 0 (trace root) is omitted. Field order is fixed and the output
/// is valid JSON even for an empty event list, so goldens are stable.
std::string to_trace_json(const std::vector<TraceEvent>& events,
                          std::size_t dropped = 0);

/// One process's span stream for a merged fleet trace.
struct ProcessTrace {
  std::string name;               // "aggregator", "shard 0", ...
  std::uint32_t pid = 1;
  std::vector<TraceEvent> events;
  std::size_t dropped = 0;
};

/// Multi-process Chrome trace: same event encoding as to_trace_json plus
/// one "process_name" metadata event per process, events stamped with
/// their process's pid and per-process dense tids — so an aggregator run
/// renders its own spans and every shard's shipped spans as separate
/// process lanes in one timeline.
std::string to_trace_json_processes(const std::vector<ProcessTrace>& processes);

/// Snapshots the global TraceRing and writes to_trace_json to `path`.
/// When the FleetRegistry holds shipped shard spans the file is the merged
/// multi-process trace (pid 1 = this process, pid 2+N = shard N).
/// Returns false on I/O failure.
bool write_trace_file(const std::string& path);

}  // namespace ccg::obs
