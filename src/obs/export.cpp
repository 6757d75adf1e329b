#include "ccg/obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "ccg/obs/fleet.hpp"

namespace ccg::obs {
namespace {

/// %.9g round-trips every value we emit and keeps goldens readable.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// "0.00123" -> "1.23ms": durations dominate the summary table and raw
/// seconds are unreadable at µs scale.
std::string fmt_duration(double seconds) {
  char buf[48];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else if (seconds >= 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", seconds * 1e9);
  }
  return buf;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

/// Label values per the exposition format: backslash, quote and newline
/// must be escaped; everything else passes through.
void prom_label_escape_into(std::string& out, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
}

/// HELP text: backslash and newline are the only escapes.
void prom_help_escape_into(std::string& out, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
}

/// `{shard="0",le="1"}` — `extra` appends one more pair (the histogram
/// bucket's `le`). Empty when there is nothing to render.
std::string prom_labels(const SampleLabels& labels,
                        const std::pair<std::string, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  const auto put = [&](const std::string& key, const std::string& value) {
    if (!first) out.push_back(',');
    first = false;
    out += prom_name(key) + "=\"";
    prom_label_escape_into(out, value);
    out.push_back('"');
  };
  for (const auto& [key, value] : labels) put(key, value);
  if (extra != nullptr) put(extra->first, extra->second);
  out.push_back('}');
  return out;
}

/// Display key for JSON/summary output: labeled series are suffixed with
/// their label set so fleet-merged snapshots keep unique keys.
std::string labeled_name(const std::string& name, const SampleLabels& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += key + "=" + value;
  }
  out.push_back('}');
  return out;
}

}  // namespace

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  // One HELP/TYPE block per distinct metric: labeled series of the same
  // name (snapshots keep them adjacent) share it — repeating the header
  // inside a metric family is an exposition-format violation.
  std::string last_header;
  const auto header = [&](const std::string& name, const char* type,
                          const std::string& dotted) {
    if (name == last_header) return;
    last_header = name;
    out += "# HELP " + name + " ";
    prom_help_escape_into(out, dotted);
    out += "\n# TYPE " + name + " ";
    out += type;
    out.push_back('\n');
  };
  for (const auto& c : snapshot.counters) {
    std::string name = prom_name(c.name);
    if (!ends_with(name, "_total")) name += "_total";
    header(name, "counter", c.name);
    out += name + prom_labels(c.labels, nullptr) + " " +
           std::to_string(c.value) + "\n";
  }
  last_header.clear();
  for (const auto& g : snapshot.gauges) {
    const std::string name = prom_name(g.name);
    header(name, "gauge", g.name);
    out += name + prom_labels(g.labels, nullptr) + " " + fmt_double(g.value) +
           "\n";
  }
  last_header.clear();
  for (const auto& h : snapshot.histograms) {
    const std::string name = prom_name(h.name);
    header(name, "histogram", h.name);
    std::uint64_t cumulative = 0;
    for (const auto& [bound, n] : h.buckets) {
      cumulative += n;
      const std::pair<std::string, std::string> le = {
          "le", std::isinf(bound) ? std::string("+Inf") : fmt_double(bound)};
      out += name + "_bucket" + prom_labels(h.labels, &le) + " " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_sum" + prom_labels(h.labels, nullptr) + " " +
           fmt_double(h.sum) + "\n";
    out += name + "_count" + prom_labels(h.labels, nullptr) + " " +
           std::to_string(h.count) + "\n";
  }
  return out;
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(out, labeled_name(c.name, c.labels));
    out += "\": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(out, labeled_name(g.name, g.labels));
    out += "\": " + fmt_double(g.value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(out, labeled_name(h.name, h.labels));
    out += "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + fmt_double(h.sum) +
           ", \"min\": " + fmt_double(h.min) +
           ", \"max\": " + fmt_double(h.max) +
           ", \"p50\": " + fmt_double(h.p50) +
           ", \"p90\": " + fmt_double(h.p90) +
           ", \"p99\": " + fmt_double(h.p99) + ", \"buckets\": [";
    bool first_bucket = true;
    for (const auto& [bound, n] : h.buckets) {
      // All-zero buckets are noise in the file; the bounds are implied by
      // the bucket layout, so only occupied buckets are listed.
      if (n == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      const std::string le =
          std::isinf(bound) ? std::string("\"+Inf\"") : fmt_double(bound);
      out += "{\"le\": " + le + ", \"n\": " + std::to_string(n) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string summary_text(const Snapshot& snapshot) {
  std::ostringstream out;
  char line[256];
  if (!snapshot.histograms.empty()) {
    std::snprintf(line, sizeof(line), "%-44s %8s %10s %10s %10s %10s %10s\n",
                  "histogram", "count", "mean", "p50", "p90", "p99", "max");
    out << line;
    for (const auto& h : snapshot.histograms) {
      if (h.count == 0) continue;
      const bool secs = ends_with(h.name, ".seconds");
      const auto cell = [secs](double v) {
        return secs ? fmt_duration(v) : fmt_double(v);
      };
      std::snprintf(line, sizeof(line), "%-44s %8llu %10s %10s %10s %10s %10s\n",
                    labeled_name(h.name, h.labels).c_str(),
                    static_cast<unsigned long long>(h.count),
                    cell(h.sum / static_cast<double>(h.count)).c_str(),
                    cell(h.p50).c_str(), cell(h.p90).c_str(),
                    cell(h.p99).c_str(), cell(h.max).c_str());
      out << line;
    }
  }
  bool header = false;
  for (const auto& c : snapshot.counters) {
    if (c.value == 0) continue;
    if (!header) {
      out << "counters:\n";
      header = true;
    }
    std::snprintf(line, sizeof(line), "  %-44s %llu\n",
                  labeled_name(c.name, c.labels).c_str(),
                  static_cast<unsigned long long>(c.value));
    out << line;
  }
  header = false;
  for (const auto& g : snapshot.gauges) {
    if (g.value == 0.0) continue;
    if (!header) {
      out << "gauges:\n";
      header = true;
    }
    std::snprintf(line, sizeof(line), "  %-44s %s\n",
                  labeled_name(g.name, g.labels).c_str(),
                  fmt_double(g.value).c_str());
    out << line;
  }
  return out.str();
}

bool write_json_file(const std::string& path, const Snapshot& snapshot) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json(snapshot);
  return static_cast<bool>(out);
}

namespace {

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

/// Nanoseconds as fixed-point microseconds ("12345.678"): the trace-event
/// ts/dur unit. %g would drop into lossy scientific notation for the large
/// process-relative timestamps.
std::string fmt_us(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

namespace {

/// Appends one complete "X" event per span, on process lane `pid`. Thread
/// hashes are unwieldy 64-bit values; chrome://tracing renders one lane per
/// tid, so each hash maps to a small id by first appearance.
void append_events(std::string& out, bool& first,
                   const std::vector<TraceEvent>& events, std::uint32_t pid) {
  std::map<std::uint64_t, std::size_t> tids;
  for (const TraceEvent& e : events) {
    tids.emplace(e.thread_hash, tids.size() + 1);
  }
  for (const TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    json_escape_into(out, e.name);
    out += "\", \"cat\": \"ccg\", \"ph\": \"X\", \"ts\": " +
           fmt_us(e.start_ns) + ", \"dur\": " + fmt_us(e.duration_ns) +
           ", \"pid\": " + std::to_string(pid) +
           ", \"tid\": " + std::to_string(tids.at(e.thread_hash)) +
           ", \"args\": {";
    bool first_arg = true;
    const auto arg = [&](const char* key, std::uint64_t id) {
      if (id == 0) return;
      if (!first_arg) out += ", ";
      first_arg = false;
      out += "\"";
      out += key;
      out += "\": \"" + hex_id(id) + "\"";
    };
    arg("trace", e.trace_id);
    arg("span", e.span_id);
    arg("parent", e.parent_id);
    out += "}}";
  }
}

std::string trace_json_head(std::size_t dropped) {
  return "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": "
         "{\"dropped\": " +
         std::to_string(dropped) + "},\n  \"traceEvents\": [";
}

}  // namespace

std::string to_trace_json(const std::vector<TraceEvent>& events,
                          std::size_t dropped) {
  std::string out = trace_json_head(dropped);
  bool first = true;
  append_events(out, first, events, 1);
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string to_trace_json_processes(
    const std::vector<ProcessTrace>& processes) {
  std::size_t dropped = 0;
  for (const ProcessTrace& p : processes) dropped += p.dropped;
  std::string out = trace_json_head(dropped);
  bool first = true;
  for (const ProcessTrace& p : processes) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(p.pid) + ", \"tid\": 0, \"args\": {\"name\": \"";
    json_escape_into(out, p.name);
    out += "\"}}";
  }
  for (const ProcessTrace& p : processes) append_events(out, first, p.events, p.pid);
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool write_trace_file(const std::string& path) {
  TraceRing& ring = TraceRing::global();
  std::ofstream out(path);
  if (!out) return false;
  const auto fleet = FleetRegistry::global().spans_by_shard();
  if (fleet.empty()) {
    out << to_trace_json(ring.events(), ring.dropped());
  } else {
    // An aggregator that received shard spans writes the merged fleet
    // trace: its own lane plus one process lane per shard.
    std::vector<ProcessTrace> processes;
    processes.push_back({"aggregator", 1, ring.events(), ring.dropped()});
    for (const auto& [shard, spans] : fleet) {
      processes.push_back({"shard " + std::to_string(shard), 2 + shard, spans,
                           FleetRegistry::global().spans_dropped(shard)});
    }
    out << to_trace_json_processes(processes);
  }
  return static_cast<bool>(out);
}

}  // namespace ccg::obs
