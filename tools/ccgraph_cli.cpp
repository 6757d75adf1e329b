// ccgraph — command-line front end.
//
//   ccgraph simulate --preset k8s --hours 2 --seed 7 --out flows.csv
//   ccgraph graph    --in flows.csv [--facet ip|ipport] [--collapse 0.001]
//   ccgraph segment  --in flows.csv [--resolution 2.0]
//   ccgraph policy   --baseline hour0.csv --check hour1.csv
//   ccgraph report   --in flows.csv
//
// Flow logs are the CSV schema of `ccg::csv_header()` (paper Table 2 plus
// the initiator bit), streamed minute by minute through the flow-log
// reader, so a FIFO works as well as a file. An IP is treated as
// *monitored* from the first record in which it is the local endpoint —
// the NICs that produced the log.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ccg/analytics/counterfactual.hpp"
#include "ccg/analytics/service.hpp"
#include "ccg/dist/aggregator.hpp"
#include "ccg/dist/router.hpp"
#include "ccg/dist/shard_worker.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/graph/delta.hpp"
#include "ccg/graph/metrics.hpp"
#include "ccg/incremental/dirty.hpp"
#include "ccg/graph/serialize.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/net/http.hpp"
#include "ccg/obs/config.hpp"
#include "ccg/obs/export.hpp"
#include "ccg/obs/fleet.hpp"
#include "ccg/obs/flight.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/slo.hpp"
#include "ccg/obs/prof.hpp"
#include "ccg/obs/prof_counters.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/simd/simd.hpp"
#include "ccg/policy/higher_order.hpp"
#include "ccg/policy/policy_io.hpp"
#include "ccg/policy/reachability.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/store/store.hpp"
#include "ccg/summarize/patterns.hpp"
#include "ccg/summarize/temporal.hpp"
#include "ccg/telemetry/flow_log.hpp"
#include "ccg/telemetry/serialize.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace {

using namespace ccg;

/// Trivial --key value / --flag parser. Numeric getters parse values the
/// way runtime knobs are parsed and throw obs::ConfigError naming the flag.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "";
      }
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? std::nullopt : std::make_optional(it->second);
  }
  std::string get_or(const std::string& key, const std::string& fallback) const {
    return get(key).value_or(fallback);
  }
  double get_double(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? obs::parse_value<double>(*v, "--" + key) : fallback;
  }
  long get_long(const std::string& key, long fallback) const {
    const auto v = get(key);
    return v ? obs::parse_value<long>(*v, "--" + key) : fallback;
  }
  /// Count flags (--window, --train, --rank, --shards, --hours): a given
  /// value must be at least 1.
  long get_count(const std::string& key, long fallback) const {
    const auto v = get(key);
    return v ? obs::parse_value<long>(*v, "--" + key, 1) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

int usage() {
  std::fprintf(stderr,
               "usage: ccgraph <command> [options]\n"
               "  simulate --preset tiny|portal|microservice|k8s|kquery\n"
               "           [--hours N] [--seed S] [--rate-scale R]\n"
               "           [--attack scan|lateral|exfil --attack-hour H]\n"
               "           --out flows.csv\n"
               "  graph    --in flows.csv [--facet ip|ipport] [--collapse F]\n"
               "           [--window MIN] [--pgm heatmap.pgm] [--save g.ccg]\n"
               "  segment  --in flows.csv [--resolution R] [--collapse F]\n"
               "  policy   --baseline a.csv --check b.csv [--coverage F]\n"
               "           [--min-support N] [--save policy.txt]\n"
               "  diff     --before a.csv --after b.csv [--factor F]\n"
               "  anomaly  --in flows.csv [--window MIN] [--train N] [--rank K]\n"
               "           [--summary-out FILE] [--incremental] patch-driven\n"
               "           incremental segmentation (output is byte-identical\n"
               "           to a plain run)\n"
               "           [--incremental-verify] check each window against a\n"
               "           full recompute  [--incremental-refine] warm-start\n"
               "           Louvain (bounded divergence)\n"
               "  serve    --in flows.csv --shards N [--window MIN] [--train N]\n"
               "           [--rank K] [--collapse F] [--summary-out FILE]\n"
               "           [--store DIR] [--stall-ms MS] forks N local shard\n"
               "           workers, parses the log (file or pipe) once and\n"
               "           routes each its partition; output is\n"
               "           byte-identical to `anomaly`\n"
               "  aggregate --in flows.csv --shards N [--listen PORT]\n"
               "           [--window MIN] [--train N] [--rank K]\n"
               "           [--summary-out FILE] [--store DIR] waits for N\n"
               "           shard workers, then feeds and merges them\n"
               "  shard-worker --connect PORT --shard I --shards N\n"
               "           [--window MIN] [--facet ip|ipport] [--collapse F]\n"
               "           builds the partition the aggregator sends it\n"
               "  report   --in flows.csv [--collapse F] [--window MIN]\n"
               "           [--train N] [--rank K]\n"
               "  trace    --in flows.csv [--window MIN] [--train N]\n"
               "           [--stall-ms MS] runs the anomaly pipeline with\n"
               "           tracing forced on and prints each window's span tree\n"
               "  store append  --in flows.csv --store DIR [--window MIN]\n"
               "                [--facet ip|ipport] [--collapse F]\n"
               "                [--keyframe K] [--segment-mb MB]\n"
               "  store query   --store DIR [--from MIN] [--to MIN]\n"
               "  store replay  --store DIR [--from MIN] [--to MIN]\n"
               "                [--train N] [--rank K] [--summary-out FILE]\n"
               "  store compact --store DIR [--keyframe K] [--retain-from MIN]\n"
               "                [--segment-mb MB]\n"
               "  store stats   --store DIR prints frame/segment totals plus\n"
               "                per-window patch churn (nodes/edges touched,\n"
               "                churn-ratio histogram)\n"
               "  profile <command> [options...] runs any command under the\n"
               "           sampling profiler and prints a per-stage self/total\n"
               "           cost table plus hardware-counter deltas\n"
               "           [--profile-hz N]    sample rate (default 197)\n"
               "           [--profile-wall]    sample wall time, not CPU time\n"
               "           [--profile-out F]   write folded stacks (flamegraph.pl)\n"
               "           [--profile-json F]  write the full profile as JSON\n"
               "every command also accepts:\n"
               "  --metrics-out FILE   write a JSON metrics snapshot on exit\n"
               "  --metrics-prom FILE  same registry in Prometheus text format\n"
               "  --trace-buffer       record spans in memory without writing a\n"
               "                       file (shard workers buffer spans to ship)\n"
               "and the runtime knobs (--threads, --simd, --trace-out,\n"
               "--ops-port, --flight-dir, --watchdog-ms, --slo-watch, ...),\n"
               "each also a $CCG_* variable: README.md lists them all, and\n"
               "ccgraph --version prints the values in effect.\n");
  return 2;
}

std::optional<ClusterSpec> preset_by_name(const std::string& name, double scale) {
  if (name == "tiny") return presets::tiny(scale);
  if (name == "portal") return presets::portal(scale);
  if (name == "microservice") return presets::microservice_bench(scale);
  if (name == "k8s") return presets::k8s_paas(scale);
  if (name == "kquery") return presets::kquery(scale);
  return std::nullopt;
}

/// A descriptor closed on scope exit.
struct ScopedFd {
  int fd = -1;
  explicit ScopedFd(int f) : fd(f) {}
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
};

/// Opens the flow log at `path`, a file or a FIFO; -1 after saying why.
int open_flow_log(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) std::fprintf(stderr, "ccgraph: cannot open %s\n", path.c_str());
  return fd;
}

/// Streams the flow log open on `fd` (read from `path`) into `sink`,
/// minute by minute, until EOF or until `stop_fd` (if >= 0) turns
/// readable. Prints the diagnostics every command shares — unreadable
/// input, malformed rows skipped, a log without records — and returns
/// nullopt when the command should exit 1. Given `why`, a failure is
/// stored there instead of printed.
std::optional<IngestStats> ingest_flow_log(int fd, const std::string& path,
                                           TelemetrySink& sink,
                                           int stop_fd = -1,
                                           std::string* why = nullptr) {
  const auto fail = [&](const std::string& message) {
    if (why != nullptr) {
      *why = message;
    } else {
      std::fprintf(stderr, "ccgraph: %s\n", message.c_str());
    }
    return std::nullopt;
  };
  const auto stats = stream_flow_log(fd, sink, stop_fd);
  if (!stats) return fail("cannot read " + path);
  if (stats->malformed_rows > 0) {
    std::fprintf(stderr, "ccgraph: warning: %llu malformed rows skipped\n",
                 static_cast<unsigned long long>(stats->malformed_rows));
    obs::log_info("ingest: malformed rows skipped",
                  {obs::field("path", path),
                   obs::field("malformed_rows", stats->malformed_rows),
                   obs::field("first_line", stats->first_malformed_line)});
  }
  if (stats->rows == 0) return fail(path + " contains no records");
  return stats;
}

std::optional<IngestStats> ingest_flow_log(const std::string& path,
                                           TelemetrySink& sink) {
  const ScopedFd in(open_flow_log(path));
  if (in.fd < 0) return std::nullopt;
  return ingest_flow_log(in.fd, path, sink);
}

/// Streams the flow log at `path` into one GraphBuilder and returns its
/// window graphs, oldest first. Memory is the open window plus the graphs
/// already built, never the records. Nullopt when the command should
/// exit 1.
std::optional<std::vector<CommGraph>> stream_graphs(const std::string& path,
                                                    const GraphBuildConfig& config) {
  GraphBuilder builder(config, {});
  if (!ingest_flow_log(path, builder)) return std::nullopt;
  builder.flush();
  return builder.take_graphs();
}

/// Reads a whole flow log into memory, for `policy`, which walks its
/// baseline records twice: once to build the graph, once to mine rules.
std::optional<std::vector<ConnectionSummary>> collect_records(const std::string& path) {
  struct Collector : TelemetrySink {
    std::vector<ConnectionSummary> records;
    void on_batch(MinuteBucket, const std::vector<ConnectionSummary>& batch) override {
      records.insert(records.end(), batch.begin(), batch.end());
    }
  } collector;
  if (!ingest_flow_log(path, collector)) return std::nullopt;
  return std::move(collector.records);
}

/// The graph build config from --facet / --window / --collapse. Every
/// distributed role and the store must agree on it, and its defaults are
/// `anomaly`'s, so their windows match a single-process run's.
GraphBuildConfig graph_config(const Args& args) {
  return {.facet = args.get_or("facet", "ip") == "ipport" ? GraphFacet::kIpPort
                                                          : GraphFacet::kIp,
          .window_minutes = args.get_count("window", 60),
          .collapse_threshold = args.get_double("collapse", 0.001)};
}

/// The analytics options of the commands that run the anomaly pipeline:
/// anomaly, serve/aggregate, trace and store replay must agree for their
/// reports to match.
AnalyticsServiceOptions analytics_options(const Args& args,
                                          const GraphBuildConfig& graph) {
  AnalyticsServiceOptions options;
  options.graph = graph;
  options.training_windows =
      static_cast<std::size_t>(args.get_count("train", 3));
  options.spectral.rank = static_cast<std::size_t>(args.get_count("rank", 20));
  options.incremental = obs::runtime_config().incremental;
  options.incremental_verify = args.get("incremental-verify").has_value();
  options.incremental_refine = args.get("incremental-refine").has_value();
  options.stall_injection_ms = static_cast<int>(args.get_long("stall-ms", 0));
  return options;
}

/// Prints window reports the way `anomaly` does — the summary line, up to
/// five localized edges per alert, a copy of the summary in --summary-out
/// — and flushes stdout after each window, so a consumer reading a pipe
/// sees every report as its window closes. anomaly, serve/aggregate and
/// store replay must print byte-identical streams, so all three use it.
class ReportPrinter {
 public:
  /// False (after saying why) when --summary-out cannot be opened.
  bool open(const Args& args) {
    if (const auto path = args.get("summary-out")) {
      summary_out_.open(*path);
      if (!summary_out_) {
        std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
        return false;
      }
    }
    return true;
  }

  void print(const WindowReport& report) {
    std::printf("%s\n", report.summary().c_str());
    if (summary_out_.is_open()) summary_out_ << report.summary() << '\n';
    if (report.alert) {
      ++alerts_;
      for (std::size_t i = 0;
           i < std::min<std::size_t>(5, report.anomalous_edges.size()); ++i) {
        std::printf("  %s\n", report.anomalous_edges[i].to_string().c_str());
      }
    }
    std::fflush(stdout);
  }

  AnalyticsService::ReportCallback callback() {
    return [this](const WindowReport& report) { print(report); };
  }

  std::size_t alerts() const { return alerts_; }

 private:
  std::ofstream summary_out_;
  std::size_t alerts_ = 0;
};

// --- ops endpoint ------------------------------------------------------------

/// /metrics body: the process-local registry, merged with per-shard
/// `shard="N"` series once any telemetry frames arrived (aggregators).
std::string ops_metrics_text() {
  obs::Snapshot snapshot = obs::Registry::global().snapshot();
  if (obs::FleetRegistry::global().active()) {
    snapshot = obs::merge_snapshots(
        snapshot, obs::FleetRegistry::global().labeled_snapshot());
  }
  return obs::to_prometheus(snapshot);
}

/// /tracez body: SLO watcher state plus span-ring and fleet occupancy.
std::string ops_tracez_text() {
  std::string out = obs::SloWatcher::global().status_text();
  obs::TraceRing& ring = obs::TraceRing::global();
  out += "trace ring: ";
  out += ring.enabled() ? "enabled" : "disabled";
  out += ", " + std::to_string(ring.events().size()) + " spans retained, " +
         std::to_string(ring.dropped()) + " dropped\n";
  obs::FleetRegistry& fleet = obs::FleetRegistry::global();
  out += "fleet: " + std::to_string(fleet.frames_applied()) +
         " telemetry frames applied\n";
  for (const auto& [shard, spans] : fleet.spans_by_shard()) {
    out += "  shard " + std::to_string(shard) + ": " +
           std::to_string(spans.size()) + " spans shipped (" +
           std::to_string(fleet.spans_dropped(shard)) + " dropped)\n";
  }
  return out;
}

/// Starts the live ops endpoint when the `ops_port` knob is set. Returns
/// nullptr otherwise; bind failure throws, failing the command (a
/// requested-but-dead endpoint is worse than no endpoint). The server
/// starts *unready* — callers flip /readyz once their pipeline is up.
std::unique_ptr<net::OpsServer> start_ops_server() {
  const long port = obs::runtime_config().ops_port;
  if (port < 0) return nullptr;
  auto server = std::make_unique<net::OpsServer>();
  if (!server->start(static_cast<std::uint16_t>(port),
                     {ops_metrics_text, ops_tracez_text})) {
    throw std::runtime_error("cannot bind ops endpoint on port " +
                             std::to_string(port));
  }
  // Port to stderr: stdout stays byte-identical with the endpoint off.
  std::fprintf(stderr, "ccgraph: ops endpoint on 127.0.0.1:%u\n",
               server->port());
  std::fflush(stderr);
  return server;
}

// --- commands ---------------------------------------------------------------

int cmd_simulate(const Args& args) {
  const std::string preset_name = args.get_or("preset", "tiny");
  const double scale = args.get_double("rate-scale", 1.0);
  const auto spec = preset_by_name(preset_name, scale);
  if (!spec) {
    std::fprintf(stderr, "ccgraph: unknown preset '%s'\n", preset_name.c_str());
    return 2;
  }
  const auto out_path = args.get("out");
  if (!out_path) {
    std::fprintf(stderr, "ccgraph: simulate requires --out\n");
    return 2;
  }
  const long hours = args.get_count("hours", 1);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 2023));

  Cluster cluster(*spec, seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);

  if (const auto attack = args.get("attack")) {
    const long hour = args.get_long("attack-hour", hours - 1);
    const TimeWindow window = TimeWindow::hour(hour);
    if (*attack == "scan") {
      driver.add_injector(std::make_unique<ScanAttack>(
          ScanAttack::Config{.active = window}, seed ^ 0xA));
    } else if (*attack == "lateral") {
      driver.add_injector(std::make_unique<LateralMovementAttack>(
          LateralMovementAttack::Config{.active = window}, seed ^ 0xB));
    } else if (*attack == "exfil") {
      driver.add_injector(std::make_unique<ExfiltrationAttack>(
          ExfiltrationAttack::Config{.active = window}, seed ^ 0xC));
    } else {
      std::fprintf(stderr, "ccgraph: unknown attack '%s'\n", attack->c_str());
      return 2;
    }
    std::fprintf(stderr, "injecting %s in hour %ld\n", attack->c_str(), hour);
  }

  std::ofstream out(*out_path);
  if (!out) {
    std::fprintf(stderr, "ccgraph: cannot write %s\n", out_path->c_str());
    return 1;
  }
  out << csv_header() << '\n';
  std::uint64_t records = 0;
  for (std::int64_t m = 0; m < hours * 60; ++m) {
    for (const auto& rec : driver.step(MinuteBucket(m))) {
      out << to_csv(rec) << '\n';
      ++records;
    }
  }
  std::printf("wrote %llu records (%ld h of %s, seed %llu) to %s\n",
              static_cast<unsigned long long>(records), hours,
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              out_path->c_str());
  return 0;
}

int cmd_graph(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  const GraphBuildConfig config = graph_config(args);
  const auto streamed = stream_graphs(*in_path, config);
  if (!streamed) return 1;
  const std::vector<CommGraph>& graphs = *streamed;
  for (const auto& g : graphs) {
    const GraphMetrics m = compute_metrics(g);
    std::printf("window %s: %s\n", g.window().to_string().c_str(),
                m.to_string().c_str());
    if (config.facet == GraphFacet::kIp && g.node_count() >= 2) {
      std::printf("%s\n", ascii_adjacency(g, 32).c_str());
    }
  }
  if (graphs.size() >= 2) {
    std::printf("stability: %s\n", analyze_series(graphs).summary().c_str());
  }

  // Optional artifacts from the last window.
  if (const auto pgm_path = args.get("pgm")) {
    std::ofstream pgm(*pgm_path, std::ios::binary);
    if (!pgm || !write_pgm_heatmap(pgm, graphs.back())) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", pgm_path->c_str());
      return 1;
    }
    std::printf("wrote heatmap image to %s\n", pgm_path->c_str());
  }
  if (const auto save_path = args.get("save")) {
    std::ofstream save(*save_path);
    if (!save) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", save_path->c_str());
      return 1;
    }
    write_graph(save, graphs.back());
    std::printf("saved graph to %s\n", save_path->c_str());
  }
  return 0;
}

int cmd_diff(const Args& args) {
  const auto before_path = args.get("before");
  const auto after_path = args.get("after");
  if (!before_path || !after_path) return usage();
  const double factor = args.get_double("factor", 4.0);

  // One graph per log, whole-file windows, no collapsing (diffs should see
  // every endpoint).
  const GraphBuildConfig config{.facet = GraphFacet::kIp, .window_minutes = 1 << 20};
  const auto before = stream_graphs(*before_path, config);
  if (!before) return 1;
  const auto after = stream_graphs(*after_path, config);
  if (!after) return 1;
  const GraphDelta delta = diff_graphs(before->back(), after->back(), factor);
  std::printf("%s\n", delta.summary().c_str());
  std::size_t shown = 0;
  for (const auto& e : delta.edges_added) {
    if (shown++ >= 15) {
      std::printf("... and %zu more new edges\n", delta.edges_added.size() - 15);
      break;
    }
    std::printf("NEW     %s <-> %s (%llu bytes)\n", e.a.to_string().c_str(),
                e.b.to_string().c_str(),
                static_cast<unsigned long long>(e.bytes_after));
  }
  shown = 0;
  for (const auto& e : delta.edges_changed) {
    if (shown++ >= 15) {
      std::printf("... and %zu more changed edges\n",
                  delta.edges_changed.size() - 15);
      break;
    }
    std::printf("CHANGED %s <-> %s (%.1fx: %llu -> %llu bytes)\n",
                e.a.to_string().c_str(), e.b.to_string().c_str(), e.ratio(),
                static_cast<unsigned long long>(e.bytes_before),
                static_cast<unsigned long long>(e.bytes_after));
  }
  return delta.edges_added.empty() && delta.edges_changed.empty() ? 0 : 3;
}

int cmd_segment(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  const double collapse = args.get_double("collapse", 0.001);
  const long window = args.get_count("window", 60);
  const double resolution = args.get_double("resolution", 2.0);
  const auto graphs = stream_graphs(*in_path, {.facet = GraphFacet::kIp,
                                               .window_minutes = window,
                                               .collapse_threshold = collapse});
  if (!graphs) return 1;

  const CommGraph& g = graphs->back();
  const Segmentation seg = auto_segment(g, SegmentationMethod::kJaccardLouvain,
                                        {.louvain_resolution = resolution});

  std::printf("%zu nodes -> %zu microsegments\n", g.node_count(), seg.segment_count);
  for (std::uint32_t s = 0; s < seg.segment_count; ++s) {
    const auto members = seg.members_of(s);
    std::printf("segment %u (%zu members):", s, members.size());
    std::size_t shown = 0;
    for (const NodeId member : members) {
      if (shown++ >= 8) {
        std::printf(" ...");
        break;
      }
      std::printf(" %s", g.key(member).to_string().c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_policy(const Args& args) {
  const auto baseline_path = args.get("baseline");
  const auto check_path = args.get("check");
  if (!baseline_path || !check_path) return usage();
  const auto min_support =
      static_cast<std::size_t>(args.get_long("min-support", 1));
  const double coverage = args.get_double("coverage", 0.5);
  const auto baseline = collect_records(*baseline_path);
  if (!baseline) return 1;
  const auto check = collect_records(*check_path);
  if (!check) return 1;

  // Segment the baseline graph, mine the default-deny policy from the
  // baseline stream, then check the second stream.
  GraphBuilder builder({.facet = GraphFacet::kIp,
                        .window_minutes = 1 << 20,
                        .collapse_threshold = 0.001},
                       {});
  for (const auto& record : *baseline) builder.ingest(record);
  builder.flush();
  const CommGraph& g = builder.graphs().back();
  const Segmentation seg = auto_segment(g, SegmentationMethod::kJaccardLouvain);
  const SegmentMap segments = SegmentMap::from_segmentation(g, seg);

  // Mine with per-hour support counting so --min-support can drop one-off
  // channels (including attacker traffic hiding inside the baseline).
  PolicyMiner miner(segments);
  std::int64_t current_hour = baseline->front().time.hour();
  for (const auto& record : *baseline) {
    if (record.time.hour() != current_hour) {
      miner.end_window();
      current_hour = record.time.hour();
    }
    miner.observe(record);
  }
  miner.end_window();
  const ReachabilityPolicy policy = miner.build(min_support);
  std::printf("baseline: %zu segments, %zu allow rules from %llu records "
              "(%zu windows, min-support %zu)\n",
              segments.segment_count(), policy.rule_count(),
              static_cast<unsigned long long>(miner.records_observed()),
              miner.windows_observed(), min_support);

  if (const auto save_path = args.get("save")) {
    std::ofstream save(*save_path);
    if (!save) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", save_path->c_str());
      return 1;
    }
    write_policy(save, policy);
    std::printf("saved policy to %s\n", save_path->c_str());
  }

  PolicyChecker checker(segments, policy);
  checker.check_batch(*check);
  const auto classified = apply_similarity_policy(
      checker.violations(), segments,
      {.segment_fraction = coverage});

  std::size_t alerts = 0, suppressed = 0;
  for (const auto& cv : classified) {
    if (cv.suppressed) {
      ++suppressed;
      continue;
    }
    ++alerts;
    if (alerts <= 20) {
      std::printf("ALERT %s\n", cv.violation.to_string().c_str());
    }
  }
  if (alerts > 20) std::printf("... and %zu more alerts\n", alerts - 20);
  std::printf("%zu alerts, %zu suppressed as coordinated changes (%llu records checked)\n",
              alerts, suppressed,
              static_cast<unsigned long long>(checker.records_checked()));
  return alerts > 0 ? 3 : 0;  // distinct exit code when violations exist
}

int cmd_anomaly(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  ReportPrinter printer;
  if (!printer.open(args)) return 1;

  const auto ops = start_ops_server();

  AnalyticsService service(analytics_options(args, graph_config(args)), {},
                           printer.callback());
  if (ops) ops->set_ready(true);
  // Each window is reported as soon as its last minute has been read.
  if (!ingest_flow_log(*in_path, service)) return 1;
  service.flush();
  if (ops) ops->set_ready(false);
  std::printf("%zu windows analyzed, %zu alerts\n", service.windows_reported(),
              printer.alerts());
  return printer.alerts() > 0 ? 3 : 0;
}

// --- distributed commands (docs/DISTRIBUTED.md) ------------------------------

/// Aggregator side shared by `aggregate` and `serve`: handshake the
/// accepted shard connections, then parse the flow log open on `input`
/// once, routing each shard its partition from a feeder thread, while this
/// thread runs the barrier merge and feeds each merged window through an
/// AnalyticsService configured exactly like `anomaly` — stdout,
/// --summary-out contents and the exit code must be byte-identical to the
/// single-process command on the same log.
int run_aggregation(const Args& args, int input, const std::string& in_path,
                    std::vector<net::FrameConn> conns) {
  const GraphBuildConfig config = graph_config(args);
  ReportPrinter printer;
  if (!printer.open(args)) return 1;

  AnalyticsService service(analytics_options(args, config), {},
                           printer.callback());

  std::optional<store::StoreWriter> writer;
  if (const auto store_dir = args.get("store")) {
    writer = store::StoreWriter::open(
        *store_dir,
        {.keyframe_interval =
             static_cast<std::size_t>(args.get_long("keyframe", 8))});
    if (!writer) {
      std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
      return 1;
    }
    service.set_store(&*writer);
  }

  const auto ops = start_ops_server();

  const std::size_t shard_count = conns.size();
  const obs::RuntimeConfig& knobs = obs::runtime_config();
  dist::Aggregator aggregator({.graph = config,
                               .recv_timeout_ms = knobs.aggregator_timeout_ms(),
                               .flight_dir = knobs.flight_dir},
                              std::move(conns));
  if (!aggregator.handshake()) {
    std::fprintf(stderr, "ccgraph: aggregator handshake failed\n");
    return 1;
  }
  if (ops) ops->set_ready(true);
  std::string feed_error;
  const auto result = dist::run_routed(
      aggregator, config.facet,
      [&](dist::RecordRouter& router) {
        // A failed input throws, so the feed-failure record names it.
        std::string why;
        if (!ingest_flow_log(input, in_path, router, router.stop_fd(), &why)) {
          throw std::runtime_error(why);
        }
        return true;
      },
      [&](const CommGraph& graph) { service.ingest_window(graph); },
      &feed_error);
  if (ops) ops->set_ready(false);
  if (!result) {
    if (!feed_error.empty()) {
      std::fprintf(stderr, "ccgraph: %s\n", feed_error.c_str());
    }
    std::fprintf(stderr,
                 "ccgraph: aggregation aborted (see flight record)\n");
    return 1;
  }
  if (writer) writer->close();
  std::fprintf(stderr,
               "ccgraph: aggregated %llu records / %llu windows from %zu shards\n",
               static_cast<unsigned long long>(result->records),
               static_cast<unsigned long long>(result->windows), shard_count);
  std::printf("%zu windows analyzed, %zu alerts\n", service.windows_reported(),
              printer.alerts());
  return printer.alerts() > 0 ? 3 : 0;
}

int cmd_shard_worker(const Args& args) {
  if (args.get("in")) {
    std::fprintf(stderr,
                 "ccgraph: shard-worker takes no --in: the aggregator reads "
                 "the log and sends each shard its partition\n");
    return 2;
  }
  if (!args.get("connect") || !args.get("shard") || !args.get("shards")) {
    return usage();
  }
  const long shard_id = args.get_long("shard", 0);
  const long shard_count = args.get_count("shards", 0);
  if (shard_id < 0 || shard_count < 1 || shard_id >= shard_count) {
    std::fprintf(stderr, "ccgraph: --shard must be in [0, --shards)\n");
    return 2;
  }
  const GraphBuildConfig config = graph_config(args);
  // Connect first so the aggregator's accept loop completes immediately.
  auto conn = net::connect_loopback(
      static_cast<std::uint16_t>(args.get_long("connect", 0)));
  if (!conn) {
    std::fprintf(stderr, "ccgraph: shard %ld: cannot connect to aggregator\n",
                 shard_id);
    return 1;
  }
  dist::ShardWorker worker({.shard_id = static_cast<std::uint32_t>(shard_id),
                            .shard_count = static_cast<std::uint32_t>(shard_count),
                            .graph = config},
                           {}, std::move(*conn));
  if (!worker.handshake()) {
    std::fprintf(stderr, "ccgraph: shard %ld: handshake refused\n", shard_id);
    return 1;
  }
  // A feed that stops early fails the worker without kEndOfStream, so the
  // aggregator fails the run loudly.
  if (!worker.run(obs::runtime_config().aggregator_timeout_ms())) {
    std::fprintf(stderr, "ccgraph: shard %ld: feed or shipping failed\n",
                 shard_id);
    return 1;
  }
  std::fprintf(stderr, "ccgraph: shard %ld: %llu records, %llu windows shipped\n",
               shard_id, static_cast<unsigned long long>(worker.records()),
               static_cast<unsigned long long>(worker.windows_shipped()));
  return 0;
}

int cmd_aggregate(const Args& args) {
  const auto in_path = args.get("in");
  const long shard_count = args.get_count("shards", 0);
  if (!in_path || shard_count < 1) return usage();
  const ScopedFd input(open_flow_log(*in_path));
  if (input.fd < 0) return 1;
  auto listener = net::Listener::bind_loopback(
      static_cast<std::uint16_t>(args.get_long("listen", 0)));
  if (!listener) {
    std::fprintf(stderr, "ccgraph: cannot bind listener\n");
    return 1;
  }
  // Port to stderr (stdout must stay diffable against `anomaly`); scripts
  // launching workers by hand read it from here.
  std::fprintf(stderr, "ccgraph: aggregator listening on 127.0.0.1:%u for %ld shards\n",
               listener->port(), shard_count);
  std::fflush(stderr);
  std::vector<net::FrameConn> conns;
  for (long i = 0; i < shard_count; ++i) {
    auto conn =
        listener->accept(obs::runtime_config().aggregator_timeout_ms());
    if (!conn) {
      std::fprintf(stderr, "ccgraph: accept failed (%ld of %ld shards connected)\n",
                   i, shard_count);
      return 1;
    }
    conns.push_back(std::move(*conn));
  }
  return run_aggregation(args, input.fd, *in_path, std::move(conns));
}

int cmd_serve(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  const long shard_count = args.get_count("shards", 4);
  if (shard_count > 64) {
    std::fprintf(stderr, "ccgraph: --shards must be in [1, 64]\n");
    return 2;
  }
  // Reject bad flags and an unreadable log before any worker is forked.
  // Only this process reads the log, so a pipe works as well as a file.
  analytics_options(args, graph_config(args));
  const ScopedFd input(open_flow_log(*in_path));
  if (input.fd < 0) return 1;

  auto listener = net::Listener::bind_loopback();
  if (!listener) {
    std::fprintf(stderr, "ccgraph: cannot bind listener\n");
    return 1;
  }

  // Pre-build every worker's argv before any fork: between fork and execv
  // only async-signal-safe work is allowed, so no allocation there. Flags
  // the user left at defaults are not forwarded — the worker's defaults
  // are identical by construction (graph_config).
  std::vector<std::vector<std::string>> worker_cmds(
      static_cast<std::size_t>(shard_count));
  for (long i = 0; i < shard_count; ++i) {
    auto& cmd = worker_cmds[static_cast<std::size_t>(i)];
    cmd = {"ccgraph",  "shard-worker",
           "--connect", std::to_string(listener->port()),
           "--shard",  std::to_string(i),
           "--shards", std::to_string(shard_count)};
    for (const char* key : {"window", "facet", "collapse"}) {
      if (const auto v = args.get(key)) {
        cmd.push_back(std::string("--") + key);
        cmd.push_back(*v);
      }
    }
    // Workers run with the aggregator's runtime config, minus its
    // process-local surfaces: the ops port stays with the aggregator, and
    // a tracing aggregator's workers buffer spans in memory and ship them
    // in telemetry frames. An empty --trace-out also overrides an
    // inherited $CCG_TRACE_OUT: a file of their own would race the merged
    // trace.
    for (auto& [flag, value] : obs::to_flags(obs::runtime_config())) {
      if (flag == "--ops-port" || flag == "--trace-out") continue;
      cmd.push_back(flag);
      cmd.push_back(value);
    }
    if (!obs::runtime_config().trace_out.empty() || args.get("trace-buffer")) {
      cmd.insert(cmd.end(), {"--trace-buffer", "--trace-out", ""});
    }
  }
  std::vector<std::vector<char*>> worker_argvs;
  for (auto& cmd : worker_cmds) {
    std::vector<char*> argv;
    for (auto& s : cmd) argv.push_back(s.data());
    argv.push_back(nullptr);
    worker_argvs.push_back(std::move(argv));
  }

  std::vector<pid_t> children;
  for (long i = 0; i < shard_count; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("ccgraph: fork");
      for (const pid_t c : children) ::kill(c, SIGTERM);
      return 1;
    }
    if (pid == 0) {
      // Child: the listener fd is CLOEXEC, so the re-exec'd worker starts
      // clean and connects back over loopback like any external shard.
      ::execv("/proc/self/exe",
              worker_argvs[static_cast<std::size_t>(i)].data());
      ::_exit(127);  // execv only returns on error
    }
    children.push_back(pid);
  }

  std::vector<net::FrameConn> conns;
  for (long i = 0; i < shard_count; ++i) {
    auto conn =
        listener->accept(obs::runtime_config().aggregator_timeout_ms());
    if (!conn) {
      std::fprintf(stderr, "ccgraph: worker accept failed (%ld of %ld connected)\n",
                   i, shard_count);
      for (const pid_t c : children) ::kill(c, SIGTERM);
      for (const pid_t c : children) ::waitpid(c, nullptr, 0);
      return 1;
    }
    conns.push_back(std::move(*conn));
  }

  int rc = run_aggregation(args, input.fd, *in_path, std::move(conns));
  for (std::size_t i = 0; i < children.size(); ++i) {
    int status = 0;
    ::waitpid(children[i], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "ccgraph: shard worker %zu exited abnormally (%d)\n",
                   i, status);
      if (rc == 0 || rc == 3) rc = 1;
    }
  }
  return rc;
}

int cmd_report(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  // The anomaly pipeline's own options, so the window timeline's verdicts
  // are the ones `anomaly` prints for the same log and windows.
  const GraphBuildConfig config = graph_config(args);
  const AnalyticsServiceOptions options = analytics_options(args, config);

  const auto streamed = stream_graphs(*in_path, config);
  if (!streamed) return 1;
  const std::vector<CommGraph>& graphs = *streamed;
  if (graphs.empty()) {
    std::fprintf(stderr, "ccgraph: no complete windows in %s\n", in_path->c_str());
    return 1;
  }

  // One analytics pass over the built windows, entering the service the
  // way the distributed aggregator's merged windows do, populates the
  // per-stage latency histograms and, when the log is long enough to
  // finish training, an anomaly verdict per window.
  std::vector<std::string> timeline;
  AnalyticsService service(
      options, {},
      [&](const WindowReport& report) { timeline.push_back(report.summary()); });
  for (const CommGraph& graph : graphs) service.ingest_window(graph);

  const CommGraph& g = graphs.back();
  const GraphMetrics m = compute_metrics(g);
  std::printf("== graph ==\n%s\n", m.to_string().c_str());

  std::printf("\n== executive summary ==\n%s",
              mine_patterns(g).executive_summary(g).c_str());

  std::printf("\n== traffic concentration ==\n");
  const auto curve = node_traffic_ccdf(g);
  for (const double f : {0.01, 0.05, 0.1, 0.25}) {
    double ccdf = 1.0;
    for (const auto& p : curve) {
      if (p.fraction_of_nodes <= f) ccdf = p.ccdf;
    }
    std::printf("top %4.0f%% of nodes carry %5.1f%% of bytes\n", 100 * f,
                100 * (1.0 - ccdf));
  }

  std::printf("\n== capacity hotspots ==\n");
  for (const auto& h : capacity_hotspots(g, 5)) {
    std::printf("%-20s %5.1f%% of traffic\n", h.node.to_string().c_str(),
                100 * h.share);
  }

  const Segmentation seg = auto_segment(g, SegmentationMethod::kJaccardLouvain);
  std::printf("\n== microsegments ==\n%zu segments over %zu nodes\n",
              seg.segment_count, g.node_count());

  if (graphs.size() >= 2) {
    std::printf("\n== stability ==\n%s\n", analyze_series(graphs).summary().c_str());
  }

  if (timeline.size() >= 2) {
    std::printf("\n== window timeline ==\n");
    for (const std::string& line : timeline) std::printf("%s\n", line.c_str());
  }

  std::printf("\n== metrics ==\n%s",
              obs::summary_text(obs::Registry::global().snapshot()).c_str());
  return 0;
}

int cmd_trace(const Args& args) {
  const auto in_path = args.get("in");
  if (!in_path) return usage();
  // The whole point of this command is the span tree, so tracing is forced
  // on even without --trace-out (which then also captures the same spans).
  if (!obs::TraceRing::global().enabled()) {
    obs::TraceRing::global().enable(obs::default_trace_ring_capacity());
  }

  AnalyticsService service(analytics_options(args, graph_config(args)), {},
                           [](const WindowReport&) {});
  if (!ingest_flow_log(*in_path, service)) return 1;
  service.flush();

  // Group completed spans by window trace and print each tree, children
  // indented under parents in start order.
  const auto events = obs::TraceRing::global().events();
  std::map<std::uint64_t, std::vector<const obs::TraceEvent*>> by_trace;
  for (const auto& e : events) {
    if (e.trace_id != 0) by_trace[e.trace_id].push_back(&e);
  }
  for (const auto& [trace_id, spans] : by_trace) {
    std::unordered_set<std::uint64_t> ids;
    for (const auto* e : spans) ids.insert(e->span_id);
    // A parent evicted from the ring (or still open) orphans its children;
    // promote orphans to roots rather than dropping them.
    std::map<std::uint64_t, std::vector<const obs::TraceEvent*>> children;
    for (const auto* e : spans) {
      children[ids.contains(e->parent_id) ? e->parent_id : 0].push_back(e);
    }
    for (auto& [parent, kids] : children) {
      std::sort(kids.begin(), kids.end(),
                [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                  return a->start_ns < b->start_ns;
                });
    }
    std::printf("trace 0x%llx (%zu spans)\n",
                static_cast<unsigned long long>(trace_id), spans.size());
    std::vector<std::pair<const obs::TraceEvent*, int>> stack;
    const auto& roots = children[0];
    for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
      stack.emplace_back(*it, 1);
    }
    while (!stack.empty()) {
      const auto [e, depth] = stack.back();
      stack.pop_back();
      std::printf("%*s%-34s %10.3f ms\n", depth * 2, "", e->name.c_str(),
                  static_cast<double>(e->duration_ns) / 1e6);
      if (const auto it = children.find(e->span_id); it != children.end()) {
        for (auto c = it->second.rbegin(); c != it->second.rend(); ++c) {
          stack.emplace_back(*c, depth + 1);
        }
      }
    }
  }
  std::printf("%zu window traces, %zu spans (%zu dropped)\n", by_trace.size(),
              events.size(), obs::TraceRing::global().dropped());
  return 0;
}

// --- store commands ---------------------------------------------------------

std::int64_t minute_arg(const Args& args, const std::string& key,
                        std::int64_t fallback) {
  static_assert(sizeof(long) == sizeof(std::int64_t));
  return args.get_long(key, fallback);
}

int cmd_store_append(const Args& args) {
  const auto in_path = args.get("in");
  const auto store_dir = args.get("store");
  if (!in_path || !store_dir) return usage();

  // Same build configuration defaults as `anomaly`, so a stored log replays
  // into byte-identical windows.
  const GraphBuildConfig config = graph_config(args);
  store::WriterOptions options{
      .keyframe_interval = static_cast<std::size_t>(args.get_long("keyframe", 8)),
      .segment_bytes =
          static_cast<std::uint64_t>(args.get_long("segment-mb", 64)) << 20};
  auto writer = store::StoreWriter::open(*store_dir, options);
  if (!writer) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }
  // Each window is appended as soon as its last minute has been read; the
  // writer logs any append it rejects.
  store::StoreSink sink(*writer, config, {});
  if (!ingest_flow_log(*in_path, sink)) return 1;
  sink.flush();
  writer->close();
  std::printf("appended %zu of %zu windows to %s\n%s\n", sink.windows_stored(),
              sink.windows_built(), store_dir->c_str(),
              writer->stats().to_string().c_str());
  return sink.windows_stored() == sink.windows_built() ? 0 : 1;
}

int cmd_store_query(const Args& args) {
  const auto store_dir = args.get("store");
  if (!store_dir) return usage();
  auto reader = store::StoreReader::open(*store_dir);
  if (!reader) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }
  const std::int64_t from =
      minute_arg(args, "from", std::numeric_limits<std::int64_t>::min());
  const std::int64_t to =
      minute_arg(args, "to", std::numeric_limits<std::int64_t>::max());

  // Walk the index cursor alongside the materializing range so each window
  // can be labeled with its on-disk representation.
  const auto& entries = reader->entries();
  std::size_t cursor = 0;
  while (cursor < entries.size() && entries[cursor].window_begin < from) ++cursor;
  auto range = reader->range(from, to);
  std::size_t shown = 0;
  while (const auto g = range.next()) {
    const char* kind = "?";
    std::uint64_t framed = 0;
    if (cursor < entries.size()) {
      kind = entries[cursor].kind == store::FrameKind::kKeyframe ? "keyframe"
                                                                 : "delta";
      framed = entries[cursor].length;
      ++cursor;
    }
    std::printf("%s  %-8s %8llu bytes on disk  %zu nodes / %zu edges / %llu "
                "bytes traffic\n",
                g->window().to_string().c_str(), kind,
                static_cast<unsigned long long>(framed), g->node_count(),
                g->edge_count(),
                static_cast<unsigned long long>(g->total_bytes()));
    ++shown;
  }
  std::printf("%zu windows in range\n", shown);
  return 0;
}

int cmd_store_replay(const Args& args) {
  const auto store_dir = args.get("store");
  if (!store_dir) return usage();
  auto reader = store::StoreReader::open(*store_dir);
  if (!reader) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }
  const std::int64_t from =
      minute_arg(args, "from", std::numeric_limits<std::int64_t>::min());
  const std::int64_t to =
      minute_arg(args, "to", std::numeric_limits<std::int64_t>::max());

  ReportPrinter printer;
  if (!printer.open(args)) return 1;

  // Same analytics stack as `anomaly`, fed from stored windows instead of a
  // flow log: the two paths must produce identical per-window summaries.
  AnalyticsService service(analytics_options(args, {}), {}, printer.callback());
  const std::size_t replayed = service.replay(*reader, from, to);
  std::printf("%zu windows replayed, %zu alerts\n", replayed, printer.alerts());
  return printer.alerts() > 0 ? 3 : 0;
}

int cmd_store_compact(const Args& args) {
  const auto store_dir = args.get("store");
  if (!store_dir) return usage();
  const auto before = store::StoreReader::open(*store_dir);
  if (!before) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }
  const store::StoreStats before_stats = before->stats();

  store::CompactOptions options{
      .keyframe_interval = static_cast<std::size_t>(args.get_long("keyframe", 8)),
      .segment_bytes =
          static_cast<std::uint64_t>(args.get_long("segment-mb", 64)) << 20,
      .retain_from = minute_arg(args, "retain-from",
                                std::numeric_limits<std::int64_t>::min())};
  const auto after = store::compact_store(*store_dir, options);
  if (!after) {
    std::fprintf(stderr, "ccgraph: compaction failed for %s\n",
                 store_dir->c_str());
    return 1;
  }
  std::printf("before: %s\nafter:  %s\n", before_stats.to_string().c_str(),
              after->to_string().c_str());
  return 0;
}

int cmd_store_stats(const Args& args) {
  const auto store_dir = args.get("store");
  if (!store_dir) return usage();
  const auto reader = store::StoreReader::open(*store_dir);
  if (!reader) {
    std::fprintf(stderr, "ccgraph: cannot open store %s\n", store_dir->c_str());
    return 1;
  }
  std::printf("%s\n", reader->stats().to_string().c_str());

  // Window-to-window churn: how much of each window a patch actually
  // touches — the number that predicts incremental-analytics speedup.
  // Computed against the true previous window (keyframes are a storage
  // artifact, not a workload change), so it reads the same after
  // compaction reshuffles frame kinds.
  CommGraph prev;
  bool has_prev = false;
  std::size_t windows = 0;
  double node_churn_sum = 0.0, edge_churn_sum = 0.0;
  std::size_t nodes_touched = 0, edges_touched = 0;
  std::size_t nodes_touched_max = 0, edges_touched_max = 0;
  // Edge-churn ratio buckets: <=1%, 2%, 5%, 10%, 25%, 50%, >50%.
  constexpr double kBounds[] = {0.01, 0.02, 0.05, 0.10, 0.25, 0.50};
  std::size_t buckets[7] = {0};
  auto patches = reader->patches();
  while (const auto entry = patches.next()) {
    if (has_prev) {
      const incremental::ChurnStats churn =
          incremental::patch_churn(prev, make_patch(prev, entry->graph));
      ++windows;
      node_churn_sum += churn.node_churn();
      edge_churn_sum += churn.edge_churn();
      nodes_touched += churn.nodes_touched;
      edges_touched += churn.edges_touched;
      nodes_touched_max = std::max(nodes_touched_max, churn.nodes_touched);
      edges_touched_max = std::max(edges_touched_max, churn.edges_touched);
      std::size_t b = 0;
      while (b < 6 && churn.edge_churn() > kBounds[b]) ++b;
      ++buckets[b];
    }
    prev = entry->graph;
    has_prev = true;
  }
  if (windows > 0) {
    const double n = static_cast<double>(windows);
    std::printf(
        "churn: %zu window transitions, mean node churn %.1f%%, mean edge "
        "churn %.1f%%\n"
        "  touched/window: nodes mean %.1f max %zu, edges mean %.1f max %zu\n"
        "  edge churn histogram: <=1%%: %zu  <=2%%: %zu  <=5%%: %zu  "
        "<=10%%: %zu  <=25%%: %zu  <=50%%: %zu  >50%%: %zu\n",
        windows, 100.0 * node_churn_sum / n, 100.0 * edge_churn_sum / n,
        static_cast<double>(nodes_touched) / n, nodes_touched_max,
        static_cast<double>(edges_touched) / n, edges_touched_max, buckets[0],
        buckets[1], buckets[2], buckets[3], buckets[4], buckets[5], buckets[6]);
  }
  return 0;
}

int cmd_store(const std::string& subcommand, const Args& args) {
  if (subcommand == "append") return cmd_store_append(args);
  if (subcommand == "query") return cmd_store_query(args);
  if (subcommand == "replay") return cmd_store_replay(args);
  if (subcommand == "compact") return cmd_store_compact(args);
  if (subcommand == "stats") return cmd_store_stats(args);
  return usage();
}

}  // namespace

namespace {

// Build provenance baked in by tools/CMakeLists.txt; the fallbacks cover
// direct compiler invocations outside CMake.
#ifndef CCG_VERSION_STRING
#define CCG_VERSION_STRING "unknown"
#endif
#ifndef CCG_BUILD_TYPE_STRING
#define CCG_BUILD_TYPE_STRING "unknown"
#endif
#ifndef CCG_SANITIZE_STRING
#define CCG_SANITIZE_STRING ""
#endif

/// Build provenance, then one `name=value (flag|env|default)` line per
/// knob: the configuration this invocation would run with.
int print_version() {
  const char* sanitize = CCG_SANITIZE_STRING;
  std::printf("ccgraph %s (%s build, sanitizers: %s)\n", CCG_VERSION_STRING,
              CCG_BUILD_TYPE_STRING, sanitize[0] != '\0' ? sanitize : "none");
  std::printf("simd: %s\n", ccg::simd::capability_string().c_str());
  const obs::RuntimeConfig& config = obs::runtime_config();
  for (std::size_t i = 0; i < obs::knobs().size(); ++i) {
    const obs::Knob& knob = obs::knobs()[i];
    std::printf("%s=%s (%s)\n", knob.name,
                obs::value_text(config, knob).c_str(),
                obs::source_name(config.sources[i]));
  }
  return 0;
}

int dispatch(const std::string& command, const std::string& subcommand,
             const Args& args) {
  if (command == "simulate") return cmd_simulate(args);
  if (command == "graph") return cmd_graph(args);
  if (command == "segment") return cmd_segment(args);
  if (command == "policy") return cmd_policy(args);
  if (command == "diff") return cmd_diff(args);
  if (command == "anomaly") return cmd_anomaly(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "aggregate") return cmd_aggregate(args);
  if (command == "shard-worker") return cmd_shard_worker(args);
  if (command == "report") return cmd_report(args);
  if (command == "trace") return cmd_trace(args);
  if (command == "store") return cmd_store(subcommand, args);
  return usage();
}

/// `ccgraph profile <command> ...`: runs the inner command under the
/// sampling profiler plus a whole-run counter scope, prints the per-stage
/// self/total table, and optionally writes folded stacks / JSON.
int run_profiled(const std::string& command, const std::string& subcommand,
                 const Args& args) {
  namespace prof = ccg::obs::prof;
  prof::enable_counters();  // before the pool spawns, so workers inherit

  prof::ProfilerOptions options;
  options.hz = static_cast<int>(args.get_long("profile-hz", 197));
  options.wall = args.get("profile-wall").has_value();

  prof::CounterValues counters;
  int rc;
  prof::Profile profile;
  {
    prof::CounterScope counter_scope(counters);
    if (!prof::start(options)) {
      std::fprintf(stderr,
                   "ccgraph: sampling profiler unavailable; running the "
                   "command unprofiled\n");
    }
    rc = dispatch(command, subcommand, args);
    profile = prof::stop();
  }

  std::printf("\n==== profile: %s ====\n%s", command.c_str(),
              profile.table_text().c_str());
  if (counters.tier == prof::CounterTier::kPerfEvent) {
    std::printf("counters (%s): cycles=%llu instructions=%llu ipc=%.2f "
                "cache_misses=%llu branch_misses=%llu cpu=%.3fs\n",
                prof::tier_name(counters.tier),
                static_cast<unsigned long long>(counters.cycles),
                static_cast<unsigned long long>(counters.instructions),
                counters.ipc(),
                static_cast<unsigned long long>(counters.cache_misses),
                static_cast<unsigned long long>(counters.branch_misses),
                counters.cpu_seconds);
  } else {
    std::printf("counters (%s): cpu_user=%.3fs cpu_sys=%.3fs "
                "faults=%llu/%llu ctx=%llu/%llu peak_rss=%.1fMB\n",
                prof::tier_name(counters.tier), counters.cpu_user_seconds,
                counters.cpu_system_seconds,
                static_cast<unsigned long long>(counters.minor_faults),
                static_cast<unsigned long long>(counters.major_faults),
                static_cast<unsigned long long>(counters.voluntary_ctx_switches),
                static_cast<unsigned long long>(
                    counters.involuntary_ctx_switches),
                static_cast<double>(counters.max_rss_bytes) / (1024.0 * 1024.0));
  }

  if (const auto path = args.get("profile-out")) {
    std::ofstream out(*path);
    if (!out || !(out << profile.folded_text())) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (const auto path = args.get("profile-json")) {
    std::ofstream out(*path);
    if (!out || !(out << profile.to_json())) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

/// --metrics-out / --metrics-prom: dump whatever the command recorded into
/// the global registry, even when the command itself failed (a metrics
/// file from a failed run is exactly what you want when diagnosing it).
int export_metrics(const Args& args) {
  auto snapshot = ccg::obs::Registry::global().snapshot();
  // Aggregators fold in the per-shard series shipped over telemetry, the
  // same view the live /metrics endpoint serves.
  if (ccg::obs::FleetRegistry::global().active()) {
    snapshot = ccg::obs::merge_snapshots(
        snapshot, ccg::obs::FleetRegistry::global().labeled_snapshot());
  }
  if (const auto path = args.get("metrics-out")) {
    if (!ccg::obs::write_json_file(*path, snapshot)) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
      return 1;
    }
  }
  if (const auto path = args.get("metrics-prom")) {
    std::ofstream out(*path);
    if (!out || !(out << ccg::obs::to_prometheus(snapshot))) {
      std::fprintf(stderr, "ccgraph: cannot write %s\n", path->c_str());
      return 1;
    }
  }
  return 0;
}

/// --trace-out: dump the span ring as Chrome trace-event JSON. Like metrics,
/// the file is written even after a failed command — the trace of a failed
/// run is the interesting one.
int export_trace() {
  const std::string& path = ccg::obs::runtime_config().trace_out;
  if (path.empty()) return 0;
  if (!ccg::obs::write_trace_file(path)) {
    std::fprintf(stderr, "ccgraph: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

/// Starts the diagnostics every command shares, from the runtime config.
void configure_diagnostics(const Args& args,
                           const obs::RuntimeConfig& knobs) {
  if (!knobs.trace_out.empty() || args.get("trace-buffer")) {
    obs::TraceRing::global().enable(obs::default_trace_ring_capacity());
  }
  if (!knobs.flight_dir.empty()) obs::install_crash_handler(knobs.flight_dir);
  const std::string dump_dir =
      knobs.flight_dir.empty() ? "." : knobs.flight_dir;
  if (knobs.watchdog_ms > 0) {
    obs::Watchdog::global().start(std::chrono::milliseconds(knobs.watchdog_ms),
                                  dump_dir);
  }
  if (knobs.slo_watch) {
    obs::SloOptions slo;
    slo.interval_ms = static_cast<std::uint64_t>(knobs.slo_interval_ms);
    slo.window_lag_seconds =
        static_cast<double>(knobs.slo_window_lag_ms) * 1e-3;
    slo.burn_intervals = static_cast<std::uint32_t>(knobs.slo_burn);
    slo.flight_dir = dump_dir;
    obs::SloWatcher::global().start(slo);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // `profile` wraps any other command: shift it off so the rest of argv
  // parses exactly as it would unwrapped.
  const bool profiled = std::strcmp(argv[1], "profile") == 0;
  if (profiled) {
    --argc;
    ++argv;
    if (argc < 2) return usage();
  }
  const std::string command = argv[1];
  // The Args parser skips bare words, so the store subcommand rides along in
  // argv without confusing the flag scan.
  const std::string subcommand =
      argc >= 3 && argv[2][0] != '-' ? argv[2] : std::string();
  const Args args(argc - 2, argv + 2);
  try {
    // Every knob resolves once, flags over the environment, before anything
    // reads one.
    const ccg::obs::RuntimeConfig& config = ccg::obs::install_runtime_config(
        ccg::obs::resolve_config(
            [&args](const char* flag) { return args.get(flag); },
            ccg::obs::process_env));
    if (command == "--version" || command == "version") return print_version();
    configure_diagnostics(args, config);
    const int rc = profiled ? run_profiled(command, subcommand, args)
                            : dispatch(command, subcommand, args);
    ccg::obs::SloWatcher::global().stop();
    ccg::obs::Watchdog::global().stop();
    const int metrics_rc = export_metrics(args);
    const int trace_rc = export_trace();
    return rc != 0 ? rc : (metrics_rc != 0 ? metrics_rc : trace_rc);
  } catch (const ccg::obs::ConfigError& e) {
    std::fprintf(stderr, "ccgraph: %s\n", e.what());
    ccg::obs::SloWatcher::global().stop();
    ccg::obs::Watchdog::global().stop();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccgraph: %s\n", e.what());
    ccg::obs::log_error("ccgraph terminated by exception",
                        {ccg::obs::field("what", e.what())});
    ccg::obs::SloWatcher::global().stop();
    ccg::obs::Watchdog::global().stop();
    export_metrics(args);  // best-effort evidence from the failed run
    export_trace();
    return 1;
  }
}
