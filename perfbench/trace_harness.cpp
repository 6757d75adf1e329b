// Traced run of one benchmark workload.
//
// Re-enacts what `ccgraph anomaly`, `ccgraph store replay` and
// `ccgraph serve` do, calling each layer's public functions directly and
// timing every call from the outside. Where one layer calls another, the
// overload that takes the inner layer's output is timed, so each span's
// self time belongs to one layer: the CSR is built once and handed to
// similarity_clique, Louvain runs on that objective, and the tracker is
// given the finished segmentation.
//
// Outputs, all written at exit:
//   --report FILE  the report text the CLI would print (checked against the
//                  reference by run.py)
//   --spans FILE   one JSON object per span: name, start, end (monotonic
//                  clock seconds), id, parent (-1 for none), window (begin minute,
//                  -1 outside any window), jobs (thread-pool jobs the call
//                  submitted)
//   --stats FILE   counts the layers expose (rows, graph sizes, wire bytes...)
//
// Usage:
//   perfbench_trace live   --in CSV|FIFO --window W --train T --threads N ...
//   perfbench_trace replay --store DIR --train T --threads N ...
//   perfbench_trace serve  --in CSV --shards S --window W --train T
//                          --threads N --store DIR ...
// (serve re-executes this binary as `shard-worker` once per shard.)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "ccg/analytics/service.hpp"
#include "ccg/dist/aggregator.hpp"
#include "ccg/dist/shard_worker.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/net/frame.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/segmentation/louvain.hpp"
#include "ccg/segmentation/similarity.hpp"
#include "ccg/segmentation/tracker.hpp"
#include "ccg/store/store.hpp"
#include "ccg/summarize/anomaly.hpp"
#include "ccg/summarize/edge_anomaly.hpp"
#include "ccg/summarize/patterns.hpp"
#include "ccg/telemetry/serialize.hpp"

namespace {

using namespace ccg;
using Clock = std::chrono::steady_clock;

/// CLOCK_MONOTONIC seconds: one time base for every process of a run.
double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

struct SpanRecord {
  const char* name;
  double start;
  double end;
  std::int64_t id;
  std::int64_t parent;
  std::int64_t window;
  std::uint64_t jobs;
};

/// Collects spans from any thread; the parent of a span is the innermost
/// span open on the same thread when it began.
class Tracer {
 public:
  std::int64_t open() { return next_id_.fetch_add(1); }
  /// Keeps span ids unique across the processes of one run.
  void set_id_base(std::int64_t base) { next_id_ = base; }

  void close(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const SpanRecord& s : spans_) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%lld,"
                    "\"parent\":%lld,\"window\":%lld,\"jobs\":%llu}\n",
                    s.name, s.start, s.end, static_cast<long long>(s.id),
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.window),
                    static_cast<unsigned long long>(s.jobs));
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  std::atomic<std::int64_t> next_id_{0};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;
thread_local std::vector<std::int64_t> t_open_spans;
obs::Counter* g_jobs = nullptr;

/// Times one call into a layer. Spans nest per thread.
class Timed {
 public:
  Timed(const char* name, std::int64_t window)
      : name_(name),
        window_(window),
        id_(g_tracer.open()),
        parent_(t_open_spans.empty() ? -1 : t_open_spans.back()),
        jobs_(g_jobs->value()),
        start_(now_s()) {
    t_open_spans.push_back(id_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    const double end = now_s();
    t_open_spans.pop_back();
    g_tracer.close(
        {name_, start_, end, id_, parent_, window_, g_jobs->value() - jobs_});
  }

 private:
  const char* name_;
  std::int64_t window_;
  std::int64_t id_;
  std::int64_t parent_;
  std::uint64_t jobs_;
  double start_;
};

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) values_[argv[i]] = argv[i + 1];
  }
  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find("--" + key);
    return it == values_.end() ? fallback : it->second;
  }
  long num(const std::string& key, long fallback) const {
    const auto it = values_.find("--" + key);
    return it == values_.end() ? fallback : std::stol(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

struct ParseCounts {
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t malformed = 0;
};

/// Reads a flow log the way the CLI's load_csv does (the whole stream,
/// through read_csv), in blocks of whatever the descriptor has ready, so a
/// paced FIFO's idle time stays outside the parse spans.
std::optional<std::vector<ConnectionSummary>> read_flow_log(const std::string& path,
                                                            ParseCounts& counts) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  std::vector<ConnectionSummary> records;
  std::string pending;
  std::vector<char> block(1 << 20);
  bool ok = true;
  for (;;) {
    const ssize_t got = ::read(fd, block.data(), block.size());
    if (got < 0) {
      ok = false;
      break;
    }
    pending.append(block.data(), static_cast<std::size_t>(got));
    const std::size_t newline = pending.rfind('\n');
    const std::size_t cut = got == 0                      ? pending.size()
                            : newline == std::string::npos ? 0
                                                           : newline + 1;
    if (cut > 0) {
      std::istringstream lines(pending.substr(0, cut));
      std::size_t dropped = 0;
      std::vector<ConnectionSummary> parsed;
      {
        Timed span("common.parse", -1);
        parsed = read_csv(lines, &dropped);
      }
      counts.rows += parsed.size() + dropped;
      counts.bytes += cut;
      counts.malformed += dropped;
      records.insert(records.end(), parsed.begin(), parsed.end());
      pending.erase(0, cut);
    }
    if (got == 0) break;
  }
  ::close(fd);
  if (!ok || records.empty()) return std::nullopt;
  return records;
}

std::unordered_set<IpAddr> monitored_from(const std::vector<ConnectionSummary>& records) {
  std::unordered_set<IpAddr> out;
  for (const auto& r : records) out.insert(r.flow.local_ip);
  return out;
}

/// Calls `fn(minute, batch, next record or nullptr)` per run of equal
/// minutes, as the CLI's replay_minutes feeds a TelemetrySink.
template <typename Fn>
void for_each_minute(const std::vector<ConnectionSummary>& records, Fn fn) {
  std::vector<ConnectionSummary> batch;
  for (std::size_t i = 0; i < records.size(); ++i) {
    batch.push_back(records[i]);
    if (i + 1 == records.size() || records[i + 1].time != records[i].time) {
      fn(records[i].time, batch, i + 1 == records.size() ? nullptr : &records[i + 1]);
      batch.clear();
    }
  }
}

struct GraphCounts {
  std::vector<std::size_t> nodes;
  std::vector<std::size_t> edges;
  std::uint64_t collapsed = 0;
  std::uint64_t pairs_scored = 0;
};

/// The per-window path of AnalyticsService (analyze + report delivery) with
/// its defaults as the CLI sets them, one timed call per layer.
class Analyzer {
 public:
  explicit Analyzer(std::size_t training_windows)
      : training_windows_(training_windows),
        spectral_([] {
          SpectralDetectorOptions options;
          options.rank = 20;
          return options;
        }()),
        edge_detector_({.suppress_new_node_edges = true}),
        tracker_(SegmentationMethod::kJaccardLouvain, segmentation_) {}

  void window(const CommGraph& graph) {
    const std::int64_t win = graph.window().begin().index();
    WindowReport report;
    {
      Timed span("analytics.window", win);
      report = analyze(graph, win);
    }
    ++windows_;
    text_ += report.summary() + "\n";
    if (report.alert) {
      ++alerts_;
      for (std::size_t i = 0; i < std::min<std::size_t>(5, report.anomalous_edges.size());
           ++i) {
        text_ += "  " + report.anomalous_edges[i].to_string() + "\n";
      }
    }
    counts_.nodes.push_back(graph.node_count());
    counts_.edges.push_back(graph.edge_count());
    if (const auto other = graph.find_node(NodeKey::collapsed())) {
      counts_.collapsed += graph.node_stats(*other).collapsed_members;
    }
  }

  /// The closing count line, as the CLI prints it.
  void close(const char* verb) {
    char line[96];
    std::snprintf(line, sizeof(line), "%zu windows %s, %zu alerts\n", windows_, verb,
                  alerts_);
    text_ += line;
  }

  const std::string& text() const { return text_; }
  std::size_t windows() const { return windows_; }
  const GraphCounts& counts() const { return counts_; }

 private:
  WindowReport analyze(const CommGraph& graph, std::int64_t win) {
    WindowReport report;
    report.window = graph.window();
    report.nodes = graph.node_count();
    report.edges = graph.edge_count();
    report.bytes = graph.total_bytes();
    {
      Timed span("summarize.edges", win);
      report.anomalous_edges = edge_detector_.observe(graph);
    }
    std::optional<CsrAdjacency> csr;
    {
      Timed span("graph.csr", win);
      csr.emplace(graph);
    }
    const SimilarityOptions similarity{.kind = SimilarityKind::kJaccard,
                                       .min_score = segmentation_.min_similarity};
    WeightedGraph objective(0);
    {
      Timed span("segmentation.similarity", win);
      objective = similarity_clique(graph, *csr, similarity);
    }
    const std::uint64_t n = graph.node_count();
    if (n >= 2) {
      counts_.pairs_scored +=
          n <= similarity.exact_pair_limit
              ? n * (n - 1) / 2
              : sim::lsh_candidates(*csr, sim::minhash_signatures(
                                              *csr, similarity.use_direction))
                    .size();
    }
    LouvainResult louvain;
    {
      Timed span("segmentation.louvain", win);
      louvain = louvain_cluster(objective, {.resolution = segmentation_.louvain_resolution,
                                            .seed = segmentation_.seed});
    }
    Segmentation seg;
    seg.method = SegmentationMethod::kJaccardLouvain;
    seg.labels = std::move(louvain.labels);
    seg.segment_count = louvain.community_count;
    seg.objective_modularity = louvain.modularity;
    {
      Timed span("segmentation.tracker", win);
      report.segments = tracker_.observe(graph, seg);
    }
    {
      Timed span("summarize.patterns", win);
      report.patterns = mine_patterns(graph);
    }
    if (!spectral_.fitted()) {
      training_.push_back(graph);
      if (training_.size() >= training_windows_) {
        std::vector<const CommGraph*> refs;
        for (const CommGraph& g : training_) refs.push_back(&g);
        Timed span("summarize.fit", win);
        spectral_.fit(refs);
      }
      return report;
    }
    report.trained = true;
    Timed span("summarize.score", win);
    report.anomaly = spectral_.score(graph);
    report.alert = spectral_.is_alert(*report.anomaly);
    return report;
  }

  std::size_t training_windows_;
  SegmentationOptions segmentation_;
  SpectralAnomalyDetector spectral_;
  EwmaEdgeDetector edge_detector_;
  SegmentTracker tracker_;
  std::vector<CommGraph> training_;
  std::string text_;
  std::size_t windows_ = 0;
  std::size_t alerts_ = 0;
  GraphCounts counts_;
};

struct RunStats {
  ParseCounts parse;
  std::uint64_t store_bytes = 0;
  std::vector<std::uint64_t> shard_records;
};

GraphBuildConfig graph_config(const Args& args) {
  return {.facet = GraphFacet::kIp,
          .window_minutes = args.num("window", 60),
          .collapse_threshold = 0.001};
}

bool run_live(const Args& args, Analyzer& analyzer, RunStats& stats) {
  const auto records = read_flow_log(args.str("in"), stats.parse);
  if (!records) return false;
  const GraphBuildConfig config = graph_config(args);
  GraphBuilder builder(config, monitored_from(*records));
  const std::int64_t w = config.window_minutes;
  for_each_minute(*records, [&](MinuteBucket minute,
                                const std::vector<ConnectionSummary>& batch,
                                const ConnectionSummary* next) {
    const std::int64_t win = minute.index() / w * w;
    {
      Timed span("graph.ingest", win);
      builder.on_batch(minute, batch);
    }
    if (next != nullptr && next->time.index() / w * w == win) return;
    {
      Timed span("graph.finalize", win);
      builder.flush();
    }
    for (const CommGraph& g : builder.take_graphs()) analyzer.window(g);
  });
  analyzer.close("analyzed");
  return true;
}

bool run_replay(const Args& args, Analyzer& analyzer) {
  std::optional<store::StoreReader> reader;
  {
    Timed span("store.open", -1);
    reader = store::StoreReader::open(args.str("store"));
  }
  if (!reader) return false;
  auto range = reader->range();
  for (;;) {
    std::optional<CommGraph> graph;
    {
      Timed span("store.read", -1);
      graph = range.next();
    }
    if (!graph) break;
    analyzer.window(*graph);
  }
  analyzer.close("replayed");
  return true;
}

/// `ccgraph shard-worker`: connect first, then parse the whole log and ship
/// this shard's partition of every window.
bool run_shard_worker(const Args& args, RunStats& stats) {
  auto conn = net::connect_loopback(static_cast<std::uint16_t>(args.num("connect", 0)));
  if (!conn) return false;
  Timed worker_span("dist.worker", -1);
  const auto records = read_flow_log(args.str("in"), stats.parse);
  if (!records) return false;
  dist::ShardWorker worker(
      {.shard_id = static_cast<std::uint32_t>(args.num("shard", 0)),
       .shard_count = static_cast<std::uint32_t>(args.num("shards", 1)),
       .graph = graph_config(args)},
      monitored_from(*records), std::move(*conn));
  if (!worker.handshake()) return false;
  for_each_minute(*records, [&](MinuteBucket minute,
                                const std::vector<ConnectionSummary>& batch,
                                const ConnectionSummary*) {
    Timed span("dist.ship", minute.index());
    worker.on_batch(minute, batch);
  });
  bool finished = false;
  {
    Timed span("dist.ship", -1);
    finished = worker.finish();
  }
  stats.shard_records = {worker.records()};
  return finished;
}

/// `ccgraph serve`: S shard-worker processes (this binary re-executed),
/// each parsing the whole log and shipping its partition over loopback
/// TCP, and a barrier-merging aggregator feeding the store and the
/// analysis. Worker i writes its spans and stats to FILE.shard<i>.
bool run_serve(const Args& args, Analyzer& analyzer, RunStats& stats) {
  const long shards = args.num("shards", 4);
  const GraphBuildConfig config = graph_config(args);
  auto listener = net::Listener::bind_loopback();
  if (!listener) return false;

  std::vector<std::vector<std::string>> worker_cmds;
  for (long s = 0; s < shards; ++s) {
    const std::string suffix = ".shard" + std::to_string(s);
    worker_cmds.push_back({"perfbench_trace", "shard-worker", "--in", args.str("in"),
                           "--connect", std::to_string(listener->port()), "--shard",
                           std::to_string(s), "--shards", std::to_string(shards),
                           "--window", std::to_string(config.window_minutes),
                           "--spans", args.str("spans") + suffix, "--stats",
                           args.str("stats") + suffix, "--report", "/dev/null"});
  }
  std::vector<std::vector<char*>> worker_argvs;
  for (auto& cmd : worker_cmds) {
    std::vector<char*> argv;
    for (auto& arg : cmd) argv.push_back(arg.data());
    argv.push_back(nullptr);
    worker_argvs.push_back(std::move(argv));
  }
  std::vector<pid_t> children;
  for (auto& argv : worker_argvs) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv("/proc/self/exe", argv.data());
      ::_exit(127);
    }
    if (pid > 0) children.push_back(pid);
  }

  bool ok = false;
  std::vector<net::FrameConn> conns;
  while (conns.size() < children.size()) {
    auto conn = listener->accept(300000);
    if (!conn) break;
    conns.push_back(std::move(*conn));
  }
  auto writer = store::StoreWriter::open(args.str("store"), {.keyframe_interval = 8});
  if (children.size() == static_cast<std::size_t>(shards) &&
      conns.size() == children.size() && writer) {
    dist::Aggregator aggregator({.graph = config, .recv_timeout_ms = 300000, .flight_dir = ""},
                                std::move(conns));
    if (aggregator.handshake()) {
      std::optional<dist::Aggregator::Result> result;
      {
        Timed span("dist.merge", -1);
        result = aggregator.run([&](const CommGraph& graph) {
          {
            Timed append("store.append", graph.window().begin().index());
            writer->append(graph);
          }
          analyzer.window(graph);
        });
      }
      {
        Timed span("store.append", -1);
        writer->close();
      }
      stats.store_bytes = writer->stats().bytes_on_disk;
      ok = result.has_value();
    }
  }
  conns.clear();
  for (const pid_t pid : children) {
    int status = 0;
    if (!ok) ::kill(pid, SIGTERM);
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ok = false;
  }
  analyzer.close("analyzed");
  return ok;
}

std::string json_list(const std::vector<std::uint64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(values[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_trace live|replay|serve --option value ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  const Args args(argc, argv);
  g_jobs = &obs::Registry::global().counter("ccg.parallel.jobs");
  parallel::set_thread_count(static_cast<int>(args.num("threads", 1)));
  const std::uint64_t net_retries0 = counter_value("ccg.net.connect_retries");
  const std::uint64_t net_errors0 =
      counter_value("ccg.net.errors") + counter_value("ccg.net.timeouts");
  const std::uint64_t wire0 = counter_value("ccg.net.bytes_sent");
  const std::uint64_t jobs0 = g_jobs->value();

  Analyzer analyzer(static_cast<std::size_t>(args.num("train", 3)));
  RunStats stats;
  bool ok = false;
  {
    Timed root("run", -1);
    if (mode == "live") {
      ok = run_live(args, analyzer, stats);
    } else if (mode == "replay") {
      ok = run_replay(args, analyzer);
    } else if (mode == "serve") {
      ok = run_serve(args, analyzer, stats);
    } else if (mode == "shard-worker") {
      g_tracer.set_id_base((args.num("shard", 0) + 1) << 32);
      ok = run_shard_worker(args, stats);
    } else {
      std::fprintf(stderr, "perfbench_trace: unknown mode '%s'\n", mode.c_str());
      return 2;
    }
  }

  std::vector<std::uint64_t> nodes(analyzer.counts().nodes.begin(),
                                   analyzer.counts().nodes.end());
  std::vector<std::uint64_t> edges(analyzer.counts().edges.begin(),
                                   analyzer.counts().edges.end());
  std::ofstream stats_out(args.str("stats"));
  stats_out << "{\"rows\":" << stats.parse.rows << ",\"bytes\":" << stats.parse.bytes
            << ",\"malformed_rows\":" << stats.parse.malformed
            << ",\"windows\":" << analyzer.windows()
            << ",\"nodes\":" << json_list(nodes) << ",\"edges\":" << json_list(edges)
            << ",\"collapsed_nodes\":" << analyzer.counts().collapsed
            << ",\"pairs_scored\":" << analyzer.counts().pairs_scored
            << ",\"parallel_jobs\":" << g_jobs->value() - jobs0
            << ",\"store_bytes_written\":" << stats.store_bytes
            << ",\"wire_bytes\":" << counter_value("ccg.net.bytes_sent") - wire0
            << ",\"shard_records\":" << json_list(stats.shard_records)
            << ",\"net_retries\":" << counter_value("ccg.net.connect_retries") - net_retries0
            << ",\"net_errors\":"
            << counter_value("ccg.net.errors") + counter_value("ccg.net.timeouts") - net_errors0
            << "}\n";
  std::ofstream report_out(args.str("report"));
  report_out << analyzer.text();
  const bool written = g_tracer.write(args.str("spans")) &&
                       static_cast<bool>(stats_out) && static_cast<bool>(report_out);
  if (!ok) std::fprintf(stderr, "perfbench_trace: %s run failed\n", mode.c_str());
  return ok && written ? 0 : 1;
}
