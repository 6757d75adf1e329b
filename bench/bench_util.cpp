#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "ccg/obs/config.hpp"
#include "ccg/obs/export.hpp"
#include "ccg/obs/heap.hpp"
#include "ccg/obs/prof_counters.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg::bench {

void emit_metrics_snapshot() {
  std::printf("\n==== metrics snapshot (json) ====\n%s",
              obs::to_json(obs::Registry::global().snapshot()).c_str());
  std::fflush(stdout);
}

void emit_resource_summary() {
  obs::prof::enable_counters();
  const obs::prof::CounterValues now = obs::prof::read_counters();
  const obs::prof::HeapUsage heap = obs::prof::process_heap_totals();

  // Per-stage cost: wall seconds from the stage latency histograms, heap
  // churn from the per-window heap histograms the analytics service fills.
  struct StageCost {
    double seconds = 0.0;
    std::uint64_t windows = 0;
    double heap_bytes = 0.0;
    double heap_allocs = 0.0;
  };
  std::map<std::string, StageCost> stages;
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  for (const obs::HistogramSample& h : snapshot.histograms) {
    const std::string stage_prefix = "ccg.analytics.stage.";
    const std::string heap_prefix = "ccg.prof.heap.stage.";
    if (h.name.rfind(stage_prefix, 0) == 0 &&
        h.name.size() > stage_prefix.size() + 8 &&
        h.name.compare(h.name.size() - 8, 8, ".seconds") == 0) {
      const std::string stage = h.name.substr(
          stage_prefix.size(), h.name.size() - stage_prefix.size() - 8);
      stages[stage].seconds = h.sum;
      stages[stage].windows = h.count;
    } else if (h.name.rfind(heap_prefix, 0) == 0) {
      if (h.name.compare(h.name.size() - 6, 6, ".bytes") == 0) {
        stages[h.name.substr(heap_prefix.size(),
                             h.name.size() - heap_prefix.size() - 6)]
            .heap_bytes = h.sum;
      } else if (h.name.compare(h.name.size() - 7, 7, ".allocs") == 0) {
        stages[h.name.substr(heap_prefix.size(),
                             h.name.size() - heap_prefix.size() - 7)]
            .heap_allocs = h.sum;
      }
    }
  }

  // Transport health and SLO-watcher verdicts ride along so a bench run's
  // artifact shows whether the run was clean end to end.
  const auto counter_or_zero = [&snapshot](const char* name) {
    for (const obs::CounterSample& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };

  std::string json = "{\"counter_tier\": \"";
  json += obs::prof::tier_name(now.tier);
  json += "\", \"cpu_user_seconds\": " + fmt(now.cpu_user_seconds, 3) +
          ", \"cpu_system_seconds\": " + fmt(now.cpu_system_seconds, 3) +
          ", \"peak_rss_bytes\": " + std::to_string(now.max_rss_bytes) +
          ", \"heap\": {\"tracked\": " +
          (obs::prof::heap_tracking_available() ? "true" : "false") +
          ", \"alloc_bytes\": " + std::to_string(heap.bytes) +
          ", \"allocs\": " + std::to_string(heap.allocs) +
          "}, \"net\": {\"frames_sent\": " +
          std::to_string(counter_or_zero("ccg.net.frames_sent")) +
          ", \"frames_received\": " +
          std::to_string(counter_or_zero("ccg.net.frames_received")) +
          ", \"connect_retries\": " +
          std::to_string(counter_or_zero("ccg.net.connect_retries")) +
          ", \"timeouts\": " +
          std::to_string(counter_or_zero("ccg.net.timeouts")) +
          ", \"errors\": " + std::to_string(counter_or_zero("ccg.net.errors")) +
          "}, \"slo\": {\"evaluations\": " +
          std::to_string(counter_or_zero("ccg.slo.evaluations")) +
          ", \"breaches\": " +
          std::to_string(counter_or_zero("ccg.slo.breaches")) +
          ", \"sustained\": " +
          std::to_string(counter_or_zero("ccg.slo.sustained")) +
          "}, \"stages\": [";
  bool first = true;
  for (const auto& [name, cost] : stages) {
    if (!first) json += ", ";
    first = false;
    json += "{\"name\": \"" + name +
            "\", \"seconds\": " + fmt(cost.seconds, 6) +
            ", \"windows\": " + std::to_string(cost.windows) +
            ", \"heap_bytes\": " + std::to_string(
                static_cast<std::uint64_t>(cost.heap_bytes)) +
            ", \"heap_allocs\": " + std::to_string(
                static_cast<std::uint64_t>(cost.heap_allocs)) + "}";
  }
  json += "]}\n";
  std::printf("\n==== resource summary (json) ====\n%s", json.c_str());
  std::fflush(stdout);
}

namespace {

// CCG_TRACE_OUT=<path> (the `trace_out` knob) captures the whole bench
// run's spans and writes a Chrome trace-event file at exit (same format the
// CLI's --trace-out emits).
void emit_trace_file() {
  const char* path = obs::runtime_config().trace_out.c_str();
  if (obs::write_trace_file(path)) {
    std::printf("\n==== trace written: %s ====\n", path);
  } else {
    std::fprintf(stderr, "failed to write trace file %s\n", path);
  }
  std::fflush(stdout);
}

}  // namespace

double default_rate_scale(const std::string& preset_name) {
  // KQuery at full calibration generates ~100k records/min; scale the big
  // presets down for bench runtime while keeping topology intact.
  if (preset_name == "KQuery") return 0.5;
  if (preset_name == "K8sPaaS") return 0.5;
  if (preset_name == "uServiceBench") return 0.5;
  return 1.0;
}

SimulationResult simulate(const ClusterSpec& spec, SimulateOptions options) {
  // Every bench funnels through here, so this is the one place to hook the
  // end-of-run metrics dump. Registered once; the global registry is
  // leaked, so it is still alive when the handler runs.
  static const bool metrics_at_exit = [] {
    obs::Registry::global();
    if (!obs::runtime_config().trace_out.empty()) {
      obs::TraceRing::global().enable(obs::default_trace_ring_capacity());
      (void)std::atexit(emit_trace_file);
    }
    // atexit runs LIFO: the resource summary prints after the metrics
    // snapshot it is derived from.
    (void)std::atexit(emit_resource_summary);
    return std::atexit(emit_metrics_snapshot) == 0;
  }();
  (void)metrics_at_exit;

  SimulationResult result;
  Cluster cluster(spec, options.seed);
  TelemetryHub hub(options.provider, options.seed);
  SimulationDriver driver(cluster, hub);
  for (Injector* injector : options.injectors) {
    driver.add_injector(std::unique_ptr<Injector>(injector));
  }

  const auto monitored_vec = cluster.monitored_ips();
  result.monitored = {monitored_vec.begin(), monitored_vec.end()};

  GraphBuilder ip_builder({.facet = GraphFacet::kIp,
                           .window_minutes = 60,
                           .collapse_threshold = options.collapse_threshold},
                          result.monitored);
  auto port_builder =
      options.want_ip_port
          ? std::make_unique<GraphBuilder>(
                GraphBuildConfig{.facet = GraphFacet::kIpPort, .window_minutes = 60},
                result.monitored)
          : nullptr;

  Stopwatch watch;
  for (std::int64_t m = 0; m < options.hours * 60; ++m) {
    const auto batch = driver.step(MinuteBucket(m));
    ip_builder.on_batch(MinuteBucket(m), batch);
    if (port_builder) port_builder->on_batch(MinuteBucket(m), batch);
  }
  result.simulate_seconds = watch.seconds();

  ip_builder.flush();
  result.hourly_graphs = ip_builder.take_graphs();
  if (port_builder) {
    port_builder->flush();
    result.hourly_port_graphs = port_builder->take_graphs();
  }
  result.ledger = hub.ledger();
  result.roles = cluster.ground_truth_roles();
  result.activities = driver.stats().activities;
  return result;
}

void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 14;
    std::printf("%-*s", width, cells[i].c_str());
  }
  std::printf("\n");
}

std::string fmt(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_count(std::uint64_t v) {
  char buf[48];
  if (v >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(v) / 1e6);
  } else if (v >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(v) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  }
  return buf;
}

}  // namespace ccg::bench
