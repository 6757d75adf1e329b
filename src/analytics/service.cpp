#include "ccg/analytics/service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "ccg/common/expect.hpp"
#include "ccg/obs/flight.hpp"
#include "ccg/obs/slo.hpp"
#include "ccg/obs/stage.hpp"

namespace ccg {

AnalyticsService::AnalyticsService(AnalyticsServiceOptions options,
                                   std::unordered_set<IpAddr> monitored,
                                   ReportCallback on_report)
    : options_(options),
      on_report_(std::move(on_report)),
      builder_(options.graph, std::move(monitored)),
      spectral_(options.spectral),
      edge_detector_(options.edge_detector),
      tracker_(options.segmentation, options.segmentation_options) {
  CCG_EXPECT(options.training_windows >= 1);
  CCG_EXPECT(on_report_ != nullptr);
  if (options_.incremental) {
    incremental::IncrementalOptions iopts;
    iopts.method = options_.segmentation;
    iopts.segmentation = options_.segmentation_options;
    iopts.refine = options_.incremental_refine;
    iopts.verify_against_full = options_.incremental_verify;
    incremental_ =
        std::make_unique<incremental::IncrementalEngine>(std::move(iopts));
  }
  obs::declare_stages({&obs::stage::kWindow, &obs::stage::kBuild,
                       &obs::stage::kEdges, &obs::stage::kTracker,
                       &obs::stage::kPatterns, &obs::stage::kSpectralFit,
                       &obs::stage::kSpectral});
  obs::Registry& registry = obs::Registry::global();
  m_windows_ = &registry.counter("ccg.analytics.windows");
  m_training_windows_ = &registry.counter("ccg.analytics.training_windows");
  m_alerts_ = &registry.counter("ccg.analytics.alerts");
}

void AnalyticsService::on_batch(MinuteBucket time,
                                const std::vector<ConnectionSummary>& batch) {
  {
    obs::Stage stage(obs::stage::kBuild);
    builder_.on_batch(time, batch);
  }
  drain_closed_windows();
}

void AnalyticsService::flush() {
  {
    obs::Stage stage(obs::stage::kBuild);
    builder_.flush();
  }
  drain_closed_windows();
}

void AnalyticsService::drain_closed_windows() {
  for (CommGraph& graph : builder_.take_graphs()) ingest_window(graph);
}

void AnalyticsService::ingest_window(const CommGraph& graph) {
  if (store_ != nullptr) store_->append(graph);
  deliver(graph);
}

void AnalyticsService::deliver(const CommGraph& graph) {
  const std::int64_t begin = graph.window().begin().index();
  obs::Watchdog::global().begin_window(obs::window_trace_id(begin),
                                       graph.window().to_string());
  WindowReport report;
  {
    // Root span of the window's trace: every stage span in analyze() nests
    // under it, which is what the trace viewer groups by. Its heap sink is
    // the root of the sink chain: stage sinks opened inside analyze()
    // chain to it, so `ccg.prof.heap.window.*` carries the whole window's
    // churn.
    obs::Stage stage(obs::stage::kWindow, begin);
    report = analyze(graph);
  }
  obs::Watchdog::global().end_window();
  obs::SloWatcher::global().note_window();
  ++windows_reported_;
  on_report_(report);
}

std::size_t AnalyticsService::replay(store::StoreReader& reader,
                                     std::int64_t t0, std::int64_t t1) {
  std::size_t replayed = 0;
  auto range = reader.range(t0, t1);
  while (const auto graph = range.next()) {
    deliver(*graph);
    ++replayed;
  }
  return replayed;
}

WindowReport AnalyticsService::analyze(const CommGraph& graph) {
  WindowReport report;
  report.window = graph.window();
  report.nodes = graph.node_count();
  report.edges = graph.edge_count();
  report.bytes = graph.total_bytes();

  m_windows_->add();

  if (options_.stall_injection_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.stall_injection_ms));
  }

  // These run from window one: they carry their own baselines.
  {
    obs::Stage stage(obs::stage::kEdges);
    report.anomalous_edges = edge_detector_.observe(graph);
  }
  {
    obs::Stage stage(obs::stage::kTracker);
    if (incremental_ != nullptr) {
      // Exact mode hands the tracker a segmentation byte-identical to the
      // auto_segment call it would otherwise make itself.
      report.segments =
          tracker_.observe(graph, incremental_->observe(graph).segmentation);
    } else {
      report.segments = tracker_.observe(graph);
    }
  }
  {
    obs::Stage stage(obs::stage::kPatterns);
    report.patterns = mine_patterns(graph);
  }

  // The spectral detector needs a fitted subspace: accumulate training
  // windows, fit once, then score everything after.
  if (!spectral_.fitted()) {
    m_training_windows_->add();
    training_graphs_.push_back(graph);
    if (training_graphs_.size() >= options_.training_windows) {
      training_refs_.clear();
      for (const CommGraph& g : training_graphs_) training_refs_.push_back(&g);
      obs::Stage stage(obs::stage::kSpectralFit);
      spectral_.fit(training_refs_);
    }
    report.trained = false;
    return report;
  }

  report.trained = true;
  {
    obs::Stage stage(obs::stage::kSpectral);
    report.anomaly = spectral_.score(graph);
    report.alert = spectral_.is_alert(*report.anomaly);
  }
  if (report.alert) m_alerts_->add();
  return report;
}

std::string WindowReport::summary() const {
  // Edge anomalies by class: new conversations are routine in sparse
  // graphs (the paper's Fig. 5 shows ~5% edge churn per hour); shifts and
  // disappearances on established edges are the alarm-grade classes.
  std::size_t new_edges = 0, shifts = 0, gone = 0;
  for (const auto& e : anomalous_edges) {
    if (e.new_edge) {
      ++new_edges;
    } else if (e.vanished) {
      ++gone;
    } else {
      ++shifts;
    }
  }
  char buf[340];
  std::snprintf(
      buf, sizeof(buf),
      "%s: %zu nodes / %zu edges / %llu bytes; %s%s; edges %zu new / %zu "
      "shifted / %zu gone; segment churn %.1f%%; hubs %.0f%% cliques %.0f%% "
      "of bytes",
      window.to_string().c_str(), nodes, edges,
      static_cast<unsigned long long>(bytes),
      trained ? (alert ? "ALERT" : "ok") : "training",
      trained && anomaly ? (" (z=" + std::to_string(anomaly->zscore) + ")").c_str()
                         : "",
      new_edges, shifts, gone, 100.0 * segments.label_churn,
      100.0 * patterns.hub_byte_share, 100.0 * patterns.clique_byte_share);
  return buf;
}

}  // namespace ccg
