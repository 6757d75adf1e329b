// The analytics SaaS loop (paper Fig. 8) as one composable service.
//
// A TelemetrySink that runs the whole per-window pipeline the examples
// wire by hand: stream -> graph builder -> (after a configurable training
// period) spectral anomaly scoring, edge-level localization, segment
// tracking, pattern census — one WindowReport per closed window, delivered
// to a callback. This is what a customer-facing deployment would run per
// subscription.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ccg/graph/builder.hpp"
#include "ccg/incremental/engine.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/segmentation/tracker.hpp"
#include "ccg/store/store.hpp"
#include "ccg/summarize/anomaly.hpp"
#include "ccg/summarize/edge_anomaly.hpp"
#include "ccg/summarize/patterns.hpp"
#include "ccg/telemetry/collector.hpp"

namespace ccg {

struct WindowReport {
  TimeWindow window;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::uint64_t bytes = 0;

  bool trained = false;  // detectors were fitted before this window
  std::optional<AnomalyScore> anomaly;      // absent during training
  bool alert = false;
  std::vector<EdgeAnomaly> anomalous_edges;  // localized, ranked
  SegmentTransition segments;                // identity churn vs last window
  PatternReport patterns;

  std::string summary() const;
};

struct AnalyticsServiceOptions {
  GraphBuildConfig graph{};  // facet / window length / collapse
  /// Windows used to fit the spectral baseline before scoring starts.
  std::size_t training_windows = 3;
  SpectralDetectorOptions spectral{};
  /// New-node edges (churn replacements, fresh clients) are suppressed at
  /// the edge level by default — the spectral new-node-bytes signal and
  /// the segment tracker own node arrivals.
  EwmaDetectorOptions edge_detector{.suppress_new_node_edges = true};
  SegmentationMethod segmentation = SegmentationMethod::kJaccardLouvain;
  SegmentationOptions segmentation_options{};
  /// Patch-driven incremental segmentation (src/incremental): per-window
  /// MinHash/score/Louvain state is maintained from exact graph patches
  /// instead of recomputed. Exact mode — reports stay byte-identical to
  /// the plain service. The CLI sets it from the `incremental` knob
  /// (--incremental / CCG_INCREMENTAL).
  bool incremental = false;
  /// With incremental: check every window against a scratch full
  /// recompute (docs/INCREMENTAL.md contracts). CI/debug knob — it does
  /// the very work incrementality skips.
  bool incremental_verify = false;
  /// With incremental: warm-start Louvain from the previous communities
  /// (bounded modularity divergence instead of byte-identity).
  bool incremental_refine = false;
  /// Debug hook: sleep this long inside every window's analysis. Exists so
  /// tests and the CLI can provoke the obs::Watchdog deliberately; leave 0
  /// in real deployments.
  int stall_injection_ms = 0;
};

class AnalyticsService : public TelemetrySink {
 public:
  using ReportCallback = std::function<void(const WindowReport&)>;

  AnalyticsService(AnalyticsServiceOptions options,
                   std::unordered_set<IpAddr> monitored,
                   ReportCallback on_report);

  /// TelemetrySink hook. Window boundaries are detected from record
  /// timestamps; each closed window produces one report via the callback.
  void on_batch(MinuteBucket time, const std::vector<ConnectionSummary>& batch) override;

  /// Closes the in-progress window and reports it.
  void flush();

  /// Optional snapshot-store sink: each closed window is appended to
  /// `store` before analysis, so a live deployment leaves a replayable
  /// history behind. Borrowed, not owned.
  void set_store(store::StoreWriter* store) { store_ = store; }

  /// Feeds one already-built window graph through the full per-window
  /// path — store append (when set) plus analysis — under the window's
  /// deterministic trace id, exactly as if the builder had closed it.
  /// This is the distributed aggregator's entry point: merged windows
  /// arrive here instead of via on_batch, and because both paths finalize
  /// graphs through finalize_window_graph, the reports, store frames and
  /// trace ids are byte-identical to a single-process run.
  void ingest_window(const CommGraph& graph);

  /// Replay entry point (paper §2.3 counterfactual shape): drives the same
  /// per-window stages from stored windows with t0 <= window_begin < t1
  /// instead of live records, reporting each window through the callback.
  /// Detector state carries over exactly as in streaming, so replaying a
  /// store from a fresh service reproduces the original run's reports.
  /// Returns the number of windows replayed.
  std::size_t replay(store::StoreReader& reader,
                     std::int64_t t0 = std::numeric_limits<std::int64_t>::min(),
                     std::int64_t t1 = std::numeric_limits<std::int64_t>::max());

  std::size_t windows_reported() const { return windows_reported_; }

  /// Null unless options.incremental is set.
  const incremental::IncrementalEngine* incremental_engine() const {
    return incremental_.get();
  }

 private:
  void drain_closed_windows();
  void deliver(const CommGraph& graph);
  WindowReport analyze(const CommGraph& graph);

  AnalyticsServiceOptions options_;
  ReportCallback on_report_;
  GraphBuilder builder_;
  store::StoreWriter* store_ = nullptr;
  std::vector<const CommGraph*> training_refs_;  // into training_graphs_
  std::vector<CommGraph> training_graphs_;
  SpectralAnomalyDetector spectral_;
  EwmaEdgeDetector edge_detector_;
  SegmentTracker tracker_;
  std::unique_ptr<incremental::IncrementalEngine> incremental_;
  std::size_t windows_reported_ = 0;

  obs::Counter* m_windows_ = nullptr;
  obs::Counter* m_training_windows_ = nullptr;
  obs::Counter* m_alerts_ = nullptr;
};

}  // namespace ccg
