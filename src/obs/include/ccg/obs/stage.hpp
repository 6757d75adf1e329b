// One way to meter a stage: obs::Stage over a row of the stage table.
//
//   obs::Stage stage(obs::stage::kGraphFinalize);
//
// A Stage times its scope into `<name>.seconds`, records a trace span
// under the ambient TraceContext (while the TraceRing is on), pushes its
// name onto the profiler frame stack (while a profiler runs) and names
// the pool jobs submitted inside it. Row flags add the rest: kBillHeap
// bills the scope's allocations to `ccg.prof.heap.<suffix>.{bytes,allocs}`
// (<suffix>: the name without its first two components); kKernel adds
// counter deltas to `ccg.prof.kernel.<kernel>.*` while counters are enabled
// and names pool jobs `ccg.parallel.job.<kernel>` (<kernel>: the last
// component). Every stage name is written once, in a row below
// (docs/OBSERVABILITY.md lists them). A row resolves its instruments on
// first use; after that a Stage takes no lock and does no map lookup.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>

#include "ccg/obs/heap.hpp"
#include "ccg/obs/prof.hpp"
#include "ccg/obs/prof_counters.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg::obs {

namespace detail {
struct StageInstruments;
}  // namespace detail

enum StageFlags : unsigned { kBillHeap = 1u << 0, kKernel = 1u << 1 };

/// One stage: its name and flags. Rows are constants with static storage;
/// `resolved` caches the registry instruments once the row is first used.
struct StageRow {
  const char* name;
  unsigned flags = 0;
  mutable std::atomic<const detail::StageInstruments*> resolved{nullptr};
};

// clang-format off
namespace stage {
// ingest and window construction
inline constexpr StageRow kIngestParse{"ccg.ingest.parse"};
inline constexpr StageRow kTelemetryFlush{"ccg.telemetry.flush"};
inline constexpr StageRow kGraphFinalize{"ccg.graph.finalize"};
// analysis of one window (AnalyticsService)
inline constexpr StageRow kWindow{"ccg.analytics.window", kBillHeap};
inline constexpr StageRow kBuild{"ccg.analytics.stage.build", kBillHeap};
inline constexpr StageRow kEdges{"ccg.analytics.stage.edges", kBillHeap};
inline constexpr StageRow kTracker{"ccg.analytics.stage.tracker", kBillHeap};
inline constexpr StageRow kPatterns{"ccg.analytics.stage.patterns", kBillHeap};
inline constexpr StageRow kSpectralFit{"ccg.analytics.spectral_fit", kBillHeap};
inline constexpr StageRow kSpectral{"ccg.analytics.stage.spectral", kBillHeap};
// segmentation
inline constexpr StageRow kSegmentTotal{"ccg.segment.total"};
inline constexpr StageRow kSegmentObjective{"ccg.segment.objective"};
inline constexpr StageRow kSegmentLouvain{"ccg.segment.louvain"};
inline constexpr StageRow kSimilarityClique{"ccg.segment.similarity_clique", kKernel};
inline constexpr StageRow kSimRank{"ccg.segment.simrank", kKernel};
// linear algebra kernels
inline constexpr StageRow kJacobiEigen{"ccg.linalg.jacobi_eigen", kKernel};
inline constexpr StageRow kTopKEigen{"ccg.linalg.top_k_eigen", kKernel};
inline constexpr StageRow kPowerIteration{"ccg.linalg.power_iteration", kKernel};
inline constexpr StageRow kPcaReconstruct{"ccg.linalg.pca_reconstruct", kKernel};
inline constexpr StageRow kPcaErrorCurve{"ccg.linalg.pca_error_curve", kKernel};
inline constexpr StageRow kKMeans{"ccg.linalg.kmeans", kKernel};
// incremental engine
inline constexpr StageRow kIncrWindow{"ccg.incr.window"};
inline constexpr StageRow kIncrCsr{"ccg.incr.stage.csr"};
inline constexpr StageRow kIncrSignatures{"ccg.incr.stage.signatures"};
inline constexpr StageRow kIncrCandidates{"ccg.incr.stage.candidates"};
inline constexpr StageRow kIncrScores{"ccg.incr.stage.scores"};
inline constexpr StageRow kIncrPca{"ccg.incr.stage.pca"};
inline constexpr StageRow kIncrVerify{"ccg.incr.stage.verify"};
// window store
inline constexpr StageRow kStoreAppend{"ccg.store.append"};
inline constexpr StageRow kStoreMaterialize{"ccg.store.materialize"};
inline constexpr StageRow kStoreCompact{"ccg.store.compact"};
// distributed collector
inline constexpr StageRow kDistRoute{"ccg.dist.route"};
inline constexpr StageRow kDistRouteSend{"ccg.dist.route.send"};
inline constexpr StageRow kDistShip{"ccg.dist.shard.ship"};
inline constexpr StageRow kDistMergeWait{"ccg.dist.agg.merge_wait"};
inline constexpr StageRow kDistMerge{"ccg.dist.agg.window_merge"};
// a pool job submitted outside every kernel stage
inline constexpr StageRow kOtherJob{"ccg.parallel.job.other"};

/// Every row above, for tests and tooling that walk the table.
inline constexpr std::array kTable{
    &kIngestParse, &kTelemetryFlush, &kGraphFinalize,
    &kWindow, &kBuild, &kEdges, &kTracker, &kPatterns, &kSpectralFit, &kSpectral,
    &kSegmentTotal, &kSegmentObjective, &kSegmentLouvain, &kSimilarityClique, &kSimRank,
    &kJacobiEigen, &kTopKEigen, &kPowerIteration, &kPcaReconstruct, &kPcaErrorCurve, &kKMeans,
    &kIncrWindow, &kIncrCsr, &kIncrSignatures, &kIncrCandidates, &kIncrScores, &kIncrPca, &kIncrVerify,
    &kStoreAppend, &kStoreMaterialize, &kStoreCompact,
    &kDistRoute, &kDistRouteSend, &kDistShip, &kDistMergeWait, &kDistMerge,
    &kOtherJob,
};
}  // namespace stage
// clang-format on

/// The names a row derives: `ccg.prof.heap.<heap>.*` (kBillHeap rows) and
/// `ccg.prof.kernel.<kernel>.*` / `ccg.parallel.job.<kernel>` (kKernel
/// rows). Empty when the row lacks the flag.
std::string heap_suffix(const StageRow& row);
std::string kernel_name(const StageRow& row);

/// Registers the rows' `<name>.seconds` histograms up front, so a
/// component's stages show in every export from its construction on, even
/// before they first run.
void declare_stages(std::initializer_list<const StageRow*> rows);

/// The row a pool job submitted now on this thread is metered under:
/// `ccg.parallel.job.<kernel>` of the innermost open kernel stage, else
/// stage::kOtherJob.
const StageRow& job_stage() noexcept;

/// What a thread running work on a stage's behalf installs (obs::Resume):
/// the stage's trace context, its profiler frame and the heap sink.
struct Handoff {
  TraceContext trace;
  const char* frame = nullptr;
  prof::HeapSink* heap = nullptr;
};

/// RAII meter of one stage; see the top of this header.
class Stage {
 public:
  explicit Stage(const StageRow& row) noexcept;
  /// Also installs the trace of the window starting at `begin_minute` for
  /// the scope: the span is that trace's root.
  Stage(const StageRow& row, std::int64_t begin_minute) noexcept;
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  ~Stage();

  /// What a pool worker installs to run chunks under this stage.
  Handoff handoff() const noexcept;

 private:
  Stage(const StageRow& row, TraceContext parent) noexcept;

  const StageRow& row_;
  const detail::StageInstruments& inst_;
  std::chrono::steady_clock::time_point start_;
  TraceContext parent_;
  std::uint64_t span_id_;  // nonzero iff the span goes to the TraceRing
  detail::TraceScope trace_;
  prof::detail::FrameScope frame_;
  prof::HeapSink sink_;
  prof::detail::HeapSinkScope heap_;
  std::optional<prof::CounterValues> counters_;
  const StageRow* outer_job_;
};

/// Installs a Handoff on the calling thread for its scope.
class Resume {
 public:
  explicit Resume(const Handoff& handoff) noexcept
      : trace_(handoff.trace), frame_(handoff.frame), heap_(handoff.heap) {}

 private:
  detail::TraceScope trace_;
  prof::detail::FrameScope frame_;
  prof::detail::HeapSinkScope heap_;
};

}  // namespace ccg::obs
