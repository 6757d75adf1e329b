// The streaming analytics pipeline (paper §3.2, Fig. 8).
//
// "A key issue is to factor the graph analyses into parallelizable
// in-memory execution plans." Graph construction is a group-by-aggregate:
// we shard records by their undirected IP pair, each shard aggregates
// independently on its own thread, and window close merges the per-shard
// partial graphs. An edge lands in exactly one shard, so the merge is a
// disjoint union — no cross-shard reconciliation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "ccg/analytics/queue.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/store/store.hpp"
#include "ccg/telemetry/collector.hpp"

namespace ccg {

struct PipelineOptions {
  std::size_t shards = 4;
  std::size_t queue_capacity = 64;      // batches in flight per shard
  std::size_t shard_batch_size = 4096;  // records per internal batch
  GraphBuildConfig graph;               // facet/window/collapse settings
};

/// One queued unit of shard work: the records plus the trace id of the
/// window they belong to, captured on the producer thread so the shard
/// worker's batch_build spans attribute to the right window even though
/// they run on a different thread.
struct ShardBatch {
  std::uint64_t trace_id = 0;
  /// Set on each shard's first batch of a minute: the shard builder
  /// advances to `minute` and learns every local IP of the whole minute
  /// (`locals`) before ingesting, so a shard flags monitored nodes exactly
  /// as one builder over the full stream would.
  std::optional<MinuteBucket> minute;
  std::vector<IpAddr> locals;
  std::vector<ConnectionSummary> records;
};

/// Value snapshot of the pipeline's throughput counters.
struct PipelineStats {
  std::uint64_t records = 0;
  std::uint64_t batches = 0;
  double wall_seconds = 0.0;

  double records_per_second() const {
    return wall_seconds <= 0.0 ? 0.0 : static_cast<double>(records) / wall_seconds;
  }
};

/// Sharded streaming graph builder. Thread-safe for a single producer
/// (the telemetry hub); shard workers run on their own threads.
///
/// Threading contract:
///  - on_batch() and finish() must be called from one producer thread.
///  - Shard workers ingest concurrently on their own threads.
///  - stats() may be called from any thread at any time: the underlying
///    counters are relaxed atomics, so totals are exact once quiescent and
///    never torn mid-run. wall_seconds is only meaningful after finish().
///
/// The pipeline also feeds the global obs::Registry ("ccg.pipeline.*"):
/// per-shard record counters and queue-depth high-water marks, enqueue
/// stall and per-batch build latency histograms, and the window-merge
/// latency at finish().
class ShardedGraphPipeline : public TelemetrySink {
 public:
  ShardedGraphPipeline(PipelineOptions options,
                       std::unordered_set<IpAddr> monitored);
  ~ShardedGraphPipeline() override;

  ShardedGraphPipeline(const ShardedGraphPipeline&) = delete;
  ShardedGraphPipeline& operator=(const ShardedGraphPipeline&) = delete;

  /// TelemetrySink hook: splits the batch across shards.
  void on_batch(MinuteBucket time, const std::vector<ConnectionSummary>& batch) override;

  /// Optional store sink: every merged window is appended to `store` as it
  /// is finalized in finish(), before being returned. Borrowed, not owned;
  /// set before finish().
  void set_store(store::StoreWriter* store) { store_ = store; }

  /// Stops workers, merges shard windows, returns one graph per window.
  /// After finish() the pipeline cannot be reused.
  std::vector<CommGraph> finish();

  PipelineStats stats() const {
    return {records_.load(std::memory_order_relaxed),
            batches_.load(std::memory_order_relaxed), wall_seconds_};
  }
  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    std::unique_ptr<BoundedQueue<ShardBatch>> queue;
    std::unique_ptr<GraphBuilder> builder;
    std::thread worker;
    obs::Counter* records = nullptr;    // ccg.pipeline.shard.N.records
    obs::Gauge* queue_hwm = nullptr;    // ccg.pipeline.shard.N.queue_depth_hwm
  };

  std::size_t shard_of(const ConnectionSummary& record) const;
  void push_pending(std::size_t shard);

  PipelineOptions options_;
  std::vector<Shard> shards_;
  std::vector<ShardBatch> pending_;  // per shard
  std::vector<IpAddr> locals_;       // reused per-minute local-IP list
  store::StoreWriter* store_ = nullptr;
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> batches_{0};
  double wall_seconds_ = 0.0;  // written by finish(), producer thread only
  obs::Counter* m_records_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Histogram* m_enqueue_stall_ = nullptr;
  obs::Histogram* m_batch_build_ = nullptr;
  obs::Histogram* m_window_merge_ = nullptr;
  std::chrono::steady_clock::time_point started_;
  bool finished_ = false;
};

}  // namespace ccg
