#include "ccg/analytics/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>

#include "ccg/common/expect.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/obs/trace.hpp"

namespace ccg {

namespace {

/// Trace id of the analytics window a record minute falls into. Floor
/// division so the id matches the merged window's begin minute exactly.
std::uint64_t window_trace_for(std::int64_t minute, std::int64_t window_minutes) {
  if (window_minutes <= 0) window_minutes = 1;
  const std::int64_t begin =
      minute - (((minute % window_minutes) + window_minutes) % window_minutes);
  return obs::window_trace_id(begin);
}

}  // namespace

ShardedGraphPipeline::ShardedGraphPipeline(PipelineOptions options,
                                           std::unordered_set<IpAddr> monitored)
    : options_(options) {
  CCG_EXPECT(options.shards >= 1);
  CCG_EXPECT(options.shard_batch_size >= 1);

  obs::Registry& registry = obs::Registry::global();
  m_records_ = &registry.counter("ccg.pipeline.records");
  m_batches_ = &registry.counter("ccg.pipeline.batches");
  m_enqueue_stall_ = &obs::span_histogram("ccg.pipeline.enqueue_stall");
  m_batch_build_ = &obs::span_histogram("ccg.pipeline.batch_build");
  m_window_merge_ = &obs::span_histogram("ccg.pipeline.window_merge");

  // Shard builders never collapse: a shard only sees its own edges, so
  // traffic shares are meaningless locally. Collapse runs after the merge.
  GraphBuildConfig shard_config = options_.graph;
  shard_config.collapse_threshold = 0.0;
  // Late-monitored IPs are judged on whole windows; a shard only has part
  // of each, and every shard would count the same IP again.
  shard_config.count_late_monitored = false;

  shards_.resize(options.shards);
  pending_.resize(options.shards);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const std::string prefix = "ccg.pipeline.shard." + std::to_string(s);
    shard.records = &registry.counter(prefix + ".records");
    shard.queue_hwm = &registry.gauge(prefix + ".queue_depth_hwm");
    shard.queue = std::make_unique<BoundedQueue<ShardBatch>>(
        options.queue_capacity);
    shard.builder = std::make_unique<GraphBuilder>(shard_config, monitored);
    GraphBuilder* builder = shard.builder.get();
    auto* queue = shard.queue.get();
    obs::Counter* shard_records = shard.records;
    obs::Histogram* batch_build = m_batch_build_;
    shard.worker = std::thread([builder, queue, shard_records, batch_build] {
      while (auto batch = queue->pop()) {
        // Adopt the producer's window trace so this thread's batch_build
        // span parents under the window that enqueued the records.
        obs::TraceScope trace({batch->trace_id, 0});
        obs::ScopedSpan span(*batch_build, "ccg.pipeline.batch_build");
        if (batch->minute) {
          builder->advance_to(*batch->minute);
          for (const IpAddr ip : batch->locals) builder->learn_local(ip);
        }
        for (const auto& record : batch->records) builder->ingest(record);
        shard_records->add(batch->records.size());
      }
    });
  }
  started_ = std::chrono::steady_clock::now();
}

ShardedGraphPipeline::~ShardedGraphPipeline() {
  if (!finished_) {
    for (auto& shard : shards_) shard.queue->close();
    for (auto& shard : shards_) {
      if (shard.worker.joinable()) shard.worker.join();
    }
  }
}

std::size_t ShardedGraphPipeline::shard_of(const ConnectionSummary& record) const {
  // Shared with the multi-process shard workers: the same record must land
  // in the same shard in both modes (pinned by a golden test).
  return shard_of_record(record, options_.graph.facet, shards_.size());
}

void ShardedGraphPipeline::push_pending(std::size_t shard) {
  // A blocked push is backpressure from a lagging shard worker; the stall
  // histogram is how that shows up in a metrics scrape.
  obs::ScopedSpan stall(*m_enqueue_stall_, "ccg.pipeline.enqueue_stall");
  shards_[shard].queue->push(std::move(pending_[shard]));
  pending_[shard] = ShardBatch{};
  shards_[shard].queue_hwm->update_max(
      static_cast<double>(shards_[shard].queue->size()));
}

void ShardedGraphPipeline::on_batch(MinuteBucket time,
                                    const std::vector<ConnectionSummary>& batch) {
  CCG_EXPECT(!finished_);
  batches_.fetch_add(1, std::memory_order_relaxed);
  m_batches_->add();
  const std::uint64_t trace_id =
      window_trace_for(time.index(), options_.graph.window_minutes);
  locals_.clear();
  for (const auto& record : batch) {
    if (locals_.empty() || locals_.back() != record.flow.local_ip) {
      locals_.push_back(record.flow.local_ip);
    }
  }
  for (ShardBatch& pending : pending_) {
    pending.trace_id = trace_id;
    pending.minute = time;
    pending.locals = locals_;
  }
  for (const auto& record : batch) {
    ConnectionSummary stamped = record;
    stamped.time = time;
    const std::size_t s = shard_of(stamped);
    pending_[s].trace_id = trace_id;
    pending_[s].records.push_back(stamped);
    if (pending_[s].records.size() >= options_.shard_batch_size) push_pending(s);
  }
  records_.fetch_add(batch.size(), std::memory_order_relaxed);
  m_records_->add(batch.size());
  // Flush small leftovers each minute so shard windows close promptly; a
  // shard that got no records still needs the minute's monitored IPs.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!pending_[s].records.empty() || pending_[s].minute) push_pending(s);
  }
}

std::vector<CommGraph> ShardedGraphPipeline::finish() {
  CCG_EXPECT(!finished_);
  finished_ = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!pending_[s].records.empty()) push_pending(s);
    shards_[s].queue->close();
  }
  for (auto& shard : shards_) shard.worker.join();
  wall_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_)
          .count();

  // Group shard windows by window start, merge, then collapse.
  std::map<std::int64_t, std::vector<CommGraph>> by_window;
  for (auto& shard : shards_) {
    shard.builder->flush();
    for (auto& g : shard.builder->take_graphs()) {
      by_window[g.window().begin().index()].push_back(std::move(g));
    }
  }
  std::vector<CommGraph> out;
  out.reserve(by_window.size());
  for (auto& [start, parts] : by_window) {
    // Merge (and the store append below) runs on the producer thread but
    // belongs to the window being closed, not to whatever trace the caller
    // happens to be in.
    obs::TraceScope trace({obs::window_trace_id(start), 0});
    obs::ScopedSpan span(*m_window_merge_, "ccg.pipeline.window_merge");
    CommGraph merged = finalize_window_graph(merge_graphs(parts), options_.graph);
    if (store_ != nullptr) store_->append(merged);
    out.push_back(std::move(merged));
  }
  if (store_ != nullptr) store_->flush();
  return out;
}

}  // namespace ccg
