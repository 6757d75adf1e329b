// Shared fork-join thread pool for the analysis kernels.
//
// The paper flags the "super-quadratic complexity" of all-pairs similarity
// as the scaling obstacle for micro-segmentation (§2.1); the per-minute
// window budget cannot be burned on one core. Every hot kernel (similarity
// scoring, MinHash/LSH, SimRank sweeps, top-k eigenpairs/PCA, k-means)
// funnels through this facility instead of spawning ad-hoc threads.
//
// Determinism contract: results are bit-identical across thread counts.
// Work is split into *chunks whose boundaries depend only on the problem
// size*, never on the worker count. Chunks may be claimed by any worker in
// any order (dynamic scheduling for load balance), but:
//   - parallel_for bodies write disjoint state per index, so scheduling
//     cannot be observed;
//   - parallel_reduce stores one partial per chunk and merges the partials
//     serially in ascending chunk order after the join.
// Hence `--threads 1` and `--threads N` produce byte-identical output.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace ccg::parallel {

/// Effective worker count (>= 1). Resolution order: the last positive
/// set_thread_count() value, else the `threads` knob of obs::runtime_config()
/// (--threads / CCG_THREADS), else std::thread::hardware_concurrency.
int thread_count();

/// Overrides thread_count(); n <= 0 restores the configured default.
/// The pool grows lazily; shrinking just idles the extra workers.
void set_thread_count(int n);

/// Fixed work-splitting geometry: ceil(n / grain) chunks of `grain` items
/// (last chunk short). Depends only on (n, min_grain) — the foundation of
/// the cross-thread-count determinism guarantee.
struct ChunkLayout {
  std::size_t count = 0;  // number of chunks
  std::size_t grain = 1;  // items per chunk (last may be smaller)

  std::size_t begin(std::size_t chunk) const { return chunk * grain; }
  std::size_t end(std::size_t chunk, std::size_t n) const {
    const std::size_t e = (chunk + 1) * grain;
    return e < n ? e : n;
  }
};

ChunkLayout chunk_layout(std::size_t n, std::size_t min_grain);

/// Runs body(begin, end) over [0, n) split per chunk_layout(n, min_grain),
/// blocking until every chunk completed. The body must only write state
/// disjoint per index (or per chunk). Runs inline when the pool has one
/// thread, when n fits a single chunk, or when called from inside another
/// parallel region (nesting executes serially rather than deadlocking).
/// The first exception thrown by a body is rethrown on the calling thread
/// after the join.
void parallel_for(std::size_t n, std::size_t min_grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Like parallel_for, but the body also receives a dense worker slot index
/// in [0, max_workers()) identifying the executing thread — for reusable
/// per-thread scratch (e.g. similarity's StampedView). Scratch reuse across
/// chunks must not change per-chunk results.
void parallel_for_worker(
    std::size_t n, std::size_t min_grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// Upper bound on the worker slot index passed to parallel_for_worker
/// (callers size per-thread scratch arrays with this). At least 1.
std::size_t max_workers();

/// Deterministic chunked reduction: `fill(chunk_partial, begin, end)`
/// accumulates chunk [begin, end) into its own zero-initialized partial of
/// type T; partials are merged serially in ascending chunk order via
/// `merge(acc, partial)` after the parallel join. Bit-identical across
/// thread counts because the partials and the merge order are fixed.
template <typename T, typename Fill, typename Merge>
T parallel_reduce(std::size_t n, std::size_t min_grain, T init, Fill fill,
                  Merge merge) {
  const ChunkLayout layout = chunk_layout(n, min_grain);
  std::vector<T> partials(layout.count);
  parallel_for(n, min_grain, [&](std::size_t begin, std::size_t end) {
    fill(partials[begin / layout.grain], begin, end);
  });
  T acc = std::move(init);
  for (T& partial : partials) merge(acc, partial);
  return acc;
}

}  // namespace ccg::parallel
