#include "ccg/parallel/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include "ccg/obs/config.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/stage.hpp"

namespace ccg::parallel {

namespace {

std::atomic<int> g_override{0};

/// True while the current thread is executing a pool chunk: nested
/// parallel_for calls from kernel code run inline instead of deadlocking
/// on the (single, non-reentrant) job slot.
thread_local bool tls_in_worker = false;

struct Job {
  std::size_t n = 0;
  ChunkLayout layout;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body = nullptr;
  obs::Handoff handoff;  // workers run chunks under the job's stage
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_chunks{0};
  std::atomic<std::uint64_t> busy_workers{0};
  std::size_t refs = 0;  // workers currently inside work(); guarded by Pool::mutex_
  std::exception_ptr error;  // first body exception, guarded by error_mutex
  std::mutex error_mutex;
};

/// Lazily grown fork-join pool. One job runs at a time (external submitters
/// serialize on submit_mutex_); workers pull chunks with an atomic ticket,
/// so scheduling is dynamic while chunk geometry stays fixed.
class Pool {
 public:
  static Pool& instance() {
    static Pool* pool = new Pool();  // leaked: workers may outlive main()'s locals
    return *pool;
  }

  void run(std::size_t n, const ChunkLayout& layout,
           const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
    const int threads = thread_count();
    if (threads <= 1 || layout.count <= 1 || tls_in_worker) {
      run_inline(n, layout, body);
      return;
    }

    // The job is a stage of its own, named after the kernel that asked for
    // it. Workers resume its handoff, so spans opened inside chunk bodies
    // nest under the job's span, profiler samples land under its frame and
    // allocations bill the submitter's heap sink; the submitting thread is
    // inside the stage already.
    std::unique_lock<std::mutex> submit(submit_mutex_);
    ensure_workers(threads - 1);
    const obs::Stage stage(obs::job_stage());

    Job job;
    job.n = n;
    job.layout = layout;
    job.body = &body;
    job.handoff = stage.handoff();

    obs_jobs_->add();
    obs_chunks_->add(layout.count);
    const auto start = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      active_job_ = &job;
      active_limit_ = static_cast<std::size_t>(threads - 1);
      ++epoch_;
    }
    cv_.notify_all();

    // The submitting thread participates with the highest worker slot so
    // slots stay dense in [0, max_workers()). It is flagged as in-worker
    // for the duration: a nested parallel_for from its own chunk body must
    // run inline rather than re-enter submit_mutex_ (self-deadlock).
    tls_in_worker = true;
    work(job, static_cast<std::size_t>(threads - 1));
    tls_in_worker = false;

    // Wait until every chunk ran AND no worker still holds a reference to
    // the stack-allocated job (a late-waking worker may enter work() after
    // the chunks are exhausted; it must leave before the job is destroyed).
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] {
        return job.refs == 0 &&
               job.done_chunks.load(std::memory_order_acquire) == layout.count;
      });
      active_job_ = nullptr;
    }
    obs_job_seconds_->record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    obs_busy_hwm_->update_max(
        static_cast<double>(job.busy_workers.load(std::memory_order_relaxed)));
    if (job.error) std::rethrow_exception(job.error);
  }

  std::size_t slot_bound() {
    const int threads = thread_count();
    return threads > 0 ? static_cast<std::size_t>(threads) : 1;
  }

 private:
  Pool()
      : obs_jobs_(&obs::Registry::global().counter("ccg.parallel.jobs")),
        obs_chunks_(&obs::Registry::global().counter("ccg.parallel.chunks")),
        obs_pool_size_(&obs::Registry::global().gauge("ccg.parallel.pool.threads")),
        obs_busy_hwm_(
            &obs::Registry::global().gauge("ccg.parallel.busy.workers.hwm")),
        obs_job_seconds_(
            &obs::Registry::global().histogram("ccg.parallel.job.seconds")) {}

  static void run_inline(
      std::size_t n, const ChunkLayout& layout,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
    // Same chunk geometry, ascending order: byte-identical to the pooled run.
    for (std::size_t chunk = 0; chunk < layout.count; ++chunk) {
      body(layout.begin(chunk), layout.end(chunk, n), 0);
    }
  }

  void ensure_workers(std::size_t needed) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < needed) {
      const std::size_t slot = workers_.size();
      workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
    obs_pool_size_->update_max(static_cast<double>(workers_.size() + 1));
  }

  void worker_loop(std::size_t slot) {
    tls_in_worker = true;
    std::uint64_t seen_epoch = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return epoch_ != seen_epoch; });
        seen_epoch = epoch_;
        // A shrunk pool parks the surplus workers: they see epochs but no job.
        if (active_job_ != nullptr && slot < active_limit_) {
          job = active_job_;
          ++job->refs;
        }
      }
      if (job != nullptr) {
        const obs::Resume resume(job->handoff);
        work(*job, slot);
        std::lock_guard<std::mutex> lock(mutex_);
        if (--job->refs == 0) done_cv_.notify_all();
      }
    }
  }

  void work(Job& job, std::size_t slot) {
    job.busy_workers.fetch_add(1, std::memory_order_relaxed);
    const std::size_t chunks = job.layout.count;
    for (;;) {
      const std::size_t chunk =
          job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) break;
      try {
        (*job.body)(job.layout.begin(chunk), job.layout.end(chunk, job.n), slot);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex submit_mutex_;  // one job at a time; concurrent submitters queue

  std::mutex mutex_;
  std::condition_variable cv_;       // wakes workers on a new epoch
  std::condition_variable done_cv_;  // wakes the submitter on completion
  std::vector<std::thread> workers_; // detached-by-leak: pool lives forever
  Job* active_job_ = nullptr;
  std::size_t active_limit_ = 0;
  std::uint64_t epoch_ = 0;

  obs::Counter* obs_jobs_;
  obs::Counter* obs_chunks_;
  obs::Gauge* obs_pool_size_;
  obs::Gauge* obs_busy_hwm_;
  obs::Histogram* obs_job_seconds_;
};

}  // namespace

int thread_count() {
  static const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (const int n = g_override.load(std::memory_order_relaxed); n > 0) return n;
  const long configured = obs::runtime_config().threads;
  return configured > 0 ? static_cast<int>(configured) : hardware;
}

void set_thread_count(int n) {
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

ChunkLayout chunk_layout(std::size_t n, std::size_t min_grain) {
  ChunkLayout layout;
  layout.grain = min_grain > 0 ? min_grain : 1;
  layout.count = n == 0 ? 0 : (n + layout.grain - 1) / layout.grain;
  return layout;
}

void parallel_for(std::size_t n, std::size_t min_grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  parallel_for_worker(
      n, min_grain,
      [&](std::size_t begin, std::size_t end, std::size_t) { body(begin, end); });
}

void parallel_for_worker(
    std::size_t n, std::size_t min_grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  Pool::instance().run(n, chunk_layout(n, min_grain), body);
}

std::size_t max_workers() { return Pool::instance().slot_bound(); }

}  // namespace ccg::parallel
