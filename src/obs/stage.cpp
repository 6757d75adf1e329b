#include "ccg/obs/stage.hpp"

#include <array>
#include <iterator>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "ccg/obs/metrics.hpp"

namespace ccg::obs {

namespace detail {

/// `ccg.prof.kernel.<kernel>.<counter>`, registered once a kernel stage
/// closes with counters enabled (profiled runs only).
constexpr const char* kKernelCounters[] = {
    "calls", "cycles", "instructions", "cache_misses", "branch_misses", "cpu_ns"};
using KernelCounters = std::array<Counter*, std::size(kKernelCounters)>;

/// A row's registry instruments, resolved once and leaked with the
/// registry.
struct StageInstruments {
  Histogram* seconds;
  Histogram* heap_bytes = nullptr;  // kBillHeap
  Histogram* heap_allocs = nullptr;
  const StageRow* job = nullptr;    // kKernel: ccg.parallel.job.<kernel>
  mutable std::atomic<const KernelCounters*> counters{nullptr};  // kKernel
};

}  // namespace detail

namespace {

/// The job row of the innermost open kernel stage on this thread.
thread_local const StageRow* tls_job = nullptr;

std::mutex g_resolve_mutex;

const detail::StageInstruments& resolve(const StageRow& row) {
  if (const auto* inst = row.resolved.load(std::memory_order_acquire)) {
    return *inst;
  }
  std::lock_guard lock(g_resolve_mutex);
  if (const auto* inst = row.resolved.load(std::memory_order_relaxed)) {
    return *inst;
  }
  Registry& registry = Registry::global();
  auto* inst = new detail::StageInstruments{
      &registry.histogram(std::string(row.name) + ".seconds")};
  if (row.flags & kBillHeap) {
    // One record per scope; bytes 1 KiB..~1 TiB, allocations 1..~1e9.
    const std::string base = "ccg.prof.heap." + heap_suffix(row);
    inst->heap_bytes = &registry.histogram(
        base + ".bytes", {.first_bound = 1024.0, .growth = 4.0, .buckets = 16});
    inst->heap_allocs = &registry.histogram(
        base + ".allocs", {.first_bound = 1.0, .growth = 4.0, .buckets = 16});
  }
  if (row.flags & kKernel) {
    // Leaked like the row itself: frames and spans keep the name by pointer.
    const auto* job = new std::string("ccg.parallel.job." + kernel_name(row));
    inst->job = new StageRow{job->c_str()};
  }
  row.resolved.store(inst, std::memory_order_release);
  return *inst;
}

const detail::KernelCounters& kernel_counters(const StageRow& row,
                                              const detail::StageInstruments& inst) {
  if (const auto* k = inst.counters.load(std::memory_order_acquire)) return *k;
  std::lock_guard lock(g_resolve_mutex);
  if (const auto* k = inst.counters.load(std::memory_order_relaxed)) return *k;
  auto* k = new detail::KernelCounters;
  for (std::size_t i = 0; i < k->size(); ++i) {
    (*k)[i] = &Registry::global().counter("ccg.prof.kernel." + kernel_name(row) +
                                          "." + detail::kKernelCounters[i]);
  }
  inst.counters.store(k, std::memory_order_release);
  return *k;
}

}  // namespace

std::string heap_suffix(const StageRow& row) {
  if (!(row.flags & kBillHeap)) return {};
  const std::string_view name = row.name;
  return std::string(name.substr(name.find('.', name.find('.') + 1) + 1));
}

std::string kernel_name(const StageRow& row) {
  if (!(row.flags & kKernel)) return {};
  const std::string_view name = row.name;
  return std::string(name.substr(name.rfind('.') + 1));
}

void declare_stages(std::initializer_list<const StageRow*> rows) {
  for (const StageRow* row : rows) {
    Registry::global().histogram(std::string(row->name) + ".seconds");
  }
}

const StageRow& job_stage() noexcept {
  return tls_job != nullptr ? *tls_job : stage::kOtherJob;
}

Stage::Stage(const StageRow& row) noexcept : Stage(row, current_trace()) {}

Stage::Stage(const StageRow& row, std::int64_t begin_minute) noexcept
    : Stage(row, TraceContext{window_trace_id(begin_minute), 0}) {}

Stage::Stage(const StageRow& row, TraceContext parent) noexcept
    : row_(row),
      inst_(resolve(row)),
      start_(std::chrono::steady_clock::now()),
      parent_(parent),
      span_id_(TraceRing::global().enabled() ? next_span_id() : 0),
      trace_(span_id_ != 0 ? TraceContext{parent.trace_id, span_id_} : parent),
      frame_(row.name),
      heap_(inst_.heap_bytes != nullptr && prof::heap_tracking_available()
                ? &sink_
                : nullptr),
      outer_job_(tls_job) {
  if (row.flags & kKernel) {
    tls_job = inst_.job;
    if (prof::counters_enabled()) counters_ = prof::read_counters();
  }
}

Stage::~Stage() {
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start_).count();
  inst_.seconds->record(seconds);
  if (counters_) {
    const prof::CounterValues d = prof::since(*counters_);
    const std::uint64_t values[] = {
        1, d.cycles, d.instructions, d.cache_misses, d.branch_misses,
        d.cpu_seconds > 0 ? static_cast<std::uint64_t>(d.cpu_seconds * 1e9) : 0};
    const detail::KernelCounters& k = kernel_counters(row_, inst_);
    for (std::size_t i = 0; i < k.size(); ++i) k[i]->add(values[i]);
  }
  if (inst_.heap_bytes != nullptr && prof::heap_tracking_available()) {
    const prof::HeapUsage usage = sink_.usage();
    inst_.heap_bytes->record(static_cast<double>(usage.bytes));
    inst_.heap_allocs->record(static_cast<double>(usage.allocs));
  }
  if (row_.flags & kKernel) tls_job = outer_job_;
  TraceRing& ring = TraceRing::global();
  if (span_id_ != 0 && ring.enabled()) {
    TraceEvent event;
    event.name = row_.name;
    event.start_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start_.time_since_epoch())
            .count());
    event.duration_ns = static_cast<std::uint64_t>(seconds * 1e9);
    event.thread_hash = std::hash<std::thread::id>{}(std::this_thread::get_id());
    event.trace_id = parent_.trace_id;
    event.span_id = span_id_;
    event.parent_id = parent_.span_id;
    ring.push(std::move(event));
  }
}

Handoff Stage::handoff() const noexcept {
  return {current_trace(), prof::frames_enabled() ? row_.name : nullptr,
          prof::current_heap_sink()};
}

}  // namespace ccg::obs
