#include "ccg/obs/span.hpp"

#include <thread>

#include "ccg/obs/config.hpp"

namespace ccg::obs {

std::size_t default_trace_ring_capacity() {
  return static_cast<std::size_t>(runtime_config().trace_ring);
}

TraceRing& TraceRing::global() {
  static TraceRing* instance = new TraceRing();  // leaked, like the registry
  return *instance;
}

void TraceRing::enable(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity;
  ring_.clear();
  ring_.reserve(capacity);
  next_ = 0;
  dropped_ = 0;
  enabled_.store(capacity > 0, std::memory_order_relaxed);
}

void TraceRing::disable() {
  std::lock_guard lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRing::push(TraceEvent event) {
  std::lock_guard lock(mutex_);
  if (capacity_ == 0) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
    ++dropped_;
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceRing::events() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_ || ring_.empty()) {
    out = ring_;
  } else {
    // Full ring: oldest element sits at the write cursor.
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

std::size_t TraceRing::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void TraceRing::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
}

void ScopedSpan::open_trace() noexcept {
  traced_ = true;
  parent_ = current_trace();
  span_id_ = next_span_id();
  set_current_trace({parent_.trace_id, span_id_});
}

ScopedSpan::~ScopedSpan() {
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start_).count();
  histogram_->record(seconds);

  if (prof_framed_) prof::pop_frame();
  if (!traced_) return;
  set_current_trace(parent_);
  TraceRing& ring = TraceRing::global();
  if (ring.enabled()) {
    TraceEvent event;
    event.name = name_;
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

Histogram& span_histogram(std::string_view name) {
  return Registry::global().histogram(std::string(name) + ".seconds",
                                      latency_buckets());
}

}  // namespace ccg::obs
