// Bounded, thread-safe ring of the most recent items: the storage behind
// the TraceRing (spans) and the LogRing (log records).
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace ccg::obs {

template <typename T>
class Ring {
 public:
  /// Empties the ring and resizes it; capacity 0 drops every push.
  void reset(std::size_t capacity) {
    std::lock_guard lock(mutex_);
    capacity_ = capacity;
    items_.clear();
    items_.reserve(capacity);
    next_ = 0;
    dropped_ = 0;
  }

  /// Appends `item`, overwriting (and counting as dropped) the oldest one
  /// when full.
  void push(T item) {
    std::lock_guard lock(mutex_);
    if (capacity_ == 0) return;
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
    } else {
      items_[next_] = std::move(item);
      ++dropped_;
    }
    next_ = (next_ + 1) % capacity_;
  }

  /// Oldest-first copy of the retained items.
  std::vector<T> items() const {
    std::lock_guard lock(mutex_);
    if (items_.size() < capacity_) return items_;
    // Full ring: the oldest item sits at the write cursor.
    std::vector<T> out(items_.begin() + static_cast<std::ptrdiff_t>(next_),
                       items_.end());
    out.insert(out.end(), items_.begin(),
               items_.begin() + static_cast<std::ptrdiff_t>(next_));
    return out;
  }

  std::size_t dropped() const {
    std::lock_guard lock(mutex_);
    return dropped_;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    items_.clear();
    next_ = 0;
    dropped_ = 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<T> items_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;     // write cursor
  std::size_t dropped_ = 0;  // items overwritten
};

}  // namespace ccg::obs
