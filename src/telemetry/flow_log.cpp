#include "ccg/telemetry/flow_log.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/telemetry/serialize.hpp"

namespace ccg {

namespace {

/// One pass over one descriptor. Parsed rows collect into per-minute
/// batches; minutes completed during a block are handed to the sink after
/// that block's parse span closes, so the span times parsing only.
class FlowLogStream {
 public:
  explicit FlowLogStream(TelemetrySink& sink) : sink_(sink) {
    obs::Registry& registry = obs::Registry::global();
    m_rows_ = &registry.counter("ccg.ingest.rows");
    m_bytes_ = &registry.counter("ccg.ingest.bytes");
    m_malformed_ = &registry.counter("ccg.ingest.malformed_rows");
    m_parse_ = &obs::span_histogram("ccg.ingest.parse");
  }

  std::optional<IngestStats> run(int fd, int stop_fd) {
    std::vector<char> buf;
    std::size_t carry = 0;   // bytes of an unterminated line at buf[0..carry)
    bool skipping = false;   // inside an over-long line, until its '\n'
    for (;;) {
      if (buf.size() < carry + kFlowLogBlockBytes) {
        buf.resize(carry + kFlowLogBlockBytes);
      }
      if (stop_fd >= 0 && !wait_readable(fd, stop_fd)) {
        throw std::runtime_error("flow log read stopped: the run was aborted");
      }
      const ssize_t got = ::read(fd, buf.data() + carry, kFlowLogBlockBytes);
      if (got < 0) {
        if (errno == EINTR) continue;
        obs::log_error("ingest: read failed",
                       {obs::field("errno", errno),
                        obs::field("error", std::strerror(errno)),
                        obs::field("bytes_read", stats_.bytes)});
        return std::nullopt;
      }
      const bool eof = got == 0;
      stats_.bytes += static_cast<std::uint64_t>(got);
      m_bytes_->add(static_cast<std::uint64_t>(got));
      const IngestStats before = stats_;
      {
        obs::ScopedSpan span(*m_parse_, "ccg.ingest.parse");
        const char* p = buf.data();
        const char* const end = p + carry + static_cast<std::size_t>(got);
        while (const void* hit =
                   std::memchr(p, '\n', static_cast<std::size_t>(end - p))) {
          const char* nl = static_cast<const char*>(hit);
          if (skipping) {
            skipping = false;  // the over-long line was counted already
          } else if (!line(std::string_view(p, static_cast<std::size_t>(nl - p)))) {
            break;
          }
          p = nl + 1;
        }
        std::size_t rest = static_cast<std::size_t>(end - p);
        if (skipping || !order_error_.empty()) {
          rest = 0;
        } else if (eof && rest > 0) {
          line(std::string_view(p, rest));  // final line without '\n'
          rest = 0;
        } else if (rest > kFlowLogMaxLineBytes) {
          malformed(++line_no_);
          skipping = true;
          rest = 0;
        }
        std::memmove(buf.data(), p, rest);
        carry = rest;
      }
      m_rows_->add(stats_.rows - before.rows);
      m_malformed_->add(stats_.malformed_rows - before.malformed_rows);
      // Minutes completed before an out-of-order row are still delivered,
      // so what the sink sees does not depend on block boundaries.
      deliver_ready();
      if (!order_error_.empty()) throw std::runtime_error(order_error_);
      if (eof) break;
    }
    if (has_current_) sink_.on_batch(current_.time, current_.records);
    return stats_;
  }

 private:
  struct Minute {
    MinuteBucket time;
    std::vector<ConnectionSummary> records;
  };

  /// Waits until `fd` has data (or EOF, or an error) for read(2) to
  /// report; false once `stop_fd` is readable or hung up. A poll failure
  /// other than EINTR falls through to read(2), which then blocks as it
  /// would without `stop_fd`.
  static bool wait_readable(int fd, int stop_fd) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {stop_fd, POLLIN, 0}};
    for (;;) {
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0 && errno == EINTR) continue;
      if (ready > 0 && fds[1].revents != 0) return false;
      return true;
    }
  }

  /// False stops the run: the row's minute precedes the previous row's.
  bool line(std::string_view text) {
    ++line_no_;
    if (line_no_ == 1 && text.starts_with("time_minute")) return true;  // header
    if (text.empty()) return true;
    std::optional<ConnectionSummary> rec = from_csv(text);
    if (!rec) {
      malformed(line_no_);
      return true;
    }
    if (has_current_ && rec->time != current_.time) {
      if (rec->time < current_.time) {
        order_error_ = "flow log line " + std::to_string(line_no_) + ": minute " +
                       std::to_string(rec->time.index()) + " follows minute " +
                       std::to_string(current_.time.index()) +
                       " (minutes must be non-decreasing)";
        return false;
      }
      ready_.push_back(std::move(current_));
      current_ = Minute{rec->time, take_spare()};
    }
    ++stats_.rows;
    current_.time = rec->time;
    has_current_ = true;
    current_.records.push_back(*rec);
    return true;
  }

  void malformed(std::uint64_t line_no) {
    if (stats_.malformed_rows++ == 0) stats_.first_malformed_line = line_no;
  }

  std::vector<ConnectionSummary> take_spare() {
    if (spare_.empty()) return {};
    std::vector<ConnectionSummary> v = std::move(spare_.back());
    spare_.pop_back();
    return v;
  }

  void deliver_ready() {
    for (Minute& minute : ready_) {
      sink_.on_batch(minute.time, minute.records);
      minute.records.clear();
      spare_.push_back(std::move(minute.records));
    }
    ready_.clear();
  }

  TelemetrySink& sink_;
  IngestStats stats_;
  std::uint64_t line_no_ = 0;
  Minute current_;
  bool has_current_ = false;
  std::string order_error_;  // set by the first out-of-order row
  std::vector<Minute> ready_;  // completed minutes awaiting delivery
  std::vector<std::vector<ConnectionSummary>> spare_;  // recycled batches

  obs::Counter* m_rows_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_malformed_ = nullptr;
  obs::Histogram* m_parse_ = nullptr;
};

}  // namespace

std::optional<IngestStats> stream_flow_log(int fd, TelemetrySink& sink,
                                           int stop_fd) {
  return FlowLogStream(sink).run(fd, stop_fd);
}

}  // namespace ccg
