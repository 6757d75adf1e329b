#include "ccg/dist/router.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ccg/dist/wire.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/stage.hpp"

namespace ccg::dist {

RecordRouter::RecordRouter(GraphFacet facet, std::vector<net::FrameConn*> shards)
    : facet_(facet),
      shards_(std::move(shards)),
      parts_(shards_.size()),
      sent_(shards_.size(), 0),
      scratch_(shards_.size()),
      payloads_(shards_.size()) {
  m_bytes_ = &obs::Registry::global().counter("ccg.dist.route.bytes");
  obs::declare_stages({&obs::stage::kDistRoute, &obs::stage::kDistRouteSend});
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) == 0) {
    stop_read_ = fds[0];
    stop_write_ = fds[1];
  } else {
    obs::log_warn("dist: no stop pipe — a feeder blocked on input outlives "
                  "a failed merge",
                  {obs::field("errno", errno),
                   obs::field("error", std::strerror(errno))});
  }
}

RecordRouter::~RecordRouter() {
  if (stop_read_ >= 0) ::close(stop_read_);
  if (stop_write_ >= 0) ::close(stop_write_);
}

void RecordRouter::send(std::size_t shard, std::span<const std::uint8_t> payload) {
  if (!shards_[shard]->send(payload)) {
    cut_off_.store(true);
    throw std::runtime_error("feed to shard " + std::to_string(shard) +
                             " failed (the worker or the run is gone)");
  }
  m_bytes_->add(payload.size() + 8);
}

void RecordRouter::on_batch(MinuteBucket time,
                            const std::vector<ConnectionSummary>& batch) {
  {
    // Partition and encode: the routing work. The sends below are timed
    // apart, since they block while a worker's socket is full.
    obs::Stage stage(obs::stage::kDistRoute);
    new_locals_.clear();
    for (auto& part : parts_) part.clear();
    std::optional<IpAddr> last_local;  // skips the lookup for runs of one IP
    for (const ConnectionSummary& record : batch) {
      const IpAddr local = record.flow.local_ip;
      if (last_local != local) {
        last_local = local;
        if (seen_locals_.insert(local).second) new_locals_.push_back(local);
      }
      auto& part = parts_[shard_of_record(record, facet_, shards_.size())];
      part.push_back(record);
      part.back().time = time;  // the batch's minute, as GraphBuilder stamps it
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      payloads_[s] =
          encode_records(time.index(), new_locals_, parts_[s], scratch_[s]);
    }
  }
  obs::Stage stage(obs::stage::kDistRouteSend);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    send(s, payloads_[s]);
    sent_[s] += parts_[s].size();
  }
  records_ += batch.size();
}

bool RecordRouter::finish() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->send(encode_end_of_input(sent_[s]))) {
      cut_off_.store(true);
      return false;
    }
  }
  return true;
}

void RecordRouter::abort(bool both) {
  if (both) cut_off_.store(true);
  for (net::FrameConn* conn : shards_) conn->shutdown(both);
  if (both && stop_write_ >= 0) {
    ::close(stop_write_);
    stop_write_ = -1;
  }
}

std::optional<Aggregator::Result> run_routed(
    Aggregator& aggregator, GraphFacet facet,
    const std::function<bool(RecordRouter&)>& feed,
    const Aggregator::WindowSink& sink, std::string* feed_error) {
  RecordRouter router(facet, aggregator.connections());
  bool fed = false;
  std::string error;
  std::thread feeder([&] {
    try {
      fed = feed(router) && router.finish();
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!fed) {
      obs::log_error("dist: feed stopped early — aborting the run",
                     {obs::field("records_routed", router.records()),
                      obs::field("error", error)});
      // A feed cut off by a failed send or a failed merge is fallout; only
      // a failed input is the feed's own fault.
      if (!router.cut_off()) {
        aggregator.fail_feed(error.empty() ? "the feed stopped early" : error);
      }
      router.abort(false);
    }
  });
  auto result = aggregator.run(sink);
  if (!result) router.abort(true);
  feeder.join();
  if (feed_error != nullptr) *feed_error = error;
  if (!fed || !result) return std::nullopt;
  if (result->records != router.records()) {
    obs::log_error("dist: shards ingested a different number of records "
                   "than were routed",
                   {obs::field("routed", router.records()),
                    obs::field("ingested", result->records)});
    return std::nullopt;
  }
  return result;
}

}  // namespace ccg::dist
