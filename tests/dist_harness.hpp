// In-process harness for the distributed collector: N ShardWorkers on
// worker threads and one Aggregator on the calling thread, connected by
// AF_UNIX socketpairs or loopback TCP. The workers either take whole
// minutes through on_batch (run_distributed) or, as in `ccgraph serve`,
// receive their partition from the aggregator's RecordRouter
// (run_routed_distributed). Shared by the dist tests and the shard-count
// property sweep.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>

#include "ccg/dist/aggregator.hpp"
#include "ccg/dist/router.hpp"
#include "ccg/dist/shard_worker.hpp"
#include "ccg/net/frame.hpp"

namespace ccg::dist {

enum class Transport { kSocketPair, kLoopbackTcp };

/// One connected (aggregator end, worker end) pair per shard: an AF_UNIX
/// socketpair, or a loopback TCP connection as `ccgraph serve` uses.
inline std::optional<std::vector<std::pair<net::FrameConn, net::FrameConn>>>
connect_shards(Transport transport, std::size_t shards) {
  std::vector<std::pair<net::FrameConn, net::FrameConn>> pairs;
  std::optional<net::Listener> listener;
  if (transport == Transport::kLoopbackTcp) {
    listener = net::Listener::bind_loopback();
    if (!listener) return std::nullopt;
  }
  for (std::size_t s = 0; s < shards; ++s) {
    if (transport == Transport::kSocketPair) {
      auto pair = net::socket_pair();
      if (!pair) return std::nullopt;
      pairs.push_back(std::move(*pair));
      continue;
    }
    // The kernel completes the connect into the listen backlog, so one
    // thread can connect and then accept.
    auto worker_end = net::connect_loopback(listener->port());
    if (!worker_end) return std::nullopt;
    auto agg_end = listener->accept(5000);
    if (!agg_end) return std::nullopt;
    pairs.emplace_back(std::move(*agg_end), std::move(*worker_end));
  }
  return pairs;
}

/// Runs `shards` ShardWorkers (worker threads) and one Aggregator (this
/// thread) over the given minutes; returns the merged window graphs, or
/// nullopt if any side of the run failed.
inline std::optional<std::vector<CommGraph>> run_distributed(
    const std::vector<std::vector<ConnectionSummary>>& minutes,
    const GraphBuildConfig& config, std::size_t shards,
    const std::unordered_set<IpAddr>& monitored,
    Transport transport = Transport::kSocketPair) {
  auto pairs = connect_shards(transport, shards);
  if (!pairs) return std::nullopt;
  std::vector<net::FrameConn> agg_side;
  std::vector<std::thread> workers;
  std::vector<int> worker_rc(shards, -1);
  for (std::size_t s = 0; s < shards; ++s) {
    agg_side.push_back(std::move((*pairs)[s].first));
    workers.emplace_back([&, s, conn = std::move((*pairs)[s].second)]() mutable {
      ShardWorker worker({.shard_id = static_cast<std::uint32_t>(s),
                          .shard_count = static_cast<std::uint32_t>(shards),
                          .graph = config},
                         monitored, std::move(conn));
      if (!worker.handshake()) {
        worker_rc[s] = 1;
        return;
      }
      for (std::size_t m = 0; m < minutes.size(); ++m) {
        worker.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
      }
      worker_rc[s] = worker.finish() ? 0 : 1;
    });
  }

  std::vector<CommGraph> merged;
  Aggregator aggregator(
      {.graph = config, .recv_timeout_ms = 10000, .flight_dir = ""},
      std::move(agg_side));
  const bool shook = aggregator.handshake();
  std::optional<Aggregator::Result> result;
  if (shook) {
    result = aggregator.run(
        [&](const CommGraph& graph) { merged.push_back(graph); });
  }
  for (auto& t : workers) t.join();
  if (!shook || !result) return std::nullopt;
  for (std::size_t s = 0; s < shards; ++s) {
    if (worker_rc[s] != 0) return std::nullopt;
  }
  return merged;
}

/// Shrinks a socket's kernel send and receive buffers (the kernel clamps
/// to its minimum), so a few frames fill them.
inline void shrink_socket_buffers(const net::FrameConn& conn, int bytes) {
  ::setsockopt(conn.fd(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  ::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

/// `ccgraph serve`'s data path in one process: the Aggregator on this
/// thread, a RecordRouter driven by `feed` on run_routed's feeder thread,
/// and `shards` ShardWorkers in their run() role on worker threads, all
/// learning the monitored set online. `socket_buffer` > 0 shrinks every
/// socket's buffers to that many bytes; flight records land in
/// `flight_dir`. Returns the merged window graphs, or nullopt if any side
/// failed.
inline std::optional<std::vector<CommGraph>> run_routed_feed(
    const std::function<bool(RecordRouter&)>& feed,
    const GraphBuildConfig& config, std::size_t shards,
    Transport transport = Transport::kSocketPair, int socket_buffer = 0,
    const std::string& flight_dir = ::testing::TempDir()) {
  auto pairs = connect_shards(transport, shards);
  if (!pairs) return std::nullopt;
  std::vector<net::FrameConn> agg_side;
  std::vector<std::thread> workers;
  std::vector<int> worker_rc(shards, -1);
  for (std::size_t s = 0; s < shards; ++s) {
    if (socket_buffer > 0) {
      shrink_socket_buffers((*pairs)[s].first, socket_buffer);
      shrink_socket_buffers((*pairs)[s].second, socket_buffer);
    }
    agg_side.push_back(std::move((*pairs)[s].first));
    workers.emplace_back([&, s, conn = std::move((*pairs)[s].second)]() mutable {
      ShardWorker worker({.shard_id = static_cast<std::uint32_t>(s),
                          .shard_count = static_cast<std::uint32_t>(shards),
                          .graph = config},
                         {}, std::move(conn));
      worker_rc[s] = worker.handshake() && worker.run(10000) ? 0 : 1;
    });
  }

  std::vector<CommGraph> merged;
  Aggregator aggregator({.graph = config,
                         .recv_timeout_ms = 10000,
                         .flight_dir = flight_dir},
                        std::move(agg_side));
  std::optional<Aggregator::Result> result;
  if (aggregator.handshake()) {
    result = run_routed(aggregator, config.facet, feed,
                        [&](const CommGraph& graph) { merged.push_back(graph); });
  }
  for (auto& t : workers) t.join();
  if (!result) return std::nullopt;
  for (std::size_t s = 0; s < shards; ++s) {
    if (worker_rc[s] != 0) return std::nullopt;
  }
  return merged;
}

/// run_routed_feed over `minutes`, one batch per minute. `feed_minutes` <
/// minutes.size() stops the feed early, as a failing input would.
inline std::optional<std::vector<CommGraph>> run_routed_distributed(
    const std::vector<std::vector<ConnectionSummary>>& minutes,
    const GraphBuildConfig& config, std::size_t shards,
    Transport transport = Transport::kSocketPair, int socket_buffer = 0,
    std::size_t feed_minutes = static_cast<std::size_t>(-1)) {
  return run_routed_feed(
      [&](RecordRouter& router) {
        for (std::size_t m = 0; m < minutes.size(); ++m) {
          if (m == feed_minutes) return false;
          router.on_batch(MinuteBucket(static_cast<std::int64_t>(m)), minutes[m]);
        }
        return true;
      },
      config, shards, transport, socket_buffer);
}

}  // namespace ccg::dist
