#include "ccg/graph/builder.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "ccg/common/expect.hpp"
#include "ccg/common/flow.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/stage.hpp"

namespace ccg {

GraphBuilder::GraphBuilder(GraphBuildConfig config,
                           std::unordered_set<IpAddr> monitored)
    : config_(config), monitored_(std::move(monitored)) {
  CCG_EXPECT(config.window_minutes > 0);
  CCG_EXPECT(config.collapse_threshold >= 0.0 && config.collapse_threshold < 1.0);
  obs::Registry& registry = obs::Registry::global();
  m_records_ = &registry.counter("ccg.graph.records");
  m_windows_ = &registry.counter("ccg.graph.windows");
  m_collapsed_ = &registry.counter("ccg.graph.collapsed_nodes");
  m_late_monitored_ = &registry.counter("ccg.graph.late_monitored");
  obs::declare_stages({&obs::stage::kGraphFinalize});
}

NodeKey GraphBuilder::node_key(const ConnectionSummary& r, bool local_side,
                               bool local_is_client) const {
  const IpAddr ip = local_side ? r.flow.local_ip : r.flow.remote_ip;
  const std::uint16_t port = local_side ? r.flow.local_port : r.flow.remote_port;
  switch (config_.facet) {
    case GraphFacet::kIp:
      return NodeKey::for_ip(ip);
    case GraphFacet::kIpPort:
      return NodeKey::for_ip_port(ip, port);
    case GraphFacet::kService: {
      const bool is_server = local_side ? !local_is_client : local_is_client;
      return is_server ? NodeKey::for_ip_port(ip, port) : NodeKey::for_ip(ip);
    }
  }
  return NodeKey::for_ip(ip);
}

void GraphBuilder::on_batch(MinuteBucket time,
                            const std::vector<ConnectionSummary>& batch) {
  advance_to(time);
  for (const auto& record : batch) {
    ConnectionSummary stamped = record;
    stamped.time = time;
    ingest(stamped);
  }
  if (time.next() == current_window_->end()) close_window();
}

void GraphBuilder::advance_to(MinuteBucket time) {
  if (floor_ && time < *floor_) {
    throw ContractViolation(
        "graph builder: record for minute " + std::to_string(time.index()) +
        " precedes minute " + std::to_string(floor_->index()) +
        ", whose earlier windows are closed (the stream must be ordered)");
  }
  if (current_window_ && time < current_window_->end()) return;
  close_window();
  // Windows are aligned to multiples of window_minutes so "hour 3" means
  // the same thing across builders.
  const std::int64_t w = config_.window_minutes;
  const std::int64_t idx = time.index() >= 0 ? time.index() / w
                                             : (time.index() - (w - 1)) / w;
  current_window_ = TimeWindow::minutes(idx * w, w);
  floor_ = current_window_->begin();
}

void GraphBuilder::learn_local(IpAddr ip) {
  if (last_learned_ == ip) return;
  last_learned_ = ip;
  if (!monitored_.insert(ip).second || seen_unmonitored_.erase(ip) == 0) return;
  m_late_monitored_->add(1);
  obs::log_warn("graph: IP turned local after an unmonitored appearance in a "
                "finalized window",
                {obs::field("ip", ip.to_string()),
                 obs::field("window_begin",
                            current_window_ ? current_window_->begin().index()
                                            : std::int64_t{0})});
}

void GraphBuilder::ingest(const ConnectionSummary& record) {
  advance_to(record.time);
  learn_local(record.flow.local_ip);

  ++records_;
  m_records_->add(1);
  const std::int64_t minute = record.time.index();

  // Who initiated this flow? The record's initiator bit (from the NIC flow
  // state) is authoritative; unknown falls back to the ephemeral-port
  // heuristic: the endpoint with the high/ephemeral port is the client.
  constexpr std::uint16_t kEphemeralFloor = 32768;
  const bool local_is_client =
      record.initiator == Initiator::kLocal ||
      (record.initiator == Initiator::kUnknown &&
       (record.flow.local_port >= kEphemeralFloor ||
        (record.flow.remote_port < kEphemeralFloor &&
         record.flow.remote_port < record.flow.local_port)));

  const NodeKey local = node_key(record, /*local_side=*/true, local_is_client);
  const NodeKey remote = node_key(record, /*local_side=*/false, local_is_client);
  if (local == remote) return;  // degenerate loopback summaries

  const std::int32_t server_port =
      local_is_client ? record.flow.remote_port : record.flow.local_port;

  // local -> remote direction, witnessed by the sender.
  {
    DirAccum& a = acc_[DirKey{local, remote}];
    a.src_bytes += record.counters.bytes_sent;
    a.src_packets += record.counters.packets_sent;
    a.src_flow_minutes += 1;
    if (local_is_client) a.src_initiated_src_witness += 1;
    if (a.server_port < 0) a.server_port = server_port;
    a.touch(minute);
  }
  // remote -> local direction, witnessed by the receiver.
  {
    DirAccum& a = acc_[DirKey{remote, local}];
    a.dst_bytes += record.counters.bytes_rcvd;
    a.dst_packets += record.counters.packets_rcvd;
    a.dst_flow_minutes += 1;
    if (!local_is_client) a.src_initiated_dst_witness += 1;
    a.touch(minute);
  }
}

void GraphBuilder::flush() { close_window(); }

void GraphBuilder::close_window() {
  if (!current_window_) return;
  if (!acc_.empty()) finalize_window();
  floor_ = current_window_->end();
  current_window_.reset();
}

std::vector<CommGraph> GraphBuilder::take_graphs() {
  return std::exchange(graphs_, {});
}

void GraphBuilder::finalize_window() {
  obs::Stage stage(obs::stage::kGraphFinalize);
  struct EdgeAgg {
    std::uint64_t bytes_ab, bytes_ba, packets_ab, packets_ba;
    std::uint64_t conn_minutes;
    std::uint32_t active_minutes;
    std::uint64_t client_minutes_ab, client_minutes_ba;
    // Server port as reported by each direction's accumulator; resolved
    // a-b-first at materialize time so the hint does not depend on hash
    // map iteration order (the distributed merge needs order-free values).
    std::int32_t hint_ab = -1;
    std::int32_t hint_ba = -1;
  };
  struct PairHash {
    std::size_t operator()(const std::pair<NodeKey, NodeKey>& p) const noexcept {
      return std::hash<NodeKey>{}(p.first) * 0x9E3779B97F4A7C15ull ^
             std::hash<NodeKey>{}(p.second);
    }
  };

  // 1. Merge the two directed accumulators of each pair. For each
  //    direction take the max of the sender's and receiver's report —
  //    identical in the clean case, and the larger survives sampling loss.
  std::unordered_map<std::pair<NodeKey, NodeKey>, EdgeAgg, PairHash> merged;
  merged.reserve(acc_.size() / 2 + 1);
  for (const auto& [key, a] : acc_) {
    const bool canonical = key.src < key.dst;
    const auto pair_key = canonical ? std::make_pair(key.src, key.dst)
                                    : std::make_pair(key.dst, key.src);
    auto [it, inserted] = merged.try_emplace(pair_key, EdgeAgg{});
    EdgeAgg& e = it->second;
    const std::uint64_t bytes = std::max(a.src_bytes, a.dst_bytes);
    const std::uint64_t packets = std::max(a.src_packets, a.dst_packets);
    (canonical ? e.bytes_ab : e.bytes_ba) += bytes;
    (canonical ? e.packets_ab : e.packets_ba) += packets;
    // "src initiated" flow-minutes for this ordered direction, from the
    // better-informed witness.
    (canonical ? e.client_minutes_ab : e.client_minutes_ba) += std::max(
        a.src_initiated_src_witness, a.src_initiated_dst_witness);
    e.conn_minutes = std::max<std::uint64_t>(
        e.conn_minutes, std::max(a.src_flow_minutes, a.dst_flow_minutes));
    e.active_minutes = std::max(e.active_minutes, a.active_minutes);
    std::int32_t& hint = canonical ? e.hint_ab : e.hint_ba;
    if (hint < 0) hint = a.server_port;
  }
  acc_.clear();

  // 2. Materialize the raw (uncollapsed) graph, then finalize through the
  //    shared canonicalize-and-collapse path — the same one the
  //    distributed aggregator's merge uses — so every producer of this
  //    window's graph agrees byte-for-byte.
  CommGraph raw(*current_window_);
  const auto add_node = [&](const NodeKey& key) {
    const NodeId id = raw.add_node(key);
    if (is_monitored(key)) {
      raw.set_monitored(id, true);
    } else {
      seen_unmonitored_.insert(key.ip);
    }
    return id;
  };
  for (const auto& [pk, e] : merged) {
    const NodeId a = add_node(pk.first);
    const NodeId b = add_node(pk.second);
    raw.add_edge_volume(a, b, e.bytes_ab, e.bytes_ba, e.packets_ab,
                        e.packets_ba, e.conn_minutes, e.active_minutes,
                        e.client_minutes_ab, e.client_minutes_ba,
                        e.hint_ab >= 0 ? e.hint_ab : e.hint_ba);
  }
  CommGraph graph = finalize_window_graph(raw, config_);
  if (const auto other = graph.find_node(NodeKey::collapsed())) {
    m_collapsed_->add(graph.node_stats(*other).collapsed_members);
  }

  m_windows_->add(1);
  graphs_.push_back(std::move(graph));
}

CommGraph merge_graphs(const std::vector<CommGraph>& parts) {
  CommGraph merged(parts.empty() ? TimeWindow{} : parts.front().window());
  for (const CommGraph& part : parts) {
    for (NodeId i = 0; i < part.node_count(); ++i) {
      const NodeId m = merged.add_node(part.key(i));
      if (part.node_stats(i).monitored) merged.set_monitored(m, true);
    }
    for (const Edge& e : part.edges()) {
      const NodeId ma = merged.add_node(part.key(e.a));
      const NodeId mb = merged.add_node(part.key(e.b));
      merged.add_edge_volume(ma, mb, e.stats.bytes_ab, e.stats.bytes_ba,
                             e.stats.packets_ab, e.stats.packets_ba,
                             e.stats.connection_minutes, e.stats.active_minutes,
                             e.stats.client_minutes_ab, e.stats.client_minutes_ba,
                             e.stats.server_port_hint);
    }
  }
  return merged;
}

CommGraph collapse_heavy_hitters(const CommGraph& graph, double threshold,
                                 bool collapse_monitored) {
  CCG_EXPECT(threshold >= 0.0 && threshold < 1.0);
  std::uint64_t total_bytes = 0, total_packets = 0, total_conn = 0;
  for (const Edge& e : graph.edges()) {
    total_bytes += e.stats.bytes();
    total_packets += e.stats.packets();
    total_conn += e.stats.connection_minutes;
  }
  auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  auto survives = [&](NodeId i) {
    if (threshold <= 0.0) return true;
    const NodeStats& s = graph.node_stats(i);
    if (!collapse_monitored && s.monitored) return true;
    return share(s.bytes, total_bytes) >= threshold ||
           share(s.packets, total_packets) >= threshold ||
           share(s.connection_minutes, total_conn) >= threshold;
  };

  CommGraph out(graph.window());
  std::optional<NodeId> other;
  std::uint32_t collapsed_members = 0;
  std::vector<NodeId> mapping(graph.node_count());
  for (NodeId i = 0; i < graph.node_count(); ++i) {
    if (survives(i)) {
      const NodeId m = out.add_node(graph.key(i));
      out.set_monitored(m, graph.node_stats(i).monitored);
      mapping[i] = m;
    } else {
      if (!other) other = out.add_node(NodeKey::collapsed());
      mapping[i] = *other;
      ++collapsed_members;
    }
  }
  for (const Edge& e : graph.edges()) {
    const NodeId a = mapping[e.a];
    const NodeId b = mapping[e.b];
    if (a == b) continue;
    out.add_edge_volume(a, b, e.stats.bytes_ab, e.stats.bytes_ba,
                        e.stats.packets_ab, e.stats.packets_ba,
                        e.stats.connection_minutes, e.stats.active_minutes,
                        e.stats.client_minutes_ab, e.stats.client_minutes_ba,
                             e.stats.server_port_hint);
  }
  if (other) out.note_collapsed_members(*other, collapsed_members);
  return out;
}

CommGraph canonical_graph(const CommGraph& graph) {
  // Node order: sort by NodeKey. Keys are unique within a graph (add_node
  // dedups), so the order is total and the same for any input permutation.
  std::vector<NodeId> order(graph.node_count());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId x, NodeId y) {
    return graph.key(x) < graph.key(y);
  });

  CommGraph out(graph.window());
  std::vector<NodeId> mapping(graph.node_count());
  for (const NodeId old : order) {
    const NodeId id = out.add_node(graph.key(old));
    mapping[old] = id;
    const NodeStats& s = graph.node_stats(old);
    out.set_monitored(id, s.monitored);
    if (s.collapsed_members > 0) out.note_collapsed_members(id, s.collapsed_members);
  }

  // Edge order: sort by the remapped (min, max) endpoint pair — i.e. by
  // NodeKey pair. add_edge_volume flips the ab/ba stats itself when the
  // remapped ids reverse the stored orientation.
  std::vector<EdgeId> edge_order(graph.edge_count());
  std::iota(edge_order.begin(), edge_order.end(), EdgeId{0});
  auto endpoints = [&](EdgeId e) {
    const NodeId a = mapping[graph.edge(e).a];
    const NodeId b = mapping[graph.edge(e).b];
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  std::sort(edge_order.begin(), edge_order.end(),
            [&](EdgeId x, EdgeId y) { return endpoints(x) < endpoints(y); });
  for (const EdgeId eid : edge_order) {
    const Edge& e = graph.edge(eid);
    out.add_edge_volume(mapping[e.a], mapping[e.b], e.stats.bytes_ab,
                        e.stats.bytes_ba, e.stats.packets_ab, e.stats.packets_ba,
                        e.stats.connection_minutes, e.stats.active_minutes,
                        e.stats.client_minutes_ab, e.stats.client_minutes_ba,
                        e.stats.server_port_hint);
  }
  return out;
}

CommGraph finalize_window_graph(const CommGraph& merged,
                                const GraphBuildConfig& config) {
  CommGraph out = canonical_graph(merged);
  if (config.collapse_threshold > 0.0) {
    // Collapse preserves survivor order but inserts <other> wherever the
    // first collapsed node sat; re-canonicalize to move it to the front.
    out = canonical_graph(collapse_heavy_hitters(
        out, config.collapse_threshold, config.collapse_monitored));
  }
  return out;
}

std::size_t shard_of_record(const ConnectionSummary& record, GraphFacet facet,
                            std::size_t shard_count) {
  CCG_EXPECT(shard_count >= 1);
  // Both orientations of a conversation must land in the same shard, so
  // hash the canonical (unordered) endpoint pair. std::hash<IpPair> is
  // fully specified in flow.hpp (no platform-dependent inputs), which is
  // what lets a golden test pin these values.
  const IpPair pair(record.flow.local_ip, record.flow.remote_ip);
  std::uint64_t h = std::hash<IpPair>{}(pair);
  if (facet == GraphFacet::kIpPort) {
    h ^= (std::uint64_t{record.flow.local_port} + record.flow.remote_port) *
         0x9E3779B97F4A7C15ull;
  }
  return h % shard_count;
}

}  // namespace ccg
