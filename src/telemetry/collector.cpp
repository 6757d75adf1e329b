#include "ccg/telemetry/collector.hpp"

#include <algorithm>

#include "ccg/common/expect.hpp"
#include "ccg/obs/stage.hpp"

namespace ccg {

HostAgent::HostAgent(IpAddr host_ip, std::size_t flow_table_capacity,
                     const ProviderProfile& profile, std::uint64_t seed)
    : host_ip_(host_ip),
      table_(flow_table_capacity),
      sampler_(profile, seed ^ (std::uint64_t{host_ip.bits()} << 17)) {}

void HostAgent::observe(const FlowKey& key, const TrafficCounters& delta,
                        MinuteBucket now, Initiator initiator) {
  CCG_EXPECT(key.local_ip == host_ip_);
  table_.observe(key, delta, now, pending_evicted_, initiator);
}

std::vector<ConnectionSummary> HostAgent::collect(MinuteBucket now) {
  auto batch = table_.flush(now);
  if (!pending_evicted_.empty()) {
    batch.insert(batch.end(), pending_evicted_.begin(), pending_evicted_.end());
    pending_evicted_.clear();
  }
  return sampler_.apply(batch);
}

TelemetryHub::TelemetryHub(ProviderProfile profile, std::uint64_t seed,
                           std::size_t flow_table_capacity)
    : profile_(std::move(profile)),
      seed_(seed),
      flow_table_capacity_(flow_table_capacity) {
  obs::Registry& registry = obs::Registry::global();
  m_records_ = &registry.counter("ccg.telemetry.records");
  m_batches_ = &registry.counter("ccg.telemetry.batches");
  obs::declare_stages({&obs::stage::kTelemetryFlush});
}

void TelemetryHub::add_host(IpAddr host_ip) {
  if (agents_.contains(host_ip)) return;
  agents_.emplace(host_ip, std::make_unique<HostAgent>(
                               host_ip, flow_table_capacity_, profile_, seed_));
}

void TelemetryHub::observe(const FlowKey& key, const TrafficCounters& delta,
                           MinuteBucket now, Initiator initiator) {
  auto it = agents_.find(key.local_ip);
  if (it == agents_.end()) return;  // no NIC under our control on that side
  it->second->observe(key, delta, now, initiator);
}

std::vector<ConnectionSummary> TelemetryHub::end_interval(MinuteBucket now) {
  std::vector<ConnectionSummary> merged;
  {
    // The flush span is the root of the minute's trace. It spans only the
    // hub's own work (collect + sort), not the sink's downstream
    // processing, which the sink's own stages meter.
    obs::Stage stage(obs::stage::kTelemetryFlush, now.index());
    for (auto& [ip, agent] : agents_) {
      auto batch = agent->collect(now);
      merged.insert(merged.end(), batch.begin(), batch.end());
    }
    // Deterministic order regardless of hash-map iteration: time is fixed,
    // so order by flow key.
    std::sort(merged.begin(), merged.end(),
              [](const ConnectionSummary& a, const ConnectionSummary& b) {
                return a.flow < b.flow;
              });
  }

  ledger_.records += merged.size();
  ledger_.wire_bytes += merged.size() * ConnectionSummary::kWireBytes;
  ledger_.cost_dollars =
      collection_cost_dollars(ledger_.records, profile_.price_per_gb);
  ++ledger_.intervals;
  m_records_->add(merged.size());
  m_batches_->add();

  if (sink_ != nullptr) sink_->on_batch(now, merged);
  return merged;
}

std::size_t TelemetryHub::total_flow_table_bytes() const {
  std::size_t total = 0;
  for (const auto& [ip, agent] : agents_) {
    total += agent->flow_table().memory_bytes();
  }
  return total;
}

}  // namespace ccg
