#include "cloud/monitor.h"

namespace picloud::cloud {

ClusterMonitor::ClusterMonitor(sim::Simulation& sim)
    : sim_(sim),
      samples_(&sim.metrics().counter("cloud.monitor.samples_ingested")) {}

void ClusterMonitor::register_node(const std::string& hostname,
                                   net::Ipv4Addr ip, int rack,
                                   double cpu_capacity_hz) {
  NodeRecord& rec = records_[hostname];
  rec.hostname = hostname;
  rec.ip = ip;
  rec.rack = rack;
  rec.cpu_capacity_hz = cpu_capacity_hz;
  rec.last_seen = sim_.now();
}

bool ClusterMonitor::record_sample(const std::string& hostname,
                                   const NodeHeartbeat::Gauges& gauges) {
  auto it = records_.find(hostname);
  if (it == records_.end()) return false;
  NodeRecord& rec = it->second;
  if (!rec.baseline_set) {
    rec.baseline_mem = static_cast<std::uint64_t>(gauges.mem_used);
    rec.baseline_set = true;
  }
  rec.last_seen = sim_.now();
  rec.gauges = gauges;
  samples_->inc();
  return true;
}

bool ClusterMonitor::alive(const std::string& hostname) const {
  auto it = records_.find(hostname);
  return it != records_.end() && alive(it->second);
}

const NodeRecord* ClusterMonitor::node(const std::string& hostname) const {
  auto it = records_.find(hostname);
  return it != records_.end() ? &it->second : nullptr;
}

std::vector<NodeView> ClusterMonitor::views() const {
  std::vector<NodeView> out;
  out.reserve(records_.size());
  for (const auto& [hostname, rec] : records_) {
    NodeView v;
    v.hostname = rec.hostname;
    v.rack = rec.rack;
    v.alive = alive(rec);
    v.mem_capacity = static_cast<std::uint64_t>(rec.gauges.mem_capacity);
    v.mem_used = static_cast<std::uint64_t>(rec.gauges.mem_used);
    v.baseline_mem = rec.baseline_mem;
    v.cpu_capacity_hz = rec.cpu_capacity_hz;
    v.cpu_utilization = rec.gauges.cpu_utilization;
    v.containers = static_cast<int>(rec.gauges.containers_total);
    out.push_back(v);
  }
  return out;
}

ClusterSummary ClusterMonitor::summary() const {
  ClusterSummary s;
  s.nodes_total = static_cast<int>(records_.size());
  double cpu_sum = 0;
  for (const auto& [hostname, rec] : records_) {
    if (!alive(rec)) continue;
    ++s.nodes_alive;
    const NodeHeartbeat::Gauges& g = rec.gauges;
    cpu_sum += g.cpu_utilization;
    s.containers_running += static_cast<int>(g.containers_running);
    s.mem_used += static_cast<std::uint64_t>(g.mem_used);
    s.mem_capacity += static_cast<std::uint64_t>(g.mem_capacity);
    s.power_watts += g.power_watts;
  }
  s.avg_cpu_utilization = s.nodes_alive > 0 ? cpu_sum / s.nodes_alive : 0;
  return s;
}

}  // namespace picloud::cloud
