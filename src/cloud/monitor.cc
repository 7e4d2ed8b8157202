#include "cloud/monitor.h"

namespace picloud::cloud {

util::Json NodeSample::to_json() const {
  util::Json gauges = util::Json::object();
  gauges.set("cpu_utilization", cpu_utilization);
  gauges.set("mem_used", static_cast<unsigned long long>(mem_used));
  gauges.set("mem_capacity", static_cast<unsigned long long>(mem_capacity));
  gauges.set("sd_used", static_cast<unsigned long long>(sd_used));
  gauges.set("containers_total", containers_total);
  gauges.set("containers_running", containers_running);
  gauges.set("power_watts", power_watts);
  util::Json j = util::Json::object();
  j.set("counters", util::Json::object());
  j.set("gauges", std::move(gauges));
  return j;
}

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
                                   const NodeSample& sample) {
  auto it = records_.find(hostname);
  if (it == records_.end()) return false;
  NodeRecord& rec = it->second;
  if (!rec.baseline_set) {
    rec.baseline_mem = sample.mem_used;
    rec.baseline_set = true;
  }
  rec.last_seen = sample.at;
  rec.latest = sample;
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
    v.mem_capacity = rec.latest.mem_capacity;
    v.mem_used = rec.latest.mem_used;
    v.baseline_mem = rec.baseline_mem;
    v.cpu_capacity_hz = rec.cpu_capacity_hz;
    v.cpu_utilization = rec.latest.cpu_utilization;
    v.containers = rec.latest.containers_total;
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
    cpu_sum += rec.latest.cpu_utilization;
    s.containers_running += rec.latest.containers_running;
    s.mem_used += rec.latest.mem_used;
    s.mem_capacity += rec.latest.mem_capacity;
    s.power_watts += rec.latest.power_watts;
  }
  s.avg_cpu_utilization = s.nodes_alive > 0 ? cpu_sum / s.nodes_alive : 0;
  return s;
}

}  // namespace picloud::cloud
