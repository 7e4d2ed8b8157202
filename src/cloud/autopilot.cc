#include "cloud/autopilot.h"

#include <algorithm>
#include <map>

#include "util/logging.h"

namespace picloud::cloud {

Autopilot::Autopilot(sim::Simulation& sim, PiMaster& master, Config config)
    : sim_(sim), master_(master), config_(config) {}

Autopilot::~Autopilot() { stop(); }

void Autopilot::start() {
  if (running_) return;
  running_ = true;
  // The SLO-burn window opens now: sheds counted before start() are history,
  // not burn.
  last_slo_count_ = sim_.metrics().counter_value(config_.slo_burn_counter);
  last_slo_sample_ = sim_.now();
  evaluation_task_.every(sim_, config_.evaluation_period,
                         [this]() { evaluate(); });
}

void Autopilot::stop() {
  if (!running_) return;
  running_ = false;
  evaluation_task_.cancel();
}

void Autopilot::evaluate() {
  if (draining_) return;  // one consolidation at a time
  ++stats_.evaluations;

  // --- SLO burn: shed/dropped requests accumulating too fast ------------------
  if (!config_.slo_burn_counter.empty()) {
    const std::uint64_t count =
        sim_.metrics().counter_value(config_.slo_burn_counter);
    const std::uint64_t burned =
        count >= last_slo_count_ ? count - last_slo_count_ : 0;
    // An in-flight drain skips evaluations, so the window is the sim time
    // since the last sample, not one evaluation period.
    const double window_s = (sim_.now() - last_slo_sample_).to_seconds();
    last_slo_count_ = count;
    last_slo_sample_ = sim_.now();
    const double rate = static_cast<double>(burned) / window_s;
    if (rate > config_.slo_burn_threshold) {
      ++stats_.slo_scale_ups;
      LOG_INFO("autopilot", "SLO burn %.1f/s on %s: scaling up", rate,
               config_.slo_burn_counter.c_str());
      if (!parked_.empty()) {
        std::string wake = *parked_.begin();
        parked_.erase(parked_.begin());
        ++stats_.nodes_powered_on;
        if (power_control_) power_control_(wake, true);
      }
      if (scale_up_hook_) scale_up_hook_();
      return;  // never consolidate while the SLO is burning
    }
  }

  std::vector<NodeView> views = master_.monitor().views();
  // Partition: live, parked-by-us, and how loaded the live set is. A node
  // we just parked can still look monitor-alive for one liveness window, so
  // the parked set is authoritative here — otherwise the lag lets the
  // controller drain below its floor.
  int live = 0;
  double cpu_sum = 0;
  for (const NodeView& v : views) {
    if (v.alive && parked_.count(v.hostname) == 0) {
      ++live;
      cpu_sum += v.cpu_utilization;
    }
  }
  double avg_cpu = live > 0 ? cpu_sum / live : 0;

  // --- Scale up: pressure high and we have parked capacity -------------------
  if (avg_cpu > config_.wake_cpu_threshold && !parked_.empty()) {
    std::string wake = *parked_.begin();
    parked_.erase(parked_.begin());
    ++stats_.nodes_powered_on;
    LOG_INFO("autopilot", "pressure %.0f%%: waking %s", avg_cpu * 100,
             wake.c_str());
    if (power_control_) power_control_(wake, true);
    return;
  }

  // --- Consolidate: find the emptiest drainable donor -------------------------
  if (live <= config_.min_nodes_on) return;

  std::map<std::string, std::vector<std::string>> instances_by_node;
  for (const auto& [name, record] : master_.instance_records()) {
    if (record.state == "running") {
      instances_by_node[record.hostname].push_back(record.name);
    }
  }

  const NodeView* donor = nullptr;
  for (const NodeView& v : views) {
    if (!v.alive || parked_.count(v.hostname) > 0) continue;
    size_t count = instances_by_node[v.hostname].size();
    if (count == 0) {
      // Empty already: park it immediately.
      parked_.insert(v.hostname);
      ++stats_.nodes_powered_off;
      LOG_INFO("autopilot", "parking idle node %s", v.hostname.c_str());
      if (power_control_) power_control_(v.hostname, false);
      return;
    }
    if (donor == nullptr ||
        count < instances_by_node[donor->hostname].size()) {
      donor = &v;
    }
  }
  if (donor == nullptr) return;

  // Will the donor's instances fit on the others?
  std::uint64_t donor_mem = 0;
  for (const auto& [name, record] : master_.instance_records()) {
    if (record.hostname == donor->hostname) donor_mem += record.mem_reserved;
  }
  std::uint64_t spare = 0;
  for (const NodeView& v : views) {
    if (!v.alive || v.hostname == donor->hostname ||
        parked_.count(v.hostname) > 0) {
      continue;
    }
    double budget = static_cast<double>(v.mem_capacity) *
                    config_.target_mem_headroom;
    if (static_cast<double>(v.mem_used) < budget) {
      spare += static_cast<std::uint64_t>(budget) - v.mem_used;
    }
  }
  if (spare < donor_mem) return;  // would overpack; stay spread

  ++stats_.drains_started;
  draining_ = true;
  LOG_INFO("autopilot", "draining %s (%zu instances)",
           donor->hostname.c_str(),
           instances_by_node[donor->hostname].size());
  drain(donor->hostname, instances_by_node[donor->hostname]);
}

void Autopilot::drain(const std::string& donor,
                      std::vector<std::string> instances) {
  if (instances.empty()) {
    // Drained: flip the switch.
    draining_ = false;
    parked_.insert(donor);
    ++stats_.nodes_powered_off;
    LOG_INFO("autopilot", "parking drained node %s", donor.c_str());
    if (power_control_) power_control_(donor, false);
    return;
  }
  std::string instance = instances.back();
  instances.pop_back();
  master_.migrate_instance(
      instance, /*to=*/"", /*live=*/true,
      [this, donor, instances = std::move(instances),
       instance](const MigrationReport& report) mutable {
        if (report.success) {
          ++stats_.migrations_ok;
        } else {
          ++stats_.migrations_failed;
          LOG_WARN("autopilot", "drain of %s stalled: %s", instance.c_str(),
                   report.error.c_str());
          // Abort this drain; re-evaluate next period.
          draining_ = false;
          return;
        }
        drain(donor, std::move(instances));
      });
}

}  // namespace picloud::cloud
