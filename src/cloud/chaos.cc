#include "cloud/chaos.h"

#include "util/logging.h"

namespace picloud::cloud {

ChaosMonkey::ChaosMonkey(sim::Simulation& sim, net::Fabric& fabric,
                         Config config, util::Rng rng)
    : sim_(sim), fabric_(fabric), config_(config), rng_(rng) {
  util::MetricsRegistry& m = sim_.metrics();
  node_crashes_ = &m.counter("cloud.chaos.node_crashes");
  node_repairs_ = &m.counter("cloud.chaos.node_repairs");
  link_cuts_ = &m.counter("cloud.chaos.link_cuts");
  link_repairs_ = &m.counter("cloud.chaos.link_repairs");
  loss_onsets_ = &m.counter("cloud.chaos.loss_onsets");
  loss_clears_ = &m.counter("cloud.chaos.loss_clears");
}

ChaosMonkey::~ChaosMonkey() { stop(); }

void ChaosMonkey::add_node(NodeDaemon* daemon) { nodes_.push_back(daemon); }

void ChaosMonkey::add_link(net::LinkId link) { links_.push_back(link); }

void ChaosMonkey::start() {
  if (running_) return;
  running_ = true;
  if (config_.loss_mtbf > sim::Duration::zero()) {
    // Tie the fabric's loss stream to this monkey's seed so same-seed runs
    // drop the same flows. Consumes one draw only when loss mode is on.
    fabric_.seed_loss_rng(rng_.next_u64());
  }
  tick_task_.every(sim_, config_.tick, [this]() { tick(); });
}

void ChaosMonkey::stop() {
  if (!running_) return;
  running_ = false;
  tick_task_.cancel();
  // Leave links up/down as-is (operators repair them), but clear transient
  // degradation: a stopped monkey should not keep dropping flows.
  for (size_t i : lossy_links_) fabric_.set_link_pair_loss(links_[i], 0);
  lossy_links_.clear();
}

void ChaosMonkey::tick() {
  double dt = config_.tick.to_seconds();
  // Memoryless per-tick hazard: P(fail) = dt / MTBF, P(repair) = dt / MTTR.
  double node_fail_p = dt / config_.node_mtbf.to_seconds();
  double node_repair_p = dt / config_.node_mttr.to_seconds();
  double link_fail_p = dt / config_.link_mtbf.to_seconds();
  double link_repair_p = dt / config_.link_mttr.to_seconds();

  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (down_nodes_.count(i) > 0) {
      if (rng_.chance(node_repair_p)) {
        down_nodes_.erase(i);
        node_repairs_->inc();
        PICLOUD_TRACE(sim_.trace(), "cloud.chaos", "node_repair",
                      {"node", nodes_[i]->hostname()});
        LOG_INFO("chaos", "repairing node %zu (power cycle)", i);
        nodes_[i]->start();  // re-runs DHCP + registration
      }
    } else if (rng_.chance(node_fail_p)) {
      down_nodes_.insert(i);
      node_crashes_->inc();
      PICLOUD_TRACE(sim_.trace(), "cloud.chaos", "node_crash",
                    {"node", nodes_[i]->hostname()});
      LOG_WARN("chaos", "crashing node %zu", i);
      nodes_[i]->crash();
    }
  }

  for (size_t i = 0; i < links_.size(); ++i) {
    if (down_links_.count(i) > 0) {
      if (rng_.chance(link_repair_p)) {
        down_links_.erase(i);
        link_repairs_->inc();
        fabric_.set_link_pair_up(links_[i], true);
      }
    } else if (rng_.chance(link_fail_p)) {
      down_links_.insert(i);
      link_cuts_->inc();
      fabric_.set_link_pair_up(links_[i], false);
    }
  }

  if (config_.loss_mtbf > sim::Duration::zero()) {
    double loss_onset_p = dt / config_.loss_mtbf.to_seconds();
    double loss_clear_p = dt / config_.loss_mttr.to_seconds();
    for (size_t i = 0; i < links_.size(); ++i) {
      if (lossy_links_.count(i) > 0) {
        if (rng_.chance(loss_clear_p)) {
          lossy_links_.erase(i);
          loss_clears_->inc();
          fabric_.set_link_pair_loss(links_[i], 0);
        }
      } else if (rng_.chance(loss_onset_p)) {
        lossy_links_.insert(i);
        loss_onsets_->inc();
        LOG_WARN("chaos", "link %zu degraded (loss %.0f%%)", i,
                 config_.loss_rate * 100);
        fabric_.set_link_pair_loss(links_[i], config_.loss_rate);
      }
    }
  }
}

}  // namespace picloud::cloud
