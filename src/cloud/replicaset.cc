#include "cloud/replicaset.h"

#include "util/logging.h"
#include "util/strings.h"

namespace picloud::cloud {

ReplicaSet::ReplicaSet(sim::Simulation& sim, PiMaster& master, Config config)
    : sim_(sim), master_(master), config_(std::move(config)) {}

ReplicaSet::~ReplicaSet() { stop(); }

void ReplicaSet::start() {
  if (running_) return;
  running_ = true;
  reconcile();
  reconcile_task_.every(sim_, config_.reconcile_period,
                        [this]() { reconcile(); });
}

void ReplicaSet::stop() {
  if (!running_) return;
  running_ = false;
  reconcile_task_.cancel();
}

std::string ReplicaSet::replica_name(int slot) const {
  return util::format("%s-%d", config_.name_prefix.c_str(), slot);
}

std::vector<net::Ipv4Addr> ReplicaSet::endpoints() const {
  std::vector<net::Ipv4Addr> out;
  for (int slot = 0; slot < config_.replicas; ++slot) {
    std::string name = replica_name(slot);
    if (!master_.instance_healthy(name)) continue;
    auto record = master_.instance(name);
    if (record.ok()) out.push_back(record.value().ip);
  }
  return out;
}

void ReplicaSet::set_replicas(int replicas) {
  if (replicas < 0) replicas = 0;
  if (replicas == config_.replicas) return;
  // Shrinking: delete the instances in the abandoned slots; reconcile()
  // only iterates slots < config_.replicas, so nothing will respawn them.
  for (int slot = replicas; slot < config_.replicas; ++slot) {
    std::string name = replica_name(slot);
    if (!master_.instance(name).ok()) continue;
    master_.delete_instance(name, [this](util::Status) {
      if (on_change_) on_change_();
    });
  }
  LOG_INFO("replicaset", "%s: scaling %d -> %d replicas",
           config_.name_prefix.c_str(), config_.replicas, replicas);
  config_.replicas = replicas;
  if (running_) reconcile();
}

void ReplicaSet::reconcile() {
  ++stats_.reconciliations;
  for (int slot = 0; slot < config_.replicas; ++slot) {
    if (inflight_.count(slot) > 0) continue;
    std::string name = replica_name(slot);
    auto record = master_.instance(name);

    if (master_.instance_healthy(name)) continue;
    if (record.ok() && record.value().state == "migrating") {
      continue;  // in motion; leave it alone
    }

    inflight_.insert(slot);
    if (record.ok()) {
      // The hosting node died (or the record is stale): clear the registry
      // entry, then respawn next round.
      LOG_WARN("replicaset", "%s lost its node (%s); replacing",
               name.c_str(), record.value().hostname.c_str());
      master_.delete_instance(name, [this, slot](util::Status) {
        inflight_.erase(slot);
        ++stats_.replaced;
        if (on_change_) on_change_();
      });
      continue;
    }

    // Missing entirely: spawn into this slot.
    PiMaster::SpawnSpec spec = config_.spec;
    spec.name = name;
    spec.hostname.clear();  // always let the policy place replacements
    master_.spawn_instance(
        std::move(spec), [this, slot](util::Result<InstanceRecord> result) {
          inflight_.erase(slot);
          if (result.ok()) {
            ++stats_.spawned;
            if (on_change_) on_change_();
          } else {
            ++stats_.spawn_failures;
          }
        });
  }
}

}  // namespace picloud::cloud
