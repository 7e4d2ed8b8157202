#include "cloud/reconciler.h"

#include <vector>

#include "cloud/pimaster.h"
#include "util/logging.h"
#include "util/strings.h"

namespace picloud::cloud {

namespace {

// Consecutive sweeps a discrepancy must persist before acting on it —
// guards against racing an in-flight spawn/migration the master has not
// recorded yet.
constexpr int kConfirmations = 2;

// Policy for the per-node GET /containers audits and orphan DELETEs.
proto::RetryPolicy rest_policy() {
  return proto::RetryPolicy::standard(2, sim::Duration::seconds(3));
}

}  // namespace

Reconciler::Reconciler(PiMaster& master, Config config)
    : master_(master), config_(config) {
  util::MetricsRegistry& m = master_.sim_.metrics();
  sweeps_ = &m.counter("cloud.reconciler.sweeps");
  node_queries_ = &m.counter("cloud.reconciler.node_queries");
  query_failures_ = &m.counter("cloud.reconciler.query_failures");
  marked_lost_dead_node_ = &m.counter("cloud.reconciler.marked_lost_dead_node");
  marked_lost_drift_ = &m.counter("cloud.reconciler.marked_lost_drift");
  orphans_gc_ = &m.counter("cloud.reconciler.orphans_gc");
}

Reconciler::~Reconciler() { stop(); }

void Reconciler::start() {
  if (running_) return;
  running_ = true;
  task_.every(master_.sim_, config_.period, [this]() { sweep(); });
}

void Reconciler::stop() {
  if (!running_) return;
  running_ = false;
  task_.cancel();
}

void Reconciler::sweep() {
  sweeps_->inc();

  // (1) Records in "running" on nodes that stopped heartbeating: the
  // containers died with the node — mark lost so the owning ReplicaSet (or
  // an operator delete) can act. The node may later re-register, but a
  // power-cycled Pi comes back empty, so the records stay lost.
  for (auto& [name, record] : master_.instances_) {
    if (record.state == "running" && !master_.monitor_.alive(record.hostname)) {
      record.state = "lost";
      marked_lost_dead_node_->inc();
      PICLOUD_TRACE(master_.sim_.trace(), "cloud.reconciler", "marked_lost",
                    {"instance", name}, {"node", record.hostname},
                    {"reason", "dead_node"});
      LOG_WARN("reconcile", "%s lost (node %s dead)", name.c_str(),
               record.hostname.c_str());
    }
  }

  // (2) Audit every live registered node's actual container list.
  for (const auto& [hostname, rec] : master_.monitor_.nodes()) {
    if (!master_.monitor_.alive(rec)) continue;
    node_queries_->inc();
    master_.client_->call(
        rec.ip, NodeDaemon::kPort, proto::Method::kGet, "/containers",
        util::Json(),
        [this, hostname](util::Result<proto::HttpResponse> result) {
          if (!result.ok() || !result.value().ok()) {
            query_failures_->inc();
            return;
          }
          if (!running_) return;
          std::set<std::string> reported;
          for (const util::Json& c : result.value().body.as_array()) {
            reported.insert(c.get_string("name"));
          }
          audit_node(hostname, reported);
        },
        rest_policy());
  }
}

void Reconciler::audit_node(const std::string& hostname,
                            const std::set<std::string>& reported) {
  // Orphans: containers this node runs that no record claims. A spawn whose
  // response was lost, or a migration remnant. Only act after the
  // discrepancy persists kConfirmations consecutive sweeps, and never
  // while the master has an operation in flight for that name.
  for (const std::string& name : reported) {
    std::string key = "orphan/" + hostname + "/" + name;
    auto it = master_.instances_.find(name);
    bool claimed =
        it != master_.instances_.end() &&
        (it->second.hostname == hostname || it->second.state == "migrating");
    if (claimed || master_.operation_in_flight(name) ||
        deleting_.count(hostname + "/" + name) > 0) {
      strikes_.erase(key);
      continue;
    }
    if (++strikes_[key] >= kConfirmations) {
      strikes_.erase(key);
      destroy_orphan(hostname, name);
    }
  }

  // Drift: records claiming this live node whose container it no longer
  // reports (e.g. the node power-cycled within one liveness window).
  for (auto& [name, record] : master_.instances_) {
    if (record.hostname != hostname) continue;
    std::string key = "drift/" + name;
    if (record.state != "running" || reported.count(name) > 0 ||
        master_.operation_in_flight(name)) {
      strikes_.erase(key);
      continue;
    }
    if (++strikes_[key] >= kConfirmations) {
      strikes_.erase(key);
      record.state = "lost";
      marked_lost_drift_->inc();
      PICLOUD_TRACE(master_.sim_.trace(), "cloud.reconciler", "marked_lost",
                    {"instance", name}, {"node", hostname},
                    {"reason", "drift"});
      LOG_WARN("reconcile", "%s lost (node %s no longer reports it)",
               name.c_str(), hostname.c_str());
    }
  }

  // Forget orphan strikes for containers that vanished on their own.
  std::string prefix = "orphan/" + hostname + "/";
  std::vector<std::string> stale;
  for (auto it = strikes_.lower_bound(prefix);
       it != strikes_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (reported.count(it->first.substr(prefix.size())) == 0) {
      stale.push_back(it->first);
    }
  }
  for (const std::string& key : stale) strikes_.erase(key);
}

void Reconciler::destroy_orphan(const std::string& hostname,
                                const std::string& name) {
  const NodeRecord* node = master_.monitor_.node(hostname);
  if (node == nullptr) return;
  std::string tag = hostname + "/" + name;
  deleting_.insert(tag);
  ++gc_seq_;
  util::Json body = util::Json::object();
  body.set("idem", util::format("gc/%s/%llu", tag.c_str(),
                                static_cast<unsigned long long>(gc_seq_)));
  LOG_WARN("reconcile", "GC orphan container %s on %s", name.c_str(),
           hostname.c_str());
  master_.client_->call(
      node->ip, NodeDaemon::kPort, proto::Method::kDelete,
      "/containers/" + name, std::move(body),
      [this, tag](util::Result<proto::HttpResponse> result) {
        deleting_.erase(tag);
        // 404 counts: someone else (node crash, operator) beat us to it.
        if (result.ok() &&
            (result.value().ok() || result.value().status == 404)) {
          orphans_gc_->inc();
          PICLOUD_TRACE(master_.sim_.trace(), "cloud.reconciler", "orphan_gc",
                        {"container", tag});
        }
      },
      rest_policy());
}

}  // namespace picloud::cloud
