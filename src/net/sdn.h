// OpenFlow-style SDN control plane (paper §II-A, §IV).
//
// "The benefit of using OpenFlow is to make the topology fully programmable
// ... SDN is a fairly recent concept of logically centralising the network's
// control plane so that network-wide management can be programmed in software
// and subsequently enforced through the centrally-controlled installation of
// rules on the switches along the path."
//
// The model follows the reactive OpenFlow workflow: the first flow between a
// node pair misses in the switch flow table, raises a packet-in at the
// controller, which computes a path under the active policy and installs an
// exact-match rule on every switch along it. Later flows between the same
// pair hit the cached rules. Rules age out after an idle timeout; link
// failures invalidate the rules that cross them.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <optional>
#include <vector>

#include "net/fabric.h"
#include "sim/simulation.h"

namespace picloud::net {

// An exact-match match-action rule: (src node, dst node) -> output link.
struct FlowRule {
  NetNodeId src = kInvalidNode;
  NetNodeId dst = kInvalidNode;
  LinkId out_link = kInvalidLink;
  sim::SimTime last_used;
  std::uint64_t hits = 0;
};

// Per-switch OpenFlow table.
class FlowTable {
 public:
  void install(NetNodeId src, NetNodeId dst, LinkId out_link, sim::SimTime now);
  // Exact-match lookup; updates hit counters on success.
  std::optional<LinkId> lookup(NetNodeId src, NetNodeId dst, sim::SimTime now);
  void remove(NetNodeId src, NetNodeId dst);
  // Drops every rule whose action forwards out of `link`. Returns evicted
  // count. Used when a link's properties change under installed rules.
  size_t remove_by_link(LinkId link);
  // Drops rules idle for longer than `idle_timeout`. Returns evicted count.
  size_t evict_idle(sim::SimTime now, sim::Duration idle_timeout);
  size_t size() const { return rules_.size(); }

 private:
  std::map<std::pair<NetNodeId, NetNodeId>, FlowRule> rules_;
};

enum class SdnPolicy {
  kShortestPath,    // deterministic first shortest path
  kEcmp,            // hash (src, dst) across equal-cost shortest paths
  kLeastCongested,  // pick the equal-cost path with the lowest peak
                    // utilisation at install time
};

const char* sdn_policy_name(SdnPolicy policy);

// The logically-centralised controller. Install as the fabric's routing
// provider: fabric.set_routing(&controller).
class SdnController : public RoutingProvider {
 public:
  SdnController(sim::Simulation& sim, SdnPolicy policy,
                sim::Duration rule_idle_timeout = sim::Duration::seconds(30));

  // A table hit walks the installed rules straight into `*path`; a miss
  // raises a packet-in, computes the path under the policy and installs it.
  void route(Fabric& fabric, NetNodeId src, NetNodeId dst, FlowId flow,
             std::vector<LinkId>* path) override;

  // Link property change (capacity): evicts every rule forwarding over the
  // link, so paths picked under the old capacity (kLeastCongested) get
  // recomputed on the next packet-in instead of lingering until idle-out.
  void on_link_changed(LinkId link) override;

  void set_policy(SdnPolicy policy) { policy_ = policy; }
  SdnPolicy policy() const { return policy_; }

  // Administrative rule injection (the "fully programmable" topology):
  // pins src->dst traffic to an explicit path until evicted or invalidated.
  void install_path(Fabric& fabric, NetNodeId src, NetNodeId dst,
                    const std::vector<LinkId>& path);
  // Clears every rule on every switch.
  void flush_tables();

  // Ages idle rules out of all tables.
  void evict_idle(sim::SimTime now);

  size_t total_rules() const;

 private:
  // Follows installed rules hop by hop, writing each link into `*path`.
  // False on any miss, dead link or rule loop (`*path` then holds the
  // partial walk).
  bool follow_rules(Fabric& fabric, NetNodeId src, NetNodeId dst,
                    std::vector<LinkId>* path);
  std::vector<LinkId> compute_path(Fabric& fabric, NetNodeId src,
                                   NetNodeId dst);

  sim::Simulation& sim_;
  SdnPolicy policy_;
  sim::Duration rule_idle_timeout_;
  std::map<NetNodeId, FlowTable> tables_;  // per switch
  // Registry counter handles under `net.sdn.*` (never null).
  util::Counter* packet_ins_ = nullptr;  // table misses raised here
  util::Counter* table_hits_ = nullptr;  // flows served from installed rules
  util::Counter* rules_installed_ = nullptr;  // per-switch installations
  util::Counter* rules_evicted_ = nullptr;
  util::Counter* reroutes_ = nullptr;  // paths recomputed after link failure
};

// The pre-SDN baseline: classic L2 spanning-tree forwarding. Redundant
// links (the second aggregation root, the extra equal-cost paths) are
// BLOCKED to avoid loops, so only the tree carries traffic — exactly the
// capacity the paper buys back by making the aggregation layer OpenFlow
// ("the benefit of using OpenFlow is to make the topology fully
// programmable", SII-A). Routes are paths within the spanning tree rooted
// at the lowest node id (the standard lowest-bridge-id election).
class SpanningTreeRouting : public RoutingProvider {
 public:
  // Computes the tree lazily on first route() and after any topology or
  // link-state change signalled via invalidate().
  SpanningTreeRouting() = default;

  void route(Fabric& fabric, NetNodeId src, NetNodeId dst, FlowId flow,
             std::vector<LinkId>* path) override;

  // Links NOT in the tree (blocked ports). Valid after the first route().
  const std::set<LinkId>& blocked_links() const { return blocked_; }
  void invalidate() { valid_ = false; }

 private:
  void rebuild(const Fabric& fabric);

  bool valid_ = false;
  // parent_link_[n] = directed link from n toward the root (kInvalidLink at
  // the root / unreachable nodes).
  std::vector<LinkId> parent_link_;
  std::set<LinkId> blocked_;
};

}  // namespace picloud::net
