#include "net/sdn.h"

#include <algorithm>

namespace picloud::net {

void FlowTable::install(NetNodeId src, NetNodeId dst, LinkId out_link,
                        sim::SimTime now) {
  FlowRule rule;
  rule.src = src;
  rule.dst = dst;
  rule.out_link = out_link;
  rule.last_used = now;
  rules_[{src, dst}] = rule;
}

std::optional<LinkId> FlowTable::lookup(NetNodeId src, NetNodeId dst,
                                        sim::SimTime now) {
  auto it = rules_.find({src, dst});
  if (it == rules_.end()) return std::nullopt;
  it->second.last_used = now;
  ++it->second.hits;
  return it->second.out_link;
}

void FlowTable::remove(NetNodeId src, NetNodeId dst) {
  rules_.erase({src, dst});
}

size_t FlowTable::remove_by_link(LinkId link) {
  size_t evicted = 0;
  for (auto it = rules_.begin(); it != rules_.end();) {
    if (it->second.out_link == link) {
      it = rules_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

size_t FlowTable::evict_idle(sim::SimTime now, sim::Duration idle_timeout) {
  size_t evicted = 0;
  for (auto it = rules_.begin(); it != rules_.end();) {
    if (now - it->second.last_used > idle_timeout) {
      it = rules_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

const char* sdn_policy_name(SdnPolicy policy) {
  switch (policy) {
    case SdnPolicy::kShortestPath: return "shortest-path";
    case SdnPolicy::kEcmp: return "ecmp";
    case SdnPolicy::kLeastCongested: return "least-congested";
  }
  return "?";
}

SdnController::SdnController(sim::Simulation& sim, SdnPolicy policy,
                             sim::Duration rule_idle_timeout)
    : sim_(sim), policy_(policy), rule_idle_timeout_(rule_idle_timeout) {
  util::MetricsRegistry& m = sim_.metrics();
  packet_ins_ = &m.counter("net.sdn.packet_ins");
  table_hits_ = &m.counter("net.sdn.table_hits");
  rules_installed_ = &m.counter("net.sdn.rules_installed");
  rules_evicted_ = &m.counter("net.sdn.rules_evicted");
  reroutes_ = &m.counter("net.sdn.reroutes");
}

// Runs once per message that hits the installed rules.
// picloud-hot
bool SdnController::follow_rules(Fabric& fabric, NetNodeId src, NetNodeId dst,
                                 std::vector<LinkId>* path) {
  path->clear();
  // First hop: the host's access link (hosts are single-homed; pick the
  // first live uplink).
  NetNodeId current = src;
  const auto& src_links = fabric.node(src).out_links;
  LinkId access = kInvalidLink;
  for (LinkId lid : src_links) {
    if (fabric.link(lid).up) {
      access = lid;
      break;
    }
  }
  if (access == kInvalidLink) return false;
  path->push_back(access);
  current = fabric.link(access).to;

  // Walk switch tables until the destination (bounded by the node count to
  // catch rule loops).
  for (size_t hop = 0; hop < fabric.node_count(); ++hop) {
    if (current == dst) return true;
    auto table_it = tables_.find(current);
    if (table_it == tables_.end()) return false;
    auto out = table_it->second.lookup(src, dst, sim_.now());
    if (!out) return false;
    const DirectedLink& l = fabric.link(*out);
    if (!l.up) {
      // Stale rule over a dead link: invalidate and miss.
      table_it->second.remove(src, dst);
      return false;
    }
    path->push_back(*out);
    current = l.to;
  }
  return false;  // loop
}

std::vector<LinkId> SdnController::compute_path(Fabric& fabric, NetNodeId src,
                                                NetNodeId dst) {
  switch (policy_) {
    case SdnPolicy::kShortestPath:
      return fabric.shortest_path(src, dst);
    case SdnPolicy::kEcmp: {
      auto paths = fabric.equal_cost_paths(src, dst);
      if (paths.empty()) return {};
      // Deterministic 5-tuple-style hash on the (src, dst) pair.
      std::uint64_t h = (std::uint64_t{src} << 32) | dst;
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDULL;
      h ^= h >> 33;
      return paths[h % paths.size()];
    }
    case SdnPolicy::kLeastCongested: {
      auto paths = fabric.equal_cost_paths(src, dst);
      if (paths.empty()) return {};
      double best_util = 2.0;
      size_t best = 0;
      for (size_t i = 0; i < paths.size(); ++i) {
        double peak = 0;
        for (LinkId lid : paths[i]) {
          peak = std::max(peak, fabric.link(lid).utilization());
        }
        if (peak < best_util) {
          best_util = peak;
          best = i;
        }
      }
      return paths[best];
    }
  }
  return {};
}

void SdnController::route(Fabric& fabric, NetNodeId src, NetNodeId dst,
                          FlowId /*flow*/, std::vector<LinkId>* path) {
  if (follow_rules(fabric, src, dst, path)) {
    table_hits_->inc();
    return;
  }
  packet_ins_->inc();
  *path = compute_path(fabric, src, dst);
  if (!path->empty()) install_path(fabric, src, dst, *path);
}

void SdnController::install_path(Fabric& fabric, NetNodeId src, NetNodeId dst,
                                 const std::vector<LinkId>& path) {
  // A rule goes on every switch the path traverses (not the end hosts).
  for (LinkId lid : path) {
    NetNodeId from = fabric.link(lid).from;
    if (fabric.node(from).kind == NodeKind::kHost) continue;
    tables_[from].install(src, dst, lid, sim_.now());
    rules_installed_->inc();
  }
}

void SdnController::on_link_changed(LinkId link) {
  for (auto& [node, table] : tables_) {
    rules_evicted_->inc(table.remove_by_link(link));
  }
}

void SdnController::flush_tables() {
  tables_.clear();
}

void SdnController::evict_idle(sim::SimTime now) {
  for (auto& [node, table] : tables_) {
    rules_evicted_->inc(table.evict_idle(now, rule_idle_timeout_));
  }
}

size_t SdnController::total_rules() const {
  size_t total = 0;
  for (const auto& [node, table] : tables_) total += table.size();
  return total;
}

void SpanningTreeRouting::rebuild(const Fabric& fabric) {
  parent_link_.assign(fabric.node_count(), kInvalidLink);
  blocked_.clear();
  if (fabric.node_count() == 0) {
    valid_ = true;
    return;
  }
  // BFS tree from the lowest node id over up links; tie-break by link id —
  // deterministic, like lowest-bridge/port-id elections.
  std::set<LinkId> tree_links;
  std::vector<bool> visited(fabric.node_count(), false);
  std::vector<NetNodeId> queue{0};
  visited[0] = true;
  for (size_t head = 0; head < queue.size(); ++head) {
    NetNodeId u = queue[head];
    for (LinkId lid : fabric.node(u).out_links) {
      const DirectedLink& l = fabric.link(lid);
      if (!l.up || visited[l.to]) continue;
      visited[l.to] = true;
      parent_link_[l.to] = fabric.reverse(lid);  // child -> parent direction
      tree_links.insert(lid);
      tree_links.insert(fabric.reverse(lid));
      queue.push_back(l.to);
    }
  }
  for (size_t lid = 0; lid < fabric.link_count(); ++lid) {
    if (tree_links.count(static_cast<LinkId>(lid)) == 0) {
      blocked_.insert(static_cast<LinkId>(lid));
    }
  }
  valid_ = true;
}

void SpanningTreeRouting::route(Fabric& fabric, NetNodeId src, NetNodeId dst,
                                FlowId /*flow*/, std::vector<LinkId>* path) {
  path->clear();
  if (src == dst || src >= fabric.node_count() || dst >= fabric.node_count()) {
    return;
  }
  if (!valid_ || parent_link_.size() != fabric.node_count()) rebuild(fabric);

  // Splice the two root-ward spines at their lowest common ancestor.
  auto compute = [&]() {
    path->clear();
    auto spine = [&](NetNodeId n) {
      std::vector<NetNodeId> chain{n};
      while (parent_link_[chain.back()] != kInvalidLink) {
        chain.push_back(fabric.link(parent_link_[chain.back()]).to);
      }
      return chain;
    };
    std::vector<NetNodeId> up_src = spine(src);
    std::vector<NetNodeId> up_dst = spine(dst);
    if (up_src.back() != up_dst.back()) return;  // different components
    size_t i = up_src.size();
    size_t j = up_dst.size();
    while (i > 0 && j > 0 && up_src[i - 1] == up_dst[j - 1]) {
      --i;
      --j;
    }
    for (size_t k = 0; k < i; ++k) path->push_back(parent_link_[up_src[k]]);
    for (size_t k = j; k-- > 0;) {
      path->push_back(fabric.reverse(parent_link_[up_dst[k]]));
    }
  };

  compute();
  if (path->empty() || !fabric.path_up(*path)) {
    // A tree link died: re-converge (as real spanning tree does, slowly)
    // and try once more.
    rebuild(fabric);
    compute();
    if (!path->empty() && !fabric.path_up(*path)) path->clear();
  }
}

}  // namespace picloud::net
