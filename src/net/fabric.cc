#include "net/fabric.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/faults.h"
#include "util/logging.h"

namespace picloud::net {

namespace {
// Below this many remaining bytes a flow is considered drained (guards
// against floating-point residue keeping a flow alive forever).
constexpr double kDrainEpsilonBytes = 1e-6;

// Orders a per-link flow list (ascending flow id) against an id.
constexpr auto kFlowIdLess = [](const auto* flow, FlowId id) {
  return flow->id < id;
};
}  // namespace

Fabric::Fabric(sim::Simulation& sim) : sim_(sim) {
  util::MetricsRegistry& m = sim_.metrics();
  flows_started_ = &m.counter("net.fabric.flows_started");
  flows_completed_ = &m.counter("net.fabric.flows_completed");
  flows_failed_ = &m.counter("net.fabric.flows_failed");
  flows_lost_ = &m.counter("net.fabric.flows_lost");
  reroutes_ = &m.counter("net.fabric.reroutes");
}

void Fabric::reserve_topology(size_t nodes, size_t link_pairs) {
  nodes_.reserve(nodes_.size() + nodes);
  links_.reserve(links_.size() + 2 * link_pairs);
  link_flows_.reserve(links_.size() + 2 * link_pairs);
}

NetNodeId Fabric::add_node(NodeKind kind, std::string name) {
  NetNodeId id = static_cast<NetNodeId>(nodes_.size());
  nodes_.push_back(NetNode{id, kind, std::move(name), {}});
  return id;
}

std::pair<LinkId, LinkId> Fabric::add_link(NetNodeId a, NetNodeId b,
                                           double capacity_bps,
                                           sim::Duration delay) {
  PICLOUD_CHECK(a < nodes_.size() && b < nodes_.size() && a != b)
      << "add_link endpoints: a=" << a << " b=" << b;
  PICLOUD_CHECK_GT(capacity_bps, 0) << "add_link capacity";
  LinkId ab = static_cast<LinkId>(links_.size());
  LinkId ba = ab + 1;
  links_.push_back(
      DirectedLink{ab, a, b, capacity_bps, delay, true, 0, 0, 0, 0, 0});
  links_.push_back(
      DirectedLink{ba, b, a, capacity_bps, delay, true, 0, 0, 0, 0, 0});
  nodes_[a].out_links.push_back(ab);
  nodes_[b].out_links.push_back(ba);
  link_flows_.resize(links_.size());
  return {ab, ba};
}

std::optional<NetNodeId> Fabric::find_node(const std::string& name) const {
  for (const auto& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return std::nullopt;
}

LinkId Fabric::reverse(LinkId id) const {
  // Links are created in pairs: even id is a->b, odd id is b->a.
  return (id % 2 == 0) ? id + 1 : id - 1;
}

std::vector<LinkId> Fabric::shortest_path(NetNodeId src, NetNodeId dst) const {
  if (src == dst || src >= nodes_.size() || dst >= nodes_.size()) return {};
  std::vector<LinkId> via(nodes_.size(), kInvalidLink);
  std::vector<bool> visited(nodes_.size(), false);
  std::deque<NetNodeId> queue{src};
  visited[src] = true;
  while (!queue.empty()) {
    NetNodeId u = queue.front();
    queue.pop_front();
    if (u == dst) break;
    for (LinkId lid : nodes_[u].out_links) {
      const DirectedLink& l = links_[lid];
      if (!l.up || visited[l.to]) continue;
      visited[l.to] = true;
      via[l.to] = lid;
      queue.push_back(l.to);
    }
  }
  if (!visited[dst]) return {};
  std::vector<LinkId> path;
  for (NetNodeId u = dst; u != src; u = links_[via[u]].from) {
    path.push_back(via[u]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::vector<LinkId>> Fabric::equal_cost_paths(
    NetNodeId src, NetNodeId dst, size_t max_paths) const {
  std::vector<std::vector<LinkId>> out;
  if (src == dst || src >= nodes_.size() || dst >= nodes_.size()) return out;
  // BFS levels from src.
  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> dist(nodes_.size(), kUnreached);
  std::deque<NetNodeId> queue{src};
  dist[src] = 0;
  while (!queue.empty()) {
    NetNodeId u = queue.front();
    queue.pop_front();
    for (LinkId lid : nodes_[u].out_links) {
      const DirectedLink& l = links_[lid];
      if (!l.up || dist[l.to] != kUnreached) continue;
      dist[l.to] = dist[u] + 1;
      queue.push_back(l.to);
    }
  }
  if (dist[dst] == kUnreached) return out;
  // DFS over the shortest-path DAG, deterministic link order.
  std::vector<LinkId> current;
  std::function<void(NetNodeId)> dfs = [&](NetNodeId u) {
    if (out.size() >= max_paths) return;
    if (u == dst) {
      out.push_back(current);
      return;
    }
    for (LinkId lid : nodes_[u].out_links) {
      const DirectedLink& l = links_[lid];
      if (!l.up || dist[l.to] != dist[u] + 1) continue;
      current.push_back(lid);
      dfs(l.to);
      current.pop_back();
      if (out.size() >= max_paths) return;
    }
  };
  dfs(src);
  return out;
}

sim::Duration Fabric::path_delay(const std::vector<LinkId>& path) const {
  sim::Duration total = sim::Duration::zero();
  for (LinkId lid : path) total += links_[lid].delay;
  return total;
}

bool Fabric::path_up(const std::vector<LinkId>& path) const {
  for (LinkId lid : path) {
    if (!links_[lid].up) return false;
  }
  return true;
}

void Fabric::route_flow(NetNodeId src, NetNodeId dst, FlowId id,
                        std::vector<LinkId>* path) {
  if (routing_ != nullptr) {
    routing_->route(*this, src, dst, id, path);
  } else {
    *path = shortest_path(src, dst);
  }
}

Fabric::Flow* Fabric::acquire_record(FlowId id) {
  Flow* flow;
  if (free_records_.empty()) {
    flow = &records_.emplace_back();
  } else {
    flow = free_records_.back();
    free_records_.pop_back();
  }
  flow->id = id;
  return flow;
}

void Fabric::release_record(Flow* flow) {
  std::vector<LinkId> path = std::move(flow->path);
  path.clear();
  *flow = Flow{};
  flow->path = std::move(path);
  free_records_.push_back(flow);
}

Fabric::Flow* Fabric::find_live(FlowId id) const {
  auto at = std::lower_bound(live_.begin(), live_.end(), id, kFlowIdLess);
  return at != live_.end() && (*at)->id == id ? *at : nullptr;
}

// Runs once per message. A recycled record and its path make admission
// allocation-free once the pool is warm.
// picloud-hot
FlowId Fabric::start_flow(FlowSpec spec) {
  PICLOUD_CHECK(spec.src < nodes_.size() && spec.dst < nodes_.size())
      << "start_flow endpoints: src=" << spec.src << " dst=" << spec.dst;
  PICLOUD_CHECK_GE(spec.bytes, 0) << "start_flow size";
  FlowId id = next_flow_id_++;
  flows_started_->inc();

  if (spec.src == spec.dst) {
    // Loopback: no fabric involvement.
    sim_.after(kLoopbackDelay, [cb = std::move(spec.on_complete)]() {
      if (cb) cb(kLoopbackDelay, true);
    });
    flows_completed_->inc();
    return id;
  }

  Flow* flow = acquire_record(id);
  route_flow(spec.src, spec.dst, id, &flow->path);
  if (flow->path.empty()) {
    release_record(flow);
    sim_.after(sim::Duration::zero(), [cb = std::move(spec.on_complete)]() {
      if (cb) cb(sim::Duration::zero(), false);
    });
    flows_failed_->inc();
    if (routing_ != nullptr) routing_->on_flow_end(id);
    return id;
  }

  // Lossy-link chaos: each lossy hop gets an independent chance to drop the
  // flow at admission. The rng is consumed only when a lossy link is on the
  // path, so loss-free simulations keep bit-identical streams.
  for (LinkId lid : flow->path) {
    double p = links_[lid].loss_p;
    if (p > 0 && loss_rng_.chance(p)) {
      sim_.after(links_[lid].delay, [cb = std::move(spec.on_complete)]() {
        if (cb) cb(sim::Duration::zero(), false);
      });
      flows_failed_->inc();
      flows_lost_->inc();
      // Per-link drop odometer; sum(links.flows_dropped) == flows_lost is a
      // fuzzer invariant. The fault knob plants exactly that bug for the
      // harness's self-check.
      if (!util::FaultInjection::instance().skip_link_drop_accounting) {
        ++links_[lid].flows_dropped;
      }
      if (routing_ != nullptr) routing_->on_flow_end(id);
      release_record(flow);  // last: the loop walks its path
      return id;
    }
  }

  flow->spec = std::move(spec);
  flow->delay = path_delay(flow->path);
  flow->remaining_bytes = std::max(flow->spec.bytes, kDrainEpsilonBytes);
  flow->last_update = sim_.now();
  // The newest flow has the largest id, so it goes at the end of live_ and
  // of each link's list.
  live_.push_back(flow);
  for (LinkId lid : flow->path) {
    PICLOUD_DCHECK(link_flows_[lid].empty() ||
                   link_flows_[lid].back()->id < id)
        << "flow path repeats link " << lid;
    link_flows_[lid].push_back(flow);
  }

  if (mode_ == SolverMode::kIncremental && pending_dirty_.empty() &&
      path_uncontended(flow->path)) {
    // Constant tier: no link on the path carries another flow, so the new
    // flow runs at the path's narrowest capacity and nothing else moves.
    // This equals what progressive filling computes for a singleton
    // component (first bottleneck round fixes the flow at min capacity),
    // so rates stay bit-identical to the oracle.
    ++stats_.solves;
    ++stats_.fast_path;
    settle_all();
    double rate = std::numeric_limits<double>::infinity();
    for (LinkId lid : flow->path) {
      rate = std::min(rate, links_[lid].capacity_bps);
    }
    flow->rate_bps = std::max(rate, 0.0);
    for (LinkId lid : flow->path) {
      links_[lid].allocated_bps = flow->rate_bps;
      links_[lid].active_flows = 1;
    }
    schedule_completion(*flow);
  } else {
    resolve_after_change(flow->path);
  }
  return id;
}

void Fabric::cancel_flow(FlowId id) {
  if (Flow* flow = find_live(id)) finish_flow(flow, /*success=*/false);
}

std::vector<LinkId> Fabric::flow_path(FlowId id) const {
  const Flow* flow = find_live(id);
  return flow != nullptr ? flow->path : std::vector<LinkId>{};
}

double Fabric::flow_rate_bps(FlowId id) const {
  const Flow* flow = find_live(id);
  return flow != nullptr ? flow->rate_bps : 0.0;
}

// Runs once per flow per rate change — the fabric's hottest path.
// picloud-hot
void Fabric::settle(Flow& flow) {
  sim::Duration elapsed = sim_.now() - flow.last_update;
  if (elapsed > sim::Duration::zero() && flow.rate_bps > 0) {
    double sent = flow.rate_bps / 8.0 * elapsed.to_seconds();
    sent = std::min(sent, flow.remaining_bytes);
    flow.remaining_bytes -= sent;
    for (LinkId lid : flow.path) links_[lid].bytes_carried += sent;
  }
  flow.last_update = sim_.now();
}

void Fabric::settle_all() {
  for (Flow* flow : live_) settle(*flow);
}

bool Fabric::path_uncontended(const std::vector<LinkId>& path) const {
  for (LinkId lid : path) {
    if (link_flows_[lid].size() != 1) return false;
  }
  return true;
}

void Fabric::schedule_completion(Flow& flow) {
  // When a flow's rate is unchanged its projected finish time is unchanged
  // too (settle() moved last_update and remaining consistently), so the
  // existing event stays — this keeps event churn proportional to the flows
  // a change actually touched.
  if (flow.rate_bps == flow.scheduled_rate && flow.completion.armed()) {
    return;
  }
  flow.completion.cancel();
  flow.scheduled_rate = flow.rate_bps;
  if (flow.rate_bps <= 0) {
    // No capacity at all (fully saturated zero-residual path after a cut);
    // leave the flow parked — the next solve will retry.
    return;
  }
  double seconds = flow.remaining_bytes * 8.0 / flow.rate_bps;
  Flow* handle = &flow;
  flow.completion.after(
      sim_, sim::Duration::seconds(seconds),
      [this, handle]() { finish_flow(handle, /*success=*/true); });
}

void Fabric::resolve_after_change(const std::vector<LinkId>& seed) {
  pending_dirty_.insert(pending_dirty_.end(), seed.begin(), seed.end());
  ++stats_.solves;
  settle_all();
  if (mode_ == SolverMode::kFullOracle) {
    pending_dirty_.clear();
    run_filling_full();
  } else {
    solve_component();
    pending_dirty_.clear();
  }
}

void Fabric::reallocate_full() {
  ++stats_.solves;
  pending_dirty_.clear();
  settle_all();
  run_filling_full();
}

// Incremental max-min: progressive filling restricted to the connected
// component of links reachable from the dirty set through shared flows.
// Components share no links or flows, so a component-local fill computes
// exactly the values a whole-fabric fill would (same divisions on the same
// operands, same ascending-id tie-breaks) — flows outside keep their rates
// and their scheduled completion events bit-for-bit.
// picloud-hot
void Fabric::solve_component() {
  ++stats_.component_solves;
  if (++epoch_ == 0) {
    // Stamp wrap (once per 2^32 solves): clear stale marks and restart.
    std::fill(link_epoch_.begin(), link_epoch_.end(), 0u);
    for (Flow* flow : live_) flow->mark_epoch = 0;
    epoch_ = 1;
  }
  link_epoch_.resize(links_.size(), 0u);
  residual_.resize(links_.size());
  unfixed_.resize(links_.size());
  comp_links_.clear();
  comp_flows_.clear();
  bfs_stack_.clear();

  // Closure: alternate links -> flows crossing them -> those flows' links.
  for (LinkId lid : pending_dirty_) {
    if (link_epoch_[lid] == epoch_) continue;
    link_epoch_[lid] = epoch_;
    comp_links_.push_back(lid);
    bfs_stack_.push_back(lid);
  }
  while (!bfs_stack_.empty()) {
    LinkId lid = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (Flow* flow : link_flows_[lid]) {
      if (flow->mark_epoch == epoch_) continue;
      flow->mark_epoch = epoch_;
      comp_flows_.push_back(flow);
      for (LinkId pl : flow->path) {
        if (link_epoch_[pl] == epoch_) continue;
        link_epoch_[pl] = epoch_;
        comp_links_.push_back(pl);
        bfs_stack_.push_back(pl);
      }
    }
  }
  // Ascending flow id everywhere below, matching the oracle's map order.
  std::sort(comp_flows_.begin(), comp_flows_.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });
  stats_.component_links += comp_links_.size();
  stats_.component_flows += comp_flows_.size();

  for (LinkId lid : comp_links_) {
    residual_[lid] = links_[lid].capacity_bps;
    unfixed_[lid] = 0;
  }
  for (Flow* flow : comp_flows_) {
    flow->rate_bps = -1;  // unfixed marker
    for (LinkId lid : flow->path) ++unfixed_[lid];
  }

  // Bottleneck search via a lazy-invalidation min-heap: every time a link's
  // (residual, unfixed) pair changes we push a fresh (share, id) entry; a
  // popped entry is discarded unless it still equals the live share. The
  // live minimum is always present, so pops surface the same
  // (min share, min id) the oracle's whole-table scan selects.
  share_heap_.clear();
  auto heap_push = [this](LinkId lid) {
    share_heap_.emplace_back(residual_[lid] / unfixed_[lid], lid);
    std::push_heap(share_heap_.begin(), share_heap_.end(), std::greater<>{});
    ++stats_.heap_ops;
  };
  for (LinkId lid : comp_links_) {
    if (unfixed_[lid] > 0) heap_push(lid);
  }
  size_t unfixed_flows = comp_flows_.size();
  while (unfixed_flows > 0) {
    LinkId best_link = kInvalidLink;
    double best = 0;
    while (!share_heap_.empty()) {
      auto [share, lid] = share_heap_.front();
      std::pop_heap(share_heap_.begin(), share_heap_.end(), std::greater<>{});
      share_heap_.pop_back();
      ++stats_.heap_ops;
      if (unfixed_[lid] == 0) continue;  // fully fixed since pushed
      if (residual_[lid] / unfixed_[lid] != share) continue;  // stale entry
      best_link = lid;
      best = share;
      break;
    }
    if (best_link == kInvalidLink) break;  // defensive; cannot happen
    // Floating-point residue can drive a residual slightly negative; a fixed
    // rate must never be, or the flow would look unfixed to later rounds.
    best = std::max(best, 0.0);
    // Fix every unfixed flow crossing the bottleneck at the fair share.
    for (Flow* flow : link_flows_[best_link]) {
      ++stats_.flow_visits;
      if (flow->rate_bps >= 0) continue;
      flow->rate_bps = best;
      --unfixed_flows;
      for (LinkId lid : flow->path) {
        residual_[lid] -= best;
        if (--unfixed_[lid] > 0) heap_push(lid);
      }
    }
  }

  // Refresh gauges on component links only (closure: every flow crossing a
  // component link is a component flow, so the sums are complete).
  for (LinkId lid : comp_links_) {
    links_[lid].allocated_bps = 0;
    links_[lid].active_flows = 0;
  }
  for (Flow* flow : comp_flows_) {
    for (LinkId lid : flow->path) {
      links_[lid].allocated_bps += flow->rate_bps;
      links_[lid].active_flows += 1;
    }
  }
  for (Flow* flow : comp_flows_) schedule_completion(*flow);
}

// The reference oracle: whole-fabric progressive-filling max-min fair share.
// Kept verbatim from the original eager solver, except bottleneck rounds fix
// flows via the per-link flow lists instead of an O(flows) path scan (same
// flows, same ascending-id order, same arithmetic — bit-identical rates).
void Fabric::run_filling_full() {
  ++stats_.full_solves;
  residual_.assign(links_.size(), 0.0);
  unfixed_.assign(links_.size(), 0);
  for (const auto& l : links_) residual_[l.id] = l.capacity_bps;
  for (Flow* flow : live_) {
    flow->rate_bps = -1;  // unfixed marker
    for (LinkId lid : flow->path) ++unfixed_[lid];
  }

  size_t unfixed_flows = live_.size();
  while (unfixed_flows > 0) {
    // Find the bottleneck link: minimum fair share among loaded links.
    double best = std::numeric_limits<double>::infinity();
    LinkId best_link = kInvalidLink;
    for (const auto& l : links_) {
      if (unfixed_[l.id] == 0) continue;
      ++stats_.link_scans;
      double share = residual_[l.id] / unfixed_[l.id];
      if (share < best) {
        best = share;
        best_link = l.id;
      }
    }
    if (best_link == kInvalidLink) break;  // defensive; cannot happen
    best = std::max(best, 0.0);
    for (Flow* flow : link_flows_[best_link]) {
      ++stats_.flow_visits;
      if (flow->rate_bps >= 0) continue;
      flow->rate_bps = best;
      --unfixed_flows;
      for (LinkId lid : flow->path) {
        residual_[lid] -= best;
        --unfixed_[lid];
      }
    }
  }

  // Refresh link allocation gauges.
  for (auto& l : links_) {
    l.allocated_bps = 0;
    l.active_flows = 0;
  }
  for (const Flow* flow : live_) {
    for (LinkId lid : flow->path) {
      links_[lid].allocated_bps += flow->rate_bps;
      links_[lid].active_flows += 1;
    }
  }

  for (Flow* flow : live_) schedule_completion(*flow);
}

// Runs once per message.
// picloud-hot
void Fabric::finish_flow(Flow* flow, bool success) {
  settle(*flow);
  flow->completion.cancel();
  const FlowId id = flow->id;
  FlowCallback cb = std::move(flow->spec.on_complete);
  sim::Duration delay = flow->delay;
  const std::vector<LinkId>& path = flow->path;
  unlink_path(*flow, path);
  auto at = std::lower_bound(live_.begin(), live_.end(), id, kFlowIdLess);
  PICLOUD_CHECK(at != live_.end() && *at == flow)
      << "flow " << id << " is not live";
  live_.erase(at);
  if (success) {
    flows_completed_->inc();
  } else {
    flows_failed_->inc();
  }
  if (routing_ != nullptr) routing_->on_flow_end(id);

  bool links_now_idle = true;
  for (LinkId lid : path) {
    if (!link_flows_[lid].empty()) {
      links_now_idle = false;
      break;
    }
  }
  if (mode_ == SolverMode::kIncremental && pending_dirty_.empty() &&
      links_now_idle) {
    // Constant tier: the departed flow shared no link with anyone, so no
    // other rate can move — just settle and zero the path's gauges.
    ++stats_.solves;
    ++stats_.fast_path;
    settle_all();
    for (LinkId lid : path) {
      links_[lid].allocated_bps = 0;
      links_[lid].active_flows = 0;
    }
  } else {
    resolve_after_change(path);
  }
  // Nothing refers to the record now: its event has fired or was cancelled
  // above, and it left live_ and every link list.
  release_record(flow);
  if (cb) cb(delay, success);
}

void Fabric::link_path(Flow& flow, const std::vector<LinkId>& path) {
  for (LinkId lid : path) {
    std::vector<Flow*>& list = link_flows_[lid];
    auto at = std::lower_bound(list.begin(), list.end(), flow.id, kFlowIdLess);
    PICLOUD_DCHECK(at == list.end() || (*at)->id != flow.id)
        << "flow " << flow.id << " already on link " << lid;
    list.insert(at, &flow);
  }
}

void Fabric::unlink_path(const Flow& flow, const std::vector<LinkId>& path) {
  for (LinkId lid : path) {
    std::vector<Flow*>& list = link_flows_[lid];
    auto at = std::lower_bound(list.begin(), list.end(), flow.id, kFlowIdLess);
    PICLOUD_CHECK(at != list.end() && *at == &flow)
        << "flow " << flow.id << " missing from link " << lid;
    list.erase(at);
  }
}

void Fabric::set_link_pair_loss(LinkId id, double loss_p) {
  PICLOUD_CHECK(loss_p >= 0 && loss_p <= 1) << "loss probability " << loss_p;
  LinkId a = id;
  LinkId b = reverse(id);
  links_[a].loss_p = loss_p;
  links_[b].loss_p = loss_p;
  PICLOUD_TRACE(sim_.trace(), "net.fabric",
                loss_p > 0 ? "link_loss_on" : "link_loss_off",
                {"from", nodes_[links_[a].from].name},
                {"to", nodes_[links_[a].to].name});
  if (loss_p > 0) {
    LOG_INFO("fabric", "link %s <-> %s lossy p=%.3f",
             nodes_[links_[a].from].name.c_str(),
             nodes_[links_[a].to].name.c_str(), loss_p);
  }
}

void Fabric::set_link_pair_up(LinkId id, bool up) {
  LinkId a = id;
  LinkId b = reverse(id);
  links_[a].up = up;
  links_[b].up = up;
  PICLOUD_TRACE(sim_.trace(), "net.fabric", up ? "link_up" : "link_down",
                {"from", nodes_[links_[a].from].name},
                {"to", nodes_[links_[a].to].name});
  LOG_INFO("fabric", "link %s <-> %s %s", nodes_[links_[a].from].name.c_str(),
           nodes_[links_[a].to].name.c_str(), up ? "up" : "DOWN");
  if (up) {
    resolve_after_change({a, b});
    return;
  }
  // Reroute or fail the flows that crossed the dead pair. The per-link flow
  // lists give the affected set directly; merged ascending it matches the
  // flow-id order the original whole-map scan produced.
  std::vector<FlowId> affected;
  std::vector<LinkId> new_path;
  affected.reserve(link_flows_[a].size() + link_flows_[b].size());
  for (LinkId lid : {a, b}) {
    for (const Flow* flow : link_flows_[lid]) affected.push_back(flow->id);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (FlowId fid : affected) {
    // Ids, not handles: a failed flow's callback runs inside finish_flow()
    // and may cancel a later affected flow, whose record is then recycled.
    Flow* flow = find_live(fid);
    if (flow == nullptr) continue;
    settle(*flow);
    route_flow(flow->spec.src, flow->spec.dst, fid, &new_path);
    if (new_path.empty()) {
      finish_flow(flow, /*success=*/false);
    } else {
      // Both the abandoned and the adopted links feed the dirty set; the
      // next solve (possibly a finish_flow-triggered one mid-loop) folds
      // them into its component.
      unlink_path(*flow, flow->path);
      pending_dirty_.insert(pending_dirty_.end(), flow->path.begin(),
                            flow->path.end());
      link_path(*flow, new_path);
      pending_dirty_.insert(pending_dirty_.end(), new_path.begin(),
                            new_path.end());
      flow->path.swap(new_path);
      reroutes_->inc();
    }
  }
  resolve_after_change({a, b});
}

void Fabric::set_link_pair_capacity(LinkId id, double capacity_bps) {
  PICLOUD_CHECK_GT(capacity_bps, 0) << "set_link_pair_capacity";
  LinkId a = id;
  LinkId b = reverse(id);
  links_[a].capacity_bps = capacity_bps;
  links_[b].capacity_bps = capacity_bps;
  PICLOUD_TRACE(sim_.trace(), "net.fabric", "link_capacity",
                {"from", nodes_[links_[a].from].name},
                {"to", nodes_[links_[a].to].name});
  if (routing_ != nullptr) {
    routing_->on_link_changed(a);
    routing_->on_link_changed(b);
  }
  resolve_after_change({a, b});
}

std::vector<FlowId> Fabric::active_flow_ids() const {
  std::vector<FlowId> ids;
  ids.reserve(live_.size());
  for (const Flow* flow : live_) ids.push_back(flow->id);
  return ids;
}

double Fabric::max_link_utilization() const {
  double max_util = 0;
  for (const auto& l : links_) max_util = std::max(max_util, l.utilization());
  return max_util;
}

double Fabric::total_bytes_carried() const {
  double total = 0;
  for (const auto& l : links_) total += l.bytes_carried;
  return total;
}

}  // namespace picloud::net
