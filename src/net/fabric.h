// The network fabric: nodes, directed links, and byte-accurate flows with
// progressive-filling max-min fair bandwidth sharing.
//
// This is the flow-level network model from DESIGN.md §6.2. Congestion is
// emergent: when many flows cross a link, each gets its fair share and
// completion events move accordingly — exactly the cross-layer behaviour the
// paper argues simulators miss (naive VM consolidation → congestion).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/time.h"
#include "util/rng.h"

namespace picloud::net {

using NetNodeId = std::uint32_t;
using LinkId = std::uint32_t;
using FlowId = std::uint64_t;

inline constexpr NetNodeId kInvalidNode = ~0u;
inline constexpr LinkId kInvalidLink = ~0u;

enum class NodeKind { kHost, kSwitch, kRouter };

struct NetNode {
  NetNodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kHost;
  std::string name;
  std::vector<LinkId> out_links;  // directed links leaving this node
};

struct DirectedLink {
  LinkId id = kInvalidLink;
  NetNodeId from = kInvalidNode;
  NetNodeId to = kInvalidNode;
  double capacity_bps = 0;
  sim::Duration delay;  // propagation + store-and-forward latency
  bool up = true;
  // Probability that a flow crossing this link is dropped at admission
  // (lossy-link chaos mode). 0 = clean link.
  double loss_p = 0;

  // Live allocation state (maintained by the fair-share allocator).
  double allocated_bps = 0;
  int active_flows = 0;
  // Cumulative bytes carried (monitoring / SDN stats).
  double bytes_carried = 0;
  // Flows this link dropped at admission while lossy. Summed over all links
  // this equals the fabric's flows_lost() counter — an invariant the
  // simulation fuzzer's fabric-conservation probe checks every sweep.
  std::uint64_t flows_dropped = 0;

  double utilization() const {
    return capacity_bps > 0 ? allocated_bps / capacity_bps : 0.0;
  }
};

class Fabric;

// Computes the path a new flow takes. Implemented by the static shortest-path
// router and by the OpenFlow/SDN controller (net/sdn.h).
class RoutingProvider {
 public:
  virtual ~RoutingProvider() = default;
  // Replaces `*path` with the directed link ids from src to dst, or leaves
  // it empty when dst is unreachable. The fabric passes the path vector of
  // the flow's recycled record, so a router that writes hop by hop reuses
  // its capacity and allocates nothing once the pool is warm.
  virtual void route(Fabric& fabric, NetNodeId src, NetNodeId dst,
                     FlowId flow, std::vector<LinkId>* path) = 0;
  // Notified when a flow finishes or is cancelled (lets SDN age rules).
  virtual void on_flow_end(FlowId /*flow*/) {}
  // Notified when a directed link's properties (capacity) change so cached
  // routing state chosen under the old properties can be invalidated. Not
  // fired for up/down transitions — those are already handled lazily by the
  // providers' dead-link checks.
  virtual void on_link_changed(LinkId /*link*/) {}
};

// Completion callback. `delay` is the propagation delay of the path the flow
// was admitted on, kept across reroutes (kLoopbackDelay for src == dst, zero
// when no path was admitted). success=false when the flow was failed by a
// link cut with no alternative route, dropped by a lossy link, or cancelled.
using FlowCallback = std::function<void(sim::Duration delay, bool success)>;

struct FlowSpec {
  NetNodeId src = kInvalidNode;
  NetNodeId dst = kInvalidNode;
  double bytes = 0;
  FlowCallback on_complete;  // may be empty
};

// Which bandwidth solver runs on flow add/remove/link-change.
enum class SolverMode {
  // Dirty-set incremental solver (default): re-solves only the connected
  // component of links reachable from the changed links through shared
  // flows, with a constant-time fast tier for uncontended paths. Flows
  // outside the component keep their rates and completion events untouched.
  kIncremental,
  // Whole-fabric progressive filling on every change — the original
  // algorithm, kept as the in-tree reference oracle for differential tests.
  kFullOracle,
};

// Deterministic work counters for the bandwidth solver. Plain values (not
// registry counters) so they never perturb metrics snapshots or digests;
// tests use deltas of these to pin algorithmic cost without wall clocks.
// picloud-lint: allow(metrics-registry)
struct FabricSolverStats {
  std::uint64_t solves = 0;            // solver invocations, any tier
  std::uint64_t full_solves = 0;       // whole-fabric progressive fillings
  std::uint64_t component_solves = 0;  // dirty-set component re-solves
  std::uint64_t fast_path = 0;         // uncontended-path constant-tier hits
  std::uint64_t component_links = 0;   // links swept by component re-solves
  std::uint64_t component_flows = 0;   // flows swept by component re-solves
  std::uint64_t flow_visits = 0;       // flows touched fixing bottlenecks
  std::uint64_t heap_ops = 0;          // share-heap pushes + pops
  std::uint64_t link_scans = 0;        // per-round link evaluations (oracle)
};

class Fabric {
 public:
  explicit Fabric(sim::Simulation& sim);
  // Completion events capture `this` and a flow record, and the per-link
  // flow lists point at records, so a fabric never moves or copies.
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- Topology construction -----------------------------------------------
  // Pre-sizes the node/link/flow-list arrays. Generated topologies (fat-tree
  // k=16 is ~1.3k nodes, ~6.3k directed links) call this with exact counts
  // so construction never rehashes or reallocates mid-build.
  void reserve_topology(size_t nodes, size_t link_pairs);
  NetNodeId add_node(NodeKind kind, std::string name);
  // Adds a full-duplex link (two directed links). Returns {a->b, b->a}.
  std::pair<LinkId, LinkId> add_link(NetNodeId a, NetNodeId b,
                                     double capacity_bps, sim::Duration delay);
  // Installs the routing provider (not owned). Defaults to static BFS
  // shortest path when none is set.
  void set_routing(RoutingProvider* routing) { routing_ = routing; }
  RoutingProvider* routing() const { return routing_; }

  // --- Introspection --------------------------------------------------------
  const NetNode& node(NetNodeId id) const { return nodes_[id]; }
  const DirectedLink& link(LinkId id) const { return links_[id]; }
  // Const view of every directed link — per-link byte/drop counters for
  // monitoring and the invariant checker.
  const std::vector<DirectedLink>& links() const { return links_; }
  size_t node_count() const { return nodes_.size(); }
  size_t link_count() const { return links_.size(); }
  std::optional<NetNodeId> find_node(const std::string& name) const;
  // The reverse direction of a directed link.
  LinkId reverse(LinkId id) const;
  size_t active_flow_count() const { return live_.size(); }
  // Ids of all active flows, ascending. For invariant probes and tests.
  std::vector<FlowId> active_flow_ids() const;
  // Number of active flows whose path crosses a directed link (from the
  // solver's per-link flow lists; cross-checked against the active_flows
  // gauge by the fabric-conservation probe).
  size_t link_flow_count(LinkId id) const {
    return id < link_flows_.size() ? link_flows_[id].size() : 0;
  }
  sim::Simulation& simulation() { return sim_; }

  // BFS shortest path over up links (deterministic neighbour order).
  // Returns directed link ids, empty if unreachable or src == dst.
  std::vector<LinkId> shortest_path(NetNodeId src, NetNodeId dst) const;
  // All equal-cost (minimum-hop) paths, up to `max_paths`, deterministic
  // order. Used by ECMP and congestion-aware SDN policies.
  std::vector<std::vector<LinkId>> equal_cost_paths(NetNodeId src,
                                                    NetNodeId dst,
                                                    size_t max_paths = 16) const;
  // Sum of link delays along a path.
  sim::Duration path_delay(const std::vector<LinkId>& path) const;
  bool path_up(const std::vector<LinkId>& path) const;

  // --- Failure injection ----------------------------------------------------
  // Takes both directions of the full-duplex pair up/down and reroutes or
  // fails the flows crossing it.
  void set_link_pair_up(LinkId id, bool up);
  // Marks both directions of the pair lossy: each new flow whose path
  // crosses the link is dropped with probability `loss_p` (the drop fires
  // the completion callback with success=false, like an unreachable path).
  // Draws come from a dedicated deterministic rng stream that is consumed
  // only when a lossy link is actually on the path, so simulations that
  // never enable loss keep bit-identical rng state.
  void set_link_pair_loss(LinkId id, double loss_p);
  // Reseeds the loss stream (chaos injectors tie it to their own seed).
  void seed_loss_rng(std::uint64_t seed) { loss_rng_ = util::Rng(seed); }
  // Changes the capacity of both directions of a full-duplex pair and
  // re-solves the affected component. Notifies the routing provider via
  // on_link_changed so congestion-aware cached paths can be invalidated.
  void set_link_pair_capacity(LinkId id, double capacity_bps);

  // --- Solver ---------------------------------------------------------------
  // Switches between the incremental solver and the whole-fabric oracle.
  // Both produce bit-identical rates; the oracle exists so differential
  // tests can prove that. Switch only while no flows are active (the
  // incremental bookkeeping is maintained in both modes, so this is not
  // strictly required, but keeps comparisons clean).
  void set_solver_mode(SolverMode mode) { mode_ = mode; }
  SolverMode solver_mode() const { return mode_; }
  // Reference oracle: settles every flow and re-runs whole-fabric
  // progressive filling. Production code must not call this — the analyzer
  // flags it outside fabric.cc/tests (escape: allow(full-solve)).
  void reallocate_full();
  // Deterministic solver work counters (monotonic; never reset).
  const FabricSolverStats& solver_stats() const { return stats_; }

  // --- Flows -----------------------------------------------------------------
  // Starts a byte flow. Completion fires when the last byte has been
  // serialised at the fair-share rate; the callback carries the admitted
  // path's propagation delay, which the messaging layer adds before
  // delivery. A flow between unreachable endpoints fails immediately
  // (callback with success=false, scheduled, not inline). src == dst
  // completes after a loopback delay.
  FlowId start_flow(FlowSpec spec);
  // Cancels a flow; its callback fires with success=false.
  void cancel_flow(FlowId id);
  // The path assigned to an active flow (empty if finished/unknown).
  std::vector<LinkId> flow_path(FlowId id) const;
  double flow_rate_bps(FlowId id) const;

  // --- Monitoring ------------------------------------------------------------
  // Instantaneous utilisation in [0,1] of the most loaded link.
  double max_link_utilization() const;
  // Total bytes carried across all links (each hop counted).
  double total_bytes_carried() const;
  // Flow accounting lives in the registry under `net.fabric.*`; these
  // accessors read the same counters.
  std::uint64_t flows_started() const { return flows_started_->value(); }
  std::uint64_t flows_completed() const { return flows_completed_->value(); }
  std::uint64_t flows_failed() const { return flows_failed_->value(); }
  // Subset of flows_failed(): dropped by a lossy link at admission.
  std::uint64_t flows_lost() const { return flows_lost_->value(); }

  static constexpr sim::Duration kLoopbackDelay = sim::Duration::micros(20);

 private:
  // A flow's state, in a pooled record: a handle stays valid for the flow's
  // lifetime, and a new flow routes into the path vector an ended one left
  // behind.
  struct Flow {
    FlowId id = 0;
    FlowSpec spec;
    std::vector<LinkId> path;
    // Propagation delay of the path the flow was admitted on; a reroute
    // keeps it (the callback's `delay`).
    sim::Duration delay;
    double remaining_bytes = 0;
    double rate_bps = 0;
    // Rate the live completion event was computed with (reschedule guard).
    double scheduled_rate = -1;
    sim::SimTime last_update;
    sim::Timer completion;
    // Component-BFS visit stamp (solver scratch; see solve_component).
    std::uint32_t mark_epoch = 0;
  };

  // Charges elapsed transfer against remaining bytes and link counters.
  void settle(Flow& flow);
  // Settles every active flow to now, in flow-id order. Runs before every
  // solve, full or partial: remaining-byte rounding trajectories (and thus
  // completion times) depend on the settle cadence, so partial re-solves
  // must keep the oracle's cadence to stay bit-identical.
  void settle_all();
  // Cancels/reschedules a flow's completion event after a rate change
  // (no-op when the rate is unchanged — the reschedule guard).
  void schedule_completion(Flow& flow);
  // Merges `seed` into the pending dirty set, settles, and re-solves: the
  // dirty component under kIncremental, the whole fabric under kFullOracle.
  void resolve_after_change(const std::vector<LinkId>& seed);
  // Progressive filling restricted to the connected component of links
  // reachable from the pending dirty set through shared flows.
  void solve_component();
  // Whole-fabric progressive filling (shared by reallocate_full()).
  void run_filling_full();
  // Constant tier: true when every path link carries exactly one flow.
  bool path_uncontended(const std::vector<LinkId>& path) const;
  // Ends a live flow: its completion event is cancelled (or is the one
  // firing), it leaves its link lists and live_, the solver runs, and its
  // record goes back on the free list before its callback fires.
  void finish_flow(Flow* flow, bool success);
  // A record for flow `id`: a recycled one when there is one.
  Flow* acquire_record(FlowId id);
  // Resets every field of `flow` but its path's capacity (a leftover
  // scheduled_rate would trip the reschedule guard) and puts it on the free
  // list.
  void release_record(Flow* flow);
  // The live flow with `id` (binary search of live_), or null once it ended.
  Flow* find_live(FlowId id) const;
  // Inserts `flow` into / removes it from the flow lists of `path`'s links,
  // at its ascending-id position (binary search).
  void link_path(Flow& flow, const std::vector<LinkId>& path);
  void unlink_path(const Flow& flow, const std::vector<LinkId>& path);
  // Writes the route from src to dst into `*path` (empty: unreachable).
  void route_flow(NetNodeId src, NetNodeId dst, FlowId id,
                  std::vector<LinkId>* path);

  sim::Simulation& sim_;
  std::vector<NetNode> nodes_;
  std::vector<DirectedLink> links_;
  RoutingProvider* routing_ = nullptr;
  // Every flow record ever made (the pool's high water); deque elements
  // never move.
  std::deque<Flow> records_;
  std::vector<Flow*> free_records_;
  // The active flows in ascending id: admission appends (a new flow has
  // the largest id), an ending flow is erased by binary search. Settles,
  // the oracle and every id lookup walk this, in the order the solver's
  // bit-identity depends on (DESIGN.md §14.2).
  std::vector<Flow*> live_;
  FlowId next_flow_id_ = 1;
  SolverMode mode_ = SolverMode::kIncremental;
  FabricSolverStats stats_;
  // The flows crossing each directed link, as record handles kept in
  // ascending flow id: bottleneck rounds fix flows in the oracle's live_
  // order. Admission appends; a reroute inserts by binary search. A flow
  // leaves its lists before its record is recycled.
  std::vector<std::vector<Flow*>> link_flows_;
  // Links whose flow lists or properties changed since the last solve.
  // Mutations (reroutes mid link-cut) accumulate here; the next solve
  // consumes it as the component seed.
  std::vector<LinkId> pending_dirty_;
  // Solver scratch, reused across solves so steady state never allocates.
  std::vector<LinkId> comp_links_;
  std::vector<Flow*> comp_flows_;
  std::vector<LinkId> bfs_stack_;
  std::vector<double> residual_;
  std::vector<int> unfixed_;
  std::vector<std::pair<double, LinkId>> share_heap_;
  std::vector<std::uint32_t> link_epoch_;
  std::uint32_t epoch_ = 0;
  // Registry counter handles under `net.fabric.*` (never null).
  util::Counter* flows_started_ = nullptr;
  util::Counter* flows_completed_ = nullptr;
  util::Counter* flows_failed_ = nullptr;
  util::Counter* flows_lost_ = nullptr;
  util::Counter* reroutes_ = nullptr;  // flows repathed after a link cut
  // Dedicated loss stream: fixed default seed (overridable via
  // seed_loss_rng) rather than a fork of the root rng, so constructing a
  // fabric never perturbs the simulation's root stream.
  util::Rng loss_rng_{0x9e3779b97f4a7c15ull};
};

}  // namespace picloud::net
