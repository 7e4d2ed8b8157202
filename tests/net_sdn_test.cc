// SDN controller tests: reactive rule installation, table hits, idle
// eviction, policy behaviour, failure recovery (paper §II-A / §IV).
#include <gtest/gtest.h>

#include <set>

#include "net/sdn.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace picloud::net {
namespace {

struct SdnWorld {
  sim::Simulation sim;
  Fabric fabric{sim};
  Topology topo;
  std::unique_ptr<SdnController> controller;

  explicit SdnWorld(SdnPolicy policy) {
    topo = build_multi_root_tree(fabric, MultiRootTreeConfig{});
    controller = std::make_unique<SdnController>(sim, policy);
    fabric.set_routing(controller.get());
  }

  FlowId flow(size_t src, size_t dst, double bytes = 1e6) {
    FlowSpec spec;
    spec.src = topo.hosts[src];
    spec.dst = topo.hosts[dst];
    spec.bytes = bytes;
    return fabric.start_flow(std::move(spec));
  }
};

TEST(FlowTable, InstallLookupEvict) {
  sim::Simulation sim;
  FlowTable table;
  table.install(1, 2, 10, sim.now());
  EXPECT_EQ(table.lookup(1, 2, sim.now()), std::optional<LinkId>(10));
  EXPECT_EQ(table.lookup(2, 1, sim.now()), std::nullopt);
  EXPECT_EQ(table.size(), 1u);
  size_t evicted =
      table.evict_idle(sim.now() + sim::Duration::seconds(60),
                       sim::Duration::seconds(30));
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, LookupRefreshesIdleTimer) {
  sim::Simulation sim;
  FlowTable table;
  table.install(1, 2, 10, sim.now());
  sim::SimTime later = sim.now() + sim::Duration::seconds(25);
  EXPECT_TRUE(table.lookup(1, 2, later).has_value());
  // 35s after install but only 10s after last use: survives a 30s timeout.
  size_t evicted = table.evict_idle(sim.now() + sim::Duration::seconds(35),
                                    sim::Duration::seconds(30));
  EXPECT_EQ(evicted, 0u);
}

TEST(SdnController, FirstFlowPacketInThenTableHits) {
  SdnWorld world(SdnPolicy::kShortestPath);
  world.flow(0, 14);
  EXPECT_EQ(world.sim.metrics().counter_value("net.sdn.packet_ins"), 1u);
  EXPECT_GT(world.sim.metrics().counter_value("net.sdn.rules_installed"), 0u);
  // Same pair again: served from the installed rules.
  world.flow(0, 14);
  EXPECT_EQ(world.sim.metrics().counter_value("net.sdn.packet_ins"), 1u);
  EXPECT_EQ(world.sim.metrics().counter_value("net.sdn.table_hits"), 1u);
  world.sim.run();
}

TEST(SdnController, RulesInstalledOnEverySwitchOnPath) {
  SdnWorld world(SdnPolicy::kShortestPath);
  FlowId id = world.flow(0, 14);  // inter-rack: ToR, agg, ToR = 3 switches
  auto path = world.fabric.flow_path(id);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(world.sim.metrics().counter_value("net.sdn.rules_installed"), 3u);
  EXPECT_EQ(world.controller->total_rules(), 3u);
  world.sim.run();
}

TEST(SdnController, EcmpSpreadsPairsAcrossRoots) {
  SdnWorld world(SdnPolicy::kEcmp);
  std::set<NetNodeId> roots_used;
  // Many distinct inter-rack pairs: hashing should use both agg roots.
  for (size_t src = 0; src < 14; ++src) {
    FlowId id = world.flow(src, 14 + src);
    auto path = world.fabric.flow_path(id);
    ASSERT_EQ(path.size(), 4u);
    // Second hop lands on the aggregation switch.
    roots_used.insert(world.fabric.link(path[1]).to);
  }
  EXPECT_EQ(roots_used.size(), 2u) << "ECMP failed to use both roots";
  world.sim.run();
}

TEST(SdnController, ShortestPathPinsAllPairsToOneRoot) {
  SdnWorld world(SdnPolicy::kShortestPath);
  std::set<NetNodeId> roots_used;
  for (size_t src = 0; src < 14; ++src) {
    FlowId id = world.flow(src, 14 + src);
    auto path = world.fabric.flow_path(id);
    ASSERT_EQ(path.size(), 4u);
    roots_used.insert(world.fabric.link(path[1]).to);
  }
  EXPECT_EQ(roots_used.size(), 1u);
  world.sim.run();
}

TEST(SdnController, LeastCongestedAvoidsTheLoadedRoot) {
  SdnWorld world(SdnPolicy::kLeastCongested);
  // Saturate one root with a long flow, then route a second pair.
  FlowId first = world.flow(0, 14, 1e12);
  auto first_path = world.fabric.flow_path(first);
  ASSERT_EQ(first_path.size(), 4u);
  NetNodeId loaded_root = world.fabric.link(first_path[1]).to;

  FlowId second = world.flow(1, 15, 1e12);
  auto second_path = world.fabric.flow_path(second);
  ASSERT_EQ(second_path.size(), 4u);
  EXPECT_NE(world.fabric.link(second_path[1]).to, loaded_root);
  world.fabric.cancel_flow(first);
  world.fabric.cancel_flow(second);
  world.sim.run();
}

TEST(SdnController, LinkFailureInvalidatesStaleRulesAndReroutes) {
  SdnWorld world(SdnPolicy::kShortestPath);
  FlowId id = world.flow(0, 14, 1e12);
  auto path = world.fabric.flow_path(id);
  ASSERT_EQ(path.size(), 4u);
  // Cut the ToR->agg uplink the flow uses.
  world.fabric.set_link_pair_up(path[1], false);
  auto new_path = world.fabric.flow_path(id);
  ASSERT_EQ(new_path.size(), 4u);
  EXPECT_NE(new_path[1], path[1]);
  EXPECT_GE(world.sim.metrics().counter_value("net.sdn.packet_ins"), 2u);
  world.fabric.cancel_flow(id);
  world.sim.run();
}

TEST(SdnController, IdleEvictionReclaimsRules) {
  SdnWorld world(SdnPolicy::kShortestPath);
  world.flow(0, 14, 100);
  world.sim.run();
  EXPECT_GT(world.controller->total_rules(), 0u);
  world.controller->evict_idle(world.sim.now() + sim::Duration::seconds(60));
  EXPECT_EQ(world.controller->total_rules(), 0u);
  EXPECT_GT(world.sim.metrics().counter_value("net.sdn.rules_evicted"), 0u);
}

TEST(FlowTable, RemoveByLinkDropsOnlyMatchingRules) {
  sim::Simulation sim;
  FlowTable table;
  table.install(1, 2, 10, sim.now());
  table.install(1, 3, 10, sim.now());
  table.install(2, 3, 11, sim.now());
  EXPECT_EQ(table.remove_by_link(10), 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.lookup(2, 3, sim.now()).has_value());
  EXPECT_EQ(table.remove_by_link(10), 0u);
}

TEST(SdnController, CapacityChangeEvictsRulesOverThatLink) {
  // A capacity change fires RoutingProvider::on_link_changed, which must
  // evict the rules forwarding over the changed link so a congestion-aware
  // policy can re-route the next packet-in — without disturbing rules
  // elsewhere in the fabric.
  SdnWorld world(SdnPolicy::kLeastCongested);
  FlowId id = world.flow(0, 14, 1e9);
  const util::MetricsRegistry& m = world.sim.metrics();
  const std::uint64_t installed = m.counter_value("net.sdn.rules_installed");
  ASSERT_GT(installed, 0u);
  ASSERT_EQ(m.counter_value("net.sdn.rules_evicted"), 0u);

  // Halve a switch-to-switch link on the installed path.
  auto path = world.fabric.flow_path(id);
  ASSERT_GE(path.size(), 3u);
  LinkId mid = path[1];
  world.fabric.set_link_pair_capacity(
      mid, world.fabric.link(mid).capacity_bps / 2);
  EXPECT_GT(m.counter_value("net.sdn.rules_evicted"), 0u);
  EXPECT_LT(m.counter_value("net.sdn.rules_evicted"), installed)
      << "rules off the changed link must survive";

  world.fabric.cancel_flow(id);
  world.sim.run();
}

TEST(SdnController, AdminInstalledPathOverridesPolicy) {
  SdnWorld world(SdnPolicy::kShortestPath);
  // Find the two equal-cost paths and pin traffic to the second.
  auto paths = world.fabric.equal_cost_paths(world.topo.hosts[0],
                                             world.topo.hosts[14]);
  ASSERT_EQ(paths.size(), 2u);
  world.controller->install_path(world.fabric, world.topo.hosts[0],
                                 world.topo.hosts[14], paths[1]);
  FlowId id = world.flow(0, 14, 1e9);
  EXPECT_EQ(world.fabric.flow_path(id), paths[1]);
  EXPECT_EQ(world.sim.metrics().counter_value("net.sdn.packet_ins"), 0u);
  world.fabric.cancel_flow(id);
  world.sim.run();
}

TEST(SdnController, FlushTablesForcesRediscovery) {
  SdnWorld world(SdnPolicy::kShortestPath);
  world.flow(0, 14, 100);
  world.controller->flush_tables();
  world.flow(0, 14, 100);
  EXPECT_EQ(world.sim.metrics().counter_value("net.sdn.packet_ins"), 2u);
  world.sim.run();
}

// --- Spanning-tree baseline (the pre-SDN L2 network) -----------------------

TEST(SpanningTree, BlocksRedundantUplinksAndStillConnects) {
  sim::Simulation sim;
  Fabric fabric(sim);
  Topology topo = build_multi_root_tree(fabric, MultiRootTreeConfig{});
  SpanningTreeRouting stp;
  fabric.set_routing(&stp);

  // Every host pair must be routable through the tree.
  FlowSpec probe;
  probe.src = topo.hosts[0];
  probe.dst = topo.hosts[55];
  probe.bytes = 1;
  FlowId id = fabric.start_flow(std::move(probe));
  EXPECT_FALSE(fabric.flow_path(id).empty());
  sim.run();

  // The multi-root tree has loops (2 roots x 4 ToRs + gateway); a correct
  // spanning tree must block some ports.
  EXPECT_GT(stp.blocked_links().size(), 0u);
  // Blocked links never appear on routes.
  for (size_t s_idx = 0; s_idx < 8; ++s_idx) {
    FlowSpec spec;
    spec.src = topo.hosts[s_idx];
    spec.dst = topo.hosts[55 - s_idx];
    spec.bytes = 1;
    FlowId fid = fabric.start_flow(std::move(spec));
    for (LinkId lid : fabric.flow_path(fid)) {
      EXPECT_EQ(stp.blocked_links().count(lid), 0u);
    }
  }
  sim.run();
}

TEST(SpanningTree, HalvesAggregationCapacityVersusEcmp) {
  // Saturating inter-rack load: ECMP uses both roots, the spanning tree can
  // use only one -> roughly half the aggregate throughput.
  auto measure = [](bool use_stp) {
    sim::Simulation sim(9);
    Fabric fabric(sim);
    Topology topo = build_multi_root_tree(fabric, MultiRootTreeConfig{});
    SdnController sdn(sim, SdnPolicy::kEcmp);
    SpanningTreeRouting stp;
    if (use_stp) {
      fabric.set_routing(&stp);
    } else {
      fabric.set_routing(&sdn);
    }
    // 28 saturating inter-rack flows (one per rack-0/1 host).
    std::vector<FlowId> flows;
    for (int i = 0; i < 28; ++i) {
      FlowSpec spec;
      spec.src = topo.hosts[i];
      spec.dst = topo.hosts[28 + i];
      spec.bytes = 1e12;
      flows.push_back(fabric.start_flow(std::move(spec)));
    }
    double total = 0;
    for (FlowId f : flows) total += fabric.flow_rate_bps(f);
    for (FlowId f : flows) fabric.cancel_flow(f);
    sim.run();
    return total;
  };
  double ecmp = measure(false);
  double stp = measure(true);
  // ECMP is limited by the 28 x 100 Mb host NICs (2.8 Gb/s); the spanning
  // tree is limited by the single root it kept (2 x 1 Gb ToR uplinks).
  EXPECT_NEAR(ecmp, 2.8e9, 1e8);
  EXPECT_NEAR(stp, 2.0e9, 1e8);
}

TEST(SpanningTree, ReconvergesAfterTreeLinkFailure) {
  sim::Simulation sim;
  Fabric fabric(sim);
  Topology topo = build_multi_root_tree(fabric, MultiRootTreeConfig{});
  SpanningTreeRouting stp;
  fabric.set_routing(&stp);
  FlowSpec warm;
  warm.src = topo.hosts[0];
  warm.dst = topo.hosts[55];
  warm.bytes = 1;
  FlowId id = fabric.start_flow(std::move(warm));
  auto path = fabric.flow_path(id);
  ASSERT_FALSE(path.empty());
  sim.run();
  // Kill a switch-to-switch tree link the path used and route again.
  LinkId dead = kInvalidLink;
  for (LinkId lid : path) {
    if (fabric.node(fabric.link(lid).from).kind == NodeKind::kSwitch) {
      dead = lid;
      break;
    }
  }
  ASSERT_NE(dead, kInvalidLink);
  fabric.set_link_pair_up(dead, false);
  stp.invalidate();  // drop the cached tree; the next route must rebuild
  FlowSpec retry;
  retry.src = topo.hosts[0];
  retry.dst = topo.hosts[55];
  retry.bytes = 1;
  FlowId id2 = fabric.start_flow(std::move(retry));
  auto new_path = fabric.flow_path(id2);
  EXPECT_FALSE(new_path.empty());
  EXPECT_TRUE(fabric.path_up(new_path));
  sim.run();
}

}  // namespace
}  // namespace picloud::net
