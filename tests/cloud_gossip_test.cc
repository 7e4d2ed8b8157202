// Gossip (peer-to-peer management) tests: epidemic convergence, liveness by
// version staleness, failure detection, cost accounting, and the
// facade-level integration on a full cloud.
#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "cloud/gossip.h"
#include "net/topology.h"
#include "util/strings.h"

namespace picloud::cloud {
namespace {

// A standalone mesh over a single-rack fabric (no daemons needed).
struct GossipWorld {
  sim::Simulation sim{5};
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  std::vector<std::unique_ptr<GossipAgent>> agents;
  std::vector<net::Ipv4Addr> ips;
  std::vector<std::string> names;

  explicit GossipWorld(int n, GossipConfig config = {}) {
    topo = net::build_single_rack(fabric, n);
    for (int i = 0; i < n; ++i) {
      names.push_back("pi-" + std::to_string(i));
      ips.push_back(net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i + 1)));
      network.bind_ip(ips[i], topo.hosts[i]);
      agents.push_back(std::make_unique<GossipAgent>(
          network, config, util::Rng(100 + i)));
    }
    // Ring seeding: each node knows only its neighbour.
    for (int i = 0; i < n; ++i) {
      agents[i]->add_seed(names[(i + 1) % n], ips[(i + 1) % n]);
      agents[i]->start(names[i], ips[i]);
    }
  }
};

TEST(Gossip, MembershipConvergesEpidemically) {
  GossipWorld w(8);
  // Each agent starts knowing 2 nodes (self + ring neighbour); after a few
  // rounds everyone knows everyone.
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(10));
  for (auto& agent : w.agents) {
    EXPECT_EQ(agent->known_members(), 8u);
    EXPECT_EQ(agent->live_members(), 8u);
  }
}

TEST(Gossip, LoadFiguresPropagate) {
  GossipWorld w(5);
  w.agents[3]->update_self(0.75, 123 << 20, 2);
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(10));
  auto seen = w.agents[0]->entry("pi-3");
  ASSERT_TRUE(seen.has_value());
  EXPECT_DOUBLE_EQ(seen->cpu, 0.75);
  EXPECT_EQ(seen->mem_used, 123ull << 20);
  EXPECT_EQ(seen->containers, 2);
}

TEST(Gossip, SilentNodeIsSuspectedWithinWindow) {
  GossipConfig config;
  config.suspect_after = sim::Duration::seconds(5);
  GossipWorld w(6, config);
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(10));
  ASSERT_EQ(w.agents[0]->live_members(), 6u);
  // Node 4 goes dark.
  w.agents[4]->stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(8));
  EXPECT_FALSE(w.agents[0]->alive("pi-4"));
  EXPECT_FALSE(w.agents[2]->alive("pi-4"));
  // Everyone else still fresh.
  EXPECT_TRUE(w.agents[0]->alive("pi-1"));
  EXPECT_EQ(w.agents[0]->live_members(), 5u);
}

TEST(Gossip, MessageCostIsFanoutBounded) {
  GossipConfig config;
  config.fanout = 2;
  config.period = sim::Duration::seconds(1);
  GossipWorld w(10, config);
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(20));
  for (auto& agent : w.agents) {
    // <= fanout messages per round.
    EXPECT_LE(agent->messages_sent(), agent->rounds() * 2);
    EXPECT_GT(agent->merges_applied(), 0u);
  }
}

TEST(Gossip, RestartedAgentRejoins) {
  GossipConfig config;
  config.suspect_after = sim::Duration::seconds(5);
  GossipWorld w(4, config);
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(8));
  w.agents[2]->stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(8));
  ASSERT_FALSE(w.agents[0]->alive("pi-2"));
  w.agents[2]->start("pi-2", w.ips[2]);
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(8));
  EXPECT_TRUE(w.agents[0]->alive("pi-2"));
}

// Pinned exactly: every digest is charged its encoded length on every link
// it crosses, so a digest that sizes one byte differently moves the total.
TEST(Gossip, FabricBytesAfterFixedRoundsArePinned) {
  GossipWorld w(5);
  w.agents[1]->update_self(0.375, 123 << 20, 2);
  w.agents[3]->update_self(1.0 / 3.0, 7, 1);
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(12));
  EXPECT_EQ(w.agents[0]->known_members(), 5u);
  EXPECT_EQ(w.fabric.total_bytes_carried(), 80849.768749999988)
      << util::format("%.17g", w.fabric.total_bytes_carried());
}

TEST(Gossip, FullCloudIntegration) {
  sim::Simulation sim(6);
  PiCloudConfig config;
  config.racks = 2;
  config.hosts_per_rack = 4;
  PiCloud cloud(sim, config);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  EXPECT_FALSE(cloud.gossip_enabled());
  cloud.start_gossip();
  EXPECT_TRUE(cloud.gossip_enabled());
  cloud.run_for(sim::Duration::seconds(15));
  // Ask an arbitrary Pi for the cluster view: it knows all 8 members.
  GossipAgent* agent = cloud.gossip_agent(5);
  ASSERT_NE(agent, nullptr);
  EXPECT_EQ(agent->known_members(), 8u);
  EXPECT_EQ(agent->live_members(), 8u);
  // Crash a node (and silence its agent): peers notice without pimaster.
  cloud.daemon(0).crash();
  cloud.stop_gossip_agent(0);
  cloud.run_for(sim::Duration::seconds(15));
  EXPECT_FALSE(agent->alive(cloud.node(0).hostname()));
  EXPECT_EQ(agent->live_members(), 7u);
}

}  // namespace
}  // namespace picloud::cloud
