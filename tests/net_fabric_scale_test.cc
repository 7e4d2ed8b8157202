// fabric-scale: the ROADMAP exit criterion for the incremental solver.
//
// A 1,024-host fat-tree (k=16) carries 10k+ concurrent flows through churn,
// chaos and drain inside tier-1 ctest time. The old whole-fabric eager
// solver made this sweep O(flows x links) per event; the dirty-set
// component re-solve keeps per-event cost proportional to the flows a
// change actually touches. Labelled `fabric-scale` so CI's release leg can
// run it explicitly; skipped under sanitizer builds where the 20k+ solves
// blow the time budget (the same scenarios run at k=8 in the sanitizer
// legs via the fat-tree golden digests in net_fabric_test).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/sdn.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace picloud::net {
namespace {

TEST(FabricScale, FatTreeK16TenThousandFlowSweep) {
#if defined(PICLOUD_SANITIZER_BUILD)
  GTEST_SKIP() << "fabric-scale sweep skipped under PICLOUD_SANITIZE builds: "
                  "the k=16 / 10k-flow sweep exceeds the sanitizer time "
                  "budget; the release leg runs it (ctest -L fabric-scale)";
#else
  sim::Simulation sim;
  Fabric fabric(sim);
  FatTreeConfig cfg;
  cfg.k = 16;
  Topology topo = build_fat_tree(fabric, cfg);
  ASSERT_EQ(topo.hosts.size(), 1024u);
  ASSERT_EQ(topo.tor_switches.size(), 128u);

  // ECMP spreads cross-pod flows across the 64 core switches so components
  // stay bounded by actual sharing, not collapsed onto one spine path.
  SdnController controller(sim, SdnPolicy::kEcmp);
  fabric.set_routing(&controller);

  // 10 rack-local flows per host (8-host edge groups) plus sparse cross-pod
  // traffic from every 64th host. Components in the flow-sharing graph are
  // transitive — one cross-pod flow per host would fuse the whole fabric
  // into a single component and turn every solve global — so the mix
  // mirrors real DC locality: heavy intra-rack churn, light core traffic.
  // Deterministic arithmetic pairing — no rng, so the sweep is bit-stable.
  const int n = static_cast<int>(topo.hosts.size());
  int started = 0;
  std::uint64_t completions = 0;
  auto start = [&](int src, int dst, double bytes) {
    FlowSpec spec;
    spec.src = topo.hosts[static_cast<size_t>(src)];
    spec.dst = topo.hosts[static_cast<size_t>(dst)];
    spec.bytes = bytes;
    spec.on_complete = [&](sim::Duration, bool success) {
      if (success) ++completions;
    };
    fabric.start_flow(std::move(spec));
    ++started;
  };
  for (int i = 0; i < n; ++i) {
    const int edge_base = (i / 8) * 8;
    for (int f = 0; f < 10; ++f) {
      start(i, edge_base + (i - edge_base + 1 + f % 7) % 8, 1e6 + 1e5 * f);
    }
  }
  for (int i = 0; i < n; i += 64) {
    start(i, (i + n / 2) % n, 4e6);      // opposite half, through the core
    start(i, (i + n / 4 + 8) % n, 8e6);  // quarter offset, different pod
  }
  ASSERT_EQ(started, 10272);
  ASSERT_EQ(fabric.active_flow_count(), 10272u) << "every flow admitted";

  // Mid-drain chaos: cut two edge->agg uplinks, heal them later. ECMP
  // reroutes the survivors; the dirty set must absorb both transitions.
  LinkId uplink_a = fabric.node(topo.tor_switches[3]).out_links[0];
  LinkId uplink_b = fabric.node(topo.tor_switches[64]).out_links[1];
  sim.after(sim::Duration::millis(50), [&]() {
    fabric.set_link_pair_up(uplink_a, false);
    fabric.set_link_pair_up(uplink_b, false);
  });
  sim.after(sim::Duration::millis(400), [&]() {
    fabric.set_link_pair_up(uplink_a, true);
    fabric.set_link_pair_up(uplink_b, true);
  });
  // Mid-run conservation probe: gauges vs a from-scratch recomputation.
  sim.after(sim::Duration::millis(200), [&]() {
    std::vector<int> counts(fabric.link_count(), 0);
    std::vector<double> rates(fabric.link_count(), 0.0);
    for (FlowId fid : fabric.active_flow_ids()) {
      double r = fabric.flow_rate_bps(fid);
      for (LinkId lid : fabric.flow_path(fid)) {
        counts[lid] += 1;
        rates[lid] += r;
      }
    }
    for (size_t l = 0; l < fabric.link_count(); ++l) {
      const DirectedLink& link = fabric.link(static_cast<LinkId>(l));
      ASSERT_EQ(link.active_flows, counts[l]) << "link " << l;
      ASSERT_EQ(fabric.link_flow_count(static_cast<LinkId>(l)),
                static_cast<size_t>(counts[l]))
          << "link " << l;
      ASSERT_LE(link.allocated_bps, link.capacity_bps * (1 + 1e-6))
          << "link " << l << " over capacity";
      ASSERT_NEAR(link.allocated_bps, rates[l],
                  std::max(1.0, std::abs(rates[l])) * 1e-6)
          << "link " << l;
    }
  });

  sim.run();

  EXPECT_EQ(fabric.active_flow_count(), 0u);
  EXPECT_EQ(fabric.flows_completed() + fabric.flows_failed(),
            static_cast<std::uint64_t>(started));
  // The cuts may fail a handful of in-flight flows whose reroute lost the
  // race; the overwhelming majority must drain normally.
  EXPECT_GE(completions, static_cast<std::uint64_t>(started) * 99 / 100);

  const FabricSolverStats& st = fabric.solver_stats();
  EXPECT_EQ(st.full_solves, 0u) << "incremental mode never full-solves";
  EXPECT_GT(st.fast_path, 0u);
  EXPECT_GT(st.component_solves, 0u);
  // Solve cost tracked churn, not fleet size: the mean component is a small
  // fraction of the 10k-flow fleet and of the ~6.3k-link fabric.
  const double avg_flows = static_cast<double>(st.component_flows) /
                           static_cast<double>(st.component_solves);
  const double avg_links = static_cast<double>(st.component_links) /
                           static_cast<double>(st.component_solves);
  EXPECT_LT(avg_flows, 1024.0) << "mean component " << avg_flows << " flows";
  EXPECT_LT(avg_links, 1024.0) << "mean component " << avg_links << " links";
#endif
}

TEST(FabricScale, FatTreeK16AnalysisIsSampledAndSane) {
#if defined(PICLOUD_SANITIZER_BUILD)
  GTEST_SKIP() << "fabric-scale analysis skipped under PICLOUD_SANITIZE "
                  "builds (release leg covers it)";
#else
  sim::Simulation sim;
  Fabric fabric(sim);
  FatTreeConfig cfg;
  cfg.k = 16;
  Topology topo = build_fat_tree(fabric, cfg);
  // 1,024 hosts + 320 switches + gateway + internet; 3,072 fabric/host
  // pairs + 65 gateway pairs = 3,137 full-duplex links.
  EXPECT_EQ(fabric.node_count(), 1346u);
  EXPECT_EQ(fabric.link_count(), 2u * 3137u);

  TopologyAnalysis analysis = analyze_topology(fabric, topo);
  EXPECT_TRUE(analysis.fully_connected);
  EXPECT_EQ(analysis.max_hop_count, 6);  // host-edge-agg-core-agg-edge-host
  EXPECT_NEAR(analysis.oversubscription, 1.0, 1e-9);  // non-blocking fabric
  EXPECT_GT(analysis.bisection_bps, 0.0);
  EXPECT_EQ(analysis.switch_count, 320u);
#endif
}

}  // namespace
}  // namespace picloud::net
