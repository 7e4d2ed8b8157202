// Ablation A3 — SDN routing policy on the OpenFlow aggregation layer.
//
// Paper §IV: "the PiCloud is SDN-ready with OpenFlow switches forming the
// aggregation layer ... Such a global view of the network will enhance
// overall resource management". The harness offers identical inter-rack
// traffic under three controller policies and reports achieved throughput,
// flow completion times, peak link utilisation and control-plane activity.
#include <cstdio>

#include "apps/loadgen.h"
#include "net/sdn.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace picloud;

namespace {

struct Outcome {
  double fct_p50_ms = 0;
  double fct_p99_ms = 0;
  double peak_util = 0;
  std::uint64_t completed = 0;
  std::uint64_t packet_ins = 0;
  std::uint64_t table_hits = 0;
  std::uint64_t rules_installed = 0;
};

// policy_index 0..2 = SDN policies; 3 = the pre-SDN spanning-tree L2 fabric.
Outcome run_policy(int policy_index) {
  sim::Simulation sim(555);
  net::Fabric fabric(sim);
  net::Topology topo =
      net::build_multi_root_tree(fabric, net::MultiRootTreeConfig{});
  net::SdnPolicy policies[3] = {net::SdnPolicy::kShortestPath,
                                net::SdnPolicy::kEcmp,
                                net::SdnPolicy::kLeastCongested};
  net::SdnController controller(
      sim, policies[policy_index < 3 ? policy_index : 0]);
  net::SpanningTreeRouting stp;
  if (policy_index < 3) {
    fabric.set_routing(&controller);
  } else {
    fabric.set_routing(&stp);
  }

  util::Rng rng(17);
  util::Histogram fct;
  Outcome out;

  // 800 inter-rack flows of 2 MB, Poisson arrivals at 150/s: ~2.4 Gb/s
  // offered, which saturates a single 2 Gb/s aggregation root but fits the
  // 4 Gb/s the two roots provide together (sources can offer at most
  // 28 x 100 Mb = 2.8 Gb/s).
  int launched = 0;
  std::function<void()> launch_next = [&]() {
    if (launched >= 800) return;
    ++launched;
    sim.after(sim::Duration::seconds(rng.exponential(1.0 / 150)), [&]() {
      size_t src = static_cast<size_t>(rng.uniform_int(0, 27));
      size_t dst = static_cast<size_t>(rng.uniform_int(28, 55));
      net::FlowSpec spec;
      spec.src = topo.hosts[src];
      spec.dst = topo.hosts[dst];
      spec.bytes = 2e6;
      sim::SimTime start = sim.now();
      spec.on_complete = [&, start](sim::Duration, bool success) {
        if (success) {
          ++out.completed;
          fct.add((sim.now() - start).to_millis());
        }
      };
      fabric.start_flow(std::move(spec));
      launch_next();
    });
  };
  launch_next();

  // Sample peak utilisation while the storm runs.
  util::RunningStats peak;
  for (int tick = 0; tick < 30; ++tick) {
    sim.run_until(sim.now() + sim::Duration::seconds(1));
    peak.add(fabric.max_link_utilization());
  }
  sim.run();

  out.fct_p50_ms = fct.median();
  out.fct_p99_ms = fct.p99();
  out.peak_util = peak.max();
  out.packet_ins = sim.metrics().counter_value("net.sdn.packet_ins");
  out.table_hits = sim.metrics().counter_value("net.sdn.table_hits");
  out.rules_installed = sim.metrics().counter_value("net.sdn.rules_installed");
  return out;
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("ABLATION A3 — SDN policy on the aggregation layer\n");
  std::printf("(800 x 2 MB inter-rack flows, Poisson 150/s, 2 OpenFlow roots)\n");
  std::printf("==============================================================\n\n");
  std::printf("%-16s %9s %9s %9s %10s %10s %9s\n", "policy", "p50 ms",
              "p99 ms", "done", "packet-in", "tbl hits", "rules");

  Outcome results[4];
  const char* labels[4] = {"shortest-path", "ecmp", "least-congested",
                           "spanning-tree*"};
  for (int i = 0; i < 4; ++i) {
    results[i] = run_policy(i);
    std::printf("%-16s %9.1f %9.1f %9llu %10llu %10llu %9llu\n", labels[i],
                results[i].fct_p50_ms, results[i].fct_p99_ms,
                static_cast<unsigned long long>(results[i].completed),
                static_cast<unsigned long long>(results[i].packet_ins),
                static_cast<unsigned long long>(results[i].table_hits),
                static_cast<unsigned long long>(results[i].rules_installed));
  }
  std::printf("  (* the pre-SDN L2 baseline: redundant root blocked by STP)\n");

  std::printf("\nExpected shape: single shortest path pins every inter-rack\n"
              "flow onto one aggregation root (congested, slow tail); ECMP\n"
              "hashes pairs across both roots; the congestion-aware policy\n"
              "places each new flow on the emptier root.\n");
  bool multipath_beats_single =
      results[1].fct_p50_ms < results[0].fct_p50_ms &&
      results[2].fct_p50_ms < results[0].fct_p50_ms;
  std::printf("  ECMP and least-congested beat shortest-path on median FCT: "
              "%s\n",
              multipath_beats_single ? "HOLDS" : "DOES NOT HOLD");
  bool aware_at_least_ecmp =
      results[2].fct_p99_ms <= results[1].fct_p99_ms * 1.25;
  std::printf("  least-congested tail <= ~ECMP tail: %s\n",
              aware_at_least_ecmp ? "HOLDS" : "DOES NOT HOLD");
  bool stp_worst = results[3].fct_p50_ms >= results[0].fct_p50_ms;
  std::printf("  spanning-tree is the slowest fabric (why OpenFlow, SII-A): "
              "%s\n",
              stp_worst ? "HOLDS" : "DOES NOT HOLD");
  return multipath_beats_single && stp_worst ? 0 : 1;
}
