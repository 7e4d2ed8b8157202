// Fabric tests: flow completion timing, max-min fairness (including the
// property-based sweep over random topologies, run against both solvers),
// link failure behaviour, recycled flow records, the incremental-vs-oracle
// differential harness, solver step budgets, and the fat-tree golden digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "golden_digests.h"
#include "net/fabric.h"
#include "net/sdn.h"
#include "sim/simulation.h"
#include "testing/runner.h"
#include "testing/scenario.h"
#include "util/faults.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

namespace picloud::net {
namespace {

namespace ptesting = picloud::testing;
namespace support = picloud::testing_support;

struct TwoHosts {
  sim::Simulation sim;
  Fabric fabric{sim};
  NetNodeId a, b, sw;

  explicit TwoHosts(double bps = 100e6) {
    a = fabric.add_node(NodeKind::kHost, "a");
    b = fabric.add_node(NodeKind::kHost, "b");
    sw = fabric.add_node(NodeKind::kSwitch, "sw");
    fabric.add_link(a, sw, bps, sim::Duration::micros(50));
    fabric.add_link(sw, b, bps, sim::Duration::micros(50));
  }
};

TEST(Fabric, SingleFlowFinishesAtLineRate) {
  TwoHosts t(100e6);
  EXPECT_EQ(t.fabric.find_node("b"), std::optional<NetNodeId>(t.b));
  EXPECT_EQ(t.fabric.find_node("ghost"), std::nullopt);
  bool done = false;
  sim::SimTime finish;
  FlowSpec spec;
  spec.src = t.a;
  spec.dst = t.b;
  spec.bytes = 12.5e6;  // 12.5 MB at 100 Mb/s = 1 s serialization
  spec.on_complete = [&](sim::Duration, bool success) {
    done = true;
    EXPECT_TRUE(success);
    finish = t.sim.now();
  };
  t.fabric.start_flow(std::move(spec));
  t.sim.run();
  ASSERT_TRUE(done);
  EXPECT_NEAR(finish.to_seconds(), 1.0, 1e-6);
}

TEST(Fabric, TwoFlowsShareTheBottleneckEqually) {
  TwoHosts t(100e6);
  int completed = 0;
  sim::SimTime last;
  for (int i = 0; i < 2; ++i) {
    FlowSpec spec;
    spec.src = t.a;
    spec.dst = t.b;
    spec.bytes = 12.5e6;
    spec.on_complete = [&](sim::Duration, bool) {
      ++completed;
      last = t.sim.now();
    };
    t.fabric.start_flow(std::move(spec));
  }
  t.sim.run();
  EXPECT_EQ(completed, 2);
  // Each flow gets 50 Mb/s: both finish at ~2 s.
  EXPECT_NEAR(last.to_seconds(), 2.0, 1e-6);
}

TEST(Fabric, LateFlowSpeedsUpWhenEarlyFlowLeaves) {
  TwoHosts t(100e6);
  sim::SimTime small_done, big_done;
  FlowSpec small;
  small.src = t.a;
  small.dst = t.b;
  small.bytes = 6.25e6;  // alone: 0.5s; sharing: 1s
  small.on_complete = [&](sim::Duration, bool) { small_done = t.sim.now(); };
  FlowSpec big;
  big.src = t.a;
  big.dst = t.b;
  big.bytes = 12.5e6;
  big.on_complete = [&](sim::Duration, bool) { big_done = t.sim.now(); };
  t.fabric.start_flow(std::move(small));
  t.fabric.start_flow(std::move(big));
  t.sim.run();
  // Shared until small drains at t=1.0 (6.25MB at 50Mb/s), then big runs at
  // full rate: remaining 6.25MB in 0.5s -> 1.5s total.
  EXPECT_NEAR(small_done.to_seconds(), 1.0, 1e-6);
  EXPECT_NEAR(big_done.to_seconds(), 1.5, 1e-6);
}

TEST(Fabric, LoopbackCompletesWithoutTouchingLinks) {
  TwoHosts t;
  bool done = false;
  FlowSpec spec;
  spec.src = t.a;
  spec.dst = t.a;
  spec.bytes = 1e9;
  spec.on_complete = [&](sim::Duration, bool success) {
    done = true;
    EXPECT_TRUE(success);
  };
  t.fabric.start_flow(std::move(spec));
  t.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(t.fabric.total_bytes_carried(), 0.0);
}

TEST(Fabric, UnreachableDestinationFailsFlow) {
  sim::Simulation sim;
  Fabric fabric(sim);
  NetNodeId a = fabric.add_node(NodeKind::kHost, "a");
  NetNodeId b = fabric.add_node(NodeKind::kHost, "b");  // no links at all
  bool failed = false;
  FlowSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.bytes = 100;
  spec.on_complete = [&](sim::Duration, bool success) { failed = !success; };
  fabric.start_flow(std::move(spec));
  sim.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(fabric.flows_failed(), 1u);
}

TEST(Fabric, CancelFailsTheFlow) {
  TwoHosts t;
  bool success = true;
  FlowSpec spec;
  spec.src = t.a;
  spec.dst = t.b;
  spec.bytes = 1e12;
  spec.on_complete = [&](sim::Duration, bool s) { success = s; };
  FlowId id = t.fabric.start_flow(std::move(spec));
  t.sim.after(sim::Duration::seconds(1),
              [&]() { t.fabric.cancel_flow(id); });
  t.sim.run();
  EXPECT_FALSE(success);
}

// A flow that never enters the fabric (loopback, no route, a lossy drop)
// still waits for its outcome, and cancelling it in that window ends it:
// the callback fires once, at once, with success=false, and never again.
// Each stays counted as start_flow() counted it.
TEST(Fabric, CancelEndsAFlowThatNeverEnteredTheFabric) {
  TwoHosts t;
  NetNodeId island = t.fabric.add_node(NodeKind::kHost, "island");
  t.fabric.set_link_pair_loss(t.fabric.node(t.a).out_links[0], 1.0);
  struct Outcome {
    int calls = 0;
    bool success = true;
    sim::Duration delay;
  };
  const NetNodeId dsts[] = {t.a, island, t.b};  // loopback, no route, lossy
  Outcome outcomes[std::size(dsts)];
  FlowId ids[std::size(dsts)];
  for (size_t i = 0; i < std::size(dsts); ++i) {
    FlowSpec spec;
    spec.src = t.a;
    spec.dst = dsts[i];
    spec.bytes = 1000;
    spec.on_complete = [&out = outcomes[i]](sim::Duration delay, bool ok) {
      ++out.calls;
      out.success = ok;
      out.delay = delay;
    };
    ids[i] = t.fabric.start_flow(std::move(spec));
  }
  EXPECT_EQ(t.fabric.active_flow_count(), 0u);
  for (size_t i = 0; i < std::size(dsts); ++i) {
    SCOPED_TRACE("flow " + std::to_string(i));
    EXPECT_EQ(outcomes[i].calls, 0);
    t.fabric.cancel_flow(ids[i]);
    EXPECT_EQ(outcomes[i].calls, 1);
    EXPECT_FALSE(outcomes[i].success);
    t.fabric.cancel_flow(ids[i]);  // already ended: finds nothing
    EXPECT_EQ(outcomes[i].calls, 1);
  }
  EXPECT_EQ(outcomes[0].delay, Fabric::kLoopbackDelay);
  EXPECT_EQ(outcomes[1].delay, sim::Duration::zero());
  EXPECT_EQ(outcomes[2].delay, sim::Duration::zero());
  t.sim.run();
  for (const Outcome& out : outcomes) EXPECT_EQ(out.calls, 1);
  EXPECT_EQ(t.fabric.flows_completed(), 1u);
  EXPECT_EQ(t.fabric.flows_failed(), 2u);
  EXPECT_EQ(t.fabric.flows_lost(), 1u);
}

TEST(Fabric, LinkCutReroutesOverAlternatePath) {
  // a - s1 - b with a parallel a - s2 - b path one hop longer via s1->s2.
  sim::Simulation sim;
  Fabric fabric(sim);
  NetNodeId a = fabric.add_node(NodeKind::kHost, "a");
  NetNodeId b = fabric.add_node(NodeKind::kHost, "b");
  NetNodeId s1 = fabric.add_node(NodeKind::kSwitch, "s1");
  NetNodeId s2 = fabric.add_node(NodeKind::kSwitch, "s2");
  auto [a_s1, s1_a] = fabric.add_link(a, s1, 100e6, sim::Duration::micros(10));
  fabric.add_link(s1, b, 100e6, sim::Duration::micros(10));
  fabric.add_link(a, s2, 100e6, sim::Duration::micros(10));
  fabric.add_link(s2, b, 100e6, sim::Duration::micros(10));
  (void)s1_a;

  bool done = false;
  bool ok = false;
  FlowSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.bytes = 12.5e6;
  spec.on_complete = [&](sim::Duration, bool success) {
    done = true;
    ok = success;
  };
  fabric.start_flow(std::move(spec));
  sim.after(sim::Duration::millis(100),
            [&]() { fabric.set_link_pair_up(a_s1, false); });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok) << "flow should survive via the alternate path";
}

TEST(Fabric, LinkCutWithNoAlternativeFailsFlow) {
  TwoHosts t;
  bool ok = true;
  bool done = false;
  FlowSpec spec;
  spec.src = t.a;
  spec.dst = t.b;
  spec.bytes = 1e12;
  spec.on_complete = [&](sim::Duration, bool success) {
    done = true;
    ok = success;
  };
  t.fabric.start_flow(std::move(spec));
  LinkId host_link = t.fabric.node(t.a).out_links[0];
  t.sim.after(sim::Duration::seconds(1),
              [&]() { t.fabric.set_link_pair_up(host_link, false); });
  t.sim.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
}

// --- Recycled flow records -------------------------------------------------
//
// An ended flow's record is reused by a later flow. A recycled record must
// start as clean as a new one, and an ended flow's id must no longer reach
// the record.

// Four hosts on one switch.
struct Star {
  sim::Simulation sim;
  Fabric fabric{sim};
  std::vector<NetNodeId> hosts;

  Star() {
    NetNodeId sw = fabric.add_node(NodeKind::kSwitch, "sw");
    for (int i = 0; i < 4; ++i) {
      hosts.push_back(fabric.add_node(NodeKind::kHost, util::format("h%d", i)));
      fabric.add_link(hosts.back(), sw, 100e6, sim::Duration::micros(50));
    }
  }

  FlowId start(int src, int dst, double bytes, FlowCallback on_complete) {
    FlowSpec spec;
    spec.src = hosts[src];
    spec.dst = hosts[dst];
    spec.bytes = bytes;
    spec.on_complete = std::move(on_complete);
    return fabric.start_flow(std::move(spec));
  }
};

// What a fixed schedule of contending flows did, relative to its start.
struct ScheduleOutcome {
  std::vector<std::int64_t> finished_ns;  // per flow; -1 if it never did
  std::vector<double> rates_mid_run;      // flow_rate_bps() 0.5 s in
};

// Starts four flows at fixed offsets: three share h3's downlink, and the
// fourth shares h0's uplink with the first. `mid_run` runs 0.5 s in, after
// the rates are read. Returns once the fabric is idle.
ScheduleOutcome run_contending_schedule(
    Star& s, const std::function<void()>& mid_run = {}) {
  struct Planned {
    double at_s;
    int src;
    int dst;
    double bytes;
  };
  static constexpr Planned kPlan[] = {
      {0.0, 0, 3, 12.5e6},
      {0.1, 1, 3, 6.25e6},
      {0.2, 2, 3, 3e6},
      {0.3, 0, 1, 2e6},
  };
  const sim::SimTime start = s.sim.now();
  ScheduleOutcome out;
  out.finished_ns.assign(std::size(kPlan), -1);
  std::vector<FlowId> ids(std::size(kPlan), 0);
  for (size_t i = 0; i < std::size(kPlan); ++i) {
    s.sim.at(start + sim::Duration::seconds(kPlan[i].at_s), [&, i]() {
      const Planned& p = kPlan[i];
      ids[i] = s.start(p.src, p.dst, p.bytes, [&, i](sim::Duration, bool ok) {
        if (ok) out.finished_ns[i] = (s.sim.now() - start).ns();
      });
    });
  }
  s.sim.at(start + sim::Duration::millis(500), [&]() {
    for (FlowId id : ids) {
      out.rates_mid_run.push_back(s.fabric.flow_rate_bps(id));
    }
    if (mid_run) mid_run();
  });
  s.sim.run();
  return out;
}

TEST(FabricRecords, RecycledRecordsStartClean) {
  Star fresh;
  const ScheduleOutcome expected = run_contending_schedule(fresh);
  for (std::int64_t ns : expected.finished_ns) ASSERT_GT(ns, 0);
  for (double rate : expected.rates_mid_run) ASSERT_GT(rate, 0);

  // Recycle every record the schedule will need: flows that finished, flows
  // that were cancelled, and a flow failed by a link cut, in that order, so
  // the schedule's first flow reuses the cut flow's record.
  Star used;
  std::vector<FlowId> ended;
  int ended_callbacks = 0;
  auto count = [&ended_callbacks](sim::Duration, bool) { ++ended_callbacks; };
  for (int i = 0; i < 4; ++i) {
    ended.push_back(used.start(i, (i + 1) % 4, 1e6, count));
  }
  used.sim.run();
  for (int i = 0; i < 3; ++i) ended.push_back(used.start(i, 3, 1e12, count));
  used.sim.run_for(sim::Duration::millis(10));
  for (size_t i = ended.size() - 3; i < ended.size(); ++i) {
    used.fabric.cancel_flow(ended[i]);
  }
  ended.push_back(used.start(0, 3, 1e12, count));
  used.sim.run_for(sim::Duration::millis(10));
  const LinkId h0_link = used.fabric.node(used.hosts[0]).out_links[0];
  used.fabric.set_link_pair_up(h0_link, false);
  used.fabric.set_link_pair_up(h0_link, true);
  used.sim.run();
  ASSERT_EQ(used.fabric.active_flow_count(), 0u);
  ASSERT_EQ(ended_callbacks, static_cast<int>(ended.size()));
  ASSERT_EQ(used.fabric.flows_failed(), 4u);

  // Mid-run, while the schedule's flows occupy the recycled records, an
  // ended flow's id reaches none of them.
  const ScheduleOutcome recycled = run_contending_schedule(used, [&]() {
    for (FlowId id : ended) {
      EXPECT_EQ(used.fabric.flow_rate_bps(id), 0.0) << "flow " << id;
      EXPECT_TRUE(used.fabric.flow_path(id).empty()) << "flow " << id;
      used.fabric.cancel_flow(id);
    }
  });
  EXPECT_EQ(ended_callbacks, static_cast<int>(ended.size()))
      << "cancel_flow() of an ended flow fired a callback";
  EXPECT_EQ(recycled.finished_ns, expected.finished_ns);
  EXPECT_EQ(recycled.rates_mid_run, expected.rates_mid_run);
}

// --- Property-based max-min fairness ----------------------------------------
//
// On random topologies with random flows, the allocation must satisfy the
// max-min conditions independent of any oracle: (1) no link over capacity;
// (2) every flow is bottlenecked — it crosses at least one saturated link
// where it has the maximal rate among that link's flows; (3) Pareto
// optimality — raising any flow's rate must violate some link (equivalently:
// a flow either crosses a saturated link or runs at its path's line rate).
// Runs against both the incremental solver and the whole-fabric oracle.
class FairnessProperty
    : public ::testing::TestWithParam<std::tuple<int, SolverMode>> {};

TEST_P(FairnessProperty, MaxMinConditionsHold) {
  util::Rng rng(std::get<0>(GetParam()));
  sim::Simulation sim;
  Fabric fabric(sim);
  fabric.set_solver_mode(std::get<1>(GetParam()));

  int hosts = static_cast<int>(rng.uniform_int(3, 8));
  int switches = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<NetNodeId> host_ids, switch_ids;
  for (int i = 0; i < hosts; ++i) {
    host_ids.push_back(fabric.add_node(NodeKind::kHost, "h" + std::to_string(i)));
  }
  for (int i = 0; i < switches; ++i) {
    switch_ids.push_back(
        fabric.add_node(NodeKind::kSwitch, "s" + std::to_string(i)));
  }
  // Ring the switches, attach each host to a random switch; random extra
  // switch-switch links.
  for (int i = 0; i < switches; ++i) {
    if (switches > 1) {
      fabric.add_link(switch_ids[i], switch_ids[(i + 1) % switches],
                      rng.uniform(50e6, 1e9), sim::Duration::micros(20));
    }
  }
  for (auto h : host_ids) {
    fabric.add_link(h, switch_ids[static_cast<size_t>(rng.uniform_int(
                           0, switches - 1))],
                    rng.uniform(10e6, 200e6), sim::Duration::micros(20));
  }

  int flows = static_cast<int>(rng.uniform_int(2, 12));
  std::vector<FlowId> ids;
  for (int i = 0; i < flows; ++i) {
    auto s = static_cast<size_t>(rng.uniform_int(0, hosts - 1));
    auto d = static_cast<size_t>(rng.uniform_int(0, hosts - 1));
    if (s == d) continue;
    FlowSpec spec;
    spec.src = host_ids[s];
    spec.dst = host_ids[d];
    spec.bytes = 1e15;
    ids.push_back(fabric.start_flow(std::move(spec)));
  }

  // Condition 1: no link oversubscribed (within numeric tolerance).
  for (size_t l = 0; l < fabric.link_count(); ++l) {
    const DirectedLink& link = fabric.link(static_cast<LinkId>(l));
    EXPECT_LE(link.allocated_bps, link.capacity_bps * (1 + 1e-9))
        << "link " << l << " over capacity";
  }

  // Condition 2: every active flow has a bottleneck link.
  for (FlowId id : ids) {
    auto path = fabric.flow_path(id);
    if (path.empty()) continue;  // unreachable pairing
    double rate = fabric.flow_rate_bps(id);
    ASSERT_GT(rate, 0.0);
    bool bottlenecked = false;
    for (LinkId lid : path) {
      const DirectedLink& link = fabric.link(lid);
      bool saturated = link.allocated_bps >= link.capacity_bps * (1 - 1e-9);
      if (!saturated) continue;
      // Is this flow's rate maximal on the saturated link?
      bool maximal = true;
      for (FlowId other : ids) {
        if (other == id) continue;
        auto other_path = fabric.flow_path(other);
        if (std::find(other_path.begin(), other_path.end(), lid) ==
            other_path.end()) {
          continue;
        }
        if (fabric.flow_rate_bps(other) > rate * (1 + 1e-9)) maximal = false;
      }
      if (maximal) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << id << " lacks a bottleneck";
  }

  // Condition 3: Pareto optimality. A flow whose path still has residual
  // headroom on every link could be raised without hurting anyone — the
  // allocation would not be max-min. The only escape is a flow already at
  // its path's line rate (narrowest link fully its own).
  for (FlowId id : ids) {
    auto path = fabric.flow_path(id);
    if (path.empty()) continue;
    double rate = fabric.flow_rate_bps(id);
    double min_cap = std::numeric_limits<double>::infinity();
    double min_residual = std::numeric_limits<double>::infinity();
    for (LinkId lid : path) {
      const DirectedLink& link = fabric.link(lid);
      min_cap = std::min(min_cap, link.capacity_bps);
      min_residual =
          std::min(min_residual, link.capacity_bps - link.allocated_bps);
    }
    bool at_line_rate = rate >= min_cap * (1 - 1e-9);
    EXPECT_TRUE(at_line_rate || min_residual <= min_cap * 1e-9)
        << "flow " << id << " has " << min_residual
        << " bps of headroom on every path link (rate " << rate << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTopologies, FairnessProperty,
    ::testing::Combine(::testing::Range(1, 25),
                       ::testing::Values(SolverMode::kIncremental,
                                         SolverMode::kFullOracle)),
    [](const ::testing::TestParamInfo<std::tuple<int, SolverMode>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == SolverMode::kIncremental
                  ? "_incremental"
                  : "_oracle");
    });

// ---------------------------------------------------------------------------
// Per-link loss accounting — the basis of the simulation fuzzer's
// fabric-conservation probe: every admission drop must land on exactly one
// link's odometer, so the per-link sum always equals flows_lost().

std::uint64_t dropped_sum(const Fabric& fabric) {
  std::uint64_t sum = 0;
  for (const DirectedLink& link : fabric.links()) sum += link.flows_dropped;
  return sum;
}

TEST(Fabric, PerLinkDropOdometersSumToFlowsLost) {
  TwoHosts t(100e6);
  t.fabric.set_link_pair_loss(
      t.fabric.links()[0].id, 0.5);  // a<->sw lossy both ways

  int failed = 0;
  for (int i = 0; i < 200; ++i) {
    FlowSpec spec;
    spec.src = t.a;
    spec.dst = t.b;
    spec.bytes = 1000;
    spec.on_complete = [&](sim::Duration, bool success) {
      if (!success) ++failed;
    };
    t.fabric.start_flow(std::move(spec));
  }
  t.sim.run();

  EXPECT_GT(t.fabric.flows_lost(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(failed), t.fabric.flows_lost());
  EXPECT_EQ(dropped_sum(t.fabric), t.fabric.flows_lost());
  // Only the lossy a->sw direction admitted (and thus dropped) flows.
  for (const DirectedLink& link : t.fabric.links()) {
    if (link.flows_dropped > 0) {
      EXPECT_EQ(link.from, t.a);
      EXPECT_EQ(link.to, t.sw);
    }
  }
}

// The fault-injection knob exists so the fuzzer can prove its probes bite:
// with accounting skipped, the global counter advances while the per-link
// odometers stay flat — exactly the divergence the probe must flag.
TEST(Fabric, SkipAccountingKnobDivergesOdometerFromCounter) {
  util::ScopedFaultInjection faults;
  faults->skip_link_drop_accounting = true;
  TwoHosts t(100e6);
  t.fabric.set_link_pair_loss(t.fabric.links()[0].id, 1.0);

  int failed = 0;
  for (int i = 0; i < 20; ++i) {
    FlowSpec spec;
    spec.src = t.a;
    spec.dst = t.b;
    spec.bytes = 1000;
    spec.on_complete = [&](sim::Duration, bool success) {
      if (!success) ++failed;
    };
    t.fabric.start_flow(std::move(spec));
  }
  t.sim.run();

  EXPECT_EQ(failed, 20);
  EXPECT_EQ(t.fabric.flows_lost(), 20u);
  EXPECT_EQ(dropped_sum(t.fabric), 0u) << "knob did not suppress accounting";
}

// --- Incremental solver: constant tier and dirty-set accounting -------------

TEST(FabricSolver, UncontendedFlowsTakeTheFastTier) {
  TwoHosts t(100e6);
  FlowSpec spec;
  spec.src = t.a;
  spec.dst = t.b;
  spec.bytes = 1e15;
  FlowId first = t.fabric.start_flow(std::move(spec));
  // Sole flow on its path: constant tier, no filling at all.
  EXPECT_EQ(t.fabric.solver_stats().fast_path, 1u);
  EXPECT_EQ(t.fabric.solver_stats().component_solves, 0u);
  EXPECT_DOUBLE_EQ(t.fabric.flow_rate_bps(first), 100e6);

  FlowSpec spec2;
  spec2.src = t.a;
  spec2.dst = t.b;
  spec2.bytes = 1e15;
  FlowId second = t.fabric.start_flow(std::move(spec2));
  // Shares links with the first flow: a real component re-solve.
  EXPECT_EQ(t.fabric.solver_stats().fast_path, 1u);
  EXPECT_EQ(t.fabric.solver_stats().component_solves, 1u);
  EXPECT_DOUBLE_EQ(t.fabric.flow_rate_bps(first), 50e6);
  EXPECT_DOUBLE_EQ(t.fabric.flow_rate_bps(second), 50e6);

  // Departures mirror arrivals: removing the second re-solves the component;
  // removing the now-solitary first takes the constant tier again.
  t.fabric.cancel_flow(second);
  EXPECT_EQ(t.fabric.solver_stats().component_solves, 2u);
  t.fabric.cancel_flow(first);
  EXPECT_EQ(t.fabric.solver_stats().fast_path, 2u);
  for (const DirectedLink& link : t.fabric.links()) {
    EXPECT_EQ(link.active_flows, 0);
    EXPECT_DOUBLE_EQ(link.allocated_bps, 0.0);
  }
}

TEST(FabricSolver, DisjointComponentsKeepRatesAndEventsUntouched) {
  // Two independent host pairs behind separate switches: churn on one pair
  // must never re-solve (or even visit) the other.
  sim::Simulation sim;
  Fabric fabric(sim);
  NetNodeId a1 = fabric.add_node(NodeKind::kHost, "a1");
  NetNodeId b1 = fabric.add_node(NodeKind::kHost, "b1");
  NetNodeId s1 = fabric.add_node(NodeKind::kSwitch, "s1");
  NetNodeId a2 = fabric.add_node(NodeKind::kHost, "a2");
  NetNodeId b2 = fabric.add_node(NodeKind::kHost, "b2");
  NetNodeId s2 = fabric.add_node(NodeKind::kSwitch, "s2");
  fabric.add_link(a1, s1, 100e6, sim::Duration::micros(10));
  fabric.add_link(s1, b1, 100e6, sim::Duration::micros(10));
  fabric.add_link(a2, s2, 100e6, sim::Duration::micros(10));
  fabric.add_link(s2, b2, 100e6, sim::Duration::micros(10));

  auto start = [&](NetNodeId src, NetNodeId dst) {
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.bytes = 1e15;
    return fabric.start_flow(std::move(spec));
  };
  FlowId left_a = start(a1, b1);
  FlowId left_b = start(a1, b1);
  (void)left_a;
  (void)left_b;
  const FabricSolverStats before = fabric.solver_stats();

  // Churn entirely inside the right-hand pair.
  FlowId right_a = start(a2, b2);
  FlowId right_b = start(a2, b2);
  fabric.cancel_flow(right_a);
  fabric.cancel_flow(right_b);

  const FabricSolverStats after = fabric.solver_stats();
  // The right-hand component has 2 links per path; no solve may have swept
  // more than those (never the left pair's links or flows).
  EXPECT_LE(after.component_links - before.component_links, 2u * 4u);
  EXPECT_LE(after.component_flows - before.component_flows, 2u * 2u);
  EXPECT_DOUBLE_EQ(fabric.flow_rate_bps(left_a), 50e6);
  EXPECT_DOUBLE_EQ(fabric.flow_rate_bps(left_b), 50e6);
}

TEST(FabricSolver, CapacityChangeResolvesAndRestores) {
  TwoHosts t(100e6);
  FlowSpec spec;
  spec.src = t.a;
  spec.dst = t.b;
  spec.bytes = 1e15;
  FlowId id = t.fabric.start_flow(std::move(spec));
  EXPECT_DOUBLE_EQ(t.fabric.flow_rate_bps(id), 100e6);

  LinkId narrow = t.fabric.node(t.a).out_links[0];
  t.fabric.set_link_pair_capacity(narrow, 25e6);
  EXPECT_DOUBLE_EQ(t.fabric.flow_rate_bps(id), 25e6);
  EXPECT_DOUBLE_EQ(t.fabric.link(narrow).capacity_bps, 25e6);

  t.fabric.set_link_pair_capacity(narrow, 100e6);
  EXPECT_DOUBLE_EQ(t.fabric.flow_rate_bps(id), 100e6);
}

TEST(FabricSolver, FullOracleSolveReproducesIncrementalRatesBitExactly) {
  // The equivalence argument DESIGN.md §14 rests on: a whole-fabric
  // progressive-filling pass over a settled, unchanged fabric must land on
  // exactly the incremental solver's rates — not within a tolerance,
  // bit-identical — so partial solves can never drift from the oracle.
  sim::Simulation sim;
  Fabric fabric(sim);
  ASSERT_EQ(fabric.solver_mode(), SolverMode::kIncremental);
  // Contended star: 8 hosts with staggered access capacities behind one
  // 50 Mb/s sink link, so progressive filling fixes flows across several
  // bottleneck rounds and the rates are non-trivial fractions.
  NetNodeId sw = fabric.add_node(NodeKind::kSwitch, "sw");
  NetNodeId sink = fabric.add_node(NodeKind::kHost, "sink");
  fabric.add_link(sw, sink, 50e6, sim::Duration::micros(10));
  for (int i = 0; i < 8; ++i) {
    NetNodeId h = fabric.add_node(NodeKind::kHost, util::format("h%d", i));
    fabric.add_link(h, sw, 4e6 + i * 2e6, sim::Duration::micros(10));
    FlowSpec spec;
    spec.src = h;
    spec.dst = sink;
    spec.bytes = 1e15;
    fabric.start_flow(std::move(spec));
  }

  std::vector<double> before;
  for (FlowId id : fabric.active_flow_ids()) {
    before.push_back(fabric.flow_rate_bps(id));
  }
  const std::uint64_t full_before = fabric.solver_stats().full_solves;
  fabric.reallocate_full();
  EXPECT_EQ(fabric.solver_stats().full_solves, full_before + 1);
  size_t i = 0;
  for (FlowId id : fabric.active_flow_ids()) {
    EXPECT_EQ(fabric.flow_rate_bps(id), before[i++]) << "flow " << id;
  }
}

// --- Step budget: the reallocate() quadratic stays dead ----------------------
//
// 1,000 flows into one shared sink link, every host access link a different
// capacity: progressive filling needs 1,000 bottleneck rounds. The original
// step 2 scanned every unfixed flow per round (~N^2/2 = 500k flow visits);
// with per-link flow-set membership each round touches exactly the flows on
// the bottleneck link (~N total). The budget is deterministic solver-stats
// deltas, not wall clock.
void build_single_bottleneck(Fabric& fabric, int flows) {
  NetNodeId sw = fabric.add_node(NodeKind::kSwitch, "sw");
  NetNodeId sink = fabric.add_node(NodeKind::kHost, "sink");
  fabric.add_link(sw, sink, 1e15, sim::Duration::micros(10));
  for (int i = 0; i < flows; ++i) {
    NetNodeId h = fabric.add_node(NodeKind::kHost, util::format("h%d", i));
    fabric.add_link(h, sw, 10e6 + i * 1e6, sim::Duration::micros(10));
    FlowSpec spec;
    spec.src = h;
    spec.dst = sink;
    spec.bytes = 1e15;
    fabric.start_flow(std::move(spec));
  }
}

class SolverStepBudget : public ::testing::TestWithParam<SolverMode> {};

TEST_P(SolverStepBudget, ThousandFlowSingleBottleneckSolve) {
  constexpr int kFlows = 1000;
  sim::Simulation sim;
  Fabric fabric(sim);
  fabric.set_solver_mode(GetParam());
  build_single_bottleneck(fabric, kFlows - 1);

  // The measured solve: one more arrival joins the full component.
  const FabricSolverStats before = fabric.solver_stats();
  NetNodeId h = fabric.add_node(NodeKind::kHost, "last");
  fabric.add_link(h, *fabric.find_node("sw"), 5e6, sim::Duration::micros(10));
  FlowSpec spec;
  spec.src = h;
  spec.dst = *fabric.find_node("sink");
  spec.bytes = 1e15;
  FlowId last = fabric.start_flow(std::move(spec));
  const FabricSolverStats after = fabric.solver_stats();

  // ~1 flow fixed per round; 20x headroom, but orders of magnitude under
  // the 500k a per-round whole-flow scan would burn.
  EXPECT_LT(after.flow_visits - before.flow_visits, 20u * kFlows);
  if (GetParam() == SolverMode::kIncremental) {
    // Lazy heap: one heapified entry per link, then one pop per round and
    // one push (the sink link's new share) per round but the last: ~3 per
    // round, far below rounds x links.
    EXPECT_LT(after.heap_ops - before.heap_ops, 20u * kFlows);
    EXPECT_EQ(after.component_solves - before.component_solves, 1u);
  }
  // Everyone is bottlenecked on their distinct access link, so the solve's
  // result is exact: the newcomer runs at its own 5 Mb/s line rate.
  EXPECT_DOUBLE_EQ(fabric.flow_rate_bps(last), 5e6);
}

INSTANTIATE_TEST_SUITE_P(BothSolvers, SolverStepBudget,
                         ::testing::Values(SolverMode::kIncremental,
                                           SolverMode::kFullOracle),
                         [](const ::testing::TestParamInfo<SolverMode>& info) {
                           return info.param == SolverMode::kIncremental
                                      ? "incremental"
                                      : "oracle";
                         });

// --- Heap work and tie-breaks ------------------------------------------------
//
// The share heap is heapified once per component solve, and a round that
// fixes every remaining flow pushes nothing: no pop follows it.

TEST(FabricSolver, OneRoundSolveHeapifiesOncePushesNothing) {
  // n hosts into one sink: the 100 Mb/s shared uplink is every flow's
  // bottleneck (100/n Mb/s, under each 1 Gb/s access link).
  constexpr int kFlows = 16;
  sim::Simulation sim;
  Fabric fabric(sim);
  NetNodeId sw = fabric.add_node(NodeKind::kSwitch, "sw");
  NetNodeId sink = fabric.add_node(NodeKind::kHost, "sink");
  fabric.add_link(sw, sink, 100e6, sim::Duration::micros(10));
  FabricSolverStats before;
  for (int i = 0; i < kFlows; ++i) {
    NetNodeId h = fabric.add_node(NodeKind::kHost, util::format("h%d", i));
    fabric.add_link(h, sw, 1e9, sim::Duration::micros(10));
    FlowSpec spec;
    spec.src = h;
    spec.dst = sink;
    spec.bytes = 1e15;
    before = fabric.solver_stats();
    fabric.start_flow(std::move(spec));
  }
  const FabricSolverStats& after = fabric.solver_stats();

  // The last arrival's solve: one heap entry per loaded link (the n access
  // links and the uplink), one pop, one visit per flow.
  EXPECT_EQ(after.component_solves - before.component_solves, 1u);
  EXPECT_EQ(after.component_links - before.component_links, kFlows + 1u);
  EXPECT_EQ(after.heap_ops - before.heap_ops, kFlows + 1u + 1u);
  EXPECT_EQ(after.flow_visits - before.flow_visits, kFlows + 0u);
  for (FlowId id : fabric.active_flow_ids()) {
    EXPECT_EQ(fabric.flow_rate_bps(id), 100e6 / kFlows) << "flow " << id;
  }
}

// Six finite flows through one switch. Round 1 fixes hb's flow on its
// 10 Mb/s uplink, which leaves the 110 Mb/s downlink to hx (x) tied with
// hy's 100 Mb/s uplink (y) at 100/3 Mb/s: x's entry is the one round 1
// pushed, y's is the one heapified. One flow crosses both, so the link the
// second round takes gives its flows exactly 100/3 and the other link's
// flows the rounded share of what is left. hb's flow has the highest id,
// so the rounds fix flows out of id order.
struct TiedBottlenecks {
  sim::Simulation sim;
  Fabric fabric{sim};
  LinkId x = kInvalidLink;
  LinkId y = kInvalidLink;
  // x1, x2 (into hx), s (hy to hx: crosses x and y), y2, y3 (from hy), b.
  std::vector<FlowId> ids;
  std::vector<FlowId> finish_order;
  std::vector<std::int64_t> finished_ns;

  TiedBottlenecks(SolverMode mode, bool x_below_y) {
    fabric.set_solver_mode(mode);
    NetNodeId sw = fabric.add_node(NodeKind::kSwitch, "sw");
    auto host = [&](const char* name, double bps) {
      NetNodeId h = fabric.add_node(NodeKind::kHost, name);
      return std::pair{h,
                       fabric.add_link(h, sw, bps, sim::Duration::micros(10))};
    };
    NetNodeId hx = kInvalidNode;
    NetNodeId hy = kInvalidNode;
    // The host added first gets the lower link ids.
    for (bool x_now : {x_below_y, !x_below_y}) {
      if (x_now) {
        auto [h, links] = host("hx", 110e6);
        hx = h;
        x = links.second;  // sw -> hx
      } else {
        auto [h, links] = host("hy", 100e6);
        hy = h;
        y = links.first;  // hy -> sw
      }
    }
    NetNodeId hb = host("hb", 10e6).first;
    NetNodeId hc1 = host("hc1", 1e9).first;
    NetNodeId hc2 = host("hc2", 1e9).first;
    NetNodeId hd1 = host("hd1", 1e9).first;
    NetNodeId hd2 = host("hd2", 1e9).first;
    const std::tuple<NetNodeId, NetNodeId, double> flows[] = {
        {hc1, hx, 1.0e6}, {hc2, hx, 2.0e6}, {hy, hx, 3.0e6},
        {hy, hd1, 1.5e6}, {hy, hd2, 2.5e6}, {hb, hx, 0.5e6}};
    for (const auto& [src, dst, bytes] : flows) {
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.bytes = bytes;
      const size_t i = ids.size();
      spec.on_complete = [this, i](sim::Duration, bool ok) {
        EXPECT_TRUE(ok);
        finish_order.push_back(ids[i]);
        finished_ns[i] = sim.now().ns();
      };
      ids.push_back(fabric.start_flow(std::move(spec)));
    }
    finished_ns.assign(ids.size(), -1);
  }
};

void expect_tie_broken_like_oracle(bool x_below_y) {
  TiedBottlenecks inc(SolverMode::kIncremental, x_below_y);
  TiedBottlenecks oracle(SolverMode::kFullOracle, x_below_y);
  ASSERT_EQ(inc.x < inc.y, x_below_y);
  ASSERT_EQ(inc.ids, oracle.ids);

  // The tie is real and the lower link id takes it.
  const double third = 100e6 / 3;
  const FlowId x1 = inc.ids[0];
  const FlowId s = inc.ids[2];
  const FlowId y2 = inc.ids[3];
  const FlowId b = inc.ids[5];
  EXPECT_EQ(inc.fabric.flow_rate_bps(b), 10e6);
  EXPECT_EQ(inc.fabric.flow_rate_bps(s), third);
  EXPECT_EQ(inc.fabric.flow_rate_bps(x_below_y ? x1 : y2), third);
  EXPECT_NE(inc.fabric.flow_rate_bps(x_below_y ? y2 : x1), third);

  for (FlowId id : inc.ids) {
    EXPECT_EQ(inc.fabric.flow_rate_bps(id), oracle.fabric.flow_rate_bps(id))
        << "flow " << id;
  }
  for (size_t l = 0; l < inc.fabric.link_count(); ++l) {
    const DirectedLink& li = inc.fabric.link(static_cast<LinkId>(l));
    const DirectedLink& lo = oracle.fabric.link(static_cast<LinkId>(l));
    EXPECT_EQ(li.allocated_bps, lo.allocated_bps) << "link " << l;
    EXPECT_EQ(li.active_flows, lo.active_flows) << "link " << l;
  }

  inc.sim.run();
  oracle.sim.run();
  EXPECT_EQ(inc.finished_ns, oracle.finished_ns);
  EXPECT_EQ(inc.finish_order, oracle.finish_order);
  for (std::int64_t ns : inc.finished_ns) EXPECT_GT(ns, 0);
}

TEST(FabricSolver, TieWithAChangedLinkBreaksToItsLowerId) {
  expect_tie_broken_like_oracle(/*x_below_y=*/true);
}

TEST(FabricSolver, TieWithAnUntouchedLinkBreaksToItsLowerId) {
  expect_tie_broken_like_oracle(/*x_below_y=*/false);
}

// --- Differential harness: incremental vs progressive-filling oracle --------
//
// A seeded randomized driver builds the same topology twice — one fabric on
// the incremental solver, one on the whole-fabric oracle — and pushes the
// identical mutation stream through both: arrivals, departures, link
// cut/heal, capacity changes and SDN-routed paths. After every step the
// full state must agree exactly: active flow ids, paths, rates and per-link
// gauges, bit for bit. On failure the seed is printed with a one-line
// repro.
struct DiffSide {
  sim::Simulation sim;
  Fabric fabric{sim};
  std::unique_ptr<SdnController> sdn;
  std::vector<NetNodeId> hosts;
};

struct DiffTopology {
  int hosts = 0;
  int switches = 0;
  // (endpoint a, endpoint b, capacity) — endpoints index hosts then switches.
  std::vector<std::tuple<int, int, double>> links;
};

DiffTopology make_diff_topology(util::Rng& rng) {
  DiffTopology topo;
  topo.hosts = static_cast<int>(rng.uniform_int(6, 14));
  topo.switches = static_cast<int>(rng.uniform_int(2, 5));
  // Switch ring (gives equal-cost path diversity), every host on a random
  // switch, plus a few random switch-switch chords.
  for (int i = 0; i < topo.switches; ++i) {
    topo.links.emplace_back(topo.hosts + i,
                            topo.hosts + (i + 1) % topo.switches,
                            rng.uniform(50e6, 1e9));
  }
  for (int h = 0; h < topo.hosts; ++h) {
    topo.links.emplace_back(
        h, topo.hosts + static_cast<int>(rng.uniform_int(0, topo.switches - 1)),
        rng.uniform(10e6, 200e6));
  }
  int chords = static_cast<int>(rng.uniform_int(0, 3));
  for (int c = 0; c < chords; ++c) {
    int s1 = static_cast<int>(rng.uniform_int(0, topo.switches - 1));
    int s2 = static_cast<int>(rng.uniform_int(0, topo.switches - 1));
    if (s1 == s2) continue;
    topo.links.emplace_back(topo.hosts + s1, topo.hosts + s2,
                            rng.uniform(50e6, 1e9));
  }
  return topo;
}

// Pair ids (the even direction) of the topology's full-duplex links.
std::vector<LinkId> build_diff_side(DiffSide& side, const DiffTopology& topo,
                                    bool with_sdn) {
  std::vector<NetNodeId> nodes;
  for (int h = 0; h < topo.hosts; ++h) {
    NetNodeId id =
        side.fabric.add_node(NodeKind::kHost, util::format("h%d", h));
    nodes.push_back(id);
    side.hosts.push_back(id);
  }
  for (int s = 0; s < topo.switches; ++s) {
    nodes.push_back(
        side.fabric.add_node(NodeKind::kSwitch, util::format("s%d", s)));
  }
  std::vector<LinkId> pairs;
  for (const auto& [a, b, cap] : topo.links) {
    pairs.push_back(side.fabric
                        .add_link(nodes[static_cast<size_t>(a)],
                                  nodes[static_cast<size_t>(b)], cap,
                                  sim::Duration::micros(20))
                        .first);
  }
  if (with_sdn) {
    side.sdn = std::make_unique<SdnController>(side.sim,
                                               SdnPolicy::kLeastCongested);
    side.fabric.set_routing(side.sdn.get());
  }
  return pairs;
}

void run_differential_sweep(std::uint64_t seed, int steps,
                            const std::string& repro) {
  util::Rng topo_rng(seed * 7919 + 17);
  const DiffTopology topo = make_diff_topology(topo_rng);
  const bool with_sdn = seed % 2 == 1;  // odd seeds route through SDN

  DiffSide inc;
  DiffSide oracle;
  oracle.fabric.set_solver_mode(SolverMode::kFullOracle);
  std::vector<LinkId> pairs = build_diff_side(inc, topo, with_sdn);
  build_diff_side(oracle, topo, with_sdn);

  util::Rng rng(seed);
  std::vector<bool> pair_up(pairs.size(), true);
  int down_pairs = 0;

  auto both = [&](auto&& fn) {
    fn(inc.fabric);
    fn(oracle.fabric);
  };

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step) + " — " + repro);
    int op = static_cast<int>(rng.uniform_int(0, 99));
    std::vector<FlowId> live = inc.fabric.active_flow_ids();
    if (down_pairs >= 3) op = 75;  // force a heal before cutting more
    if (op < 45 || (op < 70 && live.empty())) {
      // Arrival (infinite flow: rates stay comparable forever).
      auto s = static_cast<size_t>(rng.uniform_int(0, topo.hosts - 1));
      auto d = static_cast<size_t>(rng.uniform_int(0, topo.hosts - 1));
      if (s == d) d = (d + 1) % static_cast<size_t>(topo.hosts);
      FlowId got_inc = 0;
      FlowId got_oracle = 0;
      FlowSpec spec;
      spec.src = inc.hosts[s];
      spec.dst = inc.hosts[d];
      spec.bytes = 1e15;
      got_inc = inc.fabric.start_flow(std::move(spec));
      FlowSpec spec2;
      spec2.src = oracle.hosts[s];
      spec2.dst = oracle.hosts[d];
      spec2.bytes = 1e15;
      got_oracle = oracle.fabric.start_flow(std::move(spec2));
      ASSERT_EQ(got_inc, got_oracle);
    } else if (op < 70) {
      // Departure.
      FlowId victim =
          live[static_cast<size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(live.size()) - 1))];
      both([&](Fabric& f) { f.cancel_flow(victim); });
    } else if (op < 80) {
      // Cut a live pair (may fail flows on both sides identically).
      auto p = static_cast<size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1));
      if (pair_up[p]) {
        both([&](Fabric& f) { f.set_link_pair_up(pairs[p], false); });
        pair_up[p] = false;
        ++down_pairs;
      }
    } else if (op < 90) {
      // Heal the lowest down pair.
      for (size_t p = 0; p < pairs.size(); ++p) {
        if (!pair_up[p]) {
          both([&](Fabric& f) { f.set_link_pair_up(pairs[p], true); });
          pair_up[p] = true;
          --down_pairs;
          break;
        }
      }
    } else {
      // Capacity change (feeds the dirty set and SDN rule eviction).
      auto p = static_cast<size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1));
      double cap = rng.uniform(10e6, 1e9);
      both([&](Fabric& f) { f.set_link_pair_capacity(pairs[p], cap); });
    }

    // Lockstep comparison: identical flow sets, paths, rates and gauges.
    std::vector<FlowId> ids = inc.fabric.active_flow_ids();
    ASSERT_EQ(ids, oracle.fabric.active_flow_ids());
    for (FlowId f : ids) {
      ASSERT_EQ(inc.fabric.flow_path(f), oracle.fabric.flow_path(f))
          << "flow " << f << " routed differently";
      ASSERT_EQ(inc.fabric.flow_rate_bps(f), oracle.fabric.flow_rate_bps(f))
          << "flow " << f << " rate diverged";
    }
    for (size_t l = 0; l < inc.fabric.link_count(); ++l) {
      LinkId lid = static_cast<LinkId>(l);
      const DirectedLink& li = inc.fabric.link(lid);
      const DirectedLink& lo = oracle.fabric.link(lid);
      ASSERT_EQ(li.active_flows, lo.active_flows) << "link " << l;
      ASSERT_EQ(inc.fabric.link_flow_count(lid),
                static_cast<size_t>(li.active_flows))
          << "link " << l << " flow-set out of sync";
      ASSERT_EQ(li.allocated_bps, lo.allocated_bps) << "link " << l;
    }
  }
}

TEST(FabricDifferential, IncrementalMatchesOracleAcrossSeededSweeps) {
  // PICLOUD_DIFF_SEED=<n> re-runs a single failing seed.
  const char* pinned = std::getenv("PICLOUD_DIFF_SEED");
  std::vector<std::uint64_t> seeds;
  if (pinned != nullptr) {
    seeds.push_back(std::strtoull(pinned, nullptr, 10));
  } else {
    for (std::uint64_t s = 1; s <= 30; ++s) seeds.push_back(s);
  }
  for (std::uint64_t seed : seeds) {
    const std::string repro =
        "repro: PICLOUD_DIFF_SEED=" + std::to_string(seed) +
        " ./tests/net_fabric_test "
        "--gtest_filter=FabricDifferential.*";
    SCOPED_TRACE("seed " + std::to_string(seed) + " — " + repro);
    run_differential_sweep(seed, 250, repro);
    if (HasFatalFailure()) return;
  }
}

// --- Fat-tree golden digests -------------------------------------------------

// Re-targets the generated fuzz scenarios onto a k=8 fat-tree: 128 hosts,
// 80 switches, real core/agg path diversity. Must stay in sync with the
// capture harness that produced kFatTreeFuzzGoldens.
ptesting::Scenario fat_tree_fuzz_scenario(std::uint64_t seed) {
  ptesting::Scenario s = ptesting::ScenarioGenerator().generate(seed);
  s.topology = "fat-tree";
  s.fat_tree_k = 8;
  return s;
}

TEST(FabricFatTreeGoldens, IncrementalSolverMatchesPreIncrementalDigests) {
  util::Logging::set_level(util::LogLevel::kOff);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ptesting::RunReport report =
        ptesting::run_scenario(fat_tree_fuzz_scenario(seed));
    EXPECT_FALSE(report.failed()) << report.summary;
    EXPECT_EQ(report.digest, support::kFatTreeFuzzGoldens[seed - 1]);
  }
}

}  // namespace
}  // namespace picloud::net
