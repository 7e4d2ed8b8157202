#include "testing/invariants.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "apps/httpd.h"
#include "apps/kvstore.h"
#include "apps/lb.h"
#include "net/fabric.h"
#include "os/container.h"
#include "os/node_os.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace picloud::testing {

namespace {

// ---------------------------------------------------------------------------
// Built-in probe catalogue. Each factory closes over the cloud and returns
// the probe; install_builtin_probes() registers every one of them — the
// picloud_analyze invariant-catalogue rule fails the build if a probe_* factory
// is defined here but never registered.
// ---------------------------------------------------------------------------

// No double memory accounting on any node: Raspbian's own footprint plus
// the sum of container cgroup charges must equal the memory manager's used
// bytes exactly. A leaked group (container destroyed without uncharge) or a
// double charge (spawn retry charging twice) breaks the equality.
InvariantChecker::Probe probe_memory_accounting(cloud::PiCloud& cloud) {
  return [&cloud](const InvariantChecker::FailFn& fail) {
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      const os::NodeOs& node = std::as_const(cloud).node(i);
      if (!node.running()) continue;
      std::uint64_t expected = os::NodeOs::kSystemRamBytes;
      for (const os::Container* c : node.containers()) {
        expected += c->memory_usage();
      }
      const std::uint64_t used = node.memory().used();
      if (used != expected) {
        std::ostringstream msg;
        msg << node.hostname() << ": memory used " << used
            << " != system + containers " << expected;
        fail(msg.str());
      }
    }
  };
}

// Instance-record state machine legality: every record carries a known
// state, a name, a host, and a positive admission reservation.
InvariantChecker::Probe probe_instance_record_legality(cloud::PiCloud& cloud) {
  return [&cloud](const InvariantChecker::FailFn& fail) {
    const sim::SimTime now = cloud.simulation().now();
    for (const auto& [name, rec] :
         std::as_const(cloud).master().instance_records()) {
      if (rec.state != "running" && rec.state != "migrating" &&
          rec.state != "lost") {
        fail(name + ": illegal state '" + rec.state + "'");
      }
      if (rec.name != name) {
        fail(name + ": record name '" + rec.name + "' disagrees with key");
      }
      if (rec.hostname.empty()) {
        fail(name + ": record has no hostname");
      }
      if (rec.mem_reserved == 0) {
        fail(name + ": zero memory reservation");
      }
      if (rec.created_at > now) {
        fail(name + ": created in the future");
      }
    }
  };
}

// Registry <-> daemon agreement (quiesce only — legitimately false while a
// migration holds two copies or a crash has not yet been reconciled):
// every "running" record maps to a live container, every live container
// maps to a record, and no container name exists twice in the fleet.
InvariantChecker::Probe probe_registry_agreement(cloud::PiCloud& cloud) {
  return [&cloud](const InvariantChecker::FailFn& fail) {
    std::map<std::string, int> live;
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      const os::NodeOs& node = std::as_const(cloud).node(i);
      if (!node.running()) continue;
      for (const os::Container* c : node.containers()) {
        if (c->state() == os::ContainerState::kRunning ||
            c->state() == os::ContainerState::kFrozen) {
          ++live[c->name()];
        }
      }
    }
    for (const auto& [name, count] : live) {
      if (count > 1) {
        fail("container '" + name + "' exists on " + std::to_string(count) +
             " nodes");
      }
    }
    const auto& records = std::as_const(cloud).master().instance_records();
    for (const auto& [name, rec] : records) {
      if (rec.state != "running") continue;
      cloud::NodeDaemon* host = cloud.daemon_by_hostname(rec.hostname);
      if (host == nullptr || !host->node().running()) {
        fail("record '" + name + "' running on dead node " + rec.hostname);
        continue;
      }
      if (live.find(name) == live.end()) {
        fail("record '" + name + "' running on " + rec.hostname +
             " but no such container in the fleet");
      }
    }
    for (const auto& [name, count] : live) {
      auto it = records.find(name);
      if (it == records.end()) {
        fail("container '" + name + "' has no instance record (orphan)");
      } else if (it->second.state == "lost") {
        fail("container '" + name + "' alive but recorded lost");
      }
    }
  };
}

// Metrics consistency on the master's spawn pipeline: every terminal
// outcome was admitted exactly once, so ok + failed can never exceed
// requests (the double_count_spawn_ok fault knob breaks exactly this).
InvariantChecker::Probe probe_spawn_accounting(cloud::PiCloud& cloud) {
  return [&cloud](const InvariantChecker::FailFn& fail) {
    const util::MetricsRegistry& m = cloud.simulation().metrics();
    const std::uint64_t requests =
        m.counter_value("cloud.master.spawn_requests");
    const std::uint64_t ok = m.counter_value("cloud.master.spawns_ok");
    const std::uint64_t failed = m.counter_value("cloud.master.spawns_failed");
    if (ok + failed > requests) {
      std::ostringstream msg;
      msg << "spawn outcomes exceed admissions: ok " << ok << " + failed "
          << failed << " > requests " << requests;
      fail(msg.str());
    }
  };
}

// Conservation of flows and bytes in the fabric: every started flow is
// completed, failed, or still active; lossy-link drops are a subset of
// failures and sum per-link to the global counter; no link is allocated
// past capacity; per-link byte odometers never run backwards.
InvariantChecker::Probe probe_fabric_conservation(cloud::PiCloud& cloud) {
  auto last_bytes = std::make_shared<std::vector<double>>();
  return [&cloud, last_bytes](const InvariantChecker::FailFn& fail) {
    const net::Fabric& fabric = std::as_const(cloud).fabric();
    const std::uint64_t started = fabric.flows_started();
    const std::uint64_t completed = fabric.flows_completed();
    const std::uint64_t failed = fabric.flows_failed();
    const std::uint64_t active = fabric.active_flow_count();
    if (started != completed + failed + active) {
      std::ostringstream msg;
      msg << "flow conservation: started " << started << " != completed "
          << completed << " + failed " << failed << " + active " << active;
      fail(msg.str());
    }
    if (fabric.flows_lost() > failed) {
      fail("lossy drops " + std::to_string(fabric.flows_lost()) +
           " exceed total failures " + std::to_string(failed));
    }
    std::uint64_t link_drops = 0;
    last_bytes->resize(fabric.links().size(), 0.0);
    for (const net::DirectedLink& link : fabric.links()) {
      link_drops += link.flows_dropped;
      if (link.active_flows < 0) {
        fail("link " + std::to_string(link.id) + " negative active flows");
      }
      if (link.allocated_bps > link.capacity_bps * (1 + 1e-6)) {
        std::ostringstream msg;
        msg << "link " << link.id << " allocated " << link.allocated_bps
            << " bps over capacity " << link.capacity_bps;
        fail(msg.str());
      }
      double& prev = (*last_bytes)[link.id];
      if (link.bytes_carried + 1e-9 < prev) {
        std::ostringstream msg;
        msg << "link " << link.id << " bytes_carried went backwards: "
            << prev << " -> " << link.bytes_carried;
        fail(msg.str());
      }
      prev = link.bytes_carried;
    }
    if (link_drops != fabric.flows_lost()) {
      std::ostringstream msg;
      msg << "per-link drop accounting: sum " << link_drops
          << " != fabric flows_lost " << fabric.flows_lost();
      fail(msg.str());
    }
    // Incremental-solver bookkeeping: the per-link flow sets, active_flows
    // gauges and allocated_bps gauges must agree with a from-scratch
    // recomputation over the active flows. A partial re-solve that forgets
    // to refresh a touched link — or refreshes one it shouldn't — breaks
    // one of these equalities at the next sweep.
    std::vector<int> flow_counts(fabric.links().size(), 0);
    std::vector<double> rate_sums(fabric.links().size(), 0.0);
    for (net::FlowId fid : fabric.active_flow_ids()) {
      const double rate = fabric.flow_rate_bps(fid);
      for (net::LinkId lid : fabric.flow_path(fid)) {
        flow_counts[lid] += 1;
        rate_sums[lid] += rate;
      }
    }
    for (const net::DirectedLink& link : fabric.links()) {
      if (link.active_flows != flow_counts[link.id]) {
        std::ostringstream msg;
        msg << "link " << link.id << " active_flows gauge "
            << link.active_flows << " != recomputed flow count "
            << flow_counts[link.id];
        fail(msg.str());
      }
      if (fabric.link_flow_count(link.id) !=
          static_cast<size_t>(flow_counts[link.id])) {
        std::ostringstream msg;
        msg << "link " << link.id << " solver flow set size "
            << fabric.link_flow_count(link.id)
            << " != recomputed flow count " << flow_counts[link.id];
        fail(msg.str());
      }
      const double tol = std::max(1.0, std::abs(link.allocated_bps)) * 1e-6;
      if (std::abs(link.allocated_bps - rate_sums[link.id]) > tol) {
        std::ostringstream msg;
        msg << "link " << link.id << " allocated gauge " << link.allocated_bps
            << " bps != recomputed rate sum " << rate_sums[link.id];
        fail(msg.str());
      }
    }
  };
}

// Every request a serving app admits is accounted exactly once (DESIGN.md
// §11): received must equal the sum of terminal outcomes plus work still
// queued or in service, at any instant — on every httpd, kvstore and lb
// instance in the fleet. A lost update anywhere in the admission queue,
// brownout path or shed path breaks the equality.
InvariantChecker::Probe probe_app_conservation(cloud::PiCloud& cloud) {
  return [&cloud](const InvariantChecker::FailFn& fail) {
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      const os::NodeOs& node = std::as_const(cloud).node(i);
      if (!node.running()) continue;
      for (const os::Container* c : node.containers()) {
        const os::ContainerApp* app = c->app();
        if (app == nullptr) continue;
        const std::string kind = app->kind();
        std::ostringstream msg;
        auto check = [&](const auto& queue, std::uint64_t completed) {
          if (queue.conserved(completed)) return;
          msg << c->name() << ": " << kind << " received " << queue.received()
              << " != accounted " << queue.accounted(completed);
          fail(msg.str());
        };
        if (kind == "httpd") {
          const auto* h = static_cast<const apps::HttpdApp*>(app);
          check(h->admission(), h->requests_served());
        } else if (kind == "kvstore") {
          const auto* k = static_cast<const apps::KvStoreApp*>(app);
          check(k->admission(), k->ops_served() + k->ops_rejected());
        } else if (kind == "lb") {
          const auto* lb = static_cast<const apps::LbApp*>(app);
          const std::uint64_t accounted =
              lb->responses_ok() + lb->responses_error() +
              lb->dropped_in_flight() + lb->in_flight();
          if (lb->requests_received() != accounted) {
            msg << c->name() << ": lb received " << lb->requests_received()
                << " != accounted " << accounted;
            fail(msg.str());
          }
        }
      }
    }
  };
}

// Retry amplification stays inside the budget: a load balancer may send at
// most ratio * requests + burst retries on top of the original attempts.
// If this fails, failover is amplifying an overload (retry storm).
InvariantChecker::Probe probe_lb_retry_budget(cloud::PiCloud& cloud) {
  return [&cloud](const InvariantChecker::FailFn& fail) {
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      const os::NodeOs& node = std::as_const(cloud).node(i);
      if (!node.running()) continue;
      for (const os::Container* c : node.containers()) {
        const os::ContainerApp* app = c->app();
        if (app == nullptr || app->kind() != "lb") continue;
        const auto* lb = static_cast<const apps::LbApp*>(app);
        if (!lb->retry_budget().bounded(lb->attempts_forwarded())) {
          std::ostringstream msg;
          msg << c->name() << ": lb " << lb->attempts_forwarded()
              << " attempts for " << lb->requests_forwarded()
              << " requests and " << lb->retries_attempted()
              << " retries break the retry budget";
          fail(msg.str());
        }
      }
    }
  };
}

// At quiesce every backend a load balancer still considers healthy must be
// a live, running container at that address — the LB never routes into the
// void once churn has settled (ejected-and-dead backends must have been
// dropped by the endpoint hook or the breaker).
InvariantChecker::Probe probe_lb_routing(cloud::PiCloud& cloud) {
  return [&cloud](const InvariantChecker::FailFn& fail) {
    std::set<std::uint32_t> live_ips;
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      const os::NodeOs& node = std::as_const(cloud).node(i);
      if (!node.running()) continue;
      for (const os::Container* c : node.containers()) {
        if (c->state() == os::ContainerState::kRunning) {
          live_ips.insert(c->ip().value());
        }
      }
    }
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      const os::NodeOs& node = std::as_const(cloud).node(i);
      if (!node.running()) continue;
      for (const os::Container* c : node.containers()) {
        const os::ContainerApp* app = c->app();
        if (app == nullptr || app->kind() != "lb") continue;
        const auto* lb = static_cast<const apps::LbApp*>(app);
        for (net::Ipv4Addr ip : lb->healthy_backends()) {
          if (live_ips.count(ip.value()) == 0) {
            fail(c->name() + ": healthy rotation contains dead backend " +
                 ip.to_string());
          }
        }
      }
    }
  };
}

// Post-chaos convergence (quiesce only): every fault in a scenario is
// paired with a recovery, so by quiesce the whole fleet must be powered,
// registered, heartbeating within the liveness window, with no migration
// still in flight.
InvariantChecker::Probe probe_convergence(cloud::PiCloud& cloud) {
  return [&cloud](const InvariantChecker::FailFn& fail) {
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      cloud::NodeDaemon& daemon = cloud.daemon(i);
      if (!daemon.node().running()) {
        fail("node " + daemon.hostname() + " still down at quiesce");
        continue;
      }
      if (!daemon.registered()) {
        fail("node " + daemon.hostname() + " not registered at quiesce");
      }
      if (!cloud.master().monitor().alive(daemon.hostname())) {
        fail("node " + daemon.hostname() + " not heartbeating at quiesce");
      }
    }
    const std::uint64_t in_flight = cloud.master().migrations().in_flight();
    if (in_flight != 0) {
      fail(std::to_string(in_flight) + " migrations still in flight");
    }
  };
}

}  // namespace

InvariantChecker::InvariantChecker(sim::Simulation& sim,
                                   cloud::PiCloud& cloud)
    : sim_(sim),
      cloud_(cloud),
      probe_runs_(&sim.metrics().counter("testing.invariants.probe_runs")),
      violation_count_(&sim.metrics().counter("testing.invariants.violations")),
      sweep_count_(&sim.metrics().counter("testing.invariants.sweeps")),
      quiesce_count_(
          &sim.metrics().counter("testing.invariants.quiesce_runs")) {}

void InvariantChecker::register_probe(std::string name, Phase phase,
                                      Probe probe) {
  probes_.push_back(Entry{std::move(name), phase, std::move(probe)});
}

void InvariantChecker::install_builtin_probes() {
  register_probe("memory-accounting", Phase::kSweep,
                 probe_memory_accounting(cloud_));
  register_probe("instance-record-legality", Phase::kSweep,
                 probe_instance_record_legality(cloud_));
  register_probe("spawn-accounting", Phase::kSweep,
                 probe_spawn_accounting(cloud_));
  register_probe("fabric-conservation", Phase::kSweep,
                 probe_fabric_conservation(cloud_));
  register_probe("app-conservation", Phase::kSweep,
                 probe_app_conservation(cloud_));
  register_probe("lb-retry-budget", Phase::kSweep,
                 probe_lb_retry_budget(cloud_));
  register_probe("registry-agreement", Phase::kQuiesce,
                 probe_registry_agreement(cloud_));
  register_probe("lb-routing", Phase::kQuiesce, probe_lb_routing(cloud_));
  register_probe("post-chaos-convergence", Phase::kQuiesce,
                 probe_convergence(cloud_));
}

void InvariantChecker::run_phase(bool include_quiesce) {
  util::Counter& probe_runs = *probe_runs_;
  util::Counter& violation_count = *violation_count_;
  const std::int64_t now_ns = sim_.now().ns();
  for (const Entry& entry : probes_) {
    if (entry.phase == Phase::kQuiesce && !include_quiesce) continue;
    probe_runs.inc();
    const std::string& probe_name = entry.name;
    auto fail = [this, &violation_count, &probe_name,
                 now_ns](const std::string& message) {
      // Dedup: a continuously-violated invariant records once per distinct
      // message, with a repeat count, so reports stay readable.
      for (size_t i = 0; i < violations_.size(); ++i) {
        if (violations_[i].probe == probe_name &&
            violations_[i].message == message) {
          ++repeat_counts_[i];
          return;
        }
      }
      violation_count.inc();
      violations_.push_back(Violation{probe_name, now_ns, message});
      repeat_counts_.push_back(1);
      PICLOUD_TRACE(sim_.trace(), "testing.invariants", "violation",
                    {"probe", probe_name}, {"message", message});
    };
    entry.probe(fail);
  }
}

void InvariantChecker::sweep() {
  ++sweeps_;
  sweep_count_->inc();
  run_phase(/*include_quiesce=*/false);
}

void InvariantChecker::run_quiesce() {
  quiesce_count_->inc();
  run_phase(/*include_quiesce=*/true);
}

std::string InvariantChecker::report(std::uint64_t seed,
                                     std::size_t trace_tail) const {
  std::ostringstream out;
  out << "invariant report: seed=" << seed << " t="
      << sim_.now().to_seconds() << "s sweeps=" << sweeps_ << " violations="
      << violations_.size() << "\n";
  for (size_t i = 0; i < violations_.size(); ++i) {
    const Violation& v = violations_[i];
    out << "  [t=" << static_cast<double>(v.t_ns) * 1e-9 << "s] " << v.probe
        << ": " << v.message;
    if (repeat_counts_[i] > 1) out << " (x" << repeat_counts_[i] << ")";
    out << "\n";
  }
  const auto events = sim_.trace().events();
  if (!events.empty() && !violations_.empty()) {
    out << "  trace tail (" << std::min(trace_tail, events.size()) << " of "
        << events.size() << " retained):\n";
    const size_t start =
        events.size() > trace_tail ? events.size() - trace_tail : 0;
    for (size_t i = start; i < events.size(); ++i) {
      out << "    " << events[i].to_string() << "\n";
    }
  }
  return out.str();
}

}  // namespace picloud::testing
