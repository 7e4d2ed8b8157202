#include "mc/harness.h"

#include <map>
#include <memory>
#include <utility>

#include "cloud/cloud.h"
#include "cloud/node_daemon.h"
#include "net/fabric.h"
#include "proto/rest.h"
#include "sim/simulation.h"
#include "testing/runner.h"
#include "util/check.h"

namespace picloud::mc {

namespace {

// The parking strategy: control-plane schedule points are held in a ready
// vector (offer order == the event queue's documented (time, seq) order);
// everything else — node heartbeats, registration, data-plane chatter —
// runs inline, exactly as in a default run, to keep the decision tree about
// the operations under test rather than the periodic background storm.
class ParkStrategy final : public sim::ScheduleStrategy {
 public:
  struct Parked {
    sim::SchedulePoint point;
    std::function<void()> run;
    std::string label;  // point.label + "#<per-episode occurrence>"
    std::int64_t offered_ns = 0;
  };

  ParkStrategy(sim::Simulation& sim, const std::string& master_ip,
               const std::string& admin_ip)
      : sim_(sim), master_ip_(master_ip), admin_ip_(admin_ip) {}

  void offer(const sim::SchedulePoint& point,
             std::function<void()> run) override {
    if (!should_park(point)) {
      run();
      return;
    }
    Parked p;
    p.point = point;
    p.run = std::move(run);
    p.label = point.label + "#" + std::to_string(++occurrence_[point.label]);
    p.offered_ns = sim_.now().ns();
    parked_.push_back(std::move(p));
  }

  bool empty() const { return parked_.empty(); }
  const std::vector<Parked>& parked() const { return parked_; }
  std::int64_t first_offer_ns() const { return parked_.front().offered_ns; }

  // Removes and returns parked action `i`.
  Parked take(std::size_t i) {
    PICLOUD_CHECK_LT(i, parked_.size());
    Parked p = std::move(parked_[i]);
    parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
    return p;
  }

 private:
  bool should_park(const sim::SchedulePoint& point) const {
    switch (point.kind) {
      case sim::SchedulePointKind::kFault:
        return true;
      case sim::SchedulePointKind::kTimeout:
        // Master proxy/audit attempts and admin calls; node-daemon client
        // timeouts (heartbeats) stay on the default path.
        return point.src_ip == master_ip_ || point.src_ip == admin_ip_;
      case sim::SchedulePointKind::kDelivery:
        // Control-plane RPCs: anything to or from a node daemon's REST
        // server, plus admin-workstation traffic. Heartbeats/registration
        // (node client -> master server) are background noise.
        return point.src_port == cloud::NodeDaemon::kPort ||
               point.dst_port == cloud::NodeDaemon::kPort ||
               point.src_ip == admin_ip_ || point.dst_ip == admin_ip_;
    }
    return false;
  }

  sim::Simulation& sim_;
  std::string master_ip_;
  std::string admin_ip_;
  std::vector<Parked> parked_;
  std::map<std::string, int> occurrence_;
};

// Mutable flags the canned operations flip as they complete.
struct OpsState {
  int spawns_pending = 0;
  bool migration_done = false;
  bool crash_done = false;
  bool blip_applied = false;
  bool heal_done = false;
  std::uint64_t sweeps_target = 0;
  std::unique_ptr<proto::RestClient> admin;
};

void start_ops(const McConfig& config, sim::Simulation& sim,
               cloud::PiCloud& cloud, OpsState& state) {
  switch (config.kind) {
    case McConfig::Kind::kDuplicateSpawn: {
      // Two concurrent POST /instances with one idempotency key: the
      // interleaving of their deliveries against the proxied daemon spawn
      // exercises the admit/replay/coalesce paths of both caches.
      state.spawns_pending = 2;
      state.admin = std::make_unique<proto::RestClient>(
          cloud.network(), cloud.admin_ip(), 49400, "mc.admin.rest");
      for (int i = 0; i < 2; ++i) {
        util::Json body = util::Json::object();
        body.set("name", "dup-0");
        body.set("idem", "mc/dup-0");
        state.admin->call(cloud.master_ip(), cloud::PiMaster::kPort,
                          proto::Method::kPost, "/instances", body,
                          [&state](util::Result<proto::HttpResponse>) {
                            --state.spawns_pending;
                          });
      }
      break;
    }
    case McConfig::Kind::kMigrationVsSourceCrash: {
      // Drive the migration through the admin REST route rather than
      // calling PiMaster::migrate_instance() directly: the coordinator's
      // own node access is in-process, so the request/response deliveries
      // on the wire are what gives the crash fault something to race.
      state.admin = std::make_unique<proto::RestClient>(
          cloud.network(), cloud.admin_ip(), 49400, "mc.admin.rest");
      util::Json body = util::Json::object();
      body.set("to", "pi-r0-01");
      body.set("live", true);
      body.set("idem", "mc/migrate-web-0");
      // Sent twice with one idempotency key: the duplicate exercises the
      // idem admit/coalesce path while the crash races both deliveries.
      state.spawns_pending = 2;
      for (int i = 0; i < 2; ++i) {
        state.admin->call(cloud.master_ip(), cloud::PiMaster::kPort,
                          proto::Method::kPost, "/instances/web-0/migrate",
                          body, [&state](util::Result<proto::HttpResponse>) {
                            --state.spawns_pending;
                            if (state.spawns_pending == 0) {
                              state.migration_done = true;
                            }
                          });
      }
      // The crash is offered while the migrate request is still on the
      // wire, so the explorer decides whether the source dies before the
      // master even hears about the migration or only once it is underway.
      cloud.schedule_fault(sim::Duration::millis(1), "crash-pi-r0-00",
                           [&cloud, &state]() {
                             cloud.daemon(0).crash();
                             state.crash_done = true;
                           });
      // The crashed source comes back during settle so the convergence
      // probes can demand a fully-healthy cluster at quiesce. Plain timer:
      // restart/heal ordering is not part of the explored race.
      sim.after(sim::Duration::seconds(40),
                [&cloud]() { cloud.daemon(0).start(); });
      break;
    }
    case McConfig::Kind::kReconcilerVsMasterBlip: {
      const net::NetNodeId master_node = cloud.master().fabric_node();
      PICLOUD_CHECK(!cloud.fabric().node(master_node).out_links.empty());
      const net::LinkId uplink =
          cloud.fabric().node(master_node).out_links.front();
      state.sweeps_target =
          sim.metrics().counter_value("cloud.reconciler.sweeps") + 2;
      cloud.schedule_fault(sim::Duration::millis(500), "master-blip",
                           [&cloud, uplink, &state]() {
                             cloud.fabric().set_link_pair_up(uplink, false);
                             state.blip_applied = true;
                           });
      sim.after(sim::Duration::seconds(8), [&cloud, uplink, &state]() {
        cloud.fabric().set_link_pair_up(uplink, true);
        state.heal_done = true;
      });
      break;
    }
  }
}

bool ops_done(const McConfig& config, cloud::PiCloud& cloud,
              const OpsState& state) {
  switch (config.kind) {
    case McConfig::Kind::kDuplicateSpawn:
      return state.spawns_pending == 0;
    case McConfig::Kind::kMigrationVsSourceCrash:
      return state.migration_done && state.crash_done;
    case McConfig::Kind::kReconcilerVsMasterBlip:
      return state.blip_applied && state.heal_done &&
             cloud.simulation().metrics().counter_value(
                 "cloud.reconciler.sweeps") >= state.sweeps_target;
  }
  return true;
}

// Runaway guard: no canned config legitimately needs this many decisions.
constexpr std::size_t kMaxSteps = 512;

}  // namespace

std::string EpisodeResult::violation_signature() const {
  if (violations.empty()) return "";
  return "probe:" + violations.front().probe;
}

util::Result<McConfig> mc_config(const std::string& name) {
  McConfig config;
  config.name = name;
  if (name == "duplicate-spawn") {
    config.kind = McConfig::Kind::kDuplicateSpawn;
    config.settle = sim::Duration::seconds(30);
    return config;
  }
  if (name == "migration-vs-source-crash") {
    config.kind = McConfig::Kind::kMigrationVsSourceCrash;
    config.settle = sim::Duration::seconds(90);
    return config;
  }
  if (name == "reconciler-vs-master-blip") {
    config.kind = McConfig::Kind::kReconcilerVsMasterBlip;
    config.settle = sim::Duration::seconds(60);
    return config;
  }
  return util::Error::make("bad_config", "unknown mc config: " + name);
}

std::vector<std::string> list_mc_configs() {
  return {"duplicate-spawn", "migration-vs-source-crash",
          "reconciler-vs-master-blip"};
}

EpisodeResult run_episode(const McConfig& config,
                          const std::vector<std::string>& choices) {
  EpisodeResult result;

  sim::Simulation sim(config.seed);
  cloud::PiCloudConfig cloud_config;
  cloud_config.racks = 1;
  cloud_config.hosts_per_rack = config.hosts;
  if (config.kind == McConfig::Kind::kReconcilerVsMasterBlip) {
    // The 8s blip must always contain an anti-entropy sweep.
    cloud_config.reconcile.period = sim::Duration::seconds(5);
  }
  cloud::PiCloud cloud(sim, cloud_config);
  cloud.power_on();
  PICLOUD_CHECK(cloud.await_ready()) << "mc cluster failed to boot";
  cloud.run_for(sim::Duration::seconds(2));

  testing::InvariantChecker checker(sim, cloud);
  checker.install_builtin_probes();

  // Baseline workload (un-intercepted — identical across every episode).
  if (config.kind != McConfig::Kind::kDuplicateSpawn) {
    cloud::PiMaster::SpawnSpec spec;
    spec.name = "web-0";
    spec.memory_limit = 32ull << 20;
    spec.hostname = "pi-r0-00";
    auto rec = cloud.spawn_and_wait(spec);
    PICLOUD_CHECK(rec.ok()) << "mc baseline spawn failed: "
                            << rec.error().message;
  }

  OpsState state;
  ParkStrategy strategy(sim, cloud.master_ip().to_string(),
                        cloud.admin_ip().to_string());
  sim.schedule_points().install(&strategy);
  start_ops(config, sim, cloud, state);

  const std::int64_t horizon_ns = (sim.now() + config.horizon).ns();
  std::size_t next_choice = 0;
  bool hit_horizon = false;

  while (true) {
    // Drive the simulation until the episode is over or a parked action
    // cannot be deferred past its reorder window any longer.
    bool decision = false;
    while (true) {
      if (strategy.empty() && ops_done(config, cloud, state)) break;
      if (!strategy.empty()) {
        const std::int64_t deadline =
            strategy.first_offer_ns() + config.window.ns();
        if (!sim.has_events() || sim.next_event_time().ns() > deadline) {
          decision = true;
          break;
        }
      }
      if (!sim.has_events() || sim.now().ns() > horizon_ns) {
        hit_horizon = true;
        break;
      }
      sim.step();
    }
    if (!decision) break;

    if (ops_done(config, cloud, state)) {
      // The racing operations finished while actions were still parked
      // (trailing responses, stale expiries). Nothing is left to explore:
      // drain them in offer order — still a deterministic function of the
      // choices made — without recording further decisions.
      while (!strategy.empty()) {
        ParkStrategy::Parked p = strategy.take(0);
        p.run();
        checker.sweep();
      }
      break;
    }

    EpisodeStep step;
    for (const ParkStrategy::Parked& p : strategy.parked()) {
      step.ready.push_back(p.label);
      step.objects.push_back(p.point.object);
      step.kinds.push_back(p.point.kind);
    }
    std::size_t pick = 0;
    if (next_choice < choices.size()) {
      pick = step.ready.size();
      for (std::size_t i = 0; i < step.ready.size(); ++i) {
        if (step.ready[i] == choices[next_choice]) {
          pick = i;
          break;
        }
      }
      PICLOUD_CHECK_LT(pick, step.ready.size())
          << "schedule choice '" << choices[next_choice]
          << "' is not in the ready set at decision " << result.steps.size();
      ++next_choice;
    }
    step.chosen = step.ready[pick];
    result.steps.push_back(std::move(step));

    ParkStrategy::Parked action = strategy.take(pick);
    action.run();
    checker.sweep();

    PICLOUD_CHECK_LE(result.steps.size(), kMaxSteps)
        << "mc episode runaway: over " << kMaxSteps << " decisions";
  }

  sim.schedule_points().uninstall();
  cloud.run_for(config.settle);
  checker.run_quiesce();

  result.completed = !hit_horizon && next_choice == choices.size();
  result.violations = checker.violations();
  result.digest = testing::end_state_digest(sim, cloud);
  result.events = sim.events_executed();
  return result;
}

util::Result<EpisodeResult> replay_schedule(const Schedule& schedule) {
  auto config = mc_config(schedule.config);
  if (!config.ok()) return config.error();
  config.value().seed = schedule.seed;
  return run_episode(config.value(), schedule.choices);
}

}  // namespace picloud::mc
