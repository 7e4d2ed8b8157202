#include "cloud/migration.h"

#include <algorithm>
#include <set>

#include "util/logging.h"

namespace picloud::cloud {

const char* address_update_name(AddressUpdateMode mode) {
  switch (mode) {
    case AddressUpdateMode::kArpConvergence: return "arp";
    case AddressUpdateMode::kSdnRedirect: return "sdn";
  }
  return "?";
}

util::Json MigrationReport::to_json() const {
  util::Json j = util::Json::object();
  j.set("instance", instance);
  j.set("from", from);
  j.set("to", to);
  j.set("live", live);
  j.set("success", success);
  if (instance_lost) j.set("instance_lost", true);
  if (!phase.empty()) j.set("phase", phase);
  j.set("address_update", address_update);
  if (!error.empty()) j.set("error", error);
  j.set("bytes", bytes_transferred);
  j.set("rounds", precopy_rounds);
  j.set("duration_s", total_duration.to_seconds());
  j.set("downtime_s", downtime.to_seconds());
  return j;
}

MigrationReport MigrationReport::from_json(const util::Json& j) {
  MigrationReport r;
  r.instance = j.get_string("instance");
  r.from = j.get_string("from");
  r.to = j.get_string("to");
  r.live = j.get_bool("live");
  r.success = j.get_bool("success");
  r.instance_lost = j.get_bool("instance_lost");
  r.phase = j.get_string("phase");
  r.address_update = j.get_string("address_update");
  r.error = j.get_string("error");
  r.bytes_transferred = j.get_number("bytes");
  r.precopy_rounds = static_cast<int>(j.get_number("rounds"));
  r.total_duration = sim::Duration::seconds(j.get_number("duration_s"));
  r.downtime = sim::Duration::seconds(j.get_number("downtime_s"));
  return r;
}

// No NodeDaemon* or os::Container* lives here: either endpoint can be
// crashed by chaos between any two events, which destroys its containers
// outright. Every resume point re-resolves through the coordinator instead.
struct MigrationCoordinator::Session {
  MigrationParams params;
  DoneCallback done;
  MigrationReport report;
  sim::SimTime started;
  sim::SimTime frozen_at;
  double pending_bytes = 0;  // memory image / dirty set to copy next
  double dirty_rate = 0;     // bytes/sec the app dirties while running
  bool admitted = false;     // counted in migrating_ / in_flight_
  bool frozen = false;       // source container frozen (needs thaw on abort)
};

MigrationCoordinator::MigrationCoordinator(sim::Simulation& sim,
                                           net::Fabric& fabric,
                                           NodeAccessor accessor)
    : sim_(sim), fabric_(fabric), accessor_(std::move(accessor)) {
  util::MetricsRegistry& m = sim_.metrics();
  started_ = &m.counter("cloud.migration.started");
  succeeded_ = &m.counter("cloud.migration.succeeded");
  failed_ = &m.counter("cloud.migration.failed");
  aborted_source_dead_ = &m.counter("cloud.migration.aborted_source_dead");
  aborted_dest_dead_ = &m.counter("cloud.migration.aborted_dest_dead");
  rolled_back_ = &m.counter("cloud.migration.rolled_back");
  lost_ = &m.counter("cloud.migration.lost");
  downtime_seconds_ = &m.histogram("cloud.migration.downtime_seconds");
}

NodeDaemon* MigrationCoordinator::live_node(const std::string& hostname) {
  NodeDaemon* daemon = accessor_(hostname);
  if (daemon == nullptr || !daemon->node().running()) return nullptr;
  return daemon;
}

os::Container* MigrationCoordinator::source_container(const Session& session) {
  NodeDaemon* src = live_node(session.params.from);
  if (src == nullptr) return nullptr;
  os::Container* c = src->node().find_container(session.params.instance);
  if (c == nullptr || c->state() == os::ContainerState::kDestroyed) {
    return nullptr;
  }
  return c;
}

void MigrationCoordinator::migrate(MigrationParams params, DoneCallback done) {
  auto session = std::make_shared<Session>();
  session->params = std::move(params);
  session->done = std::move(done);
  session->started = sim_.now();
  session->report.instance = session->params.instance;
  session->report.from = session->params.from;
  session->report.to = session->params.to;
  session->report.live = session->params.live;
  session->report.phase = "prepare";
  session->report.address_update =
      address_update_name(session->params.address_update);

  if (migrating_.count(session->params.instance) > 0) {
    fail(session, "instance is already migrating");
    return;
  }
  NodeDaemon* src = live_node(session->params.from);
  NodeDaemon* dst = live_node(session->params.to);
  if (accessor_(session->params.from) == nullptr ||
      accessor_(session->params.to) == nullptr) {
    fail(session, "unknown source or destination node");
    return;
  }
  if (src == nullptr) {
    fail(session, "source node is down");
    return;
  }
  if (dst == nullptr) {
    fail(session, "destination node is down");
    return;
  }
  if (src == dst) {
    fail(session, "source and destination are the same node");
    return;
  }
  os::Container* container =
      src->node().find_container(session->params.instance);
  if (container == nullptr ||
      container->state() == os::ContainerState::kDestroyed) {
    fail(session, "no such container on source node");
    return;
  }

  migrating_.insert(session->params.instance);
  ++in_flight_;
  session->admitted = true;
  started_->inc();
  PICLOUD_TRACE(sim_.trace(), "cloud.migration", "started",
                {"instance", session->params.instance},
                {"from", session->params.from}, {"to", session->params.to},
                {"mode", session->params.live ? "live" : "stop-copy"});

  session->pending_bytes = static_cast<double>(container->memory_usage());
  session->dirty_rate = container->app() != nullptr
                            ? container->app()->dirty_bytes_per_sec()
                            : 0.0;

  LOG_INFO("migrate", "%s: %s -> %s (%s, %.1f MB)",
           session->params.instance.c_str(), session->params.from.c_str(),
           session->params.to.c_str(),
           session->params.live ? "live" : "stop-copy",
           session->pending_bytes / (1 << 20));

  // Prepare phase: destination caches the rootfs layers.
  dst->prefetch_layers(
      session->params.layers.as_array(),
      [this, session](util::Status status) {
        if (!endpoints_up(session)) return;
        if (!status.ok()) {
          fail(session, "destination prefetch failed: " +
                            status.error().message);
          return;
        }
        copy_round(session);
      });
}

bool MigrationCoordinator::endpoints_up(
    const std::shared_ptr<Session>& session) {
  if (source_container(*session) == nullptr) {
    abort_source_dead(session);
    return false;
  }
  if (live_node(session->params.to) == nullptr) {
    abort_dest_dead(session);
    return false;
  }
  return true;
}

void MigrationCoordinator::copy_round(std::shared_ptr<Session> session) {
  // Freeze point reached? Copy the remainder under blackout. Stop-and-copy
  // starts there: it moves everything in one blackout.
  if (!session->params.live ||
      session->report.precopy_rounds >= session->params.max_precopy_rounds ||
      session->pending_bytes <= session->params.stop_threshold_bytes) {
    session->report.phase = "final-copy";
    (void)source_container(*session)->freeze();
    session->frozen = true;
    session->frozen_at = sim_.now();
    copy(session, std::max(session->pending_bytes, 1.0));
    return;
  }
  session->report.phase = "pre-copy";
  ++session->report.precopy_rounds;
  copy(session, session->pending_bytes);
}

void MigrationCoordinator::copy(std::shared_ptr<Session> session,
                                double bytes) {
  sim::SimTime started = sim_.now();
  net::FlowSpec flow;
  flow.src = live_node(session->params.from)->node().fabric_node();
  flow.dst = live_node(session->params.to)->node().fabric_node();
  flow.bytes = bytes;
  flow.on_complete = [this, session, bytes, started](sim::Duration,
                                                     bool success) {
    if (!endpoints_up(session)) return;
    os::Container* container = source_container(*session);
    if (!success) {
      if (!session->frozen) {
        fail(session, "pre-copy transfer failed (network)");
        return;
      }
      (void)container->thaw();
      session->frozen = false;
      fail(session, "final memory copy failed (network)");
      return;
    }
    session->report.bytes_transferred += bytes;
    if (session->frozen) {
      commit(session);
      return;
    }
    // Pages dirtied while this round was copying become the next round.
    double elapsed = (sim_.now() - started).to_seconds();
    session->pending_bytes =
        std::min(session->dirty_rate * elapsed,
                 static_cast<double>(container->memory_usage()));
    copy_round(session);
  };
  fabric_.start_flow(std::move(flow));
}

void MigrationCoordinator::commit(std::shared_ptr<Session> session) {
  session->report.phase = "commit";
  NodeDaemon* src = live_node(session->params.from);
  NodeDaemon* dst = live_node(session->params.to);
  os::Container* source = source_container(*session);

  os::ContainerConfig config = source->config();
  net::Ipv4Addr ip = source->ip();
  // Quiesce the app while the frozen source still exists (it frees its
  // working set and deregisters its listeners there), then lift it out.
  std::unique_ptr<os::ContainerApp> app = source->detach_app();
  if (app) app->stop();

  // Secure a home on the destination BEFORE tearing the source down, so a
  // refused create (capacity raced away) rolls back instead of losing the
  // instance.
  auto created = dst->node().create_container(config);
  if (!created.ok()) {
    (void)source->thaw();
    session->frozen = false;
    source->set_app(std::move(app));  // restarts the app on the source
    rolled_back_->inc();
    fail(session, "destination create failed (rolled back): " +
                      created.error().message);
    return;
  }

  // Point of no return: release the source (frees its RAM and unbinds the
  // IP from the old host). The identity then stays dark while the network
  // learns its new location: a full L2 convergence under the traditional
  // scheme, or one controller round-trip under SDN redirection (the
  // paper's "IP-less routing" direction).
  (void)src->node().destroy_container(config.name);
  sim::Duration darkness =
      session->params.address_update == AddressUpdateMode::kArpConvergence
          ? kArpConvergenceDelay
          : kSdnUpdateDelay;
  // The app object rides through the closure to the deferred restart. The
  // source container no longer exists past this point; only its captured
  // name/config do — and the destination container is re-resolved after the
  // darkness window, because the destination can crash during it.
  auto shared_app =
      std::make_shared<std::unique_ptr<os::ContainerApp>>(std::move(app));
  std::string name = config.name;
  blackouts_[name].after(sim_, darkness, [this, session, ip, name,
                                          shared_app]() {
    blackouts_.erase(name);
    NodeDaemon* dst = live_node(session->params.to);
    os::Container* target =
        dst != nullptr ? dst->node().find_container(name) : nullptr;
    if (target == nullptr || target->state() == os::ContainerState::kDestroyed) {
      // Past the point of no return with no surviving copy: the instance is
      // genuinely gone. Report it lost so the record is marked for respawn.
      session->report.instance_lost = true;
      lost_->inc();
      aborted_dest_dead_->inc();
      fail(session, "destination died during commit blackout");
      return;
    }
    target->set_app(std::move(*shared_app));
    util::Status started = target->start(ip);
    if (!started.ok()) {
      (void)dst->node().destroy_container(name);
      session->report.instance_lost = true;
      lost_->inc();
      fail(session, "destination start failed: " + started.error().message);
      return;
    }
    session->report.success = true;
    session->report.phase = "done";
    session->report.downtime = sim_.now() - session->frozen_at;
    succeeded_->inc();
    downtime_seconds_->observe(session->report.downtime.to_seconds());
    PICLOUD_TRACE(sim_.trace(), "cloud.migration", "succeeded",
                  {"instance", session->params.instance},
                  {"to", session->params.to});
    finish(session);
  });
}

void MigrationCoordinator::abort_source_dead(std::shared_ptr<Session> session) {
  aborted_source_dead_->inc();
  // The container died with its node; the instance record reverts to
  // "running" on the (dead) source, where the monitor-driven dead-node
  // reconciliation picks it up.
  fail(session, "source node died mid-migration (" + session->report.phase +
                    ")");
}

void MigrationCoordinator::abort_dest_dead(std::shared_ptr<Session> session) {
  aborted_dest_dead_->inc();
  // Revert: the instance keeps running on the source with its flows intact.
  os::Container* container = source_container(*session);
  if (session->frozen && container != nullptr) {
    (void)container->thaw();
    session->frozen = false;
  }
  fail(session, "destination node died mid-migration (" +
                    session->report.phase + ")");
}

void MigrationCoordinator::fail(std::shared_ptr<Session> session,
                                const std::string& error) {
  session->report.success = false;
  session->report.error = error;
  failed_->inc();
  PICLOUD_TRACE(sim_.trace(), "cloud.migration", "failed",
                {"instance", session->params.instance},
                {"phase", session->report.phase}, {"error", error});
  LOG_WARN("migrate", "%s: FAILED: %s", session->params.instance.c_str(),
           error.c_str());
  finish(session);
}

void MigrationCoordinator::finish(std::shared_ptr<Session> session) {
  if (session->admitted) {
    migrating_.erase(session->params.instance);
    --in_flight_;
    session->admitted = false;
  }
  session->report.total_duration = sim_.now() - session->started;
  if (session->done) session->done(session->report);
}

}  // namespace picloud::cloud
