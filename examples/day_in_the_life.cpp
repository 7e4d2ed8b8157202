// A day in the life of the PiCloud — everything at once.
//
// A self-healing web tier (ReplicaSet) rides a diurnal traffic curve
// (TracePlayer) while the Autopilot consolidates overnight and wakes nodes
// for the morning ramp, and a ChaosMonkey kills the occasional Pi. The
// TraceRecorder samples the gauges a paper figure would plot: offered load,
// healthy replicas, nodes on, socket-board watts, request latency.
//
//   $ ./build/examples/day_in_the_life
#include <cstdio>

#include "apps/loadgen.h"
#include "apps/trace.h"
#include "cloud/chaos.h"
#include "cloud/cloud.h"
#include "cloud/replicaset.h"
#include "util/logging.h"
#include "util/strings.h"

using namespace picloud;

int main() {
  sim::Simulation sim(2013);  // the paper's vintage
  // Narrate the day: warnings and up, stamped with the simulated clock so
  // the output reads like the syslog of a real PiCloud run.
  util::Logging::set_level(util::LogLevel::kWarn);
  sim.install_clock_log_sink();
  cloud::PiCloudConfig config;
  config.placement_policy = "best-fit";
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  if (!cloud.await_ready()) return 1;
  cloud.run_for(sim::Duration::seconds(10));

  // The service: 6 self-healing web replicas.
  cloud::ReplicaSet::Config rs_config;
  rs_config.name_prefix = "frontend";
  rs_config.replicas = 6;
  rs_config.spec.app_kind = "httpd";
  cloud::ReplicaSet tier(sim, cloud.master(), rs_config);

  // The clients: a diurnal day with a lunchtime peak and flash crowds.
  apps::HttpLoadGen::Params load;
  load.request_timeout = sim::Duration::seconds(2);
  apps::HttpLoadGen clients(cloud.network(), cloud.admin_ip(), {}, load,
                            util::Rng(7));
  tier.set_on_change([&]() { clients.set_targets(tier.endpoints()); });
  tier.start();
  cloud.run_until(sim::Duration::minutes(3),
                  [&]() { return tier.healthy_replicas() == 6; });
  clients.set_targets(tier.endpoints());

  apps::DiurnalProfile::Params day;
  day.base_rps = 15;
  day.peak_rps = 240;
  day.peak_hour = 13;
  day.flash_per_day = 2;
  day.flash_multiplier = 2.5;
  apps::TracePlayer player(sim, clients,
                           apps::DiurnalProfile(day, util::Rng(9)),
                           sim::Duration::minutes(2));
  player.start();

  // The operator: consolidation + power management.
  cloud::Autopilot::Config auto_config;
  auto_config.evaluation_period = sim::Duration::minutes(2);
  auto_config.min_nodes_on = 8;
  auto_config.wake_cpu_threshold = 0.6;
  cloud.enable_autopilot(auto_config);

  // The universe: a Pi dies every few hours.
  cloud::ChaosMonkey::Config chaos_config;
  chaos_config.node_mtbf = sim::Duration::minutes(240);
  chaos_config.node_mttr = sim::Duration::minutes(10);
  cloud::ChaosMonkey chaos(sim, cloud.fabric(), chaos_config, util::Rng(13));
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    chaos.add_node(&cloud.daemon(i));
  }
  chaos.start();

  // The figure: one row per simulated hour.
  apps::TraceRecorder recorder(sim, sim::Duration::minutes(60));
  std::uint64_t served_last = 0;
  recorder.add_gauge("req/s", [&]() { return player.current_rps(); });
  recorder.add_gauge("replicas", [&]() {
    return static_cast<double>(tier.healthy_replicas());
  });
  recorder.add_gauge("nodes_on", [&]() {
    double on = 0;
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      if (cloud.node(i).running()) ++on;
    }
    return on;
  });
  recorder.add_gauge("watts", [&]() { return cloud.current_power_watts(); });
  recorder.add_gauge("served/h", [&]() {
    double delta = static_cast<double>(clients.completed() - served_last);
    served_last = clients.completed();
    return delta;
  });
  recorder.add_gauge("p99_ms", [&]() { return clients.latencies().p99(); });
  recorder.start();

  std::printf("Simulating 24 hours of the PiCloud...\n\n");
  cloud.run_for(sim::Duration::seconds(24 * 3600));

  recorder.stop();
  player.stop();
  chaos.stop();
  std::printf("%s\n", recorder.render().c_str());

  double availability =
      1.0 - static_cast<double>(clients.timed_out()) /
                std::max<std::uint64_t>(clients.sent(), 1);
  std::printf("day totals: %llu requests, %.3f%% served, %.3f kWh, "
              "%llu node crashes (%llu healed), %llu replica replacements\n",
              static_cast<unsigned long long>(clients.sent()),
              availability * 100, cloud.energy_kwh(),
              static_cast<unsigned long long>(
                  sim.metrics().counter_value("cloud.chaos.node_crashes")),
              static_cast<unsigned long long>(
                  sim.metrics().counter_value("cloud.chaos.node_repairs")),
              static_cast<unsigned long long>(tier.stats().replaced));
  std::printf("\nEvery row above is the cross-layer story: traffic drives\n"
              "CPU, the autopilot chases it with the socket board, chaos\n"
              "bites, the ReplicaSet heals — one testbed, all layers.\n");
  return availability > 0.95 ? 0 : 1;
}
