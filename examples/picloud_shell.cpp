// picloud-shell — an interactive operator console for the PiCloud.
//
// Paper §III: "We are experimenting with new UIs for control of the Cloud."
// This one is a REPL over the management plane: commands execute against a
// live simulated 56-Pi cloud, and simulated time advances as you work.
// Reads stdin; pipe a script or drive it by hand.
//
//   $ ./build/examples/picloud_shell <<'EOF'
//   spawn web-1 httpd
//   nodes
//   migrate web-1
//   panel
//   EOF
//
// Commands:
//   help                      this text
//   nodes                     fleet table (hostname, rack, cpu, mem, state)
//   panel                     the Fig. 4 dashboard
//   spawn <name> [app]        create an instance (app: httpd|kvstore|mr-worker|batch)
//   rm <name>                 delete an instance
//   ls                        list instances
//   migrate <name> [host]     live-migrate (policy picks the host if omitted)
//   limit <name> <cpu 0..1>   per-VM soft CPU limit
//   policy <name>             switch placement policy
//   images                    image catalogue
//   patch <image> <MiB>       publish a patch layer
//   crash <host>              kill a Pi
//   heal <host>               power a Pi back on
//   cut <rack>                cut one aggregation uplink of a rack's ToR
//   fix <rack>                repair it
//   load <name> <rps>         aim request traffic at an instance
//   run <seconds>             advance simulated time
//   power                     socket-board reading
//   metrics [prefix]          GET /metrics from the pimaster (e.g.
//                             `metrics cloud.master`, `metrics node.pi-r0-00`)
//   quit
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "util/strings.h"

using namespace picloud;

namespace {

struct Shell {
  sim::Simulation sim{2013};
  cloud::PiCloud cloud{sim};
  std::map<std::string, std::unique_ptr<apps::HttpLoadGen>> generators;
  std::map<int, net::LinkId> cut_links;  // rack -> severed uplink
  std::uint16_t next_gen_port = 42000;

  void advance(double seconds) {
    cloud.run_for(sim::Duration::seconds(seconds));
  }

  void print_nodes() {
    std::printf("%-12s %4s %6s %10s %4s %6s %s\n", "node", "rack", "cpu%",
                "mem", "ct", "watts", "state");
    for (const auto& [hostname, rec] : cloud.master().monitor().nodes()) {
      bool alive = cloud.master().monitor().alive(hostname);
      std::printf("%-12s %4d %6.1f %10s %4d %6.1f %s\n", rec.hostname.c_str(),
                  rec.rack, rec.gauges.cpu_utilization * 100,
                  util::human_bytes(rec.gauges.mem_used).c_str(),
                  static_cast<int>(rec.gauges.containers_total),
                  rec.gauges.power_watts,
                  alive ? "up" : "DOWN");
    }
  }

  void print_instances() {
    std::printf("%-16s %-12s %-15s %-10s %s\n", "instance", "node", "ip",
                "app", "state");
    for (const auto& [name, record] : cloud.master().instance_records()) {
      std::printf("%-16s %-12s %-15s %-10s %s\n", record.name.c_str(),
                  record.hostname.c_str(), record.ip.to_string().c_str(),
                  record.app_kind.empty() ? "-" : record.app_kind.c_str(),
                  record.state.c_str());
    }
  }

  net::LinkId tor_uplink(int rack) {
    const net::Topology& topo = cloud.topology();
    if (rack < 0 || rack >= topo.rack_count()) return net::kInvalidLink;
    for (net::LinkId lid : cloud.fabric().node(topo.tor_switches[rack]).out_links) {
      if (cloud.fabric().node(cloud.fabric().link(lid).to).kind ==
          net::NodeKind::kSwitch) {
        return lid;
      }
    }
    return net::kInvalidLink;
  }

  bool handle(const std::string& line);
};

bool Shell::handle(const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return true;

  if (cmd == "quit" || cmd == "exit") return false;

  if (cmd == "help") {
    std::printf("commands: nodes panel spawn rm ls migrate limit policy "
                "images patch crash heal cut fix load run power metrics "
                "quit\n");
  } else if (cmd == "nodes") {
    print_nodes();
  } else if (cmd == "ls") {
    print_instances();
  } else if (cmd == "panel") {
    auto dashboard = cloud.dashboard();
    std::printf("%s\n", dashboard.ok() ? dashboard.value().c_str()
                                       : dashboard.error().message.c_str());
  } else if (cmd == "spawn") {
    std::string name, app;
    in >> name >> app;
    if (name.empty()) {
      std::printf("usage: spawn <name> [app]\n");
    } else {
      auto record = cloud.spawn_and_wait({.name = name, .app_kind = app});
      if (record.ok()) {
        std::printf("spawned %s on %s at %s\n", name.c_str(),
                    record.value().hostname.c_str(),
                    record.value().ip.to_string().c_str());
      } else {
        std::printf("spawn failed: %s\n", record.error().message.c_str());
      }
    }
  } else if (cmd == "rm") {
    std::string name;
    in >> name;
    util::Status status = cloud.delete_and_wait(name);
    std::printf("%s\n", status.ok() ? "deleted" : status.error().message.c_str());
  } else if (cmd == "migrate") {
    std::string name, host;
    in >> name >> host;
    auto report = cloud.migrate_and_wait(name, host, /*live=*/true);
    if (report.success) {
      std::printf("moved %s: %s -> %s (blackout %.0f ms, %.1f MiB, %d rounds)\n",
                  name.c_str(), report.from.c_str(), report.to.c_str(),
                  report.downtime.to_seconds() * 1000,
                  report.bytes_transferred / (1 << 20), report.precopy_rounds);
    } else {
      std::printf("migration failed: %s\n", report.error.c_str());
    }
  } else if (cmd == "limit") {
    std::string name;
    double cpu = 0;
    in >> name >> cpu;
    util::Json limits = util::Json::object();
    limits.set("cpu_limit", cpu);
    bool done = false;
    cloud.panel().set_vm_limits(name, std::move(limits),
                                [&](util::Result<util::Json> result) {
                                  done = true;
                                  std::printf("%s\n", result.ok()
                                                          ? "limit applied"
                                                          : result.error()
                                                                .message.c_str());
                                });
    cloud.run_until(sim::Duration::seconds(30), [&]() { return done; });
  } else if (cmd == "policy") {
    std::string name;
    in >> name;
    util::Status status = cloud.master().set_policy(name);
    std::printf("%s\n", status.ok() ? ("policy: " + name).c_str()
                                    : status.error().message.c_str());
  } else if (cmd == "images") {
    for (const auto& id : cloud.master().images().list()) {
      auto layer = cloud.master().images().get(id);
      std::printf("%-20s %10s  %s\n", id.c_str(),
                  util::human_bytes(static_cast<double>(
                                        layer.value().layer_bytes))
                      .c_str(),
                  layer.value().note.c_str());
    }
  } else if (cmd == "patch") {
    std::string image;
    double mib = 0;
    in >> image >> mib;
    auto id = cloud.master().images().patch(
        image, static_cast<std::uint64_t>(mib * (1 << 20)), "shell patch");
    std::printf("%s\n", id.ok() ? id.value().c_str()
                                : id.error().message.c_str());
  } else if (cmd == "crash" || cmd == "heal") {
    std::string host;
    in >> host;
    cloud::NodeDaemon* daemon = cloud.daemon_by_hostname(host);
    if (daemon == nullptr) {
      std::printf("no such node\n");
    } else if (cmd == "crash") {
      daemon->crash();
      std::printf("%s crashed\n", host.c_str());
    } else {
      daemon->start();
      advance(5);
      std::printf("%s rebooting (DHCP + registration under way)\n",
                  host.c_str());
    }
  } else if (cmd == "cut" || cmd == "fix") {
    int rack = -1;
    in >> rack;
    net::LinkId link = cmd == "cut" ? tor_uplink(rack)
                                    : (cut_links.count(rack) ? cut_links[rack]
                                                             : net::kInvalidLink);
    if (link == net::kInvalidLink) {
      std::printf("no uplink to %s\n", cmd == "cut" ? "cut" : "fix");
    } else if (cmd == "cut") {
      cloud.fabric().set_link_pair_up(link, false);
      cut_links[rack] = link;
      std::printf("cut one uplink of rack %d\n", rack);
    } else {
      cloud.fabric().set_link_pair_up(link, true);
      cut_links.erase(rack);
      std::printf("repaired rack %d uplink\n", rack);
    }
  } else if (cmd == "load") {
    std::string name;
    double rps = 0;
    in >> name >> rps;
    auto record = cloud.master().instance(name);
    if (!record.ok()) {
      std::printf("no such instance\n");
    } else {
      auto& gen = generators[name];
      if (gen == nullptr) {
        apps::HttpLoadGen::Params params;
        params.requests_per_sec = rps;
        gen = std::make_unique<apps::HttpLoadGen>(
            cloud.network(), cloud.admin_ip(),
            std::vector<net::Ipv4Addr>{record.value().ip}, params,
            util::Rng(7), next_gen_port++);
        gen->start();
      } else {
        gen->set_rate(rps);
      }
      std::printf("offering %.0f req/s to %s\n", rps, name.c_str());
    }
  } else if (cmd == "run") {
    double seconds = 0;
    in >> seconds;
    advance(seconds);
    std::printf("t = %.1f s", sim.now().to_seconds());
    for (auto& [name, gen] : generators) {
      std::printf("  [%s: %llu ok, %llu lost, p99 %.1f ms]", name.c_str(),
                  static_cast<unsigned long long>(gen->completed()),
                  static_cast<unsigned long long>(gen->timed_out()),
                  gen->latencies().p99());
    }
    std::printf("\n");
  } else if (cmd == "power") {
    std::printf("socket board: %.1f W, %.4f kWh since power-on\n",
                cloud.current_power_watts(), cloud.energy_kwh());
  } else if (cmd == "metrics") {
    // A real GET /metrics round-trip to the pimaster (costs fabric time,
    // like any panel page). Optional prefix narrows the dump client-side.
    std::string prefix;
    in >> prefix;
    auto snap = cloud.metrics_snapshot();
    if (!snap.ok()) {
      std::printf("metrics fetch failed: %s\n", snap.error().message.c_str());
    } else if (prefix.empty()) {
      std::printf("%s\n", snap.value().pretty().c_str());
    } else {
      for (const char* section : {"counters", "gauges"}) {
        for (const auto& [name, value] :
             snap.value().get(section).as_object()) {
          if (name.rfind(prefix, 0) == 0) {
            std::printf("%-48s %s\n", name.c_str(), value.dump().c_str());
          }
        }
      }
    }
  } else {
    std::printf("unknown command '%s' (try: help)\n", cmd.c_str());
  }
  return true;
}

}  // namespace

int main() {
  Shell shell;
  std::printf("booting the Glasgow PiCloud (56 nodes)...\n");
  shell.cloud.power_on();
  if (!shell.cloud.await_ready()) {
    std::printf("fleet failed to register\n");
    return 1;
  }
  shell.advance(5);
  std::printf("ready. type 'help' for commands.\n");

  std::string line;
  while (std::printf("picloud> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (!shell.handle(line)) break;
    // A keystroke of wall time is an instant of cloud time: nudge the sim
    // so heartbeats keep flowing between commands.
    shell.advance(1);
  }
  std::printf("\nbye.\n");
  return 0;
}
