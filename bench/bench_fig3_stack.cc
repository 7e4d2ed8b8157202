// Figure 3 — "PiCloud software stack".
//
// Regenerates the per-Pi stack diagram as executable fact: one Model B
// boots Raspbian (NodeOs), starts LXC containers for the figure's three
// applications — Web Server, Database, Hadoop — under the libvirt-style
// management API, and the harness reports memory at every layer. Verifies
// the paper's envelope: "we can run three containers on a single Pi, each
// consuming 30MB RAM when idle".
#include <cstdio>

#include "apps/httpd.h"
#include "apps/kvstore.h"
#include "apps/loadgen.h"
#include "apps/mapreduce.h"
#include "hw/device.h"
#include "net/topology.h"
#include "os/node_os.h"
#include "util/strings.h"

using namespace picloud;

namespace {
std::string mib(std::uint64_t bytes) {
  return util::format("%6.1f MiB", static_cast<double>(bytes) / (1 << 20));
}
}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("FIGURE 3 — PiCloud software stack on one Raspberry Pi\n");
  std::printf("==============================================================\n\n");

  sim::Simulation sim(1);
  net::Fabric fabric(sim);
  net::Network network(sim, fabric);
  net::Topology topo = net::build_single_rack(fabric, 2);
  hw::Device device(0, "pi-r0-00", hw::pi_model_b());
  os::NodeOs node(sim, device, network, topo.hosts[0]);
  net::Ipv4Addr client_ip(10, 0, 0, 200);
  network.bind_ip(client_ip, topo.internet);

  std::printf("Layer 0  ARM System on Chip      BCM2835, %d x %.0f MHz, %s RAM\n",
              device.spec().cores, device.spec().core_hz / 1e6,
              util::human_bytes(static_cast<double>(device.spec().ram_bytes)).c_str());

  node.boot();
  node.set_host_ip(net::Ipv4Addr(10, 0, 0, 1));
  std::printf("Layer 1  Raspbian Linux          boots; system uses %s of %s usable\n",
              mib(node.memory().used()).c_str(),
              mib(node.memory().capacity()).c_str());

  // Layer 2+3: LXC containers running the figure's three applications.
  struct Slot {
    const char* figure_label;
    const char* name;
    std::unique_ptr<os::ContainerApp> app;
    net::Ipv4Addr ip;
  };
  Slot slots[3] = {
      {"Web Server Container", "webserver", std::make_unique<apps::HttpdApp>(),
       net::Ipv4Addr(10, 0, 1, 1)},
      {"Database Container", "database", std::make_unique<apps::KvStoreApp>(),
       net::Ipv4Addr(10, 0, 1, 2)},
      {"Hadoop Container", "hadoop",
       std::make_unique<apps::MapReduceWorkerApp>(), net::Ipv4Addr(10, 0, 1, 3)},
  };

  std::printf("Layer 2  Linux Container (LXC) + libvirt-style management\n");
  std::uint64_t before_containers = node.memory().used();
  for (auto& slot : slots) {
    auto created = node.create_container({.name = slot.name});
    if (!created.ok()) {
      std::printf("  FAILED to create %s: %s\n", slot.name,
                  created.error().message.c_str());
      return 1;
    }
    std::uint64_t before = node.memory().used();
    created.value()->set_app(std::move(slot.app));
    if (!created.value()->start(slot.ip).ok()) {
      std::printf("  FAILED to start %s\n", slot.name);
      return 1;
    }
    std::printf("Layer 3  %-22s idle footprint %s + app working set %s\n",
                slot.figure_label,
                mib(os::Container::kIdleRamBytes).c_str(),
                mib(node.memory().used() - before -
                    os::Container::kIdleRamBytes)
                    .c_str());
  }
  std::uint64_t idle_total = before_containers + 3 * os::Container::kIdleRamBytes;
  std::printf("\nPaper check: 3 x 30 MiB idle containers -> %s of %s used "
              "(idle-only basis: %s)\n",
              mib(node.memory().used()).c_str(),
              mib(node.memory().capacity()).c_str(), mib(idle_total).c_str());
  bool fits = node.memory().used() < node.memory().capacity();
  std::printf("  three concurrent containers: %s\n",
              fits ? "COMFORTABLE (as the paper states)" : "DO NOT FIT");

  // Exercise each application so the stack is demonstrably alive.
  std::printf("\nExercising the three applications:\n");

  apps::HttpLoadGen::Params gen_params;
  gen_params.requests_per_sec = 25;
  apps::HttpLoadGen gen(network, client_ip, {slots[0].ip}, gen_params,
                        util::Rng(5));
  gen.start();

  apps::KvClient kv(network, client_ip);
  int kv_ok = 0;
  for (int i = 0; i < 20; ++i) {
    kv.put(slots[1].ip, "key-" + std::to_string(i), 256 << 10,
           [&](util::Result<apps::ServeReply> r) {
             if (r.ok() && r.value().ok.value_or(false)) ++kv_ok;
           });
  }

  apps::MapReduceDriver driver(network, client_ip);
  apps::MapReduceJobSpec job;
  job.job_id = "fig3-wordcount";
  job.input_bytes = 4ull << 20;
  job.map_tasks = 4;
  job.workers = {slots[2].ip};
  job.reducers = {slots[2].ip};
  bool mr_done = false;
  double mr_seconds = 0;
  driver.run(job, [&](const apps::MapReduceJobResult& r) {
    mr_done = r.success;
    mr_seconds = r.duration.to_seconds();
  });

  sim.run_until(sim.now() + sim::Duration::seconds(20));
  gen.stop();
  sim.run();

  std::printf("  webserver: %llu requests served, p50 latency %.2f ms\n",
              static_cast<unsigned long long>(gen.completed()),
              gen.latencies().median());
  std::printf("  database:  %d/20 puts stored (%s resident)\n", kv_ok,
              mib(node.find_container("database")->memory_usage()).c_str());
  std::printf("  hadoop:    wordcount over %s %s in %.2f s\n",
              mib(job.input_bytes).c_str(),
              mr_done ? "completed" : "FAILED", mr_seconds);

  std::printf("\nFinal node state: cpu avg %.1f%%, memory %s / %s, %zu containers\n",
              node.cpu().average_utilization(sim.now()) * 100,
              mib(node.memory().used()).c_str(),
              mib(node.memory().capacity()).c_str(), node.container_count());

  bool ok = fits && gen.completed() > 100 && kv_ok == 20 && mr_done;
  std::printf("\nFIGURE 3 STACK: %s\n", ok ? "REPRODUCED" : "PROBLEMS FOUND");
  return ok ? 0 : 1;
}
