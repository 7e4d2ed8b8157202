// Application tests: httpd under load and limits, kvstore semantics and
// OOM behaviour, MapReduce end-to-end on a small cluster, traffic
// generators, and owners destroyed with work pending.
#include <gtest/gtest.h>

#include "apps/batch.h"
#include "apps/dfs.h"
#include "apps/factory.h"
#include "apps/httpd.h"
#include "apps/kvstore.h"
#include "apps/loadgen.h"
#include "apps/mapreduce.h"
#include "hw/device.h"
#include "os/node_os.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace picloud::apps {
namespace {

// A rack of real NodeOs instances to host containers on.
struct AppWorld {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  std::vector<std::unique_ptr<hw::Device>> devices;
  std::vector<std::unique_ptr<os::NodeOs>> nodes;
  net::Ipv4Addr client_ip{10, 0, 0, 200};

  explicit AppWorld(int host_count = 4) {
    topo = net::build_single_rack(fabric, host_count);
    for (int i = 0; i < host_count; ++i) {
      devices.push_back(std::make_unique<hw::Device>(
          i, "pi-r0-" + std::to_string(i), hw::pi_model_b()));
      nodes.push_back(std::make_unique<os::NodeOs>(
          sim, *devices.back(), network, topo.hosts[i]));
      nodes.back()->boot();
      nodes.back()->set_host_ip(net::Ipv4Addr(10, 0, 0, 1 + i));
    }
    network.bind_ip(client_ip, topo.internet);
  }

  // Starts a container with `app` on node `n` and returns its IP.
  net::Ipv4Addr launch(int n, const std::string& name,
                       std::unique_ptr<os::ContainerApp> app,
                       std::uint64_t mem_limit = 0) {
    auto created =
        nodes[n]->create_container({.name = name, .memory_limit = mem_limit});
    EXPECT_TRUE(created.ok());
    created.value()->set_app(std::move(app));
    net::Ipv4Addr ip(10, 0, 1, static_cast<std::uint8_t>(nodes[n]->container_count()));
    ip = net::Ipv4Addr(10, 0, 1,
                       static_cast<std::uint8_t>(10 * (n + 1) +
                                                 nodes[n]->container_count()));
    EXPECT_TRUE(created.value()->start(ip).ok());
    return ip;
  }
};

TEST(Httpd, ServesRequestsAndCounts) {
  AppWorld w;
  auto ip = w.launch(0, "web", std::make_unique<HttpdApp>());
  HttpLoadGen::Params params;
  params.requests_per_sec = 30;
  HttpLoadGen gen(w.network, w.client_ip, {ip}, params, util::Rng(3));
  gen.start();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(10));
  gen.stop();
  EXPECT_GT(gen.completed(), 250u);
  EXPECT_EQ(gen.timed_out(), 0u);
  auto* app = dynamic_cast<HttpdApp*>(
      w.nodes[0]->find_container("web")->app());
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->requests_served(), gen.completed());
  EXPECT_EQ(app->admission().dropped(), 0u);  // uncapped CPU: nothing sheds
}

TEST(Httpd, CpuCapRaisesLatencyUnderLoad) {
  AppWorld w;
  auto measure = [&](int node_index, const std::string& name,
                     double cpu_limit) {
    auto created = w.nodes[node_index]->create_container(
        {.name = name, .cpu_limit = cpu_limit});
    EXPECT_TRUE(created.ok());
    created.value()->set_app(std::make_unique<HttpdApp>());
    net::Ipv4Addr ip(10, 0, 2, static_cast<std::uint8_t>(node_index + 1));
    EXPECT_TRUE(created.value()->start(ip).ok());
    HttpLoadGen::Params params;
    params.requests_per_sec = 40;
    HttpLoadGen gen(w.network, w.client_ip, {ip}, params, util::Rng(5),
                    static_cast<std::uint16_t>(41000 + node_index));
    gen.start();
    w.sim.run_until(w.sim.now() + sim::Duration::seconds(20));
    gen.stop();
    return gen.latencies().median();
  };
  double fast = measure(0, "fast", 0.0);
  double slow = measure(1, "slow", 0.05);  // throttled to 35 MHz
  EXPECT_GT(slow, fast * 5);
}

TEST(Kvstore, PutGetDelWithMemoryCharging) {
  AppWorld w;
  auto ip = w.launch(0, "db", std::make_unique<KvStoreApp>());
  KvClient client(w.network, w.client_ip);
  bool put_ok = false, get_ok = false, del_ok = false, gone = false;
  client.put(ip, "k1", 1 << 20, [&](util::Result<ServeReply> r) {
    put_ok = r.ok() && r.value().ok.value_or(false);
    client.get(ip, "k1", [&](util::Result<ServeReply> r2) {
      get_ok = r2.ok() && r2.value().ok.value_or(false) &&
               r2.value().bytes == std::uint64_t{1} << 20;
      client.del(ip, "k1", [&](util::Result<ServeReply> r3) {
        del_ok = r3.ok() && r3.value().ok.value_or(false);
        client.get(ip, "k1", [&](util::Result<ServeReply> r4) {
          gone = r4.ok() && !r4.value().ok.value_or(false);
        });
      });
    });
  });
  w.sim.run();
  EXPECT_TRUE(put_ok);
  EXPECT_TRUE(get_ok);
  EXPECT_TRUE(del_ok);
  EXPECT_TRUE(gone);
}

TEST(Kvstore, CgroupLimitRejectsOversizedDataset) {
  AppWorld w;
  // 64 MB cgroup: 30 idle + datasets must stay under.
  auto ip = w.launch(0, "db", std::make_unique<KvStoreApp>(), 64ull << 20);
  KvClient client(w.network, w.client_ip);
  int accepted = 0, rejected = 0;
  std::function<void(int)> put_next = [&](int i) {
    if (i >= 10) return;
    client.put(ip, "k" + std::to_string(i), 8ull << 20,
               [&, i](util::Result<ServeReply> r) {
                 ASSERT_TRUE(r.ok());
                 if (r.value().ok.value_or(false)) {
                   ++accepted;
                 } else {
                   ++rejected;
                 }
                 put_next(i + 1);
               });
  };
  put_next(0);
  w.sim.run();
  // 30 MB idle + 4 x 8 MB = 62 MB fits; the 5th 8 MB put crosses 64 MB.
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 6);
  // The app's own op accounting agrees with the client's view.
  auto* app = dynamic_cast<KvStoreApp*>(
      w.nodes[0]->find_container("db")->app());
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->ops_served(), 4u);
  EXPECT_EQ(app->ops_rejected(), 6u);
}

TEST(Kvstore, StateSurvivesStopStart) {
  AppWorld w;
  auto ip = w.launch(0, "db", std::make_unique<KvStoreApp>());
  KvClient client(w.network, w.client_ip);
  client.put(ip, "persistent", 4096, [](util::Result<ServeReply>) {});
  w.sim.run();
  os::Container* c = w.nodes[0]->find_container("db");
  auto* app = dynamic_cast<KvStoreApp*>(c->app());
  ASSERT_TRUE(c->stop().ok());
  EXPECT_EQ(app->key_count(), 1u);  // dataset retained across stop
  ASSERT_TRUE(c->start(ip).ok());
  bool got = false;
  client.get(ip, "persistent", [&](util::Result<ServeReply> r) {
    got = r.ok() && r.value().ok.value_or(false);
  });
  w.sim.run();
  EXPECT_TRUE(got);
}

TEST(MapReduce, WordcountStyleJobCompletes) {
  AppWorld w(4);
  std::vector<net::Ipv4Addr> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(
        w.launch(i, "mr" + std::to_string(i),
                 std::make_unique<MapReduceWorkerApp>()));
  }
  MapReduceDriver driver(w.network, w.client_ip);
  MapReduceJobSpec spec;
  spec.job_id = "wordcount-1";
  spec.input_bytes = 32ull << 20;
  spec.map_tasks = 8;
  spec.workers = workers;
  spec.reducers = {workers[0], workers[1]};
  bool done = false;
  MapReduceJobResult result;
  sim::SimTime finished_at;
  driver.run(spec, [&](const MapReduceJobResult& r) {
    done = true;
    result = r;
    finished_at = w.sim.now();
  });
  w.sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.success) << result.error;
  EXPECT_GT(result.duration.to_seconds(), 0.0);
  // Pinned to the nanosecond: every control message of the job (map
  // orders, partitions, reduce orders, completions) is charged its exact
  // encoded length on the fabric, so a body that sizes one byte
  // differently moves the finish time.
  EXPECT_EQ(finished_at.ns(), 420056559);
  // Shuffle actually crossed the fabric.
  EXPECT_GT(w.fabric.total_bytes_carried(), spec.input_bytes * 0.3);
  // Every task landed on some worker; totals match the spec.
  std::uint64_t maps = 0, reduces = 0;
  for (int i = 0; i < 4; ++i) {
    auto* worker = dynamic_cast<MapReduceWorkerApp*>(
        w.nodes[i]->find_container("mr" + std::to_string(i))->app());
    ASSERT_NE(worker, nullptr);
    maps += worker->map_tasks_done();
    reduces += worker->reduce_tasks_done();
  }
  EXPECT_EQ(maps, spec.map_tasks);
  EXPECT_EQ(reduces, spec.reducers.size());
}

TEST(MapReduce, MoreWorkersFinishFaster) {
  auto run_with = [](int worker_count) {
    AppWorld w(4);
    std::vector<net::Ipv4Addr> workers;
    for (int i = 0; i < worker_count; ++i) {
      workers.push_back(w.launch(i, "mr", std::make_unique<MapReduceWorkerApp>()));
    }
    MapReduceDriver driver(w.network, w.client_ip);
    MapReduceJobSpec spec;
    spec.job_id = "job";
    spec.input_bytes = 16ull << 20;
    spec.map_tasks = 8;
    // CPU-bound job (compute >> shuffle), so workers are the bottleneck.
    spec.map_cycles_per_byte = 100;
    spec.shuffle_fraction = 0.05;
    spec.workers = workers;
    spec.reducers = {workers[0]};
    double seconds = -1;
    driver.run(spec, [&](const MapReduceJobResult& r) {
      seconds = r.success ? r.duration.to_seconds() : -1;
    });
    w.sim.run();
    return seconds;
  };
  double one = run_with(1);
  double four = run_with(4);
  ASSERT_GT(one, 0);
  ASSERT_GT(four, 0);
  EXPECT_LT(four, one * 0.6) << "parallel speedup missing";
}

TEST(MapReduce, RejectsBadSpecs) {
  AppWorld w(1);
  MapReduceDriver driver(w.network, w.client_ip);
  bool failed = false;
  driver.run(MapReduceJobSpec{}, [&](const MapReduceJobResult& r) {
    failed = !r.success;
  });
  EXPECT_TRUE(failed);
}

TEST(BackgroundTraffic, OffersHeavyTailedFlows) {
  AppWorld w(4);
  BackgroundTraffic::Params params;
  params.flows_per_sec = 50;
  params.mean_flow_bytes = 1e5;
  BackgroundTraffic traffic(w.fabric, w.topo, params, util::Rng(21));
  traffic.start();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(10));
  traffic.stop();
  EXPECT_GT(traffic.flows_started(), 300u);
  // Mean flow size should be near the configured mean.
  double mean = traffic.bytes_offered() /
                static_cast<double>(traffic.flows_started());
  EXPECT_NEAR(mean, 1e5, 5e4);
  w.sim.run();
}

// ---------------------------------------------------------------------------
// Owner lifetime: an object destroyed with work pending leaves no event
// behind that could fire into it.

// Called once the owner is gone and its messages have landed: nothing may
// be left to fire, even past the owner's `timeout`.
void expect_no_event_left(sim::Simulation& sim, sim::Duration timeout) {
  EXPECT_FALSE(sim.has_events());
  const std::uint64_t executed = sim.events_executed();
  sim.run_for(timeout);
  EXPECT_EQ(sim.events_executed(), executed);
}

// A bound address with no listener: requests to it land and go unanswered.
net::Ipv4Addr silent_address(AppWorld& w) {
  const net::Ipv4Addr ip(10, 0, 2, 1);
  w.network.bind_ip(ip, w.topo.hosts[0]);
  return ip;
}

TEST(OwnerLifetime, KvClientDestroyedWithARequestPending) {
  AppWorld w(1);
  const net::Ipv4Addr silent = silent_address(w);
  int callbacks = 0;
  auto client = std::make_unique<KvClient>(w.network, w.client_ip);
  client->get(silent, "k", [&](util::Result<ServeReply>) { ++callbacks; });
  w.sim.run_for(sim::Duration::seconds(1));
  client.reset();
  expect_no_event_left(w.sim, sim::Duration::seconds(10));
  EXPECT_EQ(callbacks, 0);
}

TEST(OwnerLifetime, HttpLoadGenStoppedAndDestroyedWithRequestsInFlight) {
  AppWorld w(1);
  HttpLoadGen::Params params;
  params.requests_per_sec = 20;
  auto gen = std::make_unique<HttpLoadGen>(
      w.network, w.client_ip, std::vector<net::Ipv4Addr>{silent_address(w)},
      params, util::Rng(11));
  gen->start();
  w.sim.run_for(sim::Duration::seconds(1));
  gen->stop();
  w.sim.run_for(sim::Duration::millis(500));
  ASSERT_GT(gen->in_flight(), 0u);
  gen.reset();
  expect_no_event_left(w.sim, params.request_timeout);
}

TEST(OwnerLifetime, MapReduceDriverDestroyedWithAJobOutstanding) {
  AppWorld w(1);
  const net::Ipv4Addr silent = silent_address(w);
  auto driver = std::make_unique<MapReduceDriver>(w.network, w.client_ip);
  MapReduceJobSpec spec;
  spec.job_id = "orphan";
  spec.map_tasks = 2;
  spec.workers = {silent};
  spec.reducers = {silent};
  int callbacks = 0;
  const sim::Duration timeout = sim::Duration::seconds(60);
  driver->run(spec, [&](const MapReduceJobResult&) { ++callbacks; }, timeout);
  w.sim.run_for(sim::Duration::seconds(1));
  driver.reset();
  expect_no_event_left(w.sim, timeout);
  EXPECT_EQ(callbacks, 0);
}

TEST(OwnerLifetime, DfsNamenodeDestroyedRightAfterASuccessfulWrite) {
  AppWorld w(2);
  DfsNamenode::Config config;
  auto namenode =
      std::make_unique<DfsNamenode>(w.network, w.client_ip, config);
  for (int n = 0; n < 2; ++n) {
    namenode->add_datanode(
        w.launch(n, "dn", std::make_unique<DfsNodeApp>()), n);
  }
  int callbacks = 0;
  bool written = false;
  namenode->write("f", 1 << 20, [&](util::Status status) {
    ++callbacks;
    written = status.ok();
  });
  while (callbacks == 0 && w.sim.has_events()) w.sim.step();
  ASSERT_TRUE(written);
  namenode.reset();
  expect_no_event_left(w.sim, config.request_timeout);
  EXPECT_EQ(callbacks, 1);
}

TEST(OwnerLifetime, DutyCycledBatchAppDestroyedDuringItsPause) {
  AppWorld w(1);
  BatchParams params;
  params.duty = 0.5;
  w.launch(0, "batch", std::make_unique<BatchApp>(params));
  // A 10 M-cycle chunk on a Model B runs as long as the rest after it, so
  // 1.015 s falls in a rest: no CPU task, only the pause pending.
  w.sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(1.015));
  ASSERT_EQ(w.nodes[0]->cpu().runnable_tasks(), 0u);
  ASSERT_TRUE(w.sim.has_events());
  ASSERT_TRUE(w.nodes[0]->destroy_container("batch").ok());
  expect_no_event_left(w.sim, sim::Duration::seconds(1));
}

TEST(AppFactory, BuildsKnownKindsRejectsUnknown) {
  EXPECT_TRUE(make_app("httpd", util::Json()).ok());
  EXPECT_TRUE(make_app("kvstore", util::Json()).ok());
  EXPECT_TRUE(make_app("mr-worker", util::Json()).ok());
  EXPECT_FALSE(make_app("fortran-ai", util::Json()).ok());
  // Params flow through.
  util::Json params = util::Json::object().set("port", 8081);
  auto app = make_app("httpd", params);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(dynamic_cast<HttpdApp*>(app.value().get())->params().port, 8081);
}

}  // namespace
}  // namespace picloud::apps
