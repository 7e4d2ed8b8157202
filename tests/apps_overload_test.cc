// Overload & graceful degradation acceptance tests (DESIGN.md §11): a 10×
// open-loop flash crowd against a 3-replica httpd fleet behind the L7 load
// balancer. Admission control + brownout must keep goodput during the
// crowd ≥ 5× the no-shedding baseline, with every request accounted for
// exactly once and retry amplification inside the token-bucket budget.
#include <gtest/gtest.h>

#include "apps/httpd.h"
#include "apps/kvstore.h"
#include "apps/lb.h"
#include "apps/loadgen.h"
#include "hw/device.h"
#include "net/topology.h"
#include "os/node_os.h"
#include "sim/simulation.h"
#include "util/strings.h"

namespace picloud::apps {
namespace {

struct FlashWorld {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  std::vector<std::unique_ptr<hw::Device>> devices;
  std::vector<std::unique_ptr<os::NodeOs>> nodes;
  net::Ipv4Addr client_ip{10, 0, 0, 200};

  explicit FlashWorld(int host_count = 4) {
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

  net::Ipv4Addr launch(int n, const std::string& name,
                       std::unique_ptr<os::ContainerApp> app) {
    auto created = nodes[n]->create_container({.name = name});
    EXPECT_TRUE(created.ok());
    created.value()->set_app(std::move(app));
    net::Ipv4Addr ip(10, 0, 1,
                     static_cast<std::uint8_t>(10 * (n + 1) +
                                               nodes[n]->container_count()));
    EXPECT_TRUE(created.value()->start(ip).ok());
    return ip;
  }
};

struct FlashResult {
  std::uint64_t goodput_in_window = 0;  // completions during the crowd
  std::uint64_t completed = 0;
  std::uint64_t completed_brownout = 0;
  std::uint64_t shed = 0;  // admission + deadline sheds across the fleet
  bool conserved = true;
  bool budget_ok = true;
  bool brownout_cleared = true;
};

// The acceptance scenario: 3 httpd replicas behind one LB, open-loop base
// rate stepped 10× for 20 s. `admission` off reproduces the pre-overload
// tier (every request straight to run_cpu) as the baseline.
FlashResult run_flash_crowd(bool admission) {
  FlashWorld w;
  HttpdParams hp;
  hp.admission_control = admission;
  hp.cycles_per_request = 2e7;  // ~29 ms alone: the crowd is 3.8× capacity
  std::vector<net::Ipv4Addr> backends;
  std::vector<HttpdApp*> apps;
  for (int i = 0; i < 3; ++i) {
    std::string name = "web" + std::to_string(i);
    backends.push_back(w.launch(i, name, std::make_unique<HttpdApp>(hp)));
    apps.push_back(
        dynamic_cast<HttpdApp*>(w.nodes[i]->find_container(name)->app()));
  }
  auto lb_ip = w.launch(3, "lb", std::make_unique<LbApp>());
  auto* lb = dynamic_cast<LbApp*>(w.nodes[3]->find_container("lb")->app());
  lb->set_backends(backends);

  HttpLoadGen::Params params;
  params.requests_per_sec = 40;
  params.request_timeout = sim::Duration::seconds(1);
  params.shape.kind = TrafficShape::Kind::kFlashCrowd;
  params.shape.at = sim::Duration::seconds(10);
  params.shape.duration = sim::Duration::seconds(20);
  params.shape.multiplier = 10.0;
  HttpLoadGen gen(w.network, w.client_ip, {lb_ip}, params, util::Rng(29));
  gen.start();

  FlashResult r;
  std::uint64_t completed_at_window_start = 0;
  w.sim.after(sim::Duration::seconds(10),
              [&]() { completed_at_window_start = gen.completed(); });
  w.sim.after(sim::Duration::seconds(30), [&]() {
    r.goodput_in_window = gen.completed() - completed_at_window_start;
  });
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(45));
  gen.stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(5));

  r.completed = gen.completed();
  r.completed_brownout = gen.completed_brownout();
  for (HttpdApp* app : apps) {
    const HttpdApp::Queue& queue = app->admission();
    r.shed += queue.shed_admission() + queue.shed_deadline();
    if (queue.received() !=
        app->served_ok() + app->served_brownout() + queue.shed_admission() +
            queue.shed_deadline() + queue.refused_at_start() + queue.depth() +
            static_cast<std::uint64_t>(queue.in_service())) {
      r.conserved = false;
    }
    if (queue.brownout()) r.brownout_cleared = false;
  }
  if (gen.arrivals() != gen.completed() + gen.failed() + gen.timed_out() +
                            gen.breaker_rejected() + gen.in_flight()) {
    r.conserved = false;
  }
  if (lb->requests_received() != lb->responses_ok() + lb->responses_error() +
                                     lb->dropped_in_flight() +
                                     lb->in_flight()) {
    r.conserved = false;
  }
  r.budget_ok = lb->retry_budget().bounded(lb->attempts_forwarded()) &&
                gen.retry_budget().bounded(gen.attempts_sent());
  return r;
}

TEST(FlashCrowd, AdmissionControlKeepsGoodputUnderOverload) {
  FlashResult with_shedding = run_flash_crowd(/*admission=*/true);
  FlashResult baseline = run_flash_crowd(/*admission=*/false);

  // Zero unaccounted requests, both modes.
  EXPECT_TRUE(with_shedding.conserved);
  EXPECT_TRUE(baseline.conserved);
  // Retry amplification stays inside the budget, both modes.
  EXPECT_TRUE(with_shedding.budget_ok);
  EXPECT_TRUE(baseline.budget_ok);

  // The tentpole number: goodput during the crowd with admission control is
  // at least 5× the collapse baseline.
  EXPECT_GE(with_shedding.goodput_in_window,
            5 * std::max<std::uint64_t>(baseline.goodput_in_window, 1));
  EXPECT_GT(with_shedding.goodput_in_window, 2000u);

  // Degradation was graceful and temporary: brownout responses were served
  // during the crowd and the fleet left brownout once it passed.
  EXPECT_GT(with_shedding.completed_brownout, 0u);
  EXPECT_TRUE(with_shedding.brownout_cleared);
}

TEST(FlashCrowd, DiurnalShapeModulatesOfferedLoad) {
  // factor() is a pure function of time-since-start: the sinusoid peaks at
  // t = period/4 and troughs at 3·period/4, and never reaches zero.
  TrafficShape shape;
  shape.kind = TrafficShape::Kind::kDiurnal;
  shape.amplitude = 0.5;
  shape.period = sim::Duration::seconds(100);
  EXPECT_NEAR(shape.factor(sim::Duration::seconds(0)), 1.0, 1e-9);
  EXPECT_NEAR(shape.factor(sim::Duration::seconds(25)), 1.5, 1e-9);
  EXPECT_NEAR(shape.factor(sim::Duration::seconds(75)), 0.5, 1e-9);
  // A full-amplitude trough clamps instead of killing the arrival chain.
  shape.amplitude = 1.0;
  EXPECT_GE(shape.factor(sim::Duration::seconds(75)), 0.05);

  TrafficShape flash;
  flash.kind = TrafficShape::Kind::kFlashCrowd;
  flash.at = sim::Duration::seconds(30);
  flash.duration = sim::Duration::seconds(20);
  flash.multiplier = 10.0;
  EXPECT_NEAR(flash.factor(sim::Duration::seconds(29)), 1.0, 1e-9);
  EXPECT_NEAR(flash.factor(sim::Duration::seconds(30)), 10.0, 1e-9);
  EXPECT_NEAR(flash.factor(sim::Duration::seconds(49)), 10.0, 1e-9);
  EXPECT_NEAR(flash.factor(sim::Duration::seconds(50)), 1.0, 1e-9);

  // Round-trips through JSON (the scenario repro format).
  TrafficShape reloaded = TrafficShape::from_json(flash.to_json());
  EXPECT_EQ(reloaded.kind, TrafficShape::Kind::kFlashCrowd);
  EXPECT_EQ(reloaded.at.ns(), flash.at.ns());
  EXPECT_EQ(reloaded.duration.ns(), flash.duration.ns());
  EXPECT_NEAR(reloaded.multiplier, 10.0, 1e-9);
}

TEST(FlashCrowd, HeavyTailedCostRidesInRequests) {
  // cost_alpha > 1 gives each request a Pareto work multiplier; the server
  // multiplies its per-request cycles by it, so the same offered rate costs
  // visibly more CPU time than constant-cost traffic.
  auto median_latency = [](double alpha) {
    FlashWorld w(2);
    HttpdParams hp;
    hp.cycles_per_request = 4e6;
    auto ip = w.launch(0, "web", std::make_unique<HttpdApp>(hp));
    HttpLoadGen::Params params;
    params.requests_per_sec = 30;
    params.request_timeout = sim::Duration::seconds(2);
    params.shape.cost_alpha = alpha;
    params.shape.cost_mean = 3.0;
    HttpLoadGen gen(w.network, w.client_ip, {ip}, params, util::Rng(31));
    gen.start();
    w.sim.run_until(w.sim.now() + sim::Duration::seconds(20));
    gen.stop();
    EXPECT_GT(gen.completed(), 400u);
    return gen.latencies().median();
  };
  double constant_cost = median_latency(0.0);   // disabled: cost 1
  double heavy_tailed = median_latency(2.0);    // Pareto, mean 3
  EXPECT_GT(heavy_tailed, constant_cost * 1.5);
}

TEST(KvStoreOverload, BoundedQueueShedsInsteadOfCollapsing) {
  FlashWorld w(2);
  KvStoreParams kp;
  kp.queue_capacity = 32;
  kp.service_concurrency = 2;
  auto ip = w.launch(0, "db", std::make_unique<KvStoreApp>(kp));
  auto* app = dynamic_cast<KvStoreApp*>(w.nodes[0]->find_container("db")->app());
  ASSERT_NE(app, nullptr);

  // 300 puts issued back-to-back against a 32-deep queue: the excess sheds
  // with an admission 503 instead of queueing without bound.
  KvClient client(w.network, w.client_ip);
  int ok = 0, shed = 0;
  for (int i = 0; i < 300; ++i) {
    client.put(ip, util::format("k%d", i), 1024,
               [&](util::Result<util::Json> r) {
                 if (!r.ok()) return;
                 if (r.value().get_bool("ok")) {
                   ++ok;
                 } else if (r.value().get_string("shed", "") == "admission") {
                   ++shed;
                 }
               });
  }
  w.sim.run();

  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  const KvStoreApp::Queue& queue = app->admission();
  EXPECT_EQ(queue.shed_admission(), static_cast<std::uint64_t>(shed));
  // Conservation at quiesce: queue and service slots drained.
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.in_service(), 0);
  EXPECT_EQ(queue.received(),
            app->ops_served() + app->ops_rejected() + queue.shed_admission() +
                queue.shed_deadline() + queue.refused_at_start());
}

TEST(KvStoreOverload, BrownoutServesMetadataOnly) {
  FlashWorld w(2);
  KvStoreParams kp;
  kp.queue_capacity = 16;
  kp.service_concurrency = 1;
  kp.cycles_per_op = 5e6;  // slow enough that a burst trips the threshold
  auto ip = w.launch(0, "db", std::make_unique<KvStoreApp>(kp));
  auto* app = dynamic_cast<KvStoreApp*>(w.nodes[0]->find_container("db")->app());
  ASSERT_NE(app, nullptr);

  KvClient client(w.network, w.client_ip);
  bool stored = false;
  client.put(ip, "hot", 1 << 20,
             [&](util::Result<util::Json> r) { stored = r.ok(); });
  w.sim.run();
  ASSERT_TRUE(stored);

  int full_reads = 0, brownout_reads = 0;
  for (int i = 0; i < 40; ++i) {
    client.get(ip, "hot", [&](util::Result<util::Json> r) {
      if (!r.ok() || !r.value().get_bool("ok")) return;
      if (r.value().get_bool("brownout", false)) {
        ++brownout_reads;
      } else {
        ++full_reads;
      }
    });
  }
  w.sim.run();

  // The burst pushed the queue past the brownout threshold: some reads came
  // back metadata-only, and they were cheaper to serve.
  EXPECT_GT(brownout_reads, 0);
  EXPECT_EQ(app->served_brownout(),
            static_cast<std::uint64_t>(brownout_reads));
  // Once the burst drains, brownout exits.
  EXPECT_FALSE(app->admission().brownout());
}

// Stopping a server with a backlog: runs until all `sent` requests have
// arrived (one in service, the rest queued), then Container::stop(). The
// stop must refuse exactly the backlog it found — the queued requests at
// the drain, the one in service when its CPU task is cancelled — and leave
// the queue's registry series agreeing with the instance.
template <typename Queue, typename Completed>
void stop_with_backlog(FlashWorld& w, os::Container& container,
                       const Queue& queue, Completed completed,
                       const char* kind, std::uint64_t sent) {
  for (int ms = 0; ms < 1000 && queue.received() < sent; ++ms) {
    w.sim.run_for(sim::Duration::millis(1));
  }
  ASSERT_EQ(queue.received(), sent);
  ASSERT_GT(queue.depth(), 0u);
  ASSERT_EQ(queue.in_service(), 1);
  const std::uint64_t backlog =
      queue.depth() + static_cast<std::uint64_t>(queue.in_service());
  const std::uint64_t refused = queue.refused_at_start();

  ASSERT_TRUE(container.stop().ok());
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.in_service(), 0);
  EXPECT_EQ(queue.refused_at_start(), refused + backlog);
  EXPECT_TRUE(queue.conserved(completed()));
  const util::MetricsRegistry& m = w.sim.metrics();
  EXPECT_EQ(m.gauge_value(util::format("apps.%s.queue_depth", kind)), 0.0);
  EXPECT_EQ(m.counter_value(util::format("apps.%s.refused_at_start", kind)),
            queue.refused_at_start());
}

TEST(StoppedServer, HttpdRefusesItsBacklog) {
  FlashWorld w(2);
  HttpdParams hp;
  hp.service_concurrency = 1;
  hp.cycles_per_request = 2e7;  // ~29 ms: all 20 arrive before one finishes
  auto ip = w.launch(0, "web", std::make_unique<HttpdApp>(hp));
  os::Container* container = w.nodes[0]->find_container("web");
  auto* app = dynamic_cast<HttpdApp*>(container->app());
  ASSERT_NE(app, nullptr);

  for (int i = 0; i < 20; ++i) {
    net::Message msg;
    msg.src = w.client_ip;
    msg.dst = ip;
    msg.src_port = 40000;
    msg.dst_port = hp.port;
    msg.payload = util::Json::object();
    msg.payload.set("id", i);
    msg.payload.set("path", "/");
    w.network.send(std::move(msg));
  }
  stop_with_backlog(
      w, *container, app->admission(),
      [app]() { return app->requests_served(); }, "httpd", 20);
}

TEST(StoppedServer, KvStoreRefusesItsBacklog) {
  FlashWorld w(2);
  KvStoreParams kp;
  kp.service_concurrency = 1;
  kp.cycles_per_op = 2e7;
  auto ip = w.launch(0, "db", std::make_unique<KvStoreApp>(kp));
  os::Container* container = w.nodes[0]->find_container("db");
  auto* app = dynamic_cast<KvStoreApp*>(container->app());
  ASSERT_NE(app, nullptr);

  KvClient client(w.network, w.client_ip);
  for (int i = 0; i < 20; ++i) {
    client.put(ip, util::format("k%d", i), 1024,
               [](util::Result<util::Json>) {});
  }
  stop_with_backlog(
      w, *container, app->admission(),
      [app]() { return app->ops_served() + app->ops_rejected(); }, "kvstore",
      20);
}

}  // namespace
}  // namespace picloud::apps
