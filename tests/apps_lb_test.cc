// L7 load balancer tests: balancing policies, active health checking with
// ejection and half-open re-admission, retry-budget caps on failover
// amplification, and the conservation accounting the invariant probes
// sweep (DESIGN.md §11).
#include <gtest/gtest.h>

#include "apps/httpd.h"
#include "apps/lb.h"
#include "apps/loadgen.h"
#include "hw/device.h"
#include "net/topology.h"
#include "os/node_os.h"
#include "sim/simulation.h"

namespace picloud::apps {
namespace {

// A rack of real NodeOs instances to host containers on (apps_test.cc's
// harness).
struct LbWorld {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  std::vector<std::unique_ptr<hw::Device>> devices;
  std::vector<std::unique_ptr<os::NodeOs>> nodes;
  net::Ipv4Addr client_ip{10, 0, 0, 200};

  explicit LbWorld(int host_count = 4) {
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
                       std::unique_ptr<os::ContainerApp> app,
                       double cpu_limit = 0.0) {
    auto created = nodes[n]->create_container(
        {.name = name, .cpu_limit = cpu_limit});
    EXPECT_TRUE(created.ok());
    created.value()->set_app(std::move(app));
    net::Ipv4Addr ip(10, 0, 1,
                     static_cast<std::uint8_t>(10 * (n + 1) +
                                               nodes[n]->container_count()));
    EXPECT_TRUE(created.value()->start(ip).ok());
    return ip;
  }

  LbApp* lb_app(int n, const std::string& name) {
    auto* app = dynamic_cast<LbApp*>(nodes[n]->find_container(name)->app());
    EXPECT_NE(app, nullptr);
    return app;
  }

  HttpdApp* httpd_app(int n, const std::string& name) {
    auto* app =
        dynamic_cast<HttpdApp*>(nodes[n]->find_container(name)->app());
    EXPECT_NE(app, nullptr);
    return app;
  }
};

void expect_lb_conservation(const LbApp& lb) {
  EXPECT_EQ(lb.requests_received(),
            lb.responses_ok() + lb.responses_error() +
                lb.dropped_in_flight() + lb.in_flight());
}

void expect_lb_retry_budget(const LbApp& lb) {
  EXPECT_TRUE(lb.retry_budget().bounded(lb.attempts_forwarded()));
}

TEST(LoadBalancer, RoundRobinSpreadsLoadEvenly) {
  LbWorld w;
  std::vector<net::Ipv4Addr> backends;
  for (int i = 0; i < 3; ++i) {
    backends.push_back(
        w.launch(i, "web" + std::to_string(i), std::make_unique<HttpdApp>()));
  }
  auto lb_ip = w.launch(3, "lb", std::make_unique<LbApp>());
  LbApp* lb = w.lb_app(3, "lb");
  lb->set_backends(backends);

  HttpLoadGen::Params params;
  params.requests_per_sec = 60;
  params.request_timeout = sim::Duration::seconds(1);
  HttpLoadGen gen(w.network, w.client_ip, {lb_ip}, params, util::Rng(7));
  gen.start();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(20));
  gen.stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(3));

  EXPECT_GT(gen.completed(), 1000u);
  EXPECT_EQ(gen.failed(), 0u);
  EXPECT_EQ(lb->backend_count(), 3u);
  EXPECT_EQ(lb->healthy_backends().size(), 3u);
  // Round-robin: the three shares differ by at most the health-probe noise.
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (int i = 0; i < 3; ++i) {
    std::uint64_t served =
        w.httpd_app(i, "web" + std::to_string(i))->admission().received();
    lo = std::min(lo, served);
    hi = std::max(hi, served);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LE(hi - lo, hi / 10 + 50);
  expect_lb_conservation(*lb);
  expect_lb_retry_budget(*lb);
}

TEST(LoadBalancer, LeastOutstandingFavorsTheFastBackend) {
  LbWorld w;
  // One full-speed backend, one throttled to 5% of the core: the slow one
  // accumulates outstanding requests and least-outstanding routes around it.
  std::vector<net::Ipv4Addr> backends;
  backends.push_back(w.launch(0, "fast", std::make_unique<HttpdApp>()));
  backends.push_back(
      w.launch(1, "slow", std::make_unique<HttpdApp>(), /*cpu_limit=*/0.05));
  LbParams lp;
  lp.policy = LbPolicy::kLeastOutstanding;
  auto lb_ip = w.launch(3, "lb", std::make_unique<LbApp>(lp));
  LbApp* lb = w.lb_app(3, "lb");
  lb->set_backends(backends);

  HttpLoadGen::Params params;
  params.requests_per_sec = 80;
  params.request_timeout = sim::Duration::seconds(2);
  HttpLoadGen gen(w.network, w.client_ip, {lb_ip}, params, util::Rng(11));
  gen.start();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(20));
  gen.stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(3));

  std::uint64_t fast = w.httpd_app(0, "fast")->admission().received();
  std::uint64_t slow = w.httpd_app(1, "slow")->admission().received();
  EXPECT_GT(fast, slow * 2);
  expect_lb_conservation(*lb);
}

TEST(LoadBalancer, EjectsDeadBackendAndFailsOverTraffic) {
  LbWorld w;
  std::vector<net::Ipv4Addr> backends;
  backends.push_back(w.launch(0, "web0", std::make_unique<HttpdApp>()));
  backends.push_back(w.launch(1, "web1", std::make_unique<HttpdApp>()));
  auto lb_ip = w.launch(3, "lb", std::make_unique<LbApp>());
  LbApp* lb = w.lb_app(3, "lb");
  lb->set_backends(backends);

  HttpLoadGen::Params params;
  params.requests_per_sec = 40;
  params.request_timeout = sim::Duration::seconds(1);
  HttpLoadGen gen(w.network, w.client_ip, {lb_ip}, params, util::Rng(13));
  gen.start();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(5));
  std::uint64_t completed_before = gen.completed();

  // Kill web1: its IP unbinds, probes and proxied attempts fast-fail.
  ASSERT_TRUE(w.nodes[1]->find_container("web1")->stop().ok());
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(10));

  EXPECT_GE(lb->backends_ejected(), 1u);
  EXPECT_EQ(lb->backend_state(backends[1]), LbApp::BackendState::kEjected);
  ASSERT_EQ(lb->healthy_backends().size(), 1u);
  EXPECT_EQ(lb->healthy_backends()[0], backends[0]);
  // Traffic keeps flowing through the survivor.
  EXPECT_GT(gen.completed(), completed_before + 200);

  gen.stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(3));
  expect_lb_conservation(*lb);
  expect_lb_retry_budget(*lb);
}

TEST(LoadBalancer, HalfOpenProbeReadmitsRecoveredBackend) {
  LbWorld w;
  std::vector<net::Ipv4Addr> backends;
  backends.push_back(w.launch(0, "web0", std::make_unique<HttpdApp>()));
  backends.push_back(w.launch(1, "web1", std::make_unique<HttpdApp>()));
  auto lb_ip = w.launch(3, "lb", std::make_unique<LbApp>());
  LbApp* lb = w.lb_app(3, "lb");
  lb->set_backends(backends);

  HttpLoadGen::Params params;
  params.requests_per_sec = 30;
  params.request_timeout = sim::Duration::seconds(1);
  HttpLoadGen gen(w.network, w.client_ip, {lb_ip}, params, util::Rng(17));
  gen.start();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(3));

  ASSERT_TRUE(w.nodes[1]->find_container("web1")->stop().ok());
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(6));
  ASSERT_EQ(lb->backend_state(backends[1]), LbApp::BackendState::kEjected);

  // The backend comes back at the same address (a respawn); the next
  // half-open probe after the ejection period readmits it.
  auto created = w.nodes[1]->create_container({.name = "web1r"});
  ASSERT_TRUE(created.ok());
  created.value()->set_app(std::make_unique<HttpdApp>());
  ASSERT_TRUE(created.value()->start(backends[1]).ok());
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(15));

  EXPECT_GE(lb->backends_readmitted(), 1u);
  EXPECT_EQ(lb->backend_state(backends[1]), LbApp::BackendState::kHealthy);
  EXPECT_EQ(lb->healthy_backends().size(), 2u);
  // And it serves again.
  EXPECT_GT(w.httpd_app(1, "web1r")->requests_served(), 0u);

  gen.stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(3));
  expect_lb_conservation(*lb);
}

TEST(LoadBalancer, RetryBudgetCapsFailoverAmplification) {
  LbWorld w;
  // Backends with a zero-capacity admission queue shed every proxied
  // request but still answer health probes (the probe fast-path bypasses
  // admission), so they are never ejected: every request fails, every
  // failure is retry-eligible, and only the token bucket stops the LB from
  // doubling its upstream traffic indefinitely.
  HttpdParams hp;
  hp.queue_capacity = 0;
  std::vector<net::Ipv4Addr> backends;
  backends.push_back(w.launch(0, "web0", std::make_unique<HttpdApp>(hp)));
  backends.push_back(w.launch(1, "web1", std::make_unique<HttpdApp>(hp)));
  // A small burst so the bucket visibly drains inside the test window (shed
  // responses also feed the breaker, so the backends spend most of the run
  // ejected and only a few failures hit the bucket per readmission cycle).
  LbParams lp;
  lp.retry_budget_burst = 2.0;
  auto lb_ip = w.launch(3, "lb", std::make_unique<LbApp>(lp));
  LbApp* lb = w.lb_app(3, "lb");
  lb->set_backends(backends);

  HttpLoadGen::Params params;
  params.requests_per_sec = 50;
  params.request_timeout = sim::Duration::seconds(1);
  HttpLoadGen gen(w.network, w.client_ip, {lb_ip}, params, util::Rng(19));
  gen.start();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(20));
  gen.stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(3));

  EXPECT_EQ(gen.completed(), 0u);
  EXPECT_GT(lb->requests_received(), 0u);
  // The bucket drained: further retries are denied, amplification stays
  // inside ratio * forwarded + burst.
  EXPECT_GT(lb->retries_denied(), 0u);
  expect_lb_retry_budget(*lb);
  expect_lb_conservation(*lb);
  // The client side is budget-bounded too.
  EXPECT_TRUE(gen.retry_budget().bounded(gen.attempts_sent()));
  // Consecutive failures opened the client breaker against the LB at least
  // once, shedding offered arrivals client-side.
  EXPECT_GT(gen.breakers_opened(), 0u);
  EXPECT_GT(gen.breaker_rejected(), 0u);
}

// Steps the simulation until the LB ejects `ip` (its probes fast-fail once
// its container is stopped) and returns when that happened.
sim::SimTime run_until_ejected(LbWorld& w, const LbApp& lb, net::Ipv4Addr ip) {
  const sim::SimTime deadline = w.sim.now() + sim::Duration::seconds(10);
  while (lb.backend_state(ip) != LbApp::BackendState::kEjected &&
         w.sim.now() < deadline) {
    w.sim.step();
  }
  EXPECT_EQ(lb.backend_state(ip), LbApp::BackendState::kEjected);
  return w.sim.now();
}

TEST(LoadBalancer, EjectedBackendKeepsItsReopenTimerAcrossSetBackends) {
  LbWorld w;
  std::vector<net::Ipv4Addr> backends;
  backends.push_back(w.launch(0, "web0", std::make_unique<HttpdApp>()));
  backends.push_back(w.launch(1, "web1", std::make_unique<HttpdApp>()));
  w.launch(3, "lb", std::make_unique<LbApp>());
  LbApp* lb = w.lb_app(3, "lb");
  lb->set_backends(backends);
  w.sim.run_for(sim::Duration::seconds(1));

  ASSERT_TRUE(w.nodes[1]->find_container("web1")->stop().ok());
  const sim::SimTime ejected_at = run_until_ejected(w, *lb, backends[1]);
  // web1 comes back at its address, and the pool is set again with it in.
  auto created = w.nodes[1]->create_container({.name = "web1r"});
  ASSERT_TRUE(created.ok());
  created.value()->set_app(std::make_unique<HttpdApp>());
  ASSERT_TRUE(created.value()->start(backends[1]).ok());
  lb->set_backends({backends[1], backends[0]});

  // Sweeps skip an ejected backend: only the reopen timer the pool change
  // carried over can re-admit it, one ejection period after the ejection.
  w.sim.run_until(ejected_at + sim::Duration::seconds(4.9));
  EXPECT_EQ(lb->backend_state(backends[1]), LbApp::BackendState::kEjected);
  w.sim.run_until(ejected_at + sim::Duration::seconds(5.5));
  EXPECT_EQ(lb->backend_state(backends[1]), LbApp::BackendState::kHealthy);
  EXPECT_EQ(lb->backends_readmitted(), 1u);
  EXPECT_EQ(lb->healthy_backends().size(), 2u);
}

TEST(LoadBalancer, BackendThatLeavesThePoolIsNeverProbedAgain) {
  LbWorld w;
  std::vector<net::Ipv4Addr> backends;
  backends.push_back(w.launch(0, "web0", std::make_unique<HttpdApp>()));
  backends.push_back(w.launch(1, "web1", std::make_unique<HttpdApp>()));
  w.launch(3, "lb", std::make_unique<LbApp>());
  LbApp* lb = w.lb_app(3, "lb");
  lb->set_backends(backends);
  w.sim.run_for(sim::Duration::seconds(1));

  // web1 leaves the pool while ejected, with its reopen timer armed.
  ASSERT_TRUE(w.nodes[1]->find_container("web1")->stop().ok());
  run_until_ejected(w, *lb, backends[1]);
  lb->set_backends({backends[0]});

  // Something answers at web1's address again; count what reaches it past
  // the ejection period.
  int probes = 0;
  w.network.bind_ip(backends[1], w.topo.hosts[1]);
  w.network.listen(backends[1], LbParams{}.backend_port,
                   [&probes](const net::Message&) { ++probes; });
  w.sim.run_for(sim::Duration::seconds(15));
  EXPECT_EQ(probes, 0);
  EXPECT_EQ(lb->backend_count(), 1u);
  EXPECT_EQ(lb->backends_readmitted(), 0u);
  EXPECT_EQ(lb->healthy_backends(), std::vector<net::Ipv4Addr>{backends[0]});
}

TEST(LoadBalancer, SetBackendsPreservesRotationAcrossChurn) {
  LbWorld w;
  std::vector<net::Ipv4Addr> backends;
  for (int i = 0; i < 3; ++i) {
    backends.push_back(
        w.launch(i, "web" + std::to_string(i), std::make_unique<HttpdApp>()));
  }
  auto lb_ip = w.launch(3, "lb", std::make_unique<LbApp>());
  LbApp* lb = w.lb_app(3, "lb");
  lb->set_backends(backends);

  HttpLoadGen::Params params;
  params.requests_per_sec = 40;
  params.request_timeout = sim::Duration::seconds(1);
  HttpLoadGen gen(w.network, w.client_ip, {lb_ip}, params, util::Rng(23));
  gen.start();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(5));

  // Shrink then regrow the pool mid-traffic: no crash, no stuck requests,
  // and the dropped backend stops receiving.
  lb->set_backends({backends[0], backends[2]});
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(5));
  std::uint64_t web1_frozen = w.httpd_app(1, "web1")->admission().received();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(3));
  EXPECT_EQ(w.httpd_app(1, "web1")->admission().received(), web1_frozen);

  lb->set_backends(backends);
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(5));
  EXPECT_GT(w.httpd_app(1, "web1")->admission().received(), web1_frozen);

  gen.stop();
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(3));
  EXPECT_EQ(gen.failed(), 0u);
  EXPECT_EQ(lb->in_flight(), 0u);
  expect_lb_conservation(*lb);
}

}  // namespace
}  // namespace picloud::apps
