// Flash crowd — the overload-resilient serving tier end to end
// (DESIGN.md §11).
//
// Three expensive httpd replicas sit behind an L7 load balancer; an
// open-loop client fleet offers a steady 40 req/s, then a 10x flash crowd
// hits for 20 seconds — several times the fleet's capacity. The tier
// degrades gracefully instead of collapsing: the bounded queues shed the
// excess with fast 503s, brownout switches the survivors to cheap degraded
// pages, the clients' retry budget and circuit breakers stop the failover
// amplification, and when the crowd passes everything drains back to
// normal.
//
//   $ ./build/examples/flash_crowd
#include <cstdio>

#include "apps/httpd.h"
#include "apps/lb.h"
#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "util/strings.h"

using namespace picloud;

namespace {

// Resolves the live app object behind a spawned instance.
template <typename App>
App* find_app(cloud::PiCloud& cloud, const std::string& name) {
  auto record = cloud.master().instance(name);
  if (!record.ok()) return nullptr;
  cloud::NodeDaemon* daemon = cloud.daemon_by_hostname(record.value().hostname);
  if (daemon == nullptr || !daemon->node().running()) return nullptr;
  os::Container* c = daemon->node().find_container(name);
  if (c == nullptr) return nullptr;
  return dynamic_cast<App*>(c->app());
}

}  // namespace

int main() {
  sim::Simulation sim(4711);
  cloud::PiCloudConfig config;
  config.racks = 1;
  config.hosts_per_rack = 5;
  config.placement_policy = "round-robin";
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  if (!cloud.await_ready()) return 1;
  cloud.run_for(sim::Duration::seconds(5));

  // A deliberately expensive page: ~29 ms of a 700 MHz Pi per request, so
  // three replicas saturate near 100 req/s and the 400 req/s crowd is
  // ~4x capacity.
  apps::HttpdParams backend;
  backend.cycles_per_request = 2e7;
  std::vector<net::Ipv4Addr> tier;
  for (int i = 0; i < 3; ++i) {
    auto record = cloud.spawn_and_wait({.name = util::format("web-%d", i),
                                        .app_kind = "httpd",
                                        .app_params = backend.to_json()});
    if (!record.ok()) {
      std::printf("spawn failed: %s\n", record.error().message.c_str());
      return 1;
    }
    tier.push_back(record.value().ip);
  }
  auto lb_record = cloud.spawn_and_wait({.name = "lb", .app_kind = "lb"});
  if (!lb_record.ok()) return 1;
  apps::LbApp* lb = find_app<apps::LbApp>(cloud, "lb");
  if (lb == nullptr) return 1;
  lb->set_backends(tier);

  // Open-loop clients against the LB's single address. The flash shape is
  // installed before start(): 10x the base rate from t=15s to t=35s.
  apps::HttpLoadGen::Params load;
  load.requests_per_sec = 40;
  load.request_timeout = sim::Duration::seconds(1);
  apps::HttpLoadGen clients(cloud.network(), cloud.admin_ip(),
                            {lb_record.value().ip}, load, util::Rng(7));
  apps::TrafficShape flash;
  flash.kind = apps::TrafficShape::Kind::kFlashCrowd;
  flash.at = sim::Duration::seconds(15);
  flash.duration = sim::Duration::seconds(20);
  flash.multiplier = 10.0;
  clients.set_shape(flash);
  clients.start();

  std::printf("%8s %8s %8s %8s %8s %8s %10s\n", "t (s)", "ok", "degrade",
              "shed", "timeout", "breaker", "brownout");
  std::uint64_t last_ok = 0, last_degraded = 0, last_shed = 0;
  std::uint64_t last_timeout = 0, last_breaker = 0;
  for (int t = 5; t <= 50; t += 5) {
    cloud.run_for(sim::Duration::seconds(5));
    std::uint64_t ok = 0, degraded = 0, shed = 0;
    bool brownout = false;
    for (int i = 0; i < 3; ++i) {
      if (auto* app = find_app<apps::HttpdApp>(cloud, util::format("web-%d", i))) {
        ok += app->served_ok();
        degraded += app->served_brownout();
        shed += app->admission().dropped();
        brownout = brownout || app->admission().brownout();
      }
    }
    std::printf("%8d %8llu %8llu %8llu %8llu %8llu %10s\n", t,
                static_cast<unsigned long long>(ok - last_ok),
                static_cast<unsigned long long>(degraded - last_degraded),
                static_cast<unsigned long long>(shed - last_shed),
                static_cast<unsigned long long>(clients.timed_out() -
                                                last_timeout),
                static_cast<unsigned long long>(clients.breaker_rejected() -
                                                last_breaker),
                brownout ? "ACTIVE" : "-");
    last_ok = ok;
    last_degraded = degraded;
    last_shed = shed;
    last_timeout = clients.timed_out();
    last_breaker = clients.breaker_rejected();
  }
  clients.stop();
  cloud.run_for(sim::Duration::seconds(5));

  std::printf("\nload balancer: %llu proxied, %llu retries (%llu denied by "
              "budget), %llu no-backend 503s, %llu ejections, %llu "
              "readmissions\n",
              static_cast<unsigned long long>(lb->requests_forwarded()),
              static_cast<unsigned long long>(lb->retries_attempted()),
              static_cast<unsigned long long>(lb->retries_denied()),
              static_cast<unsigned long long>(lb->no_backend_errors()),
              static_cast<unsigned long long>(lb->backends_ejected()),
              static_cast<unsigned long long>(lb->backends_readmitted()));
  std::printf("clients: %llu sent, %llu ok, %llu retried (budget: %llu "
              "denied), p50 %.2f ms, p99 %.2f ms\n",
              static_cast<unsigned long long>(clients.sent()),
              static_cast<unsigned long long>(clients.completed()),
              static_cast<unsigned long long>(clients.retries()),
              static_cast<unsigned long long>(clients.retries_denied()),
              clients.latencies().median(), clients.latencies().p99());
  std::printf("the tier survived the crowd: %s\n",
              clients.completed() > clients.sent() / 2 ? "yes" : "no");
  return 0;
}
