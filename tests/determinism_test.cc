// Determinism proof: the same seed must produce bit-identical runs.
//
// Two full mixed-workload cloud runs execute in one process with the same
// seed; every observable — event counts, final clock, per-request latency
// digests, energy, DHCP assignments — is folded into one FNV-1a digest that
// must match exactly. A different seed must yield a different digest (the
// workload really is seed-driven, not constant).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "util/fnv.h"

namespace picloud {
namespace {

struct ScenarioResult {
  std::uint64_t digest = 0;
  // Full MetricsRegistry snapshot, serialized. Canonical JSON with sorted
  // keys: same-seed runs must match this byte for byte (DESIGN.md §9).
  std::string metrics_json;
};

// Boots a 2x4 cloud, runs a mixed workload (httpd + kvstore + batch + HTTP
// load + a delete/respawn cycle), and digests everything observable.
ScenarioResult run_scenario(std::uint64_t seed) {
  sim::Simulation sim(seed);
  cloud::PiCloudConfig config;
  config.racks = 2;
  config.hosts_per_rack = 4;
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  EXPECT_TRUE(cloud.await_ready(sim::Duration::seconds(120)));

  auto web = cloud.spawn_and_wait({.name = "web-1", .app_kind = "httpd"});
  auto kv = cloud.spawn_and_wait({.name = "kv-1", .app_kind = "kvstore"});
  auto batch = cloud.spawn_and_wait({.name = "crunch-1", .app_kind = "batch"});
  EXPECT_TRUE(web.ok() && kv.ok() && batch.ok());

  // Seed-driven traffic: the generator's stream forks from the root RNG.
  apps::HttpLoadGen::Params params;
  params.requests_per_sec = 40;
  apps::HttpLoadGen gen(cloud.network(), cloud.admin_ip(), {web.value().ip},
                        params, sim.rng().fork());
  gen.start();
  cloud.run_for(sim::Duration::seconds(20));

  // Churn: delete and reuse a name mid-load.
  EXPECT_TRUE(cloud.delete_and_wait("crunch-1").ok());
  auto again = cloud.spawn_and_wait({.name = "crunch-1", .app_kind = "batch"});
  EXPECT_TRUE(again.ok());
  cloud.run_for(sim::Duration::seconds(10));
  gen.stop();
  cloud.run_for(sim::Duration::seconds(2));

  util::Fnv1a d;
  d.add(sim.events_executed());
  d.add(static_cast<std::uint64_t>(sim.now().ns()));
  d.add(gen.completed());
  d.add(gen.timed_out());
  d.add(gen.latencies().percentile(50));
  d.add(gen.latencies().percentile(99));
  d.add(cloud.energy_kwh());
  d.add(cloud.current_power_watts());
  auto summary = cloud.master().monitor().summary();
  d.add(static_cast<std::uint64_t>(summary.nodes_alive));
  d.add(summary.power_watts);
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    d.add(static_cast<std::uint64_t>(cloud.daemon(i).ip().value()));
    d.add(cloud.node(i).hostname());
  }
  for (const char* name : {"web-1", "kv-1", "crunch-1"}) {
    auto record = cloud.master().instance(name);
    EXPECT_TRUE(record.ok());
    d.add(record.value().hostname);
    d.add(static_cast<std::uint64_t>(record.value().ip.value()));
  }
  return ScenarioResult{d.value(), sim.metrics().snapshot().dump()};
}

TEST(Determinism, SameSeedSameDigest) {
  EXPECT_EQ(run_scenario(42).digest, run_scenario(42).digest);
}

TEST(Determinism, DifferentSeedDifferentDigest) {
  EXPECT_NE(run_scenario(42).digest, run_scenario(1337).digest);
}

// The telemetry spine is part of the determinism contract: every counter,
// gauge, and histogram any component registered — REST retries, fabric
// flows, scheduler activity, per-node gauges — must serialize to the exact
// same bytes on a same-seed rerun.
TEST(Determinism, SameSeedBitIdenticalMetricsSnapshot) {
  ScenarioResult a = run_scenario(42);
  ScenarioResult b = run_scenario(42);
  EXPECT_FALSE(a.metrics_json.empty());
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

}  // namespace
}  // namespace picloud
