// Cross-cutting property tests: whole-system determinism, JSON round-trip
// under random documents, fabric byte conservation, DHCP uniqueness under
// churn.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace picloud {
namespace {

// ---------------------------------------------------------------------------
// Determinism: the same seed must produce the exact same world.

struct RunFingerprint {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  double bytes_carried = 0;
  std::vector<std::string> placements;
  std::uint64_t completed = 0;
  double p99 = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_world(std::uint64_t seed) {
  sim::Simulation sim(seed);
  cloud::PiCloudConfig config;
  config.racks = 2;
  config.hosts_per_rack = 5;
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  cloud.await_ready();
  cloud.run_for(sim::Duration::seconds(5));
  std::vector<net::Ipv4Addr> targets;
  for (int i = 0; i < 6; ++i) {
    auto r = cloud.spawn_and_wait(
        {.name = util::format("w%d", i), .app_kind = "httpd"});
    if (r.ok()) targets.push_back(r.value().ip);
  }
  apps::HttpLoadGen::Params load;
  load.requests_per_sec = 50;
  apps::HttpLoadGen gen(cloud.network(), cloud.admin_ip(), targets, load,
                        util::Rng(seed ^ 0xabc));
  gen.start();
  cloud.run_for(sim::Duration::seconds(20));
  gen.stop();

  RunFingerprint fp;
  fp.events = sim.events_executed();
  fp.messages = cloud.network().messages_sent();
  fp.bytes_carried = cloud.fabric().total_bytes_carried();
  for (const auto& [name, record] : cloud.master().instance_records()) {
    fp.placements.push_back(record.name + "@" + record.hostname + "=" +
                            record.ip.to_string());
  }
  fp.completed = gen.completed();
  fp.p99 = gen.latencies().p99();
  return fp;
}

TEST(Determinism, IdenticalSeedsProduceIdenticalWorlds) {
  RunFingerprint a = run_world(1234);
  RunFingerprint b = run_world(1234);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes_carried, b.bytes_carried);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.p99, b.p99);
}

TEST(Determinism, DifferentSeedsDiverge) {
  RunFingerprint a = run_world(1234);
  RunFingerprint b = run_world(5678);
  EXPECT_NE(a.events, b.events);
}

// ---------------------------------------------------------------------------
// JSON round-trip over random documents.

// A short key over an alphabet with upper and lower case, a byte >= 0x80 and
// a control character, so byte order is not alphabetical order. Repeats are
// likely.
std::string random_key(util::Rng& rng) {
  static constexpr char kAlphabet[] = {'a', 'b', 'B', 'Z', '\xc3', '\x01', '_'};
  std::string key;
  const int len = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < len; ++i) {
    key.push_back(kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 1)]);
  }
  return key;
}

util::Json random_json(util::Rng& rng, int depth) {
  double leaf_bias = depth >= 4 ? 1.0 : 0.55;
  if (rng.next_double() < leaf_bias) {
    switch (rng.uniform_int(0, 3)) {
      case 0: return util::Json(nullptr);
      case 1: return util::Json(rng.chance(0.5));
      case 2: {
        // Mix integers, awkward doubles and the values JSON text cannot
        // hold as they are (NaN, +-inf, -0) or only just holds.
        static const double kEdges[] = {std::nan(""), HUGE_VAL, -HUGE_VAL,
                                        -0.0,         0x1p53,   1e300,
                                        5e-324};
        if (rng.chance(0.2)) {
          return util::Json(kEdges[rng.uniform_int(0, 6)]);
        }
        if (rng.chance(0.5)) {
          return util::Json(static_cast<long long>(
              rng.uniform_int(-1000000000000LL, 1000000000000LL)));
        }
        return util::Json(rng.uniform(-1e6, 1e6));
      }
      default: {
        std::string s;
        int len = static_cast<int>(rng.uniform_int(0, 12));
        for (int i = 0; i < len; ++i) {
          // Throw in escapes and control characters.
          const char* alphabet = "ab\"\\\n\t/x 7\x01";
          s.push_back(alphabet[rng.uniform_int(0, 10)]);
        }
        return util::Json(s);
      }
    }
  }
  if (rng.chance(0.5)) {
    util::Json arr = util::Json::array();
    int n = static_cast<int>(rng.uniform_int(0, 5));
    for (int i = 0; i < n; ++i) arr.push_back(random_json(rng, depth + 1));
    return arr;
  }
  util::Json obj = util::Json::object();
  int n = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < n; ++i) obj.set(random_key(rng), random_json(rng, depth + 1));
  return obj;
}

class JsonRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTrip, DumpParseIsIdentity) {
  util::Rng rng(GetParam() * 7919 + 17);
  for (int doc = 0; doc < 50; ++doc) {
    util::Json original = random_json(rng, 0);
    auto reparsed = util::Json::parse(original.dump());
    ASSERT_TRUE(reparsed.ok()) << original.dump();
    EXPECT_EQ(original, reparsed.value()) << original.dump();
    // The fabric charges dump_size(), so it must be the dumped length.
    EXPECT_EQ(original.dump_size(), original.dump().size()) << original.dump();
    // pretty() parses back to the same document too.
    auto repretty = util::Json::parse(original.pretty());
    ASSERT_TRUE(repretty.ok());
    EXPECT_EQ(original, repretty.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range(1, 9));

// An object holds what a std::map fed the same writes holds, in the same
// order: each key once, sorted by byte, the last write winning. Writes go
// through set(), operator[] and insert_or_assign in random order.
TEST(JsonObjectOrder, MatchesStdMapUnderRandomWrites) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    util::Json obj = util::Json::object();
    std::map<std::string, util::Json> reference;
    const int writes = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < writes; ++i) {
      const std::string key = random_key(rng);
      const util::Json value(static_cast<long long>(rng.uniform_int(0, 99)));
      reference.insert_or_assign(key, value);
      switch (rng.uniform_int(0, 2)) {
        case 0: obj.set(key, value); break;
        case 1: obj.mutable_object()[key] = value; break;
        default: obj.mutable_object().insert_or_assign(key, value); break;
      }
    }
    const util::JsonObject& members = obj.as_object();
    ASSERT_EQ(members.size(), reference.size());
    auto want = reference.begin();
    for (const auto& [key, value] : members) {
      EXPECT_EQ(key, want->first);
      EXPECT_EQ(value, want->second);
      ++want;
    }
    const std::string probe = random_key(rng);
    EXPECT_EQ(members.count(probe), reference.count(probe));
    EXPECT_EQ(obj.get(probe), reference.count(probe) > 0 ? reference.at(probe)
                                                         : util::Json());
  }
}

// ---------------------------------------------------------------------------
// Fabric conservation: bytes carried per link sum to flow bytes x hops.

TEST(FabricConservation, BytesCarriedEqualFlowBytesTimesHops) {
  sim::Simulation sim(5);
  net::Fabric fabric(sim);
  net::Topology topo =
      net::build_multi_root_tree(fabric, net::MultiRootTreeConfig{});
  util::Rng rng(7);
  double expected = 0;
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    auto src = static_cast<size_t>(rng.uniform_int(0, 55));
    auto dst = static_cast<size_t>(rng.uniform_int(0, 55));
    if (src == dst) continue;
    double bytes = rng.uniform(1e4, 5e6);
    net::FlowSpec spec;
    spec.src = topo.hosts[src];
    spec.dst = topo.hosts[dst];
    spec.bytes = bytes;
    spec.on_complete = [&completed](sim::Duration, bool ok) {
      if (ok) ++completed;
    };
    net::FlowId id = fabric.start_flow(std::move(spec));
    expected += bytes * static_cast<double>(fabric.flow_path(id).size());
  }
  sim.run();
  EXPECT_GT(completed, 30);
  EXPECT_NEAR(fabric.total_bytes_carried(), expected, expected * 1e-6);
}

// ---------------------------------------------------------------------------
// DHCP uniqueness under churn: repeated crash/restart cycles never hand the
// same live address to two nodes.

TEST(DhcpChurn, AddressesStayUniqueAcrossRestarts) {
  sim::Simulation sim(77);
  cloud::PiCloudConfig config;
  config.racks = 2;
  config.hosts_per_rack = 4;
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  util::Rng rng(3);
  for (int round = 0; round < 6; ++round) {
    // Crash a random pair and bring them back.
    size_t a = static_cast<size_t>(rng.uniform_int(0, 7));
    size_t b = static_cast<size_t>(rng.uniform_int(0, 7));
    cloud.daemon(a).crash();
    if (b != a) cloud.daemon(b).crash();
    cloud.run_for(sim::Duration::seconds(5));
    cloud.daemon(a).start();
    if (b != a) cloud.daemon(b).start();
    cloud.run_for(sim::Duration::seconds(10));

    std::set<std::uint32_t> live_ips;
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      if (!cloud.node(i).running()) continue;
      net::Ipv4Addr ip = cloud.daemon(i).ip();
      if (ip.is_any()) continue;
      EXPECT_TRUE(live_ips.insert(ip.value()).second)
          << "duplicate live address " << ip.to_string();
    }
  }
}

}  // namespace
}  // namespace picloud
