// Schema'd message bodies (util/schema.h): every schema writes exactly the
// bytes the same value built as a util::Json object dumps to, sizes them
// without building them, and reads them back. The goldens pin the text of
// every body the code sends (the serving tier, REST, DHCP, DNS, gossip, DFS
// and MapReduce), as the build that still built those bodies as Json
// objects wrote them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "apps/dfs.h"
#include "apps/httpd.h"
#include "apps/kvstore.h"
#include "apps/lb.h"
#include "apps/loadgen.h"
#include "apps/mapreduce.h"
#include "apps/serving.h"
#include "cloud/gossip.h"
#include "hw/device.h"
#include "net/body.h"
#include "net/topology.h"
#include "os/node_os.h"
#include "proto/dhcp.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "proto/rest.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/schema.h"

namespace picloud {
namespace {

using apps::ServeReply;
using apps::ServeRequest;
using proto::HttpRequest;
using proto::HttpResponse;
using util::Json;

// ---------------------------------------------------------------------------
// Property: wire_size() == to_json().dump_size(), and from_json round-trips,
// for seeded random members.

std::string random_string(util::Rng& rng) {
  // Quotes, backslashes, control bytes, bytes above 0x7f and plain text.
  static const char kSpecial[] = {'"', '\\', '\n', '\t', '\b', '\f', '\r',
                                  '\x01', '\x1f', '\x7f', '/', 'a', 'Z', ' '};
  std::string s;
  const auto length = rng.uniform_int(0, 24);
  for (std::int64_t i = 0; i < length; ++i) {
    switch (rng.uniform_int(0, 2)) {
      case 0:
        s.push_back(kSpecial[rng.uniform_int(0, sizeof(kSpecial) - 1)]);
        break;
      case 1:
        s.push_back(static_cast<char>(rng.uniform_int(0x80, 0xff)));
        break;
      default:
        s.push_back(static_cast<char>(rng.uniform_int(0x20, 0x7e)));
    }
  }
  return s;
}

// Integers up to 2^53, where a double still holds every one.
std::uint64_t random_integer(util::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
    case 1: return std::uint64_t{1} << 53;
    default:
      return static_cast<std::uint64_t>(
          rng.uniform_int(0, std::int64_t{1} << 53));
  }
}

double random_double(util::Rng& rng) {
  switch (rng.uniform_int(0, 9)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -0.0;
    case 4: return 4.9e-324 * static_cast<double>(rng.uniform_int(1, 9));
    case 5: return 1.7e308 * rng.uniform(-1, 1);
    case 6: return static_cast<double>(rng.uniform_int(-99999, 99999));
    case 7: return 1.0;
    default: return rng.uniform(-1e6, 1e6) * rng.pareto(1.5, 1.0);
  }
}

template <typename E>
E random_enum(util::Rng& rng) {
  const auto names = json_names(E{});
  return static_cast<E>(
      rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1));
}

template <typename M>
std::optional<M> maybe(util::Rng& rng, M value) {
  return rng.chance(0.5) ? std::optional<M>(std::move(value)) : std::nullopt;
}

Json random_json(util::Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return Json();  // no body
    case 1: return Json(random_string(rng));
    case 2: return Json(random_double(rng));
    default:
      return Json::object()
          .set(random_string(rng), random_double(rng))
          .set("list", Json::array().push_back(true).push_back(
                           random_string(rng)));
  }
}

ServeRequest random_request(util::Rng& rng) {
  ServeRequest r;
  r.bytes = maybe(rng, random_integer(rng));
  r.cost = maybe(rng, random_double(rng));
  r.id = random_integer(rng);
  r.key = maybe(rng, random_string(rng));
  r.op = random_enum<apps::ServeOp>(rng);
  r.path = maybe(rng, random_string(rng));
  return r;
}

ServeReply random_reply(util::Rng& rng) {
  ServeReply r;
  r.brownout = maybe(rng, rng.chance(0.5));
  r.bytes = maybe(rng, random_integer(rng));
  r.error = maybe(rng, random_enum<apps::KvError>(rng));
  r.health = maybe(rng, rng.chance(0.5));
  r.id = random_integer(rng);
  r.lb_error = maybe(rng, random_enum<apps::LbError>(rng));
  r.ok = maybe(rng, rng.chance(0.5));
  r.path = maybe(rng, random_string(rng));
  r.shed = maybe(rng, random_enum<apps::ShedCause>(rng));
  r.status = maybe(rng, static_cast<int>(rng.uniform_int(-600, 600)));
  return r;
}

HttpRequest random_http_request(util::Rng& rng) {
  HttpRequest r;
  r.method = random_enum<proto::Method>(rng);
  r.path = random_string(rng);
  r.body = random_json(rng);
  r.id = random_integer(rng);
  return r;
}

HttpResponse random_http_response(util::Rng& rng) {
  HttpResponse r;
  r.status = static_cast<int>(rng.uniform_int(100, 599));
  r.body = random_json(rng);
  r.id = random_integer(rng);
  return r;
}

// The datagram protocols' messages.

int random_int(util::Rng& rng) {
  return static_cast<int>(rng.uniform_int(std::numeric_limits<int>::min(),
                                          std::numeric_limits<int>::max()));
}

net::Ipv4Addr random_address(util::Rng& rng) {
  return net::Ipv4Addr(static_cast<std::uint32_t>(
      rng.uniform_int(0, std::numeric_limits<std::uint32_t>::max())));
}

// Empty, one element, or many.
template <typename F>
auto random_vector(util::Rng& rng, F element) {
  std::vector<decltype(element())> out;
  std::int64_t length = rng.uniform_int(0, 2);
  if (length == 2) length = rng.uniform_int(2, 7);
  for (std::int64_t i = 0; i < length; ++i) out.push_back(element());
  return out;
}

proto::DhcpClientMessage random_dhcp_client(util::Rng& rng) {
  proto::DhcpClientMessage m;
  m.hostname = random_string(rng);
  m.mac = random_string(rng);
  m.ip = maybe(rng, random_address(rng));
  m.node = static_cast<net::NetNodeId>(random_address(rng).value());
  m.type = random_enum<proto::DhcpType>(rng);
  return m;
}

proto::DhcpServerMessage random_dhcp_server(util::Rng& rng) {
  proto::DhcpServerMessage m;
  m.lease_s = maybe(rng, random_double(rng));
  m.ip = maybe(rng, random_address(rng));
  m.server_ip = maybe(rng, random_address(rng));
  m.server_node = maybe(
      rng, static_cast<net::NetNodeId>(random_address(rng).value()));
  m.reason = maybe(rng, random_enum<proto::DhcpNakReason>(rng));
  m.type = random_enum<proto::DhcpType>(rng);
  return m;
}

proto::DnsQuery random_dns_query(util::Rng& rng) {
  proto::DnsQuery m;
  m.q = random_string(rng);
  m.id = random_integer(rng);
  return m;
}

proto::DnsAnswer random_dns_answer(util::Rng& rng) {
  proto::DnsAnswer m;
  m.ttl_s = maybe(rng, random_double(rng));
  m.a = maybe(rng, random_address(rng));
  m.nx = maybe(rng, rng.chance(0.5));
  m.id = random_integer(rng);
  return m;
}

cloud::GossipEntry random_gossip_entry(util::Rng& rng) {
  cloud::GossipEntry e;
  e.hostname = random_string(rng);
  e.ip = random_address(rng);
  e.version = random_integer(rng);
  e.cpu = random_double(rng);
  e.mem_used = random_integer(rng);
  e.containers = random_int(rng);
  return e;
}

cloud::GossipDigest random_gossip_digest(util::Rng& rng) {
  cloud::GossipDigest m;
  m.entries = random_vector(rng, [&rng]() { return random_gossip_entry(rng); });
  m.from = random_string(rng);
  return m;
}

apps::DfsOrder random_dfs_order(util::Rng& rng) {
  apps::DfsOrder m;
  m.block = random_string(rng);
  m.bytes = maybe(rng, random_integer(rng));
  m.id = random_integer(rng);
  m.to = maybe(rng, random_address(rng));
  m.op = random_enum<apps::DfsOp>(rng);
  return m;
}

apps::DfsAck random_dfs_ack(util::Rng& rng) {
  apps::DfsAck m;
  m.bytes = maybe(rng, random_integer(rng));
  m.id = random_integer(rng);
  m.error = maybe(rng, random_enum<apps::DfsError>(rng));
  m.ok = rng.chance(0.5);
  return m;
}

apps::MapTask random_map_task(util::Rng& rng) {
  apps::MapTask m;
  m.job = random_string(rng);
  m.reducers = random_vector(rng, [&rng]() { return random_address(rng); });
  m.bytes = random_double(rng);
  m.cycles_per_byte = random_double(rng);
  m.shuffle_fraction = random_double(rng);
  m.id = random_integer(rng);
  m.task = random_int(rng);
  m.op = random_enum<apps::MapReduceOp>(rng);
  return m;
}

apps::MapPartition random_partition(util::Rng& rng) {
  apps::MapPartition m;
  m.job = random_string(rng);
  m.bytes = random_double(rng);
  return m;
}

apps::ReduceOrder random_reduce_order(util::Rng& rng) {
  apps::ReduceOrder m;
  m.job = random_string(rng);
  m.cycles_per_byte = random_double(rng);
  m.expect_bytes = random_double(rng);
  m.id = random_integer(rng);
  m.expect_parts = random_int(rng);
  return m;
}

apps::TaskDone random_task_done(util::Rng& rng) {
  apps::TaskDone m;
  m.job = random_string(rng);
  m.id = random_integer(rng);
  m.task = maybe(rng, random_int(rng));
  m.op = random_enum<apps::MapReduceOp>(rng);
  return m;
}

// The checks every schema'd value passes: the size equals the dumped
// length, the text parses back to the same Json, and from_json reads a
// value that writes the same text (a double's NaN and +-inf read back from
// null, so compare texts, not members).
template <typename T>
void check_value(const T& value) {
  const Json json = value.to_json();
  const std::string text = json.dump();
  ASSERT_EQ(value.wire_size(), json.dump_size()) << text;
  ASSERT_EQ(value.wire_size(), text.size()) << text;
  ASSERT_EQ(net::Body(value).wire_size(), text.size()) << text;
  auto reparsed = Json::parse(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  EXPECT_EQ(reparsed.value(), json) << text;
  auto decoded = T::from_json(reparsed.value());
  ASSERT_TRUE(decoded.ok()) << decoded.error().message << " in " << text;
  EXPECT_EQ(decoded.value().to_json().dump(), text);
  EXPECT_EQ(T(value).to_json(), json) << "the && overload moves, same value";
}

TEST(Schema, EveryMessageSizesItsOwnTextAndRoundTrips) {
  util::Rng rng(20131008);
  for (int i = 0; i < 2000; ++i) {
    SCOPED_TRACE(i);
    check_value(random_request(rng));
    check_value(random_reply(rng));
    check_value(random_http_request(rng));
    check_value(random_http_response(rng));
  }
  util::Rng datagrams(2013);
  for (int i = 0; i < 2000; ++i) {
    SCOPED_TRACE(i);
    check_value(random_dhcp_client(datagrams));
    check_value(random_dhcp_server(datagrams));
    check_value(random_dns_query(datagrams));
    check_value(random_dns_answer(datagrams));
    check_value(random_gossip_digest(datagrams));
    check_value(random_dfs_order(datagrams));
    check_value(random_dfs_ack(datagrams));
    check_value(random_map_task(datagrams));
    check_value(random_partition(datagrams));
    check_value(random_reduce_order(datagrams));
    check_value(random_task_done(datagrams));
  }
}

// What the new member kinds write: an address as its dotted text, an array
// with a comma between two elements, a nested struct as an object.
TEST(Schema, ArraysAddressesAndNestedStructs) {
  apps::MapTask map;
  map.job = "j";
  EXPECT_EQ(map.to_json().dump(),
            R"({"bytes":0,"cpb":0,"id":0,"job":"j","op":"map","reducers":[],"shuffle_frac":0,"task":0})");
  EXPECT_EQ(map.wire_size(), map.to_json().dump_size());
  map.reducers = {net::Ipv4Addr(10, 0, 1, 2)};
  EXPECT_EQ(map.wire_size(), map.to_json().dump_size());
  map.reducers.push_back(net::Ipv4Addr(255, 255, 255, 255));
  EXPECT_EQ(map.to_json().get("reducers").dump(),
            R"(["10.0.1.2","255.255.255.255"])");
  EXPECT_EQ(map.wire_size(), map.to_json().dump_size());

  cloud::GossipDigest digest;
  digest.from = "a";
  digest.entries.resize(2);
  digest.entries[1].hostname = "b";
  digest.entries[1].cpu = 0.5;
  EXPECT_EQ(
      digest.to_json().dump(),
      R"({"entries":[{"cpu":0,"ct":0,"h":"","ip":"0.0.0.0","mem":0,"v":0},{"cpu":0.5,"ct":0,"h":"b","ip":"0.0.0.0","mem":0,"v":0}],"from":"a","type":"gossip"})");
  EXPECT_EQ(digest.wire_size(), digest.to_json().dump_size());
}

// A field that does not hold its type fails the whole read: an address
// that does not parse, an array element of the wrong type, a nested
// struct with a bad member.
TEST(Schema, FromJsonChecksAddressesArraysAndNestedStructs) {
  Json map = apps::MapTask().to_json();
  map.set("reducers", Json::array().push_back("10.0.0.1"));
  EXPECT_TRUE(apps::MapTask::from_json(map).ok());
  map.set("reducers", Json::array().push_back("10.0.0.256"));
  EXPECT_FALSE(apps::MapTask::from_json(map).ok());
  map.set("reducers", Json::array().push_back(7));
  EXPECT_FALSE(apps::MapTask::from_json(map).ok());
  map.set("reducers", Json("10.0.0.1"));
  EXPECT_FALSE(apps::MapTask::from_json(map).ok());

  cloud::GossipDigest digest;
  digest.entries.resize(1);
  Json json = digest.to_json();
  EXPECT_TRUE(cloud::GossipDigest::from_json(json).ok());
  json.set("entries",
           Json::array().push_back(digest.entries[0].to_json().set("v", -1)));
  EXPECT_FALSE(cloud::GossipDigest::from_json(json).ok());
}

TEST(Schema, FiniteMembersRoundTripExactly) {
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    ServeRequest r = random_request(rng);
    if (r.cost && !std::isfinite(*r.cost)) r.cost = 2.5;
    auto decoded = ServeRequest::from_json(r.to_json());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), r);
    ServeReply reply = random_reply(rng);
    auto decoded_reply = ServeReply::from_json(reply.to_json());
    ASSERT_TRUE(decoded_reply.ok());
    EXPECT_EQ(decoded_reply.value(), reply);
  }
}

TEST(Schema, NumbersFollowJsonDoubleRules) {
  ServeRequest r;
  r.id = 1;
  r.cost = -0.0;
  EXPECT_EQ(r.to_json().dump(), R"({"cost":0,"id":1,"op":"get"})");
  EXPECT_EQ(r.wire_size(), 28u);
  r.cost = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(r.to_json().dump(), R"({"cost":null,"id":1,"op":"get"})");
  EXPECT_EQ(r.wire_size(), 31u);
  r.cost = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(r.wire_size(), 31u);
  r.cost = 0.1;
  EXPECT_EQ(r.to_json().dump(),
            R"({"cost":0.10000000000000001,"id":1,"op":"get"})");
  EXPECT_EQ(r.wire_size(), r.to_json().dump().size());
  EXPECT_EQ(Json::number_size(-0.0), 1u);
  EXPECT_EQ(Json::number_size(9007199254740992.0),
            Json(9007199254740992.0).dump_size());
}

TEST(Schema, FromJsonChecksTypesAndPresence) {
  EXPECT_FALSE(ServeRequest::from_json(Json("not an object")).ok());
  // "id" and "op" are required; every other member is optional.
  EXPECT_FALSE(ServeRequest::from_json(Json::object().set("op", "get")).ok());
  EXPECT_FALSE(ServeRequest::from_json(Json::object().set("id", 1)).ok());
  EXPECT_TRUE(
      ServeRequest::from_json(Json::object().set("id", 1).set("op", "del"))
          .ok());
  // Unknown enum names, wrong types and out-of-range integers are errors.
  EXPECT_FALSE(ServeRequest::from_json(
                   Json::object().set("id", 1).set("op", "fetch"))
                   .ok());
  EXPECT_FALSE(ServeRequest::from_json(
                   Json::object().set("id", "1").set("op", "get"))
                   .ok());
  EXPECT_FALSE(ServeRequest::from_json(
                   Json::object().set("id", -1).set("op", "get"))
                   .ok());
  EXPECT_FALSE(ServeReply::from_json(
                   Json::object().set("id", 1).set("status", 1e10))
                   .ok());
  // Keys outside the table are ignored.
  auto extra = ServeReply::from_json(
      Json::object().set("id", 3).set("zzz", true).set("ok", true));
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(extra.value().to_json().dump(), R"({"id":3,"ok":true})");
}

// A body moves its struct and is empty afterwards; copies are deep. An
// empty body holds no struct and stands for null.
TEST(Body, HoldsAStructInline) {
  ServeRequest request;
  request.id = 9;
  request.path = "/a-path-longer-than-the-small-string-buffer";
  net::Body body(request);
  ASSERT_NE(body.get<ServeRequest>(), nullptr);
  EXPECT_EQ(body.get<ServeReply>(), nullptr);
  EXPECT_EQ(body.wire_size(), request.wire_size());

  net::Body copy = body;
  ASSERT_NE(copy.get<ServeRequest>(), nullptr);
  EXPECT_EQ(*copy.get<ServeRequest>(), request);

  net::Body moved = std::move(body);
  EXPECT_EQ(*moved.get<ServeRequest>(), request);
  EXPECT_EQ(body.get<ServeRequest>(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(body.wire_size(), 4u);  // null
  EXPECT_TRUE(body.to_json().is_null());
  const net::Body empty_copy = body;
  EXPECT_EQ(empty_copy.get<ServeRequest>(), nullptr);
  EXPECT_EQ(empty_copy.wire_size(), 4u);

  body = std::move(moved);
  EXPECT_EQ(*body.get<ServeRequest>(), request);
  body = body;  // self-assignment keeps the value
  EXPECT_EQ(*body.get<ServeRequest>(), request);
  EXPECT_EQ(body.to_json(), request.to_json());
  body = net::Body();
  EXPECT_EQ(body.get<ServeRequest>(), nullptr);
}

// ---------------------------------------------------------------------------
// Goldens: the text of every body the code sends.

// The text of a delivered body.
std::string text_of(const net::Message& msg) {
  return msg.body.to_json().dump();
}

void expect_texts(const std::vector<std::string>& texts,
                  const std::vector<std::string>& golden) {
  EXPECT_EQ(texts, golden);
}

// A serving-tier request as a client sends it.
net::Body request_body(apps::ServeOp op, std::uint64_t id,
                       std::optional<std::string> path = std::nullopt,
                       std::optional<double> cost = std::nullopt) {
  ServeRequest r;
  r.op = op;
  r.id = id;
  r.path = std::move(path);
  r.cost = cost;
  return r;
}

struct WireWorld {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  std::vector<std::unique_ptr<hw::Device>> devices;
  std::vector<std::unique_ptr<os::NodeOs>> nodes;
  net::Ipv4Addr client_ip{10, 0, 0, 200};
  // A bare address on host 0 whose listeners record what reaches them.
  net::Ipv4Addr tap_ip{10, 0, 0, 100};
  std::vector<std::string> texts;
  std::vector<net::Message> kept;

  WireWorld() {
    topo = net::build_single_rack(fabric, 3);
    for (int i = 0; i < 3; ++i) {
      devices.push_back(std::make_unique<hw::Device>(
          i, "pi-r0-" + std::to_string(i), hw::pi_model_b()));
      nodes.push_back(std::make_unique<os::NodeOs>(
          sim, *devices.back(), network, topo.hosts[i]));
      nodes.back()->boot();
      nodes.back()->set_host_ip(net::Ipv4Addr(10, 0, 0, 1 + i));
    }
    network.bind_ip(client_ip, topo.internet);
    network.bind_ip(tap_ip, topo.hosts[0]);
  }

  net::Ipv4Addr launch(int n, const std::string& name,
                       std::unique_ptr<os::ContainerApp> app,
                       std::uint64_t memory_limit = 0) {
    auto created = nodes[n]->create_container(
        {.name = name, .memory_limit = memory_limit});
    EXPECT_TRUE(created.ok());
    created.value()->set_app(std::move(app));
    const net::Ipv4Addr ip(10, 0, 1, static_cast<std::uint8_t>(10 + n));
    EXPECT_TRUE(created.value()->start(ip).ok());
    return ip;
  }

  // Records what reaches (ip, port), and keeps each message so a later
  // step can hand the very message its real sender wrote to a real
  // receiver.
  void record(net::Ipv4Addr ip, std::uint16_t port) {
    network.listen(ip, port, [this](const net::Message& msg) {
      texts.push_back(text_of(msg));
      kept.push_back(msg);
    });
  }
  // The same for pre-IP traffic addressed to a fabric node.
  void record_node(net::NetNodeId node, std::uint16_t port) {
    network.listen_node(node, port, [this](const net::Message& msg) {
      texts.push_back(text_of(msg));
      kept.push_back(msg);
    });
  }
  // Sends a kept message again, from client_ip:5000 to `dst`:`dst_port`,
  // so a reply comes back to the tap there.
  void replay(net::Message msg, net::Ipv4Addr dst, std::uint16_t dst_port) {
    msg.src = client_ip;
    msg.src_port = 5000;
    msg.dst = dst;
    msg.dst_port = dst_port;
    ASSERT_TRUE(network.send(std::move(msg)));
    sim.run_for(sim::Duration::seconds(1));
  }

  void send(net::Ipv4Addr dst, std::uint16_t port, net::Body body,
            double padding = 0) {
    net::Message msg;
    msg.src = client_ip;
    msg.dst = dst;
    msg.src_port = 5000;
    msg.dst_port = port;
    msg.body = std::move(body);
    msg.padding_bytes = padding;
    ASSERT_TRUE(network.send(std::move(msg)));
  }
};

TEST(WireGoldens, LoadGeneratorRequests) {
  for (double alpha : {0.0, 2.5}) {
    WireWorld w;
    w.record(w.tap_ip, 80);
    apps::HttpLoadGen::Params params;
    params.requests_per_sec = 50;
    params.shape.cost_alpha = alpha;
    apps::HttpLoadGen gen(w.network, w.client_ip, {w.tap_ip}, params,
                          util::Rng(3));
    gen.start();
    w.sim.run_for(sim::Duration::millis(60));
    gen.stop();
    if (alpha == 0.0) {
      expect_texts(w.texts, {
                         R"({"id":1,"op":"get","path":"/index.html"})",
                         R"({"id":2,"op":"get","path":"/index.html"})",
                         R"({"id":3,"op":"get","path":"/index.html"})",
                         R"({"id":4,"op":"get","path":"/index.html"})",
                     });
    } else {
      expect_texts(w.texts, {
                         R"({"cost":0.71700408059274134,"id":1,"op":"get","path":"/index.html"})",
                         R"({"cost":0.77116485965040682,"id":2,"op":"get","path":"/index.html"})",
                         R"({"cost":0.86604617049058163,"id":3,"op":"get","path":"/index.html"})",
                     });
    }
  }
}

TEST(WireGoldens, BalancerProbesAndProxiedRequests) {
  WireWorld w;
  w.record(w.tap_ip, 80);
  auto lb = std::make_unique<apps::LbApp>();
  apps::LbApp* app = lb.get();
  const net::Ipv4Addr lb_ip = w.launch(1, "lb", std::move(lb));
  app->set_backends({w.tap_ip});
  w.record(w.client_ip, 5000);
  w.send(lb_ip, 80, request_body(apps::ServeOp::kGet, 41, "/index.html"));
  // The backend never answers: the proxy times out after 2 s and the
  // client gets upstream_failed; the probes every 500 ms time out too.
  w.sim.run_for(sim::Duration::millis(2700));
  expect_texts(w.texts, {
                         R"({"id":1,"op":"get","path":"/index.html"})",
                         R"({"id":2,"op":"health"})",
                         R"({"id":3,"op":"health"})",
                         R"({"id":4,"op":"health"})",
                         R"({"id":41,"lb_error":"upstream_failed","status":503})",
                     });
}

TEST(WireGoldens, BalancerWithoutBackends) {
  WireWorld w;
  const net::Ipv4Addr lb_ip = w.launch(1, "lb", std::make_unique<apps::LbApp>());
  w.record(w.client_ip, 5000);
  w.send(lb_ip, 80, request_body(apps::ServeOp::kGet, 8, "/index.html"));
  w.sim.run_for(sim::Duration::millis(100));
  expect_texts(w.texts, {
                         R"({"id":8,"lb_error":"no_backend","status":503})",
                     });
}

TEST(WireGoldens, HttpdReplies) {
  WireWorld w;
  apps::HttpdParams hp;
  hp.service_concurrency = 1;
  hp.queue_capacity = 4;
  hp.cycles_per_request = 6e8;  // ~0.86 s alone: the queue fills, then ages
  const net::Ipv4Addr web =
      w.launch(1, "web", std::make_unique<apps::HttpdApp>(hp));
  w.record(w.client_ip, 5000);
  // One probe, then a wave whose queued requests outlive their deadline.
  w.send(web, 80, request_body(apps::ServeOp::kHealth, 1));
  for (std::uint64_t id = 2; id <= 8; ++id) {
    w.send(web, 80, request_body(apps::ServeOp::kGet, id, "/p"));
  }
  w.sim.run_for(sim::Duration::seconds(1));
  // A cheaper wave that fills the queue and is served browned out.
  for (std::uint64_t id = 9; id <= 13; ++id) {
    w.send(web, 80, request_body(apps::ServeOp::kGet, id, "/q", 0.25));
  }
  w.sim.run_for(sim::Duration::seconds(5));
  expect_texts(w.texts, {
                         R"({"health":true,"id":1,"status":200})",
                         R"({"id":7,"shed":"admission","status":503})",
                         R"({"id":8,"shed":"admission","status":503})",
                         R"({"id":3,"shed":"deadline","status":503})",
                         R"({"id":4,"shed":"deadline","status":503})",
                         R"({"id":5,"shed":"deadline","status":503})",
                         R"({"id":6,"shed":"deadline","status":503})",
                         R"({"id":2,"path":"/p","status":200})",
                         R"({"id":9,"path":"/q","status":200})",
                         R"({"brownout":true,"id":10,"path":"/q","status":200})",
                         R"({"brownout":true,"id":11,"path":"/q","status":200})",
                         R"({"brownout":true,"id":12,"path":"/q","status":200})",
                         R"({"id":13,"path":"/q","status":200})",
                     });
}

TEST(WireGoldens, KvClientRequests) {
  WireWorld w;
  w.record(w.tap_ip, 6379);
  apps::KvClient client(w.network, w.client_ip);
  auto ignore = [](util::Result<ServeReply>) {};
  client.put(w.tap_ip, "k\"1", 4096, ignore);
  client.get(w.tap_ip, "k\"1", ignore);
  client.del(w.tap_ip, "k\"1", ignore);
  w.sim.run_for(sim::Duration::millis(100));
  expect_texts(w.texts, {
                         R"({"id":2,"key":"k\"1","op":"get"})",
                         R"({"id":3,"key":"k\"1","op":"del"})",
                         R"({"bytes":4096,"id":1,"key":"k\"1","op":"put"})",
                     });
}

TEST(WireGoldens, KvStoreReplies) {
  WireWorld w;
  apps::KvStoreParams kp;
  kp.service_concurrency = 1;
  kp.queue_capacity = 4;
  const net::Ipv4Addr db = w.launch(
      1, "db", std::make_unique<apps::KvStoreApp>(kp), 40ull << 20);
  w.record(w.client_ip, 5000);
  auto kv = [](apps::ServeOp op, std::uint64_t id, const char* key,
               std::optional<std::uint64_t> bytes = std::nullopt) {
    ServeRequest r;
    r.op = op;
    r.id = id;
    r.key = key;
    r.bytes = bytes;
    return net::Body(std::move(r));
  };
  w.send(db, 6379, request_body(apps::ServeOp::kHealth, 1));
  w.send(db, 6379, kv(apps::ServeOp::kPut, 2, "a", 1024), 1024);
  w.sim.run_for(sim::Duration::millis(100));
  w.send(db, 6379, kv(apps::ServeOp::kGet, 3, "a"));
  w.send(db, 6379, kv(apps::ServeOp::kGet, 4, "missing"));
  w.send(db, 6379, kv(apps::ServeOp::kDel, 5, "missing"));
  w.send(db, 6379, kv(apps::ServeOp::kPut, 6, "huge", 1ull << 30), 1024);
  w.sim.run_for(sim::Duration::millis(100));
  // A burst past the queue: brownout gets, then admission sheds.
  w.send(db, 6379, kv(apps::ServeOp::kPut, 7, "b", 64), 64);
  for (std::uint64_t id = 8; id <= 14; ++id) {
    w.send(db, 6379, kv(apps::ServeOp::kGet, id, "a"));
  }
  w.sim.run_for(sim::Duration::seconds(2));
  expect_texts(w.texts, {
                         R"({"health":true,"id":1,"ok":true})",
                         R"({"id":2,"ok":true})",
                         R"({"bytes":1024,"id":3,"ok":true})",
                         R"({"error":"no such key","id":4,"ok":false})",
                         R"({"id":5,"ok":true})",
                         R"({"error":"out of memory","id":6,"ok":false})",
                         R"({"id":13,"ok":false,"shed":"admission"})",
                         R"({"id":14,"ok":false,"shed":"admission"})",
                         R"({"id":7,"ok":false,"shed":"admission"})",
                         R"({"bytes":1024,"id":8,"ok":true})",
                         R"({"brownout":true,"bytes":1024,"id":9,"ok":true})",
                         R"({"brownout":true,"bytes":1024,"id":10,"ok":true})",
                         R"({"brownout":true,"bytes":1024,"id":11,"ok":true})",
                         R"({"bytes":1024,"id":12,"ok":true})",
                     });
}

TEST(WireGoldens, RestRequestsAndResponses) {
  WireWorld w;
  proto::Router router;
  router.handle(proto::Method::kGet, "/nodes",
                [](const HttpRequest&, const proto::PathParams&) {
                  return HttpResponse::make(
                      200, Json::object().set("nodes", Json::array()));
                });
  router.handle(proto::Method::kDelete, "/nodes/:name",
                [](const HttpRequest&, const proto::PathParams&) {
                  return HttpResponse::make(204);
                });
  proto::RestServer server(w.network, w.tap_ip, 8080, &router);
  server.start();
  // The client's requests, as the server's tap sees them.
  const net::Ipv4Addr tap2(10, 0, 0, 101);
  w.network.bind_ip(tap2, w.topo.hosts[2]);
  w.record(tap2, 8080);
  proto::RestClient client(w.network, w.client_ip);
  std::vector<std::string> responses;
  auto keep = [&responses](util::Result<HttpResponse> r) {
    ASSERT_TRUE(r.ok());
    responses.push_back(HttpResponse(std::move(r).value()).to_json().dump());
  };
  client.get(w.tap_ip, 8080, "/nodes", keep);
  client.call(w.tap_ip, 8080, proto::Method::kDelete, "/nodes/pi-1", Json(),
              keep);
  client.post(w.tap_ip, 8080, "/missing",
              Json::object().set("name", "web\n1").set("cpu", 0.25), keep);
  client.post(tap2, 8080, "/register", Json::object().set("rack", 2),
              [](util::Result<HttpResponse>) {});
  client.get(tap2, 8080, "/nodes", [](util::Result<HttpResponse>) {});
  w.sim.run_for(sim::Duration::seconds(1));
  expect_texts(w.texts, {
                         R"({"i":5,"m":"GET","p":"/nodes"})",
                         R"({"b":{"rack":2},"i":4,"m":"POST","p":"/register"})",
                     });
  expect_texts(responses, {
                         R"({"b":{"nodes":[]},"i":1,"s":200})",
                         R"({"i":2,"s":204})",
                         R"({"b":{"error":"not_found","message":"no route for /missing"},"i":3,"s":404})",
                     });
}

// ---------------------------------------------------------------------------
// Datagram goldens: DHCP, DNS, gossip, DFS and MapReduce. Each exchange is
// driven in steps: a tap stands where a real peer would receive a message,
// and the next step replays what the tap kept to a real receiver, so every
// text below was written by a real sender.

TEST(WireGoldens, DhcpHandshakeAndRefusals) {
  WireWorld w;
  const net::NetNodeId server_node = w.topo.gateway;
  const net::NetNodeId tap_node = w.topo.hosts[0];
  const net::NetNodeId node_one = w.topo.hosts[1];
  const net::NetNodeId node_two = w.topo.hosts[2];
  proto::DhcpServerConfig config;
  config.subnet = net::Subnet(net::Ipv4Addr(10, 0, 0, 0), 16);
  config.range_start = net::Ipv4Addr(10, 0, 1, 1);
  config.range_end = config.range_start;  // a one-address pool
  proto::DhcpServer server(w.network, server_node,
                           net::Ipv4Addr(10, 0, 0, 254), config);
  proto::DhcpClient one(w.network, node_one, "b8:27:eb:00:00:01", "pi-r0-01");
  proto::DhcpClient two(w.network, node_two, "b8:27:eb:00:00:02", "pi-r0-02");
  const auto ignore = [](net::Ipv4Addr, sim::Duration) {};
  const auto settle = [&w]() { w.sim.run_for(sim::Duration::millis(100)); };
  const auto to_node = [&w](net::NetNodeId from, net::NetNodeId to,
                            const net::Message& msg) {
    w.network.send_to_node(from, to, msg);
    w.sim.run_for(sim::Duration::millis(100));
  };

  // Both clients discover; with the server down only the tap hears them.
  w.record_node(tap_node, proto::kDhcpServerPort);
  one.start(ignore);
  settle();
  two.start(ignore);
  settle();
  one.stop();
  two.stop();
  w.network.unlisten_node(tap_node, proto::kDhcpServerPort);
  ASSERT_EQ(w.kept.size(), 2u);
  const net::Message discover_one = w.kept[0];
  const net::Message discover_two = w.kept[1];

  // The server offers its one address for client one's discover.
  server.start();
  w.record_node(node_one, proto::kDhcpClientPort);
  to_node(node_one, server_node, discover_one);
  w.network.unlisten_node(node_one, proto::kDhcpClientPort);
  ASSERT_EQ(w.kept.size(), 3u);
  const net::Message offer = w.kept[2];

  // Handed that offer, both clients request the address from the server's
  // node, where the tap now stands (their new discovers reach it too).
  server.stop();
  w.record_node(server_node, proto::kDhcpServerPort);
  one.start(ignore);
  two.start(ignore);
  settle();
  to_node(server_node, node_one, offer);
  to_node(server_node, node_two, offer);
  one.stop();
  two.stop();
  w.network.unlisten_node(server_node, proto::kDhcpServerPort);
  ASSERT_EQ(w.kept.size(), 7u);
  const net::Message request_one = w.kept[5];
  const net::Message request_two = w.kept[6];

  // The server acks client one; client two's request for the address one
  // now holds, and its discover to a pool with no address left, are NAKed.
  server.start();
  w.record_node(node_one, proto::kDhcpClientPort);
  w.record_node(node_two, proto::kDhcpClientPort);
  to_node(node_one, server_node, request_one);
  to_node(node_two, server_node, request_two);
  to_node(node_two, server_node, discover_two);
  expect_texts(w.texts, {
                         R"({"hostname":"pi-r0-01","mac":"b8:27:eb:00:00:01","node":4,"type":"discover"})",
                         R"({"hostname":"pi-r0-02","mac":"b8:27:eb:00:00:02","node":5,"type":"discover"})",
                         R"({"ip":"10.0.1.1","lease_s":3600,"server_ip":"10.0.0.254","server_node":1,"type":"offer"})",
                         R"({"hostname":"pi-r0-01","mac":"b8:27:eb:00:00:01","node":4,"type":"discover"})",
                         R"({"hostname":"pi-r0-02","mac":"b8:27:eb:00:00:02","node":5,"type":"discover"})",
                         R"({"hostname":"pi-r0-01","ip":"10.0.1.1","mac":"b8:27:eb:00:00:01","node":4,"type":"request"})",
                         R"({"hostname":"pi-r0-02","ip":"10.0.1.1","mac":"b8:27:eb:00:00:02","node":5,"type":"request"})",
                         R"({"ip":"10.0.1.1","lease_s":3600,"server_node":1,"type":"ack"})",
                         R"({"reason":"requested address unavailable","type":"nak"})",
                         R"({"reason":"address pool exhausted","type":"nak"})",
                     });
}

TEST(WireGoldens, DnsQueriesAndAnswers) {
  WireWorld w;
  const net::Ipv4Addr server_ip(10, 0, 0, 53);
  w.network.bind_ip(server_ip, w.topo.hosts[2]);
  proto::DnsServer server(w.network, server_ip);
  server.add_record("pi-r0-01", net::Ipv4Addr(10, 0, 0, 2));
  // The resolver's queries reach the tap at the server's address.
  w.record(server_ip, proto::kDnsPort);
  proto::DnsResolver resolver(w.network, w.client_ip, server_ip);
  resolver.resolve("pi-r0-01", [](util::Result<net::Ipv4Addr>) {});
  w.sim.run_for(sim::Duration::millis(100));
  resolver.resolve("ghost", [](util::Result<net::Ipv4Addr>) {});
  w.sim.run_for(sim::Duration::millis(100));
  w.network.unlisten(server_ip, proto::kDnsPort);
  ASSERT_EQ(w.kept.size(), 2u);
  const std::vector<net::Message> queries = w.kept;
  // The server answers each query at the tap's address.
  server.start();
  w.record(w.client_ip, 5000);
  for (const net::Message& query : queries) {
    w.replay(query, server_ip, proto::kDnsPort);
  }
  expect_texts(w.texts, {
                         R"({"id":1,"q":"pi-r0-01"})",
                         R"({"id":2,"q":"ghost"})",
                         R"({"a":"10.0.0.2","id":1,"ttl_s":60.000000000000007})",
                         R"({"id":2,"nx":true})",
                     });
}

TEST(WireGoldens, GossipDigest) {
  WireWorld w;
  const net::Ipv4Addr peer(10, 0, 0, 101);
  w.network.bind_ip(peer, w.topo.hosts[1]);
  w.record(w.tap_ip, cloud::kGossipPort);
  w.record(peer, cloud::kGossipPort);
  cloud::GossipAgent agent(w.network, {}, util::Rng(4));
  agent.add_seed("pi-r0-00", w.tap_ip);
  agent.add_seed("pi-r0-01", peer);
  agent.start("admin", w.client_ip);
  agent.update_self(0.375, 5ull << 20, 2);
  // One round: the digest goes to both peers (fanout 2).
  w.sim.run_for(sim::Duration::millis(1500));
  expect_texts(w.texts, {
                         R"({"entries":[{"cpu":0.375,"ct":2,"h":"admin","ip":"10.0.0.200","mem":5242880,"v":3},{"cpu":0,"ct":0,"h":"pi-r0-00","ip":"10.0.0.100","mem":0,"v":0},{"cpu":0,"ct":0,"h":"pi-r0-01","ip":"10.0.0.101","mem":0,"v":0}],"from":"admin","type":"gossip"})",
                         R"({"entries":[{"cpu":0.375,"ct":2,"h":"admin","ip":"10.0.0.200","mem":5242880,"v":3},{"cpu":0,"ct":0,"h":"pi-r0-00","ip":"10.0.0.100","mem":0,"v":0},{"cpu":0,"ct":0,"h":"pi-r0-01","ip":"10.0.0.101","mem":0,"v":0}],"from":"admin","type":"gossip"})",
                     });
}

TEST(WireGoldens, DfsOrdersAndAcks) {
  WireWorld w;
  // Three tapped datanodes, one per rack, take the namenode's orders.
  const net::Ipv4Addr tap2(10, 0, 0, 101), tap3(10, 0, 0, 102);
  w.network.bind_ip(tap2, w.topo.hosts[1]);
  w.network.bind_ip(tap3, w.topo.hosts[2]);
  for (net::Ipv4Addr tap : {w.tap_ip, tap2, tap3}) {
    w.record(tap, apps::kDfsPort);
  }
  apps::DfsNamenode::Config config;
  config.replication = 2;
  apps::DfsNamenode namenode(w.network, w.client_ip, config);
  namenode.add_datanode(w.tap_ip, 0);
  namenode.add_datanode(tap2, 1);
  namenode.add_datanode(tap3, 2);
  namenode.write("f", 1 << 20, [](util::Status) {});  // stores to tap, tap2
  w.sim.run_for(sim::Duration::seconds(1));
  namenode.read("f", [](util::Result<std::uint64_t>) {});  // fetch from tap
  w.sim.run_for(sim::Duration::seconds(1));
  namenode.handle_datanode_death(tap2);  // tap pushes to tap3
  w.sim.run_for(sim::Duration::seconds(1));
  namenode.remove("f", [](util::Status) {});  // drops to tap, tap3
  w.sim.run_for(sim::Duration::seconds(1));
  ASSERT_EQ(w.kept.size(), 6u);
  const std::vector<net::Message> orders = w.kept;
  const net::Message& store = orders[0];
  const net::Message& fetch = orders[2];
  const net::Message& push = orders[3];
  const net::Message& drop = orders[4];

  // Real datanodes ack to the tap at the client address; the one holding
  // the block sends it on to tap3 when pushed.
  const net::Ipv4Addr full = w.launch(1, "dn-full",
                                      std::make_unique<apps::DfsNodeApp>());
  const net::Ipv4Addr holder =
      w.launch(2, "dn", std::make_unique<apps::DfsNodeApp>());
  storage::SdCard& card = w.nodes[1]->sdcard();
  ASSERT_TRUE(card.reserve(card.free_bytes() - 1024));
  w.record(w.client_ip, 5000);
  w.replay(store, holder, apps::kDfsPort);
  w.replay(fetch, holder, apps::kDfsPort);
  w.replay(push, holder, apps::kDfsPort);
  w.replay(drop, holder, apps::kDfsPort);
  w.replay(store, full, apps::kDfsPort);
  w.replay(fetch, full, apps::kDfsPort);
  w.replay(push, full, apps::kDfsPort);
  expect_texts(w.texts, {
                         R"({"block":"blk_000001","bytes":1048576,"id":1,"op":"store"})",
                         R"({"block":"blk_000001","bytes":1048576,"id":2,"op":"store"})",
                         R"({"block":"blk_000001","id":3,"op":"fetch"})",
                         R"({"block":"blk_000001","id":4,"op":"push","to":"10.0.0.102"})",
                         R"({"block":"blk_000001","id":5,"op":"drop"})",
                         R"({"block":"blk_000001","id":6,"op":"drop"})",
                         R"({"id":1,"ok":true})",
                         R"({"bytes":1048576,"id":3,"ok":true})",
                         R"({"id":4,"ok":true})",
                         R"({"block":"blk_000001","bytes":1048576,"id":0,"op":"store"})",
                         R"({"id":5,"ok":true})",
                         R"({"error":"sd card full","id":1,"ok":false})",
                         R"({"error":"no such block","id":3,"ok":false})",
                         R"({"error":"no such block/peer","id":4,"ok":false})",
                     });
}

TEST(WireGoldens, MapReduceTasksAndCompletions) {
  WireWorld w;
  const net::Ipv4Addr tap2(10, 0, 0, 101), tap3(10, 0, 0, 102);
  w.network.bind_ip(tap2, w.topo.hosts[1]);
  w.network.bind_ip(tap3, w.topo.hosts[2]);
  for (net::Ipv4Addr tap : {w.tap_ip, tap2, tap3}) {
    w.record(tap, apps::kMapReducePort);
  }
  // The driver's map order reaches the tap standing in for the worker.
  apps::MapReduceDriver driver(w.network, w.client_ip);
  apps::MapReduceJobSpec spec;
  spec.job_id = "wc-1";
  spec.input_bytes = 1234567.5;
  spec.map_tasks = 1;
  spec.workers = {w.tap_ip};
  spec.reducers = {tap2, tap3};
  spec.map_cycles_per_byte = 1.5;
  spec.reduce_cycles_per_byte = 0.25;
  spec.shuffle_fraction = 0.3;
  driver.run(spec, [](const apps::MapReduceJobResult&) {});
  w.sim.run_for(sim::Duration::seconds(1));
  ASSERT_EQ(w.kept.size(), 1u);
  const net::Message map = w.kept[0];

  // A real worker maps: a partition to each tapped reducer, and map_done
  // to the tap at the client address.
  const net::Ipv4Addr worker =
      w.launch(1, "mr", std::make_unique<apps::MapReduceWorkerApp>());
  w.record(w.client_ip, 5000);
  w.replay(map, worker, apps::kMapReducePort);
  ASSERT_EQ(w.kept.size(), 4u);
  net::Message map_done, partition;
  for (size_t i = 1; i < w.kept.size(); ++i) {
    (w.kept[i].dst_port == 5000 ? map_done : partition) = w.kept[i];
  }

  // map_done, handed to the driver, makes it order both reduces.
  w.replay(map_done, w.client_ip, 7071);
  ASSERT_EQ(w.kept.size(), 6u);
  const net::Message reduce = w.kept[4];

  // The real worker reduces once the order and the partition are in.
  w.replay(partition, worker, apps::kMapReducePort);
  w.replay(reduce, worker, apps::kMapReducePort);
  expect_texts(w.texts, {
                         R"({"bytes":1234567.5,"cpb":1.5,"id":0,"job":"wc-1","op":"map","reducers":["10.0.0.101","10.0.0.102"],"shuffle_frac":0.29999999999999999,"task":0})",
                         R"({"bytes":185185.125,"job":"wc-1","op":"partition"})",
                         R"({"id":0,"job":"wc-1","op":"map_done","task":0})",
                         R"({"bytes":185185.125,"job":"wc-1","op":"partition"})",
                         R"({"cpb":0.25,"expect_bytes":185185.125,"expect_parts":1,"id":0,"job":"wc-1","op":"reduce"})",
                         R"({"cpb":0.25,"expect_bytes":185185.125,"expect_parts":1,"id":1,"job":"wc-1","op":"reduce"})",
                         R"({"id":0,"job":"wc-1","op":"reduce_done"})",
                     });
}

// A struct with the envelopes' keys that is neither envelope.
struct EnvelopeLookalike : util::JsonSchema<EnvelopeLookalike> {
  std::optional<std::string> m;
  std::optional<std::string> p;
  std::optional<int> s;
  int i = 0;

  static constexpr auto json_fields() {
    return std::tuple{util::field("i", &EnvelopeLookalike::i),
                      util::field("m", &EnvelopeLookalike::m),
                      util::field("p", &EnvelopeLookalike::p),
                      util::field("s", &EnvelopeLookalike::s)};
  }
};

EnvelopeLookalike lookalike(int i, std::optional<std::string> m,
                            std::optional<std::string> p,
                            std::optional<int> s = std::nullopt) {
  EnvelopeLookalike out;
  out.i = i;
  out.m = std::move(m);
  out.p = std::move(p);
  out.s = s;
  return out;
}

// What a received envelope must satisfy: a server answers a relative path
// or a body that is not a typed request with 400, and a client drops a
// response whose status is outside 100-599 or that is not a typed response.
// Another struct is never an envelope, however well-formed its keys, and
// neither is an empty body.
TEST(ReceivedEnvelopes, ServerAnswersBadRequestsWith400) {
  WireWorld w;
  proto::Router router;
  router.handle(proto::Method::kGet, "/x",
                [](const HttpRequest&, const proto::PathParams&) {
                  return HttpResponse::make(200);
                });
  proto::RestServer server(w.network, w.tap_ip, 8080, &router);
  server.start();
  w.record(w.client_ip, 5000);
  HttpRequest relative;
  relative.path = "x";
  relative.id = 1;
  HttpRequest good;
  good.path = "/x";
  good.id = 2;
  // One at a time, so the replies arrive in order.
  const std::vector<net::Body> requests = {
      relative,
      good,
      lookalike(3, "FETCH", "/x"),
      net::Body(),
      lookalike(5, "GET", "/x"),
  };
  for (const net::Body& request : requests) {
    w.send(w.tap_ip, 8080, request);
    w.sim.run_for(sim::Duration::seconds(1));
  }
  const std::string not_envelope =
      R"({"b":{"error":"bad_request","message":"not a request envelope"},"i":0,"s":400})";
  expect_texts(
      w.texts,
      {
          R"({"b":{"error":"bad_request","message":"path must start with /"},"i":0,"s":400})",
          R"({"i":2,"s":200})",
          not_envelope,
          not_envelope,
          not_envelope,
      });
}

TEST(ReceivedEnvelopes, ClientDropsBadResponses) {
  WireWorld w;
  proto::RestClient client(w.network, w.client_ip, 49152);
  std::vector<std::string> outcomes;
  auto keep = [&outcomes](util::Result<HttpResponse> r) {
    outcomes.push_back(r.ok() ? std::to_string(r.value().status)
                              : r.error().code);
  };
  for (int i = 0; i < 4; ++i) {
    client.call(w.tap_ip, 9, proto::Method::kGet, "/x", Json(), keep,
                sim::Duration::seconds(1));
  }
  auto answer = [&w](net::Body body) {
    net::Message msg;
    msg.src = w.tap_ip;
    msg.dst = w.client_ip;
    msg.src_port = 9;
    msg.dst_port = 49152;
    msg.body = std::move(body);
    ASSERT_TRUE(w.network.send(std::move(msg)));
  };
  HttpResponse bad_status;
  bad_status.status = 9999;
  bad_status.id = 1;
  answer(bad_status);
  answer(lookalike(2, std::nullopt, std::nullopt, 200));
  answer(net::Body());
  HttpResponse good;
  good.status = 201;
  good.id = 4;
  answer(good);
  w.sim.run_for(sim::Duration::seconds(2));
  EXPECT_EQ(outcomes, (std::vector<std::string>{"201", "timeout", "timeout",
                                                "timeout"}));
}

}  // namespace
}  // namespace picloud
