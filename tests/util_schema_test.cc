// Schema'd message bodies (util/schema.h): every schema writes exactly the
// bytes the same value built as a util::Json object dumps to, sizes them
// without building them, and reads them back. The goldens pin the text of
// every serving-tier and REST body the code sends, as the build that still
// built those bodies as Json objects wrote them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/httpd.h"
#include "apps/kvstore.h"
#include "apps/lb.h"
#include "apps/loadgen.h"
#include "apps/serving.h"
#include "hw/device.h"
#include "net/body.h"
#include "net/topology.h"
#include "os/node_os.h"
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

// A body moves its struct and leaves a null Json behind; copies are deep.
TEST(Body, HoldsAJsonOrAStructInline) {
  ServeRequest request;
  request.id = 9;
  request.path = "/a-path-longer-than-the-small-string-buffer";
  net::Body body(request);
  ASSERT_NE(body.get<ServeRequest>(), nullptr);
  EXPECT_EQ(body.get<ServeReply>(), nullptr);
  EXPECT_TRUE(body.json().is_null());
  EXPECT_EQ(body.wire_size(), request.wire_size());

  net::Body copy = body;
  ASSERT_NE(copy.get<ServeRequest>(), nullptr);
  EXPECT_EQ(*copy.get<ServeRequest>(), request);

  net::Body moved = std::move(body);
  EXPECT_EQ(*moved.get<ServeRequest>(), request);
  EXPECT_EQ(body.get<ServeRequest>(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(body.json().is_null());
  EXPECT_EQ(body.wire_size(), 4u);  // null

  body = Json::object().set("x", 1);
  EXPECT_EQ(body.wire_size(), 7u);
  body = std::move(moved);
  EXPECT_EQ(*body.get<ServeRequest>(), request);
  body = body;  // self-assignment keeps the value
  EXPECT_EQ(*body.get<ServeRequest>(), request);
  EXPECT_EQ(body.to_json(), request.to_json());
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

  void record(net::Ipv4Addr ip, std::uint16_t port) {
    network.listen(ip, port,
                   [this](const net::Message& msg) {
                     texts.push_back(text_of(msg));
                   });
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

// What a received envelope must satisfy: a server answers a relative path
// or a body that is not a typed request with 400, and a client drops a
// response whose status is outside 100-599 or that is not a typed response.
// A Json body is never an envelope, however well-formed its keys.
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
      Json::object().set("i", 3).set("m", "FETCH").set("p", "/x"),
      Json("not an envelope"),
      Json::object().set("i", 5).set("m", "GET").set("p", "/x"),
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
  answer(Json::object().set("i", 2).set("s", 200));
  answer(Json("not an envelope"));
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
