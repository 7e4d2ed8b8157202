// Protocol layer tests: HTTP envelope + router, REST over the fabric,
// DHCP DORA handshake, DNS resolution with caching.
#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "net/topology.h"
#include "proto/dhcp.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "proto/rest.h"
#include "sim/simulation.h"
#include "util/strings.h"

namespace picloud::proto {
namespace {

using util::Json;

// ---------------------------------------------------------------------------
// HTTP envelope + Router

TEST(Http, RequestEnvelopeRoundTrip) {
  HttpRequest req;
  req.method = Method::kPost;
  req.path = "/containers/web-1/freeze";
  req.body = Json::object().set("x", 1);
  req.id = 77;
  const Json envelope = HttpRequest(req).to_json();
  EXPECT_EQ(
      envelope.dump(),
      R"({"b":{"x":1},"i":77,"m":"POST","p":"/containers/web-1/freeze"})");
  auto parsed = HttpRequest::from_json(envelope);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().method, Method::kPost);
  EXPECT_EQ(parsed.value().path, req.path);
  EXPECT_EQ(parsed.value().body.json().get_number("x"), 1.0);
  EXPECT_EQ(parsed.value().id, 77u);
}

TEST(Http, ResponseEnvelopeRoundTrip) {
  HttpResponse resp = HttpResponse::make(201, Json("created"));
  resp.id = 9;
  const Json envelope = HttpResponse(resp).to_json();
  EXPECT_EQ(envelope.dump(), R"({"b":"created","i":9,"s":201})");
  auto parsed = HttpResponse::from_json(envelope);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, 201);
  EXPECT_TRUE(parsed.value().ok());
  EXPECT_EQ(parsed.value().id, 9u);
}

TEST(Http, FromJsonRejectsBadEnvelopes) {
  EXPECT_FALSE(HttpRequest::from_json(Json("not an envelope")).ok());
  Json unknown_method =
      Json::object().set("i", 1).set("m", "FETCH").set("p", "/x");
  EXPECT_FALSE(HttpRequest::from_json(unknown_method).ok());
  EXPECT_FALSE(
      HttpRequest::from_json(Json::object().set("m", "GET").set("p", "/x"))
          .ok());
  // A relative path or an out-of-range status decodes; the receiver checks
  // it (RestServer answers 400, RestClient drops the response).
  auto relative = HttpRequest::from_json(
      Json::object().set("i", 1).set("m", "GET").set("p", "no-slash"));
  ASSERT_TRUE(relative.ok());
  EXPECT_FALSE(relative.value().valid_path());
  auto bad_status =
      HttpResponse::from_json(Json::object().set("i", 1).set("s", 9999));
  ASSERT_TRUE(bad_status.ok());
  EXPECT_FALSE(bad_status.value().valid_status());
}

TEST(Router, LiteralAndParamRoutes) {
  Router router;
  router.handle(Method::kGet, "/nodes",
                [](const HttpRequest&, const PathParams&) {
                  return HttpResponse::make(200, Json("list"));
                });
  router.handle(Method::kGet, "/nodes/:hostname",
                [](const HttpRequest&, const PathParams& params) {
                  return HttpResponse::make(200, Json(params.at("hostname")));
                });

  EXPECT_EQ(router.route_count(), 2u);

  HttpRequest list;
  list.method = Method::kGet;
  list.path = "/nodes";
  EXPECT_EQ(router.dispatch(list).body.as_string(), "list");

  HttpRequest one;
  one.method = Method::kGet;
  one.path = "/nodes/pi-r2-07";
  EXPECT_EQ(router.dispatch(one).body.as_string(), "pi-r2-07");
}

TEST(Router, NotFoundAndMethodNotAllowed) {
  Router router;
  router.handle(Method::kGet, "/x",
                [](const HttpRequest&, const PathParams&) {
                  return HttpResponse::make(200);
                });
  HttpRequest missing;
  missing.path = "/y";
  EXPECT_EQ(router.dispatch(missing).status, 404);
  HttpRequest wrong_method;
  wrong_method.method = Method::kDelete;
  wrong_method.path = "/x";
  EXPECT_EQ(router.dispatch(wrong_method).status, 405);
}

TEST(Router, LaterRegistrationWins) {
  Router router;
  router.handle(Method::kGet, "/x", [](const HttpRequest&, const PathParams&) {
    return HttpResponse::make(200, Json("old"));
  });
  router.handle(Method::kGet, "/x", [](const HttpRequest&, const PathParams&) {
    return HttpResponse::make(200, Json("new"));
  });
  HttpRequest req;
  req.path = "/x";
  EXPECT_EQ(router.dispatch(req).body.as_string(), "new");
}

TEST(Router, UnseenLiteralSegmentsFastRejectTo404) {
  // The compiled route table interns literal segments at registration;
  // dispatch resolves each path segment against that table, so a segment
  // the table has never seen can only match param slots. No route here has
  // params, so the probe fails without any per-route string compare.
  Router router;
  router.handle(Method::kGet, "/nodes/all/status",
                [](const HttpRequest&, const PathParams&) {
                  return HttpResponse::make(200);
                });
  HttpRequest unseen;
  unseen.method = Method::kGet;
  unseen.path = "/totally/unknown/segments";
  EXPECT_EQ(router.dispatch(unseen).status, 404);
  // A known prefix with the wrong segment count misses its bucket.
  HttpRequest short_path;
  short_path.method = Method::kGet;
  short_path.path = "/nodes/all";
  EXPECT_EQ(router.dispatch(short_path).status, 404);
  HttpRequest long_path;
  long_path.method = Method::kGet;
  long_path.path = "/nodes/all/status/extra";
  EXPECT_EQ(router.dispatch(long_path).status, 404);
}

TEST(Router, MixedLiteralAndParamRoutesResolvePerRoute) {
  // Two same-count routes differing in which positions are parameters: the
  // newest matching registration wins, and only the winner's params are
  // materialized.
  Router router;
  router.handle(Method::kGet, "/a/:x/c",
                [](const HttpRequest&, const PathParams& p) {
                  return HttpResponse::make(200, Json("x=" + p.at("x")));
                });
  router.handle(Method::kGet, "/a/b/:y",
                [](const HttpRequest&, const PathParams& p) {
                  return HttpResponse::make(200, Json("y=" + p.at("y")));
                });
  HttpRequest both;
  both.method = Method::kGet;
  both.path = "/a/b/c";  // matches either; the later registration wins
  EXPECT_EQ(router.dispatch(both).body.as_string(), "y=c");
  HttpRequest first_only;
  first_only.method = Method::kGet;
  first_only.path = "/a/q/c";  // 'q' rules out the /a/b/:y literal
  EXPECT_EQ(router.dispatch(first_only).body.as_string(), "x=q");
}

TEST(Router, ResponseIdEchoesRequestId) {
  Router router;
  HttpRequest req;
  req.path = "/missing";
  req.id = 1234;
  EXPECT_EQ(router.dispatch(req).id, 1234u);
}

// ---------------------------------------------------------------------------
// REST over the simulated network

struct RestWorld {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  net::Ipv4Addr server_ip{10, 0, 0, 1};
  net::Ipv4Addr client_ip{10, 0, 0, 2};
  Router router;

  RestWorld() {
    topo = net::build_single_rack(fabric, 2);
    network.bind_ip(server_ip, topo.hosts[0]);
    network.bind_ip(client_ip, topo.hosts[1]);
  }
};

TEST(Rest, EndToEndCall) {
  RestWorld w;
  w.router.handle(Method::kGet, "/ping",
                  [](const HttpRequest&, const PathParams&) {
                    return HttpResponse::make(200, Json("pong"));
                  });
  RestServer server(w.network, w.server_ip, 8080, &w.router);
  server.start();
  EXPECT_TRUE(server.serving());
  RestClient client(w.network, w.client_ip);

  bool got = false;
  client.get(w.server_ip, 8080, "/ping",
             [&](util::Result<HttpResponse> result) {
               got = true;
               ASSERT_TRUE(result.ok());
               EXPECT_EQ(result.value().body.as_string(), "pong");
             });
  EXPECT_EQ(client.inflight(), 1u);
  w.sim.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(client.inflight(), 0u);
  EXPECT_EQ(client.calls_made(), 1u);
  EXPECT_EQ(w.sim.metrics().counter_value("proto.rest.server.requests"), 1u);
  server.stop();
  EXPECT_FALSE(server.serving());
}

TEST(Rest, AsyncHandlerRespondsLater) {
  RestWorld w;
  w.router.handle_async(
      Method::kPost, "/slow",
      [&w](const HttpRequest&, const PathParams&, Responder respond) {
        w.sim.after(sim::Duration::seconds(2),
                    [respond = std::move(respond)]() {
                      respond(HttpResponse::make(200, Json("finally")));
                    });
      });
  RestServer server(w.network, w.server_ip, 8080, &w.router);
  server.start();
  RestClient client(w.network, w.client_ip);
  bool got = false;
  client.post(w.server_ip, 8080, "/slow", Json(),
              [&](util::Result<HttpResponse> result) {
                got = true;
                ASSERT_TRUE(result.ok());
                EXPECT_EQ(result.value().body.as_string(), "finally");
              });
  w.sim.run();
  EXPECT_TRUE(got);
}

TEST(Rest, TimeoutWhenServerSilent) {
  RestWorld w;
  RestClient client(w.network, w.client_ip);
  bool got_error = false;
  client.call(w.server_ip, 8080, Method::kGet, "/void", Json(),
              [&](util::Result<HttpResponse> result) {
                got_error = !result.ok();
                if (got_error) {
                  EXPECT_EQ(result.error().code, "timeout");
                }
              },
              sim::Duration::seconds(1));
  w.sim.run();
  EXPECT_TRUE(got_error);
  EXPECT_EQ(client.timeouts(), 1u);
}

TEST(Rest, ConcurrentCallsDemultiplexById) {
  RestWorld w;
  w.router.handle(Method::kGet, "/echo/:v",
                  [](const HttpRequest&, const PathParams& params) {
                    return HttpResponse::make(200, Json(params.at("v")));
                  });
  RestServer server(w.network, w.server_ip, 8080, &w.router);
  server.start();
  RestClient client(w.network, w.client_ip);
  int matched = 0;
  for (int i = 0; i < 10; ++i) {
    client.get(w.server_ip, 8080, "/echo/" + std::to_string(i),
               [&matched, i](util::Result<HttpResponse> result) {
                 ASSERT_TRUE(result.ok());
                 if (result.value().body.as_string() == std::to_string(i)) {
                   ++matched;
                 }
               });
  }
  w.sim.run();
  EXPECT_EQ(matched, 10);
}

// ---------------------------------------------------------------------------
// DHCP

struct DhcpWorld {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  net::Ipv4Addr server_ip{10, 0, 0, 2};
  std::unique_ptr<DhcpServer> server;

  DhcpWorld() {
    topo = net::build_single_rack(fabric, 4);
    network.bind_ip(server_ip, topo.gateway);
    DhcpServerConfig config;
    config.subnet = net::Subnet(net::Ipv4Addr(10, 0, 0, 0), 16);
    config.range_start = net::Ipv4Addr(10, 0, 1, 1);
    config.range_end = net::Ipv4Addr(10, 0, 1, 100);
    server = std::make_unique<DhcpServer>(network, topo.gateway, server_ip,
                                          config);
    server->start();
  }
};

TEST(Dhcp, DoraHandshakeBindsClient) {
  DhcpWorld w;
  DhcpClient client(w.network, w.topo.hosts[0], "b8:27:eb:00:00:01",
                    "pi-r0-00");
  net::Ipv4Addr bound;
  client.start([&](net::Ipv4Addr ip, sim::Duration) { bound = ip; });
  w.sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(5));
  EXPECT_EQ(client.state(), DhcpClient::State::kBound);
  EXPECT_EQ(bound, net::Ipv4Addr(10, 0, 1, 1));
  EXPECT_EQ(w.server->active_leases(), 1u);
  // One DORA: one discover in, one ack out, no naks.
  EXPECT_EQ(w.server->discovers_seen(), 1u);
  EXPECT_EQ(w.server->acks_sent(), 1u);
  EXPECT_EQ(w.server->naks_sent(), 0u);
  auto lease = w.server->lease_for_mac("b8:27:eb:00:00:01");
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->hostname, "pi-r0-00");
}

TEST(Dhcp, DistinctClientsGetDistinctAddresses) {
  DhcpWorld w;
  std::vector<std::unique_ptr<DhcpClient>> clients;
  std::set<std::uint32_t> ips;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<DhcpClient>(
        w.network, w.topo.hosts[i],
        util::format("b8:27:eb:00:00:%02x", i), "host"));
    clients.back()->start(
        [&ips](net::Ipv4Addr ip, sim::Duration) { ips.insert(ip.value()); });
  }
  w.sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(10));
  EXPECT_EQ(ips.size(), 4u);
}

TEST(Dhcp, ReservationPinsAddress) {
  DhcpWorld w;
  w.server->add_reservation("b8:27:eb:00:00:07", net::Ipv4Addr(10, 0, 1, 77));
  DhcpClient client(w.network, w.topo.hosts[0], "b8:27:eb:00:00:07", "pinned");
  net::Ipv4Addr bound;
  client.start([&](net::Ipv4Addr ip, sim::Duration) { bound = ip; });
  w.sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(5));
  EXPECT_EQ(bound, net::Ipv4Addr(10, 0, 1, 77));
}

TEST(Dhcp, SameMacRenewsSameAddress) {
  DhcpWorld w;
  auto first = w.server->allocate_static("02:00:00:00:00:01", "c1");
  ASSERT_TRUE(first.ok());
  auto again = w.server->allocate_static("02:00:00:00:00:01", "c1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first.value(), again.value());
}

TEST(Dhcp, PoolExhaustionNaks) {
  DhcpWorld w;
  // Allocate the entire 100-address range statically.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        w.server->allocate_static(util::format("02:00:00:00:01:%02x", i), "c")
            .ok());
  }
  auto full = w.server->allocate_static("02:00:00:00:02:01", "straw");
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, "no_capacity");
  // Releasing one address makes room again.
  w.server->release(net::Ipv4Addr(10, 0, 1, 50));
  EXPECT_TRUE(w.server->allocate_static("02:00:00:00:02:01", "straw").ok());
}

TEST(Dhcp, LeaseCallbackFires) {
  DhcpWorld w;
  std::string seen_hostname;
  w.server->set_lease_callback(
      [&](const DhcpLease& lease) { seen_hostname = lease.hostname; });
  DhcpClient client(w.network, w.topo.hosts[0], "b8:27:eb:00:00:01",
                    "pi-r0-00");
  client.start([](net::Ipv4Addr, sim::Duration) {});
  w.sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(5));
  EXPECT_EQ(seen_hostname, "pi-r0-00");
}

// ---------------------------------------------------------------------------
// DNS

struct DnsWorld {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  net::Ipv4Addr server_ip{10, 0, 0, 2};
  net::Ipv4Addr client_ip{10, 0, 0, 3};
  std::unique_ptr<DnsServer> server;

  DnsWorld() {
    topo = net::build_single_rack(fabric, 2);
    network.bind_ip(server_ip, topo.gateway);
    network.bind_ip(client_ip, topo.hosts[0]);
    server = std::make_unique<DnsServer>(network, server_ip);
    server->start();
  }
};

TEST(Dns, ResolveOverTheWire) {
  DnsWorld w;
  w.server->add_record("pi-r0-00", net::Ipv4Addr(10, 0, 1, 1));
  EXPECT_EQ(w.server->record_count(), 1u);
  DnsResolver resolver(w.network, w.client_ip, w.server_ip);
  net::Ipv4Addr got;
  resolver.resolve("pi-r0-00", [&](util::Result<net::Ipv4Addr> result) {
    ASSERT_TRUE(result.ok());
    got = result.value();
  });
  w.sim.run();
  EXPECT_EQ(got, net::Ipv4Addr(10, 0, 1, 1));
  EXPECT_EQ(w.server->queries_served(), 1u);
}

TEST(Dns, NxDomain) {
  DnsWorld w;
  DnsResolver resolver(w.network, w.client_ip, w.server_ip);
  bool nx = false;
  resolver.resolve("ghost", [&](util::Result<net::Ipv4Addr> result) {
    nx = !result.ok() && result.error().code == "not_found";
  });
  w.sim.run();
  EXPECT_TRUE(nx);
}

TEST(Dns, CacheServesRepeatsWithoutQueries) {
  DnsWorld w;
  w.server->add_record("web", net::Ipv4Addr(10, 0, 1, 5));
  DnsResolver resolver(w.network, w.client_ip, w.server_ip);
  int resolved = 0;
  for (int i = 0; i < 3; ++i) {
    resolver.resolve("web", [&](util::Result<net::Ipv4Addr> result) {
      if (result.ok()) ++resolved;
      // Chain the next resolve after this one completes.
    });
    w.sim.run();
  }
  EXPECT_EQ(resolved, 3);
  EXPECT_EQ(resolver.queries_sent(), 1u);
  EXPECT_EQ(resolver.cache_hits(), 2u);
  EXPECT_EQ(resolver.cache_size(), 1u);  // one name cached, served twice
}

TEST(Dns, CacheExpiresAfterTtl) {
  DnsWorld w;
  w.server->add_record("web", net::Ipv4Addr(10, 0, 1, 5));
  DnsResolver resolver(w.network, w.client_ip, w.server_ip);
  resolver.resolve("web", [](util::Result<net::Ipv4Addr>) {});
  w.sim.run();
  // The server's advertised TTL drives the client cache lifetime tested here.
  EXPECT_NEAR(w.server->ttl().to_seconds(), 60.0, 1e-9);
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(120));  // > 60s TTL
  resolver.resolve("web", [](util::Result<net::Ipv4Addr>) {});
  w.sim.run();
  EXPECT_EQ(resolver.queries_sent(), 2u);
}

TEST(Dns, ReverseLookup) {
  DnsWorld w;
  w.server->add_record("web", net::Ipv4Addr(10, 0, 1, 5));
  EXPECT_EQ(w.server->reverse(net::Ipv4Addr(10, 0, 1, 5)),
            std::optional<std::string>("web"));
  EXPECT_FALSE(w.server->reverse(net::Ipv4Addr(10, 0, 1, 6)).has_value());
}

// ---------------------------------------------------------------------------
// Retrying calls under a RetryPolicy

TEST(RestRetry, RecoversWhenServerComesUpLate) {
  RestWorld w;
  w.router.handle(Method::kGet, "/ping",
                  [](const HttpRequest&, const PathParams&) {
                    return HttpResponse::make(200, Json("pong"));
                  });
  RestServer server(w.network, w.server_ip, 8080, &w.router);
  RestClient client(w.network, w.client_ip);

  bool got = false;
  client.call(w.server_ip, 8080, Method::kGet, "/ping", Json(),
              [&](util::Result<HttpResponse> result) {
                got = true;
                ASSERT_TRUE(result.ok());
                EXPECT_EQ(result.value().body.as_string(), "pong");
              },
              RetryPolicy::unbounded(sim::Duration::seconds(1)));
  // The server only starts listening 5 s in; early attempts all time out.
  w.sim.after(sim::Duration::seconds(5), [&]() { server.start(); });
  w.sim.run();
  EXPECT_TRUE(got);
  const util::MetricsRegistry& m = w.sim.metrics();
  EXPECT_GE(m.counter_value("proto.rest.attempts"), 2u);
  EXPECT_GE(m.counter_value("proto.rest.retries"), 1u);
  EXPECT_EQ(m.counter_value("proto.rest.succeeded_after_retry"), 1u);
  EXPECT_EQ(m.counter_value("proto.rest.exhausted"), 0u);
  EXPECT_EQ(client.inflight_retries(), 0u);
}

TEST(RestRetry, ExhaustsTheAttemptBudget) {
  RestWorld w;  // nobody ever listens
  RestClient client(w.network, w.client_ip);
  bool got_error = false;
  client.call(w.server_ip, 8080, Method::kGet, "/void", Json(),
              [&](util::Result<HttpResponse> result) {
                got_error = !result.ok();
                if (got_error) {
                  EXPECT_EQ(result.error().code, "timeout");
                }
              },
              RetryPolicy::standard(3, sim::Duration::millis(500)));
  w.sim.run();
  EXPECT_TRUE(got_error);
  const util::MetricsRegistry& m = w.sim.metrics();
  EXPECT_EQ(m.counter_value("proto.rest.calls"), 1u);
  EXPECT_EQ(m.counter_value("proto.rest.attempts"), 3u);
  EXPECT_EQ(m.counter_value("proto.rest.retries"), 2u);
  EXPECT_EQ(m.counter_value("proto.rest.exhausted"), 1u);
  EXPECT_EQ(client.inflight_retries(), 0u);
}

TEST(RestRetry, StopsAtTheOverallDeadline) {
  RestWorld w;
  RestClient client(w.network, w.client_ip);
  RetryPolicy policy = RetryPolicy::unbounded(sim::Duration::millis(500));
  policy.overall_deadline = sim::Duration::seconds(3);
  bool got_error = false;
  sim::SimTime failed_at;
  client.call(w.server_ip, 8080, Method::kGet, "/void", Json(),
              [&](util::Result<HttpResponse> result) {
                got_error = !result.ok();
                failed_at = w.sim.now();
                if (got_error) {
                  EXPECT_EQ(result.error().code, "deadline");
                }
              },
              policy);
  w.sim.run();
  EXPECT_TRUE(got_error);
  EXPECT_EQ(w.sim.metrics().counter_value("proto.rest.deadline_exceeded"), 1u);
  // The call gives up no later than deadline + one attempt timeout.
  EXPECT_LE((failed_at - sim::SimTime::zero()).to_seconds(), 3.6);
}

TEST(RestRetry, HttpErrorsAreDefinitiveNotRetried) {
  RestWorld w;
  w.router.handle(Method::kPost, "/boom",
                  [](const HttpRequest&, const PathParams&) {
                    return HttpResponse::make(409, Json("conflict"));
                  });
  RestServer server(w.network, w.server_ip, 8080, &w.router);
  server.start();
  RestClient client(w.network, w.client_ip);
  int responses = 0;
  client.call(w.server_ip, 8080, Method::kPost, "/boom", Json(),
              [&](util::Result<HttpResponse> result) {
                ++responses;
                ASSERT_TRUE(result.ok());
                EXPECT_EQ(result.value().status, 409);
              },
              RetryPolicy::standard(5, sim::Duration::seconds(2)));
  w.sim.run();
  EXPECT_EQ(responses, 1);
  const util::MetricsRegistry& m = w.sim.metrics();
  EXPECT_EQ(m.counter_value("proto.rest.attempts"), 1u);
  EXPECT_EQ(m.counter_value("proto.rest.retries"), 0u);
  EXPECT_EQ(m.counter_value("proto.rest.server.requests"), 1u);
}

TEST(RestRetry, SameSeedGivesIdenticalBackoffSchedule) {
  auto schedule = [](std::uint64_t seed) {
    sim::Simulation sim(seed);
    net::Fabric fabric(sim);
    net::Network network(sim, fabric);
    net::Topology topo = net::build_single_rack(fabric, 2);
    net::Ipv4Addr server_ip(10, 0, 0, 1), client_ip(10, 0, 0, 2);
    network.bind_ip(server_ip, topo.hosts[0]);
    network.bind_ip(client_ip, topo.hosts[1]);
    RestClient client(network, client_ip);
    sim::SimTime done;
    client.call(server_ip, 8080, Method::kGet, "/x", Json(),
                [&](util::Result<HttpResponse>) { done = sim.now(); },
                RetryPolicy::standard(4, sim::Duration::millis(250)));
    sim.run();
    return (done - sim::SimTime::zero()).to_seconds();
  };
  double a = schedule(1234), b = schedule(1234), c = schedule(99);
  EXPECT_EQ(a, b);       // bit-identical replay
  EXPECT_NE(a, c);       // jitter genuinely depends on the seed
}

// ---------------------------------------------------------------------------
// IdempotencyCache

TEST(Idempotency, FreshKeyRunsAndDuplicateReplays) {
  util::MetricsRegistry m;
  IdempotencyCache cache(m, "dedup", 8);
  std::vector<int> answers;
  Responder once =
      cache.admit("op-1", [&](HttpResponse r) { answers.push_back(r.status); });
  ASSERT_TRUE(once != nullptr);
  once(HttpResponse::make(201, Json("made")));
  // The retry of the same key must not run the handler again.
  Responder dup =
      cache.admit("op-1", [&](HttpResponse r) { answers.push_back(r.status); });
  EXPECT_TRUE(dup == nullptr);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0], 201);
  EXPECT_EQ(answers[1], 201);
  EXPECT_EQ(m.counter_value("dedup.admitted"), 1u);
  EXPECT_EQ(m.counter_value("dedup.replayed"), 1u);
}

TEST(Idempotency, InFlightDuplicatesCoalesce) {
  util::MetricsRegistry m;
  IdempotencyCache cache(m, "dedup", 8);
  std::vector<int> answers;
  Responder once =
      cache.admit("op-2", [&](HttpResponse r) { answers.push_back(r.status); });
  ASSERT_TRUE(once != nullptr);
  // Two duplicates arrive while the first execution is still running.
  EXPECT_TRUE(cache.admit("op-2", [&](HttpResponse r) {
                answers.push_back(r.status);
              }) == nullptr);
  EXPECT_TRUE(cache.admit("op-2", [&](HttpResponse r) {
                answers.push_back(r.status);
              }) == nullptr);
  EXPECT_TRUE(answers.empty());  // nothing answered yet
  once(HttpResponse::make(200));
  EXPECT_EQ(answers.size(), 3u);  // original + both waiters
  EXPECT_EQ(m.counter_value("dedup.coalesced"), 2u);
}

TEST(Idempotency, EmptyKeyBypassesTheCache) {
  util::MetricsRegistry m;
  IdempotencyCache cache(m, "dedup", 8);
  int runs = 0;
  for (int i = 0; i < 3; ++i) {
    Responder r = cache.admit("", [&](HttpResponse) {});
    if (r != nullptr) {
      ++runs;
      r(HttpResponse::make(200));
    }
  }
  EXPECT_EQ(runs, 3);  // legacy callers keep run-every-time semantics
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Idempotency, CompletedEntriesEvictFifo) {
  util::MetricsRegistry m;
  IdempotencyCache cache(m, "dedup", 2);
  for (int i = 0; i < 4; ++i) {
    Responder r = cache.admit("k" + std::to_string(i), [](HttpResponse) {});
    ASSERT_TRUE(r != nullptr);
    r(HttpResponse::make(200));
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GE(m.counter_value("dedup.evicted"), 2u);
  // The oldest key fell out, so it runs again (at-most-once is bounded by
  // cache capacity, as documented).
  EXPECT_TRUE(cache.admit("k0", [](HttpResponse) {}) != nullptr);
}

TEST(Idempotency, EvictedKeyReusesItsInternedSlot) {
  // Keys are interned once; eviction frees the entry but the interned key
  // (and its dense slot) survives, so a re-admitted key runs fresh and then
  // replays its *new* response — not the evicted one.
  util::MetricsRegistry m;
  IdempotencyCache cache(m, "dedup", 1);
  Responder r0 = cache.admit("op", [](HttpResponse) {});
  ASSERT_TRUE(r0 != nullptr);
  r0(HttpResponse::make(201));
  // A second key evicts "op" (capacity 1, FIFO).
  Responder r1 = cache.admit("other", [](HttpResponse) {});
  ASSERT_TRUE(r1 != nullptr);
  r1(HttpResponse::make(200));
  // "op" comes back: fresh execution with a fresh response...
  std::vector<int> answers;
  Responder r2 =
      cache.admit("op", [&](HttpResponse r) { answers.push_back(r.status); });
  ASSERT_TRUE(r2 != nullptr);
  r2(HttpResponse::make(418));
  // ...and its duplicate replays the new response.
  EXPECT_TRUE(cache.admit("op", [&](HttpResponse r) {
                answers.push_back(r.status);
              }) == nullptr);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0], 418);
  EXPECT_EQ(answers[1], 418);
}

TEST(Idempotency, LiveEntriesStayBoundedUnderDistinctKeyChurn) {
  // size() counts live entries, which the FIFO keeps at or under capacity
  // however many distinct keys flow through (the interned key table itself
  // is append-only — bounded by distinct mutations per run, as documented).
  util::MetricsRegistry m;
  IdempotencyCache cache(m, "dedup", 4);
  for (int i = 0; i < 64; ++i) {
    Responder r = cache.admit("key-" + std::to_string(i), [](HttpResponse) {});
    ASSERT_TRUE(r != nullptr);
    r(HttpResponse::make(200));
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(m.counter_value("dedup.evicted"), 60u);
}

// ---------------------------------------------------------------------------
// DHCP retry backoff

TEST(Dhcp, RetryBackoffGrowsWhenServerSilent) {
  sim::Simulation sim(7);
  net::Fabric fabric(sim);
  net::Network network(sim, fabric);
  net::Topology topo = net::build_single_rack(fabric, 2);
  // No DHCP server anywhere: the client keeps retrying with backoff.
  DhcpClient client(network, topo.hosts[0], "b8:27:eb:00:00:01", "pi-01");
  client.start([](net::Ipv4Addr, sim::Duration) {});
  sim.run_until(sim.now() + sim::Duration::seconds(150));
  EXPECT_NE(client.state(), DhcpClient::State::kBound);
  // With the fixed 2 s retry the count after 150 s would be ~75; capped
  // exponential backoff keeps it in single-to-low-double digits.
  EXPECT_GE(client.retry_attempt(), 5);
  EXPECT_LE(client.retry_attempt(), 20);
  client.stop();
}

TEST(Dhcp, BackoffScheduleIsSeedDeterministic) {
  auto discovers_after = [](std::uint64_t seed) {
    sim::Simulation sim(seed);
    net::Fabric fabric(sim);
    net::Network network(sim, fabric);
    net::Topology topo = net::build_single_rack(fabric, 2);
    DhcpClient client(network, topo.hosts[0], "b8:27:eb:00:00:01", "pi-01");
    client.start([](net::Ipv4Addr, sim::Duration) {});
    sim.run_until(sim.now() + sim::Duration::seconds(300));
    std::uint64_t n = client.discovers_sent();
    client.stop();
    return n;
  };
  EXPECT_EQ(discovers_after(21), discovers_after(21));
}

TEST(Dhcp, BindsAfterLateServerStartDespiteBackoff) {
  DhcpWorld w;
  // Server exists but a fresh client starting "before" it would retry; here
  // the server is up, so this guards the reset of the backoff counter.
  DhcpClient client(w.network, w.topo.hosts[0], "b8:27:eb:00:00:09", "pi-09");
  client.start([](net::Ipv4Addr, sim::Duration) {});
  w.sim.run_until(w.sim.now() + sim::Duration::seconds(30));
  EXPECT_EQ(client.state(), DhcpClient::State::kBound);
  EXPECT_EQ(client.retry_attempt(), 0);  // reset on bind
  client.stop();
}

// ---------------------------------------------------------------------------
// GET /health endpoints (pimaster + node daemon)

TEST(Health, MasterAndDaemonAnswerWithControlPlaneStats) {
  sim::Simulation sim(11);
  cloud::PiCloudConfig config;
  config.racks = 1;
  config.hosts_per_rack = 2;
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  cloud.run_for(sim::Duration::seconds(10));  // a few heartbeats

  auto probe = [&](net::Ipv4Addr ip, std::uint16_t port) {
    HttpResponse out;
    bool done = false;
    cloud.panel().client().call(ip, port, Method::kGet, "/health", Json(),
                                [&](util::Result<HttpResponse> result) {
                                  done = true;
                                  if (result.ok()) out = result.value();
                                },
                                RetryPolicy::standard(3));
    cloud.run_until(sim::Duration::seconds(30), [&]() { return done; });
    EXPECT_TRUE(done);
    return out;
  };

  HttpResponse master = probe(cloud.master_ip(), cloud::PiMaster::kPort);
  EXPECT_EQ(master.status, 200);
  EXPECT_EQ(master.body.get_string("role"), "pimaster");
  EXPECT_EQ(master.body.get_number("nodes_alive"), 2);
  EXPECT_EQ(master.body.get_number("nodes_total"), 2);
  EXPECT_GT(master.body.get_number("liveness_window_s"), 0);
  EXPECT_TRUE(master.body.has("dedup"));
  EXPECT_TRUE(master.body.has("reconciler"));

  HttpResponse daemon = probe(cloud.daemon(0).ip(), cloud::NodeDaemon::kPort);
  EXPECT_EQ(daemon.status, 200);
  EXPECT_EQ(daemon.body.get_string("hostname"), cloud.node(0).hostname());
  EXPECT_TRUE(daemon.body.get_bool("registered"));
  EXPECT_GT(daemon.body.get_number("heartbeats_sent"), 0);
  // The daemon's heartbeat client reports its retry counters.
  EXPECT_TRUE(daemon.body.has("retry"));
  EXPECT_GE(daemon.body.get("retry").get_number("attempts"), 1);
}

}  // namespace
}  // namespace picloud::proto
