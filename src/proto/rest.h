// RESTful transport: HTTP requests/responses carried as messages over the
// simulated network, with correlation ids, client-side timeouts, and
// retrying calls under an explicit RetryPolicy.
//
// Paper §II-C: "There is an API daemon on each Pi providing a RESTful
// management interface for facilitating virtual host management and
// interacting with a head node (the pimaster)." RestServer is that daemon's
// transport; RestClient is what pimaster and the web panel use to reach it.
//
// The datagram network drops requests and responses alike (link cuts, lossy
// links, crashed peers), so control-plane callers describe their reliability
// needs with a RetryPolicy: capped exponential backoff between attempts,
// deterministic jitter drawn from a util::Rng forked off the simulation's
// root stream, a per-attempt timeout, and an optional overall deadline.
// Retried mutations stay at-most-once via IdempotencyCache on the server
// side: a key that already executed replays the recorded response instead of
// re-running the handler.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/addr.h"
#include "net/network.h"
#include "proto/http.h"
#include "sim/simulation.h"
#include "util/intern.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/rng.h"

namespace picloud::proto {

// Capped exponential backoff with deterministic jitter, shared by RestClient
// and DhcpClient: `base` doubled once per earlier retry, capped at `cap`,
// then scaled by one draw from U[0.5, 1] off `rng`, so a rack of clients
// retrying in lockstep spreads out.
sim::Duration backoff_delay(sim::Duration base, sim::Duration cap, int retries,
                            util::Rng& rng);

// How a RestClient call behaves under loss: per-attempt timeout, capped
// exponential backoff between attempts, and an optional overall deadline.
// Retries fire only on transport errors (timeout); an HTTP response of any
// status is a definitive answer from the server and is never retried here.
struct RetryPolicy {
  // Total attempts including the first; 0 means unbounded (the call keeps
  // retrying until the overall deadline, or forever if none is set).
  int max_attempts = 1;
  // Timeout for each individual attempt.
  sim::Duration attempt_timeout = sim::Duration::seconds(5);
  // Backoff before attempt n+1 is
  // backoff_delay(initial_backoff, max_backoff, n - 1).
  sim::Duration initial_backoff = sim::Duration::millis(200);
  sim::Duration max_backoff = sim::Duration::seconds(10);
  // Wall (simulated) deadline across all attempts and backoffs; zero means
  // no overall deadline.
  sim::Duration overall_deadline = sim::Duration::zero();

  // A single attempt with an explicit timeout — for fire-and-forget calls
  // whose caller has its own retry loop (e.g. periodic heartbeats).
  static RetryPolicy single(sim::Duration timeout) {
    RetryPolicy p;
    p.max_attempts = 1;
    p.attempt_timeout = timeout;
    return p;
  }

  // The default control-plane profile: a few attempts with backoff.
  static RetryPolicy standard(
      int attempts = 3,
      sim::Duration attempt_timeout = sim::Duration::seconds(5)) {
    RetryPolicy p;
    p.max_attempts = attempts;
    p.attempt_timeout = attempt_timeout;
    return p;
  }

  // Keep retrying until the peer answers (registration loops). Bounded only
  // by an overall deadline if the caller sets one.
  static RetryPolicy unbounded(
      sim::Duration attempt_timeout = sim::Duration::seconds(3),
      sim::Duration max_backoff = sim::Duration::seconds(15)) {
    RetryPolicy p;
    p.max_attempts = 0;
    p.attempt_timeout = attempt_timeout;
    p.initial_backoff = sim::Duration::millis(500);
    p.max_backoff = max_backoff;
    return p;
  }
};

// Server-side dedup of retried mutations. A handler admits each request's
// idempotency key before doing work:
//
//   auto once = cache.admit(key, std::move(respond));
//   if (!once) return;        // duplicate: replayed or coalesced
//   ... do the work, eventually calling once(response);
//
// A fresh key returns a wrapped responder that records the outcome and
// answers every coalesced duplicate; a completed key replays the recorded
// response immediately; an in-progress key queues the responder for the
// in-flight execution's outcome. Completed entries are evicted FIFO beyond
// `capacity` (in-progress entries are never evicted). Empty keys bypass the
// cache entirely (legacy callers without keys keep plain semantics).
//
// Keys are interned (util/intern.h): admit() is one hash probe plus an
// indexed load, and the wrapped responder carries a 4-byte Symbol instead
// of a key copy. Retries of one mutation hit the same Symbol; eviction
// frees the entry (response body, waiters) while the key string stays in
// the table — bounded by the number of *distinct* mutations in a run,
// which simulation workloads keep small.
//
// Accounting lives in `registry` under `<prefix>.{admitted,replayed,
// coalesced,evicted}`: fresh keys that ran the handler, duplicates answered
// from the record, duplicates attached to an in-flight run, and evictions.
class IdempotencyCache {
 public:
  IdempotencyCache(util::MetricsRegistry& registry, const std::string& prefix,
                   std::size_t capacity);

  // Returns a responder to call with the outcome, or nullptr if this request
  // is a duplicate (its responder has been replayed or queued).
  Responder admit(const std::string& key, Responder respond);

  std::size_t size() const { return live_; }

 private:
  struct Entry {
    bool done = false;
    HttpResponse response;
    std::vector<Responder> waiters;
  };

  void complete(util::Symbol key, HttpResponse response);

  std::size_t capacity_;
  util::StringTable keys_;
  std::vector<std::unique_ptr<Entry>> entries_;  // indexed by key Symbol id
  std::size_t live_ = 0;                         // non-null entries
  std::deque<util::Symbol> completed_order_;
  // Registry handles under the ctor's prefix (never null).
  util::Counter* admitted_;
  util::Counter* replayed_;
  util::Counter* coalesced_;
  util::Counter* evicted_;
};

// Serves a Router on (ip, port). The router is borrowed; callers keep it
// alive and may keep registering routes while serving.
class RestServer {
 public:
  RestServer(net::Network& network, net::Ipv4Addr ip, std::uint16_t port,
             Router* router);
  ~RestServer();

  RestServer(const RestServer&) = delete;
  RestServer& operator=(const RestServer&) = delete;

  void start();
  void stop();
  bool serving() const { return serving_; }

  net::Ipv4Addr ip() const { return ip_; }
  std::uint16_t port() const { return port_; }

 private:
  void on_message(net::Message& msg);

  net::Network& network_;
  net::Ipv4Addr ip_;
  std::uint16_t port_;
  Router* router_;
  bool serving_ = false;
  util::Counter* requests_counter_ = nullptr;   // proto.rest.server.requests
};

// Asynchronous REST client. One instance per caller identity (an IP); all
// in-flight calls share one ephemeral port and demultiplex on the
// correlation id.
//
// Accounting lives in the simulation's MetricsRegistry under
// `<metrics_prefix>.{requests,timeouts,calls,attempts,retries,
// succeeded_after_retry,exhausted,deadline_exceeded}`. Clients constructed
// with the same prefix share counters (deliberate aggregation: every
// default-prefix client rolls up under "proto.rest"); per-identity callers
// like node daemons pass their own scope, e.g. "node.pi-r0-03.rest".
class RestClient {
 public:
  static constexpr sim::Duration kDefaultTimeout = sim::Duration::seconds(5);

  RestClient(net::Network& network, net::Ipv4Addr self,
             std::uint16_t ephemeral_port = 49152,
             const std::string& metrics_prefix = "proto.rest");
  ~RestClient();

  RestClient(const RestClient&) = delete;
  RestClient& operator=(const RestClient&) = delete;

  using ResponseCallback = std::function<void(util::Result<HttpResponse>)>;

  // Issues a single attempt; the callback fires exactly once with the
  // response or a "timeout" error.
  void call(net::Ipv4Addr server, std::uint16_t port, Method method,
            const std::string& path, util::Json body, ResponseCallback cb,
            sim::Duration timeout = kDefaultTimeout);

  // Issues a retrying call under `policy`. Each attempt gets a fresh
  // correlation id and the per-attempt timeout; transport errors back off
  // (with deterministic jitter) and retry until the attempt budget or the
  // overall deadline runs out. The callback fires exactly once.
  void call(net::Ipv4Addr server, std::uint16_t port, Method method,
            const std::string& path, util::Json body, ResponseCallback cb,
            const RetryPolicy& policy);

  // Shorthands.
  void get(net::Ipv4Addr server, std::uint16_t port, const std::string& path,
           ResponseCallback cb) {
    call(server, port, Method::kGet, path, util::Json(), std::move(cb));
  }
  void post(net::Ipv4Addr server, std::uint16_t port, const std::string& path,
            util::Json body, ResponseCallback cb) {
    call(server, port, Method::kPost, path, std::move(body), std::move(cb));
  }

  size_t inflight() const { return pending_.size(); }
  // Logical policy-driven calls still running (including between attempts).
  size_t inflight_retries() const { return retry_calls_.size(); }
  // Wire requests / attempt timeouts under this client's metrics prefix
  // (shared across same-prefix clients, like the counters they read).
  std::uint64_t calls_made() const { return requests_->value(); }
  std::uint64_t timeouts() const { return timeouts_->value(); }

 private:
  struct Pending {
    ResponseCallback cb;
    sim::Timer timer;
  };

  // One logical retrying call (possibly spanning several wire attempts).
  struct RetryCall {
    RetryPolicy policy;
    net::Ipv4Addr server;
    std::uint16_t port = 0;
    Method method = Method::kGet;
    std::string path;
    util::Json body;
    ResponseCallback cb;
    int attempts_made = 0;
    sim::SimTime deadline;     // overall; SimTime::max() when none
    bool has_deadline = false;
    sim::Timer backoff_timer;  // armed while waiting to retry
  };

  void on_message(net::Message& msg);
  void finish(std::uint64_t id, util::Result<HttpResponse> result);
  void retry_attempt(std::uint64_t retry_id);
  void retry_done(std::uint64_t retry_id, util::Result<HttpResponse> result);

  net::Network& network_;
  sim::Simulation& sim_;
  net::Ipv4Addr self_;
  std::uint16_t port_;
  util::Rng rng_;  // jitter stream, forked from the simulation root
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_retry_id_ = 1;
  std::map<std::uint64_t, RetryCall> retry_calls_;
  // Registry handles under the ctor's metrics prefix (never null).
  util::Counter* requests_ = nullptr;
  util::Counter* timeouts_ = nullptr;
  util::Counter* retry_calls_counter_ = nullptr;
  util::Counter* attempts_ = nullptr;
  util::Counter* retries_ = nullptr;
  util::Counter* succeeded_after_retry_ = nullptr;
  util::Counter* exhausted_ = nullptr;
  util::Counter* deadline_exceeded_ = nullptr;
};

}  // namespace picloud::proto
