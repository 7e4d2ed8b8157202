#include "proto/rest.h"

#include <algorithm>

#include "util/logging.h"

namespace picloud::proto {

sim::Duration backoff_delay(sim::Duration base, sim::Duration cap, int retries,
                            util::Rng& rng) {
  constexpr double kMultiplier = 2.0;
  constexpr double kJitter = 0.5;
  sim::Duration backoff = base;
  for (int i = 0; i < retries; ++i) {
    backoff = backoff * kMultiplier;
    if (backoff >= cap) break;
  }
  backoff = std::min(backoff, cap);
  return backoff * (1.0 - kJitter * rng.next_double());
}

IdempotencyCache::IdempotencyCache(util::MetricsRegistry& registry,
                                   const std::string& prefix,
                                   std::size_t capacity)
    : capacity_(capacity),
      admitted_(&registry.counter(prefix + ".admitted")),
      replayed_(&registry.counter(prefix + ".replayed")),
      coalesced_(&registry.counter(prefix + ".coalesced")),
      evicted_(&registry.counter(prefix + ".evicted")) {}

Responder IdempotencyCache::admit(const std::string& key, Responder respond) {
  if (key.empty()) return respond;  // unkeyed request: plain semantics
  const util::Symbol sym = keys_.intern(key);
  if (entries_.size() <= sym.id()) entries_.resize(sym.id() + 1);
  if (Entry* entry = entries_[sym.id()].get()) {
    if (entry->done) {
      replayed_->inc();
      if (respond) respond(entry->response);
    } else {
      coalesced_->inc();
      entry->waiters.push_back(std::move(respond));
    }
    return nullptr;
  }
  admitted_->inc();
  auto entry = std::make_unique<Entry>();
  entry->waiters.push_back(std::move(respond));
  entries_[sym.id()] = std::move(entry);
  ++live_;
  return [this, sym](HttpResponse response) {
    complete(sym, std::move(response));
  };
}

void IdempotencyCache::complete(util::Symbol key, HttpResponse response) {
  Entry* entry = key.id() < entries_.size() ? entries_[key.id()].get()
                                            : nullptr;
  if (entry == nullptr) return;  // evicted mid-flight: nothing to record
  if (entry->done) return;  // a wrapped responder fired twice; first wins
  entry->done = true;
  entry->response = response;
  std::vector<Responder> waiters = std::move(entry->waiters);
  entry->waiters.clear();
  completed_order_.push_back(key);
  while (!completed_order_.empty() && live_ > capacity_) {
    const util::Symbol victim = completed_order_.front();
    completed_order_.pop_front();
    Entry* v = entries_[victim.id()].get();
    if (v != nullptr && v->done) {
      entries_[victim.id()].reset();
      --live_;
      evicted_->inc();
    }
  }
  for (auto& waiter : waiters) {
    if (waiter) waiter(response);
  }
}

RestServer::RestServer(net::Network& network, net::Ipv4Addr ip,
                       std::uint16_t port, Router* router)
    : network_(network),
      ip_(ip),
      port_(port),
      router_(router),
      requests_counter_(
          &network.simulation().metrics().counter("proto.rest.server.requests")) {}

RestServer::~RestServer() { stop(); }

void RestServer::start() {
  if (serving_) return;
  serving_ = true;
  network_.listen(ip_, port_, [this](net::Message& msg) { on_message(msg); });
}

void RestServer::stop() {
  if (!serving_) return;
  serving_ = false;
  network_.unlisten(ip_, port_);
}

void RestServer::on_message(net::Message& msg) {
  requests_counter_->inc();
  net::Ipv4Addr reply_to = msg.src;
  std::uint16_t reply_port = msg.src_port;
  // Capture the network (which outlives every server) rather than `this`:
  // async handlers may outlive a server its node crashed out from under.
  // If the source IP has been unbound by then, send() just drops the reply.
  net::Network& network = network_;
  net::Ipv4Addr self = ip_;
  std::uint16_t self_port = port_;
  auto send_reply = [&network, self, self_port, reply_to,
                     reply_port](HttpResponse response) {
    net::Message reply;
    reply.src = self;
    reply.dst = reply_to;
    reply.src_port = self_port;
    reply.dst_port = reply_port;
    reply.body = std::move(response);
    network.send(std::move(reply));
  };
  // The router reads the delivered request in place.
  const HttpRequest* request = msg.body.get<HttpRequest>();
  if (request == nullptr) {
    send_reply(HttpResponse::bad_request("not a request envelope"));
    return;
  }
  if (!request->valid_path()) {
    send_reply(HttpResponse::bad_request("path must start with /"));
    return;
  }
  router_->dispatch_async(*request, std::move(send_reply));
}

RestClient::RestClient(net::Network& network, net::Ipv4Addr self,
                       std::uint16_t ephemeral_port,
                       const std::string& metrics_prefix)
    : network_(network),
      sim_(network.simulation()),
      self_(self),
      port_(ephemeral_port),
      rng_(network.simulation().rng().fork()) {
  util::MetricsRegistry& m = sim_.metrics();
  requests_ = &m.counter(metrics_prefix + ".requests");
  timeouts_ = &m.counter(metrics_prefix + ".timeouts");
  retry_calls_counter_ = &m.counter(metrics_prefix + ".calls");
  attempts_ = &m.counter(metrics_prefix + ".attempts");
  retries_ = &m.counter(metrics_prefix + ".retries");
  succeeded_after_retry_ = &m.counter(metrics_prefix + ".succeeded_after_retry");
  exhausted_ = &m.counter(metrics_prefix + ".exhausted");
  deadline_exceeded_ = &m.counter(metrics_prefix + ".deadline_exceeded");
  network_.listen(self_, port_,
                  [this](net::Message& msg) { on_message(msg); });
}

RestClient::~RestClient() {
  network_.unlisten(self_, port_);
  // Fail anything still in flight so callers are never left hanging.
  // Collect first: finish() mutates pending_. A pending attempt that belongs
  // to a retrying call propagates the "cancelled" error without retrying.
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, p] : pending_) ids.push_back(id);
  for (std::uint64_t id : ids) {
    finish(id, util::Error::make("cancelled", "client destroyed"));
  }
  // Retrying calls parked in a backoff have no pending attempt; fail them
  // too (settling one cancels its backoff).
  std::vector<std::uint64_t> retry_ids;
  retry_ids.reserve(retry_calls_.size());
  for (const auto& [id, rc] : retry_calls_) retry_ids.push_back(id);
  for (std::uint64_t id : retry_ids) {
    retry_done(id, util::Error::make("cancelled", "client destroyed"));
  }
}

void RestClient::call(net::Ipv4Addr server, std::uint16_t port, Method method,
                      const std::string& path, util::Json body,
                      ResponseCallback cb, sim::Duration timeout) {
  std::uint64_t id = next_id_++;
  requests_->inc();
  HttpRequest request;
  request.method = method;
  request.path = path;
  request.body = std::move(body);
  request.id = id;

  Pending& pending = pending_[id];
  pending.cb = std::move(cb);
  pending.timer.after(sim_, timeout, [this, id]() {
    // Timeout schedule point (DESIGN.md §13). finish() cancels the timeout
    // event, so in a default run a firing timeout always has a live pending
    // entry and behaviour here is unchanged. Under a model-checking strategy
    // the expiry is parked: by the time the strategy runs it, a parked
    // delivery may have completed the call first, so the action re-checks.
    if (!sim_.schedule_points().active()) {
      timeouts_->inc();
      finish(id, util::Error::make("timeout", "REST call timed out"));
      return;
    }
    sim::SchedulePoint point;
    point.kind = sim::SchedulePointKind::kTimeout;
    point.label =
        "timeout:" + self_.to_string() + ":" + std::to_string(id);
    point.object = self_.to_string();
    point.src_ip = self_.to_string();
    point.src_port = port_;
    sim_.schedule_points().intercept(std::move(point), [this, id]() {
      if (pending_.find(id) == pending_.end()) return;  // raced a delivery
      timeouts_->inc();
      finish(id, util::Error::make("timeout", "REST call timed out"));
    });
  });

  net::Message msg;
  msg.src = self_;
  msg.dst = server;
  msg.src_port = port_;
  msg.dst_port = port;
  msg.body = std::move(request);
  network_.send(std::move(msg));
  // Drops are handled by the timeout: a datagram network, reliability here.
}

void RestClient::call(net::Ipv4Addr server, std::uint16_t port, Method method,
                      const std::string& path, util::Json body,
                      ResponseCallback cb, const RetryPolicy& policy) {
  std::uint64_t retry_id = next_retry_id_++;
  RetryCall rc;
  rc.policy = policy;
  rc.server = server;
  rc.port = port;
  rc.method = method;
  rc.path = path;
  rc.body = std::move(body);
  rc.cb = std::move(cb);
  rc.has_deadline = policy.overall_deadline > sim::Duration::zero();
  rc.deadline = rc.has_deadline ? sim_.now() + policy.overall_deadline
                                : sim::SimTime::max();
  retry_calls_.emplace(retry_id, std::move(rc));
  retry_calls_counter_->inc();
  retry_attempt(retry_id);
}

void RestClient::retry_attempt(std::uint64_t retry_id) {
  auto it = retry_calls_.find(retry_id);
  if (it == retry_calls_.end()) return;
  RetryCall& rc = it->second;

  sim::Duration timeout = rc.policy.attempt_timeout;
  if (rc.has_deadline) {
    sim::Duration left = rc.deadline - sim_.now();
    if (left <= sim::Duration::zero()) {
      deadline_exceeded_->inc();
      retry_done(retry_id,
                 util::Error::make("deadline", "REST call deadline exceeded"));
      return;
    }
    timeout = std::min(timeout, left);
  }

  ++rc.attempts_made;
  attempts_->inc();
  if (rc.attempts_made > 1) retries_->inc();

  // The last attempt the policy allows takes the body: nothing reads it
  // after that attempt.
  const bool last_attempt = rc.policy.max_attempts > 0 &&
                            rc.attempts_made == rc.policy.max_attempts;
  util::Json body = last_attempt ? std::move(rc.body) : rc.body;

  // Each attempt is a fresh single-shot call with its own correlation id, so
  // a late response to a timed-out attempt can never satisfy a newer one.
  call(
      rc.server, rc.port, rc.method, rc.path, std::move(body),
      [this, retry_id](util::Result<HttpResponse> result) {
        auto rit = retry_calls_.find(retry_id);
        if (rit == retry_calls_.end()) return;
        RetryCall& rc = rit->second;
        if (result.ok()) {
          if (rc.attempts_made > 1) succeeded_after_retry_->inc();
          retry_done(retry_id, std::move(result));
          return;
        }
        if (result.error().code == "cancelled") {
          retry_done(retry_id, std::move(result));
          return;
        }
        if (rc.policy.max_attempts > 0 &&
            rc.attempts_made >= rc.policy.max_attempts) {
          exhausted_->inc();
          retry_done(retry_id, std::move(result));
          return;
        }
        sim::Duration backoff =
            backoff_delay(rc.policy.initial_backoff, rc.policy.max_backoff,
                          rc.attempts_made - 1, rng_);
        if (rc.has_deadline && sim_.now() + backoff >= rc.deadline) {
          deadline_exceeded_->inc();
          retry_done(
              retry_id,
              util::Error::make("deadline", "REST call deadline exceeded"));
          return;
        }
        rc.backoff_timer.after(
            sim_, backoff, [this, retry_id]() { retry_attempt(retry_id); });
      },
      timeout);
}

void RestClient::retry_done(std::uint64_t retry_id,
                            util::Result<HttpResponse> result) {
  auto it = retry_calls_.find(retry_id);
  if (it == retry_calls_.end()) return;
  ResponseCallback cb = std::move(it->second.cb);
  retry_calls_.erase(it);
  if (cb) cb(std::move(result));
}

void RestClient::on_message(net::Message& msg) {
  HttpResponse* response = msg.body.get<HttpResponse>();
  if (response == nullptr || !response->valid_status()) {
    LOG_WARN("rest", "invalid response at %s", self_.to_string().c_str());
    return;
  }
  // The callback takes the delivered response, body and all.
  const std::uint64_t id = response->id;
  finish(id, std::move(*response));
}

void RestClient::finish(std::uint64_t id, util::Result<HttpResponse> result) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late response after timeout
  ResponseCallback cb = std::move(it->second.cb);
  pending_.erase(it);  // cancels the timeout
  if (cb) cb(std::move(result));
}

}  // namespace picloud::proto
