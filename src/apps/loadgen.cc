#include "apps/loadgen.h"

#include <algorithm>
#include <cmath>

#include "util/json.h"

namespace picloud::apps {

using util::Json;

namespace {

// A target's breaker opens after kBreakerFailures consecutive failures.
// kBreakerOpen later the next pick lets one trial request through
// (half-open), and its outcome closes the breaker or keeps it open for
// another window.
constexpr int kBreakerFailures = 5;
constexpr sim::Duration kBreakerOpen = sim::Duration::seconds(2);
constexpr double kRequestBytes = 256;  // GET + headers
constexpr const char* kRequestPath = "/index.html";

}  // namespace

// ---------------------------------------------------------------------------
// TrafficShape

double TrafficShape::factor(sim::Duration t) const {
  double f = 1.0;
  switch (kind) {
    case Kind::kSteady:
      break;
    case Kind::kDiurnal: {
      const double p = period.to_seconds();
      if (p > 0) {
        f = 1.0 + amplitude * std::sin(2.0 * 3.14159265358979323846 *
                                       t.to_seconds() / p);
      }
      break;
    }
    case Kind::kFlashCrowd:
      if (t >= at && t < at + duration) f = multiplier;
      break;
  }
  // Keep the arrival chain alive: a zero rate would stop it for good.
  return std::max(f, 0.05);
}

TrafficShape TrafficShape::from_json(const Json& j) {
  TrafficShape s;
  const std::string kind = j.get_string("kind", "steady");
  if (kind == "diurnal") {
    s.kind = Kind::kDiurnal;
  } else if (kind == "flash_crowd") {
    s.kind = Kind::kFlashCrowd;
  } else {
    s.kind = Kind::kSteady;
  }
  s.amplitude = j.get_number("amplitude", 0.5);
  s.period = sim::Duration::nanos(
      static_cast<std::int64_t>(j.get_number("period_ns", 120.0 * 1e9)));
  s.at = sim::Duration::nanos(
      static_cast<std::int64_t>(j.get_number("at_ns", 30.0 * 1e9)));
  s.duration = sim::Duration::nanos(
      static_cast<std::int64_t>(j.get_number("duration_ns", 20.0 * 1e9)));
  s.multiplier = j.get_number("multiplier", 10.0);
  s.cost_mean = j.get_number("cost_mean", 1.0);
  s.cost_alpha = j.get_number("cost_alpha", 0.0);
  return s;
}

Json TrafficShape::to_json() const {
  Json j = Json::object();
  switch (kind) {
    case Kind::kSteady: j.set("kind", std::string("steady")); break;
    case Kind::kDiurnal: j.set("kind", std::string("diurnal")); break;
    case Kind::kFlashCrowd: j.set("kind", std::string("flash_crowd")); break;
  }
  j.set("amplitude", amplitude);
  j.set("period_ns", static_cast<double>(period.ns()));
  j.set("at_ns", static_cast<double>(at.ns()));
  j.set("duration_ns", static_cast<double>(duration.ns()));
  j.set("multiplier", multiplier);
  j.set("cost_mean", cost_mean);
  j.set("cost_alpha", cost_alpha);
  return j;
}

// ---------------------------------------------------------------------------
// HttpLoadGen

HttpLoadGen::HttpLoadGen(net::Network& network, net::Ipv4Addr self,
                         std::vector<net::Ipv4Addr> targets, Params params,
                         util::Rng rng, std::uint16_t client_port)
    : network_(network),
      sim_(network.simulation()),
      self_(self),
      params_(params),
      rng_(rng),
      port_(client_port) {
  targets_.set(std::move(targets));
  network_.listen(self_, port_,
                  [this](net::Message& msg) { on_message(msg); });
}

HttpLoadGen::~HttpLoadGen() { network_.unlisten(self_, port_); }

void HttpLoadGen::start() {
  if (running_) return;
  running_ = true;
  started_at_ = sim_.now();
  fire_next();
}

void HttpLoadGen::stop() {
  if (!running_) return;
  running_ = false;
  arrival_timer_.cancel();
}

void HttpLoadGen::set_targets(std::vector<net::Ipv4Addr> targets) {
  targets_.set(std::move(targets));
  // Drop breaker state for targets that left the pool.
  const std::vector<net::Ipv4Addr>& pool = targets_.endpoints();
  for (auto it = breakers_.begin(); it != breakers_.end();) {
    if (std::find(pool.begin(), pool.end(), it->first) == pool.end()) {
      it = breakers_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpLoadGen::set_rate(double requests_per_sec) {
  params_.requests_per_sec = requests_per_sec;
  // When idled at rate 0 the arrival chain has stopped; rearm it.
  if (running_ && !arrival_timer_.armed() && requests_per_sec > 0) {
    fire_next();
  }
}

void HttpLoadGen::fire_next() {
  if (!running_ || params_.requests_per_sec <= 0) return;
  const double rate = params_.requests_per_sec *
                      params_.shape.factor(sim_.now() - started_at_);
  double gap = rng_.exponential(1.0 / rate);
  arrival_timer_.after(sim_, sim::Duration::seconds(gap), [this]() {
    if (!running_) return;
    on_arrival();
    fire_next();
  });
}

bool HttpLoadGen::pick_target(net::Ipv4Addr exclude, bool use_exclude,
                              net::Ipv4Addr* out) {
  const bool skip_exclude = use_exclude && targets_.endpoints().size() > 1;
  auto eligible = [this, exclude, skip_exclude](net::Ipv4Addr ip) {
    if (skip_exclude && ip == exclude) return false;
    auto it = breakers_.find(ip);
    // A closed breaker, or an open one past its window (half-open trial).
    return it == breakers_.end() || !it->second.open ||
           sim_.now() >= it->second.open_until;
  };
  if (!targets_.next(eligible, out)) return false;
  auto b = breakers_.find(*out);
  if (b != breakers_.end() && b->second.open) {
    // Half-open: let this trial through, re-arm the open window so the
    // pool isn't flooded while the trial is in flight.
    b->second.open_until = sim_.now() + kBreakerOpen;
  }
  return true;
}

void HttpLoadGen::record_failure(net::Ipv4Addr target) {
  Breaker& b = breakers_[target];
  ++b.consecutive_failures;
  if (b.open) {
    // Half-open trial failed: stay open for another window.
    b.open_until = sim_.now() + kBreakerOpen;
    return;
  }
  if (b.consecutive_failures >= kBreakerFailures) {
    b.open = true;
    b.open_until = sim_.now() + kBreakerOpen;
    ++breakers_opened_;
  }
}

void HttpLoadGen::record_success(net::Ipv4Addr target) {
  auto it = breakers_.find(target);
  if (it == breakers_.end()) return;
  it->second.consecutive_failures = 0;
  it->second.open = false;
}

void HttpLoadGen::on_arrival() {
  ++arrivals_;
  net::Ipv4Addr target;
  if (!pick_target({}, false, &target)) {
    // Empty pool, or every target's breaker is open: open-loop clients give
    // up immediately rather than queueing load the fleet can't take.
    ++breaker_rejected_;
    return;
  }
  std::uint64_t id = next_id_++;
  budget_.original();

  Pending pending;
  pending.first_sent_at = sim_.now();
  pending.target = target;
  if (params_.shape.cost_alpha > 1.0) {
    // Pareto with the requested mean: mean = alpha * xm / (alpha - 1).
    const double xm = params_.shape.cost_mean *
                      (params_.shape.cost_alpha - 1.0) /
                      params_.shape.cost_alpha;
    const double cost = rng_.pareto(params_.shape.cost_alpha, xm);
    // A cost of exactly 1 is the default, which the request leaves out.
    if (cost != 1.0) pending.cost = cost;
  }
  pending_[id] = std::move(pending);
  send_attempt(id);
}

void HttpLoadGen::send_attempt(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  ++pending.attempts;
  ++attempts_sent_;

  ServeRequest request;
  request.id = id;
  request.op = ServeOp::kGet;
  request.path = kRequestPath;
  request.cost = pending.cost;

  pending.timer.after(sim_, params_.request_timeout, [this, id]() {
    attempt_failed(id, /*timed_out=*/true);
  });

  net::Message msg;
  msg.src = self_;
  msg.dst = pending.target;
  msg.src_port = port_;
  msg.dst_port = params_.server_port;
  msg.body = std::move(request);
  msg.padding_bytes = kRequestBytes;
  network_.send(std::move(msg));
}

void HttpLoadGen::attempt_failed(std::uint64_t id, bool timed_out) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  // An error reply leaves the attempt's timer armed: the retry re-arms it,
  // and settling the request erases it.
  record_failure(pending.target);
  net::Ipv4Addr next;
  if (budget_.judge(pending.attempts) == RetryBudget::Verdict::kAllowed &&
      pick_target(pending.target, true, &next)) {
    budget_.spend();
    pending.target = next;
    send_attempt(id);
    return;
  }
  pending_.erase(it);
  ++(timed_out ? timed_out_ : failed_);
}

void HttpLoadGen::on_message(net::Message& msg) {
  const ServeReply* reply = msg.body.get<ServeReply>();
  if (reply == nullptr) return;  // not a serving-tier reply
  const std::uint64_t id = reply->id;
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late reply after timeout
  if (msg.src != it->second.target) return;  // stale attempt's reply

  if (reply->failed()) {
    attempt_failed(id, /*timed_out=*/false);
    return;
  }
  record_success(it->second.target);
  latencies_.observe((sim_.now() - it->second.first_sent_at).to_millis());
  const bool brownout = reply->brownout.value_or(false);
  pending_.erase(it);  // cancels the timeout
  ++completed_;
  if (brownout) ++completed_brownout_;
}

// ---------------------------------------------------------------------------
// BackgroundTraffic

BackgroundTraffic::BackgroundTraffic(net::Fabric& fabric,
                                     const net::Topology& topology,
                                     Params params, util::Rng rng)
    : fabric_(fabric), topology_(topology), params_(params), rng_(rng) {}

void BackgroundTraffic::start() {
  if (running_) return;
  running_ = true;
  fire_next();
}

void BackgroundTraffic::stop() {
  if (!running_) return;
  running_ = false;
  arrival_timer_.cancel();
}

void BackgroundTraffic::fire_next() {
  if (!running_ || params_.flows_per_sec <= 0) return;
  double gap = rng_.exponential(1.0 / params_.flows_per_sec);
  arrival_timer_.after(
      fabric_.simulation(), sim::Duration::seconds(gap), [this]() {
        if (!running_) return;
        const auto& hosts = topology_.hosts;
        if (hosts.size() >= 2) {
          size_t src_idx = static_cast<size_t>(
              rng_.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1));
          int src_rack = topology_.host_rack[src_idx];
          size_t dst_idx = src_idx;
          bool want_local = rng_.chance(params_.rack_locality);
          // Rejection-sample a destination matching the locality choice
          // (bounded; falls back to any distinct host).
          for (int tries = 0; tries < 32; ++tries) {
            size_t candidate = static_cast<size_t>(rng_.uniform_int(
                0, static_cast<std::int64_t>(hosts.size()) - 1));
            if (candidate == src_idx) continue;
            bool local = topology_.host_rack[candidate] == src_rack;
            if (local == want_local) {
              dst_idx = candidate;
              break;
            }
            dst_idx = candidate;  // fallback
          }
          if (dst_idx != src_idx) {
            // Pareto sizes with the requested mean: mean = alpha*xm/(alpha-1).
            double xm = params_.mean_flow_bytes * (params_.pareto_alpha - 1) /
                        params_.pareto_alpha;
            double bytes = rng_.pareto(params_.pareto_alpha, xm);
            net::FlowSpec flow;
            flow.src = hosts[src_idx];
            flow.dst = hosts[dst_idx];
            flow.bytes = bytes;
            fabric_.start_flow(std::move(flow));
            ++flows_started_;
            bytes_offered_ += bytes;
          }
        }
        fire_next();
      });
}

// ---------------------------------------------------------------------------
// KvClient

KvClient::KvClient(net::Network& network, net::Ipv4Addr self,
                   std::uint16_t client_port)
    : network_(network),
      sim_(network.simulation()),
      self_(self),
      port_(client_port) {
  network_.listen(self_, port_,
                  [this](net::Message& msg) { on_message(msg); });
}

KvClient::~KvClient() { network_.unlisten(self_, port_); }

void KvClient::request(net::Ipv4Addr server, std::uint16_t server_port,
                       ServeRequest request, Callback cb) {
  std::uint64_t id = next_id_++;
  request.id = id;
  Pending& pending = pending_[id];
  pending.cb = std::move(cb);
  pending.timer.after(sim_, sim::Duration::seconds(10), [this, id]() {
    auto it = pending_.find(id);
    Callback cb = std::move(it->second.cb);
    pending_.erase(it);
    cb(util::Error::make("timeout", "kv request timed out"));
  });

  net::Message msg;
  msg.src = self_;
  msg.dst = server;
  msg.src_port = port_;
  msg.dst_port = server_port;
  // put carries the value's bytes on the wire.
  msg.padding_bytes = static_cast<double>(request.bytes.value_or(0));
  msg.body = std::move(request);
  network_.send(std::move(msg));
}

void KvClient::put(net::Ipv4Addr server, const std::string& key,
                   std::uint64_t bytes, Callback cb,
                   std::uint16_t server_port) {
  ServeRequest request;
  request.op = ServeOp::kPut;
  request.key = key;
  request.bytes = bytes;
  this->request(server, server_port, std::move(request), std::move(cb));
}

void KvClient::get(net::Ipv4Addr server, const std::string& key, Callback cb,
                   std::uint16_t server_port) {
  ServeRequest request;
  request.op = ServeOp::kGet;
  request.key = key;
  this->request(server, server_port, std::move(request), std::move(cb));
}

void KvClient::del(net::Ipv4Addr server, const std::string& key, Callback cb,
                   std::uint16_t server_port) {
  ServeRequest request;
  request.op = ServeOp::kDel;
  request.key = key;
  this->request(server, server_port, std::move(request), std::move(cb));
}

void KvClient::on_message(net::Message& msg) {
  ServeReply* reply = msg.body.get<ServeReply>();
  if (reply == nullptr) return;  // not a kvstore reply
  auto it = pending_.find(reply->id);
  if (it == pending_.end()) return;
  Callback cb = std::move(it->second.cb);
  pending_.erase(it);  // cancels the timeout
  cb(std::move(*reply));
}

}  // namespace picloud::apps
