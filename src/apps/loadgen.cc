#include "apps/loadgen.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/json.h"

namespace picloud::apps {

using util::Json;

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
      targets_(std::move(targets)),
      params_(params),
      rng_(rng),
      port_(client_port) {
  retry_tokens_ = params_.retry_budget_burst;
  network_.listen(self_, port_,
                  [this](const net::Message& msg) { on_message(msg); });
}

HttpLoadGen::~HttpLoadGen() {
  stop();
  network_.unlisten(self_, port_);
}

void HttpLoadGen::start() {
  if (running_) return;
  running_ = true;
  started_at_ = sim_.now();
  fire_next();
}

void HttpLoadGen::stop() {
  if (!running_) return;
  running_ = false;
  if (arrival_event_ != 0) {
    sim_.cancel(arrival_event_);
    arrival_event_ = 0;
  }
}

void HttpLoadGen::set_targets(std::vector<net::Ipv4Addr> targets) {
  // Keep rotation deterministic across pool changes: the cursor follows the
  // target it pointed at (falling back to 0 if that target left), instead of
  // unconditionally resetting — so a mid-run ReplicaSet churn yields the
  // same request sequence for the same seed regardless of when the
  // reconciler fires relative to in-flight requests.
  net::Ipv4Addr cursor_ip;
  bool have_cursor = false;
  if (!targets_.empty()) {
    cursor_ip = targets_[next_target_ % targets_.size()];
    have_cursor = true;
  }
  // Drop breaker state for targets that left the pool.
  for (auto it = breakers_.begin(); it != breakers_.end();) {
    if (std::find(targets.begin(), targets.end(), it->first) ==
        targets.end()) {
      it = breakers_.erase(it);
    } else {
      ++it;
    }
  }
  targets_ = std::move(targets);
  next_target_ = 0;
  if (have_cursor) {
    auto at = std::find(targets_.begin(), targets_.end(), cursor_ip);
    if (at != targets_.end()) {
      next_target_ = static_cast<size_t>(at - targets_.begin());
    }
  }
}

void HttpLoadGen::set_rate(double requests_per_sec) {
  params_.requests_per_sec = requests_per_sec;
  // When idled at rate 0 the arrival chain has stopped; rearm it.
  if (running_ && arrival_event_ == 0 && requests_per_sec > 0) fire_next();
}

void HttpLoadGen::fire_next() {
  if (!running_ || params_.requests_per_sec <= 0) return;
  const double rate = params_.requests_per_sec *
                      params_.shape.factor(sim_.now() - started_at_);
  double gap = rng_.exponential(1.0 / rate);
  arrival_event_ = sim_.after(sim::Duration::seconds(gap), [this]() {
    arrival_event_ = 0;
    if (!running_) return;
    on_arrival();
    fire_next();
  });
}

bool HttpLoadGen::breaker_allows(net::Ipv4Addr target) {
  auto it = breakers_.find(target);
  if (it == breakers_.end() || !it->second.open) return true;
  return sim_.now() >= it->second.open_until;  // half-open trial
}

bool HttpLoadGen::pick_target(net::Ipv4Addr exclude, bool use_exclude,
                              net::Ipv4Addr* out) {
  if (targets_.empty()) return false;
  for (size_t i = 0; i < targets_.size(); ++i) {
    net::Ipv4Addr candidate = targets_[next_target_ % targets_.size()];
    ++next_target_;
    if (use_exclude && candidate == exclude && targets_.size() > 1) continue;
    if (!breaker_allows(candidate)) continue;
    auto b = breakers_.find(candidate);
    if (b != breakers_.end() && b->second.open) {
      // Half-open: let this trial through, re-arm the open window so the
      // pool isn't flooded while the trial is in flight.
      b->second.open_until = sim_.now() + params_.breaker_open_duration;
    }
    *out = candidate;
    return true;
  }
  return false;
}

void HttpLoadGen::record_failure(net::Ipv4Addr target) {
  Breaker& b = breakers_[target];
  ++b.consecutive_failures;
  if (b.open) {
    // Half-open trial failed: stay open for another window.
    b.open_until = sim_.now() + params_.breaker_open_duration;
    return;
  }
  if (b.consecutive_failures >= params_.breaker_failure_threshold) {
    b.open = true;
    b.open_until = sim_.now() + params_.breaker_open_duration;
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
  ++sent_;
  retry_tokens_ = std::min(retry_tokens_ + params_.retry_budget_ratio,
                           params_.retry_budget_burst);

  Pending pending;
  pending.first_sent_at = sim_.now();
  pending.target = target;
  pending.path = "/index.html";
  pending.cost = 1.0;
  if (params_.shape.cost_alpha > 1.0) {
    // Pareto with the requested mean: mean = alpha * xm / (alpha - 1).
    const double xm = params_.shape.cost_mean *
                      (params_.shape.cost_alpha - 1.0) /
                      params_.shape.cost_alpha;
    pending.cost = rng_.pareto(params_.shape.cost_alpha, xm);
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

  Json body = Json::object();
  body.set("op", "get");
  body.set("path", pending.path);
  body.set("id", static_cast<unsigned long long>(id));
  if (pending.cost != 1.0) body.set("cost", pending.cost);

  pending.timeout_event = sim_.after(params_.request_timeout, [this, id]() {
    attempt_failed(id, /*timed_out=*/true);
  });

  net::Message msg;
  msg.src = self_;
  msg.dst = pending.target;
  msg.src_port = port_;
  msg.dst_port = params_.server_port;
  msg.payload = std::move(body);
  msg.padding_bytes = static_cast<double>(params_.request_bytes);
  network_.send(std::move(msg));
}

void HttpLoadGen::attempt_failed(std::uint64_t id, bool timed_out) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  // A timeout is the attempt's timer firing; an error reply disarms it.
  if (!timed_out && pending.timeout_event != 0) {
    sim_.cancel(pending.timeout_event);
  }
  pending.timeout_event = 0;
  record_failure(pending.target);
  if (pending.attempts < params_.max_attempts) {
    if (retry_tokens_ >= 1.0) {
      net::Ipv4Addr next;
      if (pick_target(pending.target, true, &next)) {
        retry_tokens_ -= 1.0;
        ++retries_;
        pending.target = next;
        send_attempt(id);
        return;
      }
    } else {
      ++retries_denied_;
    }
  }
  pending_.erase(it);
  ++(timed_out ? timed_out_ : failed_);
}

void HttpLoadGen::on_message(const net::Message& msg) {
  const Json& reply = msg.payload;
  auto id = static_cast<std::uint64_t>(reply.get_number("id"));
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late reply after timeout
  if (msg.src != it->second.target) return;  // stale attempt's reply

  const double status = reply.get_number("status", 200);
  const bool shed = reply.has("shed") || reply.has("lb_error");
  if (status >= 500 || shed) {
    attempt_failed(id, /*timed_out=*/false);
    return;
  }
  if (it->second.timeout_event != 0) sim_.cancel(it->second.timeout_event);
  record_success(it->second.target);
  latencies_.observe((sim_.now() - it->second.first_sent_at).to_millis());
  const bool brownout = reply.get_bool("brownout", false);
  pending_.erase(it);
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
  if (arrival_event_ != 0) {
    fabric_.simulation().cancel(arrival_event_);
    arrival_event_ = 0;
  }
}

void BackgroundTraffic::fire_next() {
  if (!running_ || params_.flows_per_sec <= 0) return;
  double gap = rng_.exponential(1.0 / params_.flows_per_sec);
  arrival_event_ =
      fabric_.simulation().after(sim::Duration::seconds(gap), [this]() {
        arrival_event_ = 0;
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
                  [this](const net::Message& msg) { on_message(msg); });
}

KvClient::~KvClient() { network_.unlisten(self_, port_); }

void KvClient::request(net::Ipv4Addr server, std::uint16_t server_port,
                       Json body, Callback cb) {
  std::uint64_t id = next_id_++;
  body.set("id", static_cast<unsigned long long>(id));
  Pending pending;
  pending.cb = std::move(cb);
  pending.timeout_event =
      sim_.after(sim::Duration::seconds(10), [this, id]() {
        auto it = pending_.find(id);
        if (it == pending_.end()) return;
        Callback cb = std::move(it->second.cb);
        pending_.erase(it);
        cb(util::Error::make("timeout", "kv request timed out"));
      });
  pending_[id] = std::move(pending);

  net::Message msg;
  msg.src = self_;
  msg.dst = server;
  msg.src_port = port_;
  msg.dst_port = server_port;
  // put carries the value's bytes on the wire.
  if (body.get_string("op") == "put") {
    msg.padding_bytes = body.get_number("bytes");
  }
  msg.payload = std::move(body);
  network_.send(std::move(msg));
}

void KvClient::put(net::Ipv4Addr server, const std::string& key,
                   std::uint64_t bytes, Callback cb,
                   std::uint16_t server_port) {
  Json body = Json::object();
  body.set("op", "put");
  body.set("key", key);
  body.set("bytes", static_cast<unsigned long long>(bytes));
  request(server, server_port, std::move(body), std::move(cb));
}

void KvClient::get(net::Ipv4Addr server, const std::string& key, Callback cb,
                   std::uint16_t server_port) {
  Json body = Json::object();
  body.set("op", "get");
  body.set("key", key);
  request(server, server_port, std::move(body), std::move(cb));
}

void KvClient::del(net::Ipv4Addr server, const std::string& key, Callback cb,
                   std::uint16_t server_port) {
  Json body = Json::object();
  body.set("op", "del");
  body.set("key", key);
  request(server, server_port, std::move(body), std::move(cb));
}

void KvClient::on_message(const net::Message& msg) {
  auto id = static_cast<std::uint64_t>(msg.payload.get_number("id"));
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  sim_.cancel(it->second.timeout_event);
  Callback cb = std::move(it->second.cb);
  pending_.erase(it);
  cb(msg.payload);
}

}  // namespace picloud::apps
