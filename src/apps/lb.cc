#include "apps/lb.h"

#include "os/node_os.h"
#include "util/logging.h"

namespace picloud::apps {

using util::Json;

namespace {

// Active health checking: a probe every kHealthPeriod, failed after
// kHealthTimeout. kUnhealthyThreshold consecutive failures (probes or
// proxied attempts) eject a backend for kEjectionPeriod.
constexpr sim::Duration kHealthPeriod = sim::Duration::millis(500);
constexpr sim::Duration kHealthTimeout = sim::Duration::millis(250);
constexpr int kUnhealthyThreshold = 3;
constexpr sim::Duration kEjectionPeriod = sim::Duration::seconds(5);
constexpr sim::Duration kProxyTimeout = sim::Duration::seconds(2);

const char* policy_name(LbPolicy p) {
  return p == LbPolicy::kLeastOutstanding ? "least_outstanding" : "round_robin";
}

const char* backend_state_name(LbApp::BackendState s) {
  switch (s) {
    case LbApp::BackendState::kHealthy: return "healthy";
    case LbApp::BackendState::kEjected: return "ejected";
    case LbApp::BackendState::kHalfOpen: return "half_open";
  }
  return "?";
}

}  // namespace

LbParams LbParams::from_json(const Json& j) {
  LbParams p;
  p.port = static_cast<std::uint16_t>(j.get_number("port", 80));
  p.upstream_port =
      static_cast<std::uint16_t>(j.get_number("upstream_port", 8081));
  p.backend_port =
      static_cast<std::uint16_t>(j.get_number("backend_port", 80));
  p.policy = j.get_string("policy", "round_robin") == "least_outstanding"
                 ? LbPolicy::kLeastOutstanding
                 : LbPolicy::kRoundRobin;
  p.retry_budget_burst =
      j.get_number("retry_budget_burst", RetryBudget::kBurst);
  return p;
}

LbApp::LbApp(LbParams params) : params_(params) {}

void LbApp::start(os::Container& container) {
  container_ = &container;
  sim_ = &container.node().simulation();
  util::MetricsRegistry& reg = sim_->metrics();
  m_received_ = &reg.counter("apps.lb.requests_received");
  m_retries_ = &reg.counter("apps.lb.retries");
  m_retries_denied_ = &reg.counter("apps.lb.retries_denied");
  m_upstream_timeouts_ = &reg.counter("apps.lb.upstream_timeouts");
  m_ejected_ = &reg.counter("apps.lb.backends_ejected");
  m_readmitted_ = &reg.counter("apps.lb.backends_readmitted");
  m_no_backend_ = &reg.counter("apps.lb.no_backend");
  m_healthy_ = &reg.gauge("apps.lb.healthy_backends");
  m_upstream_latency_ = &reg.histogram("apps.lb.upstream_latency_ms");
  container.listen(params_.port,
                   [this](net::Message& msg) { on_client(msg); });
  container.listen(params_.upstream_port,
                   [this](net::Message& msg) { on_upstream(msg); });
  health_task_.every(*sim_, kHealthPeriod, [this]() { run_health_checks(); });
}

void LbApp::stop() {
  if (container_ == nullptr) return;
  health_task_.cancel();
  container_->unlisten(params_.port);
  container_->unlisten(params_.upstream_port);
  dropped_in_flight_ += proxies_.size();
  proxies_.clear();
  probes_.clear();
  for (auto& [ip, backend] : backends_) {
    backend.reopen_timer.cancel();
    backend.outstanding = 0;
  }
  container_ = nullptr;
}

void LbApp::set_backends(std::vector<net::Ipv4Addr> backends) {
  std::map<net::Ipv4Addr, Backend> next;
  for (net::Ipv4Addr ip : backends) {
    auto it = backends_.find(ip);
    next.emplace(ip, it != backends_.end() ? std::move(it->second) : Backend{});
  }
  backends_ = std::move(next);  // departed backends' reopen timers cancel
  rotation_.set(std::move(backends));
  if (m_healthy_ != nullptr) {
    m_healthy_->set(static_cast<double>(healthy_backends().size()));
  }
}

std::vector<net::Ipv4Addr> LbApp::healthy_backends() const {
  std::vector<net::Ipv4Addr> out;
  for (net::Ipv4Addr ip : rotation_.endpoints()) {
    auto it = backends_.find(ip);
    if (it != backends_.end() && it->second.state == BackendState::kHealthy) {
      out.push_back(ip);
    }
  }
  return out;
}

LbApp::BackendState LbApp::backend_state(net::Ipv4Addr ip) const {
  auto it = backends_.find(ip);
  return it != backends_.end() ? it->second.state : BackendState::kEjected;
}

// Runs per proxied request (plus per retry) — keep allocation-free.
// picloud-hot
bool LbApp::choose_backend(net::Ipv4Addr exclude, bool use_exclude,
                           net::Ipv4Addr* out) {
  auto eligible = [&](net::Ipv4Addr ip) {
    auto it = backends_.find(ip);
    if (it == backends_.end()) return false;
    if (it->second.state != BackendState::kHealthy) return false;
    return !(use_exclude && ip == exclude);
  };

  if (params_.policy == LbPolicy::kLeastOutstanding) {
    bool found = false;
    net::Ipv4Addr best;
    int best_outstanding = 0;
    for (net::Ipv4Addr ip : rotation_.endpoints()) {  // order breaks ties
      if (!eligible(ip)) continue;
      int outstanding = backends_[ip].outstanding;
      if (!found || outstanding < best_outstanding) {
        found = true;
        best = ip;
        best_outstanding = outstanding;
      }
    }
    if (!found && use_exclude) return choose_backend({}, false, out);
    if (!found) return false;
    *out = best;
    return true;
  }

  if (rotation_.next(eligible, out)) return true;
  // Everything healthy was excluded; fall back to allowing the excluded one.
  return use_exclude && choose_backend({}, false, out);
}

void LbApp::on_client(net::Message& msg) {
  if (container_ == nullptr) return;
  ServeRequest* request = msg.body.get<ServeRequest>();
  if (request == nullptr) return;  // not a serving-tier request

  ++requests_received_;
  m_received_->inc();

  std::uint64_t pid = next_pid_++;
  Proxy proxy;
  proxy.client = msg.src;
  proxy.client_port = msg.src_port;
  proxy.client_id = request->id;
  proxy.request = std::move(*request);
  proxy.request.id = pid;
  proxy.padding = msg.padding_bytes;

  net::Ipv4Addr target;
  if (!choose_backend({}, false, &target)) {
    ++no_backend_;
    m_no_backend_->inc();
    ++responses_error_;
    ServeReply reply;
    reply.id = proxy.client_id;
    reply.status = 503;
    reply.lb_error = LbError::kNoBackend;
    container_->send(proxy.client, proxy.client_port, std::move(reply),
                     params_.port, 128);
    return;
  }

  budget_.original();
  proxy.backend = target;
  proxies_.emplace(pid, std::move(proxy));
  forward(pid);
}

void LbApp::forward(std::uint64_t pid) {
  auto it = proxies_.find(pid);
  if (it == proxies_.end()) return;
  Proxy& proxy = it->second;
  ++proxy.attempts;
  ++attempts_forwarded_;
  proxy.attempt_at = sim_->now();
  auto backend_it = backends_.find(proxy.backend);
  if (backend_it != backends_.end()) ++backend_it->second.outstanding;
  proxy.timer.after(*sim_, kProxyTimeout, [this, pid]() {
    ++upstream_timeouts_;
    m_upstream_timeouts_->inc();
    attempt_failed(pid);
  });
  // The proxy keeps its request for a retry; each attempt sends a copy.
  bool sent = container_->send(proxy.backend, params_.backend_port,
                               proxy.request, params_.upstream_port,
                               proxy.padding);
  if (!sent) {
    // No route (backend's node is gone): fail fast instead of waiting out
    // the proxy timeout.
    proxy.timer.cancel();
    attempt_failed(pid);
  }
}

void LbApp::attempt_failed(std::uint64_t pid) {
  auto it = proxies_.find(pid);
  if (it == proxies_.end()) return;
  Proxy& proxy = it->second;
  net::Ipv4Addr failed = proxy.backend;
  auto backend_it = backends_.find(failed);
  if (backend_it != backends_.end() && backend_it->second.outstanding > 0) {
    --backend_it->second.outstanding;
  }
  backend_failure(failed);

  const RetryBudget::Verdict verdict = budget_.judge(proxy.attempts);
  if (verdict == RetryBudget::Verdict::kDenied) m_retries_denied_->inc();
  net::Ipv4Addr target;
  if (verdict == RetryBudget::Verdict::kAllowed &&
      choose_backend(failed, true, &target)) {
    budget_.spend();
    m_retries_->inc();
    proxy.backend = target;
    forward(pid);
    return;
  }

  ServeReply reply;
  reply.id = proxy.client_id;
  reply.status = 503;
  reply.lb_error = LbError::kUpstreamFailed;
  finish(pid, std::move(reply), 128, /*ok=*/false);
}

void LbApp::finish(std::uint64_t pid, ServeReply reply, double padding,
                   bool ok) {
  auto it = proxies_.find(pid);
  if (it == proxies_.end()) return;
  const net::Ipv4Addr client = it->second.client;
  const std::uint16_t client_port = it->second.client_port;
  proxies_.erase(it);  // cancels the attempt's timeout
  if (ok) {
    ++responses_ok_;
  } else {
    ++responses_error_;
  }
  container_->send(client, client_port, std::move(reply), params_.port,
                   padding);
}

void LbApp::on_upstream(net::Message& msg) {
  if (container_ == nullptr) return;
  ServeReply* reply = msg.body.get<ServeReply>();
  if (reply == nullptr) return;  // not a serving-tier reply
  const std::uint64_t id = reply->id;

  if (reply->health.has_value()) {
    auto probe_it = probes_.find(id);
    if (probe_it == probes_.end()) return;  // late probe reply
    net::Ipv4Addr backend = probe_it->second.backend;
    probes_.erase(probe_it);  // cancels its timeout
    on_health_reply(backend);
    return;
  }

  auto it = proxies_.find(id);
  if (it == proxies_.end()) return;  // reply after timeout/retry settled
  Proxy& proxy = it->second;
  if (msg.src != proxy.backend) return;  // stale attempt's reply
  proxy.timer.cancel();
  auto backend_it = backends_.find(proxy.backend);
  if (backend_it != backends_.end() && backend_it->second.outstanding > 0) {
    --backend_it->second.outstanding;
  }
  m_upstream_latency_->observe((sim_->now() - proxy.attempt_at).to_millis());

  if (reply->failed()) {
    // Fast-fail from an overloaded backend. Count it against the breaker and
    // let the retry budget decide whether to try a sibling.
    attempt_failed(id);
    return;
  }
  backend_success(proxy.backend);
  reply->id = proxy.client_id;
  finish(id, std::move(*reply), msg.padding_bytes, /*ok=*/true);
}

void LbApp::on_health_reply(net::Ipv4Addr backend) {
  // A successful probe clears the failure streak and re-admits a half-open
  // backend; ejected backends stay out until their period elapses.
  backend_success(backend);
}

void LbApp::backend_failure(net::Ipv4Addr ip) {
  auto it = backends_.find(ip);
  if (it == backends_.end()) return;
  Backend& backend = it->second;
  if (backend.state == BackendState::kHalfOpen) {
    // Failed its trial: back to ejected for another period.
    eject(ip);
    return;
  }
  if (backend.state != BackendState::kHealthy) return;
  if (++backend.consecutive_failures >= kUnhealthyThreshold) {
    eject(ip);
  }
}

void LbApp::backend_success(net::Ipv4Addr ip) {
  auto it = backends_.find(ip);
  if (it == backends_.end()) return;
  Backend& backend = it->second;
  backend.consecutive_failures = 0;
  if (backend.state == BackendState::kHalfOpen) {
    backend.state = BackendState::kHealthy;
    ++backends_readmitted_;
    m_readmitted_->inc();
    m_healthy_->add(1);
    LOG_INFO("lb", "backend %s re-admitted", ip.to_string().c_str());
  }
}

void LbApp::eject(net::Ipv4Addr ip) {
  auto it = backends_.find(ip);
  if (it == backends_.end()) return;
  Backend& backend = it->second;
  const bool was_healthy = backend.state == BackendState::kHealthy;
  backend.state = BackendState::kEjected;
  backend.consecutive_failures = 0;
  ++backends_ejected_;
  m_ejected_->inc();
  if (was_healthy) m_healthy_->add(-1);
  backend.reopen_timer.after(*sim_, kEjectionPeriod, [this, ip]() {
    Backend& ejected = backends_.at(ip);
    if (ejected.state == BackendState::kEjected) {
      ejected.state = BackendState::kHalfOpen;
      probe(ip);  // immediate trial instead of waiting for the next sweep
    }
  });
  LOG_INFO("lb", "backend %s ejected", ip.to_string().c_str());
}

void LbApp::run_health_checks() {
  if (container_ == nullptr) return;
  for (net::Ipv4Addr ip : rotation_.endpoints()) {
    auto it = backends_.find(ip);
    if (it == backends_.end()) continue;
    if (it->second.state == BackendState::kEjected) continue;  // waiting out
    probe(ip);
  }
}

void LbApp::probe(net::Ipv4Addr ip) {
  if (container_ == nullptr) return;
  std::uint64_t hid = next_pid_++;
  ServeRequest request;
  request.id = hid;
  request.op = ServeOp::kHealth;
  PendingProbe& pending = probes_[hid];
  pending.backend = ip;
  pending.timer.after(*sim_, kHealthTimeout, [this, hid]() {
    auto it = probes_.find(hid);
    net::Ipv4Addr backend = it->second.backend;
    probes_.erase(it);
    backend_failure(backend);
  });
  bool sent = container_->send(ip, params_.backend_port, std::move(request),
                               params_.upstream_port, 64);
  if (!sent) {
    probes_.erase(hid);
    backend_failure(ip);
  }
}

util::Json LbApp::status() const {
  Json j = Json::object();
  j.set("policy", std::string(policy_name(params_.policy)));
  j.set("requests", static_cast<unsigned long long>(requests_received_));
  j.set("responses_ok", static_cast<unsigned long long>(responses_ok_));
  j.set("responses_error",
        static_cast<unsigned long long>(responses_error_));
  j.set("in_flight", static_cast<unsigned long long>(proxies_.size()));
  j.set("retries", static_cast<unsigned long long>(budget_.retries()));
  j.set("retries_denied", static_cast<unsigned long long>(budget_.denials()));
  j.set("upstream_timeouts",
        static_cast<unsigned long long>(upstream_timeouts_));
  j.set("ejected", static_cast<unsigned long long>(backends_ejected_));
  j.set("readmitted", static_cast<unsigned long long>(backends_readmitted_));
  Json pool = Json::object();
  for (net::Ipv4Addr ip : rotation_.endpoints()) {
    auto it = backends_.find(ip);
    if (it == backends_.end()) continue;
    pool.set(ip.to_string(),
             std::string(backend_state_name(it->second.state)));
  }
  j.set("backends", std::move(pool));
  return j;
}

}  // namespace picloud::apps
