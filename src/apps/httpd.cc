#include "apps/httpd.h"

#include "os/node_os.h"
#include "util/logging.h"

namespace picloud::apps {

using util::Json;

HttpdParams HttpdParams::from_json(const Json& j) {
  HttpdParams p;
  p.port = static_cast<std::uint16_t>(j.get_number("port", 80));
  p.cycles_per_request = j.get_number("cycles_per_request", 2e6);
  p.response_bytes =
      static_cast<std::uint64_t>(j.get_number("response_bytes", 8192));
  p.working_set_bytes = static_cast<std::uint64_t>(
      j.get_number("working_set_bytes", 10.0 * (1 << 20)));
  p.admission_control = j.get_number("admission_control", 1) != 0;
  p.queue_capacity = static_cast<int>(j.get_number("queue_capacity", 64));
  p.service_concurrency =
      static_cast<int>(j.get_number("service_concurrency", 4));
  p.queue_deadline = sim::Duration::nanos(static_cast<std::int64_t>(
      j.get_number("queue_deadline_ns", 750.0 * 1e6)));
  p.brownout_enter_fill = j.get_number("brownout_enter_fill", 0.75);
  p.brownout_exit_fill = j.get_number("brownout_exit_fill", 0.25);
  p.brownout_cycles_factor = j.get_number("brownout_cycles_factor", 0.25);
  p.brownout_bytes_factor = j.get_number("brownout_bytes_factor", 0.125);
  return p;
}

Json HttpdParams::to_json() const {
  Json j = Json::object();
  j.set("port", port);
  j.set("cycles_per_request", cycles_per_request);
  j.set("response_bytes", static_cast<unsigned long long>(response_bytes));
  j.set("working_set_bytes",
        static_cast<unsigned long long>(working_set_bytes));
  j.set("admission_control", admission_control ? 1 : 0);
  j.set("queue_capacity", queue_capacity);
  j.set("service_concurrency", service_concurrency);
  j.set("queue_deadline_ns", static_cast<double>(queue_deadline.ns()));
  j.set("brownout_enter_fill", brownout_enter_fill);
  j.set("brownout_exit_fill", brownout_exit_fill);
  j.set("brownout_cycles_factor", brownout_cycles_factor);
  j.set("brownout_bytes_factor", brownout_bytes_factor);
  return j;
}

HttpdApp::HttpdApp(HttpdParams params) : params_(params) {}

void HttpdApp::bind_metrics(os::Container& container) {
  if (m_received_ != nullptr) return;
  util::MetricsRegistry& reg = container.node().simulation().metrics();
  m_received_ = &reg.counter("apps.httpd.requests_received");
  m_served_ok_ = &reg.counter("apps.httpd.served_ok");
  m_served_brownout_ = &reg.counter("apps.httpd.served_brownout");
  m_shed_admission_ = &reg.counter("apps.httpd.shed_admission");
  m_shed_deadline_ = &reg.counter("apps.httpd.shed_deadline");
  m_refused_at_start_ = &reg.counter("apps.httpd.refused_at_start");
  m_brownout_entered_ = &reg.counter("apps.httpd.brownout_entered");
  m_queue_depth_ = &reg.gauge("apps.httpd.queue_depth");
}

void HttpdApp::set_queue_gauge(double delta) {
  if (m_queue_depth_ != nullptr) m_queue_depth_->add(delta);
}

void HttpdApp::start(os::Container& container) {
  container_ = &container;
  sim_ = &container.node().simulation();
  bind_metrics(container);
  // Page cache / doc root resident set.
  working_set_resident_ =
      container.alloc_memory(params_.working_set_bytes).ok();
  if (!working_set_resident_) {
    LOG_WARN("httpd", "%s: working set does not fit; serving degraded",
             container.name().c_str());
  }
  container.listen(params_.port,
                   [this](const net::Message& msg) { on_request(msg); });
}

void HttpdApp::stop() {
  if (container_ == nullptr) return;
  container_->unlisten(params_.port);
  // Queued-but-unserved requests die with the listener; account them so the
  // conservation invariant survives a stop (migration freeze, node drain).
  while (!queue_.empty()) {
    ++refused_at_start_;
    if (m_refused_at_start_ != nullptr) m_refused_at_start_->inc();
    queue_.pop_front();
    set_queue_gauge(-1);
  }
  if (working_set_resident_) {
    container_->free_memory(params_.working_set_bytes);
    working_set_resident_ = false;
  }
  container_ = nullptr;
}

void HttpdApp::shed(const QueueEntry& entry, const char* cause) {
  // A shed response is deliberately cheap: no cycles, a header-sized body —
  // fast feedback is what lets client breakers and retry budgets react.
  Json body = Json::object();
  body.set("id", entry.id);
  body.set("status", 503);
  body.set("shed", std::string(cause));
  container_->send(entry.reply_to, entry.reply_port, std::move(body),
                   params_.port, 128);
}

void HttpdApp::update_brownout() {
  const double fill = params_.queue_capacity > 0
                          ? static_cast<double>(queue_.size()) /
                                static_cast<double>(params_.queue_capacity)
                          : 0.0;
  if (!brownout_ && fill >= params_.brownout_enter_fill) {
    brownout_ = true;
    if (m_brownout_entered_ != nullptr) m_brownout_entered_->inc();
  } else if (brownout_ && fill <= params_.brownout_exit_fill) {
    brownout_ = false;
  }
}

void HttpdApp::on_request(const net::Message& msg) {
  if (container_ == nullptr) return;
  const Json& request = msg.payload;

  // Liveness probes (LB health checks) bypass admission: a loaded-but-alive
  // server must keep answering them or the LB would eject it exactly when
  // shedding is doing its job.
  if (request.get_string("op") == "health") {
    ++health_probes_;
    Json body = Json::object();
    body.set("id", request.get_number("id"));
    body.set("status", 200);
    body.set("health", true);
    container_->send(msg.src, msg.src_port, std::move(body), params_.port,
                     64);
    return;
  }

  ++requests_received_;
  if (m_received_ != nullptr) m_received_->inc();

  QueueEntry entry;
  entry.reply_to = msg.src;
  entry.reply_port = msg.src_port;
  entry.id = request.get_number("id");
  entry.path = request.get_string("path", "/");
  entry.cost = request.get_number("cost", 1.0);
  if (entry.cost < 1e-3) entry.cost = 1.0;
  entry.deadline = sim_->now() + params_.queue_deadline;

  if (!params_.admission_control) {
    // Pre-resilience behaviour: unbounded concurrency, no shedding — the
    // baseline that collapses under a flash crowd.
    ++in_service_;
    serve(std::move(entry));
    return;
  }

  if (static_cast<int>(queue_.size()) >= params_.queue_capacity) {
    ++shed_admission_;
    if (m_shed_admission_ != nullptr) m_shed_admission_->inc();
    shed(entry, "admission");
    return;
  }
  queue_.push_back(std::move(entry));
  set_queue_gauge(1);
  update_brownout();
  pump();
}

void HttpdApp::pump() {
  while (container_ != nullptr && in_service_ < params_.service_concurrency &&
         !queue_.empty()) {
    QueueEntry entry = std::move(queue_.front());
    queue_.pop_front();
    set_queue_gauge(-1);
    if (sim_->now() > entry.deadline) {
      ++shed_deadline_;
      if (m_shed_deadline_ != nullptr) m_shed_deadline_->inc();
      shed(entry, "deadline");
      continue;
    }
    ++in_service_;
    serve(std::move(entry));
  }
  update_brownout();
}

void HttpdApp::serve(QueueEntry entry) {
  const bool degraded = params_.admission_control && brownout_;
  const double cycles =
      params_.cycles_per_request * entry.cost *
      (degraded ? params_.brownout_cycles_factor : 1.0);
  const double bytes =
      static_cast<double>(params_.response_bytes) *
      (degraded ? params_.brownout_bytes_factor : 1.0);
  container_->run_cpu(cycles, [this, entry = std::move(entry), degraded,
                               bytes](bool completed) {
    --in_service_;
    if (!completed || container_ == nullptr) {
      ++refused_at_start_;
      if (m_refused_at_start_ != nullptr) m_refused_at_start_->inc();
      return;
    }
    if (degraded) {
      ++served_brownout_;
      if (m_served_brownout_ != nullptr) m_served_brownout_->inc();
    } else {
      ++served_ok_;
      if (m_served_ok_ != nullptr) m_served_ok_->inc();
    }
    Json body = Json::object();
    body.set("id", entry.id);
    body.set("status", 200);
    body.set("path", entry.path);
    if (degraded) body.set("brownout", true);
    container_->send(entry.reply_to, entry.reply_port, std::move(body),
                     params_.port, bytes);
    if (params_.admission_control) pump();
  });
}

util::Json HttpdApp::status() const {
  Json j = Json::object();
  j.set("requests", static_cast<unsigned long long>(requests_received_));
  j.set("served_ok", static_cast<unsigned long long>(served_ok_));
  j.set("served_brownout",
        static_cast<unsigned long long>(served_brownout_));
  j.set("shed_admission", static_cast<unsigned long long>(shed_admission_));
  j.set("shed_deadline", static_cast<unsigned long long>(shed_deadline_));
  j.set("refused_at_start",
        static_cast<unsigned long long>(refused_at_start_));
  j.set("dropped", static_cast<unsigned long long>(requests_dropped()));
  j.set("queue_depth", static_cast<unsigned long long>(queue_.size()));
  j.set("brownout", brownout_);
  j.set("port", params_.port);
  return j;
}

}  // namespace picloud::apps
