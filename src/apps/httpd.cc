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
  p.read_json(j);
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
  write_json(j);
  j.set("brownout_bytes_factor", brownout_bytes_factor);
  return j;
}

HttpdApp::HttpdApp(HttpdParams params) : params_(params) {}

void HttpdApp::start(os::Container& container) {
  container_ = &container;
  sim::Simulation& sim = container.node().simulation();
  admission_.start(sim, "apps.httpd.", "requests_received",
                   /*count_brownouts=*/true);
  m_served_ok_ = &sim.metrics().counter("apps.httpd.served_ok");
  m_served_brownout_ = &sim.metrics().counter("apps.httpd.served_brownout");
  // Page cache / doc root resident set.
  working_set_resident_ =
      container.alloc_memory(params_.working_set_bytes).ok();
  if (!working_set_resident_) {
    LOG_WARN("httpd", "%s: working set does not fit; serving degraded",
             container.name().c_str());
  }
  container.listen(params_.port,
                   [this](net::Message& msg) { on_request(msg); });
}

void HttpdApp::stop() {
  if (container_ == nullptr) return;
  container_->unlisten(params_.port);
  admission_.stop();
  if (working_set_resident_) {
    container_->free_memory(params_.working_set_bytes);
    working_set_resident_ = false;
  }
  container_ = nullptr;
}

void HttpdApp::shed(const Request& entry, ShedCause cause) {
  // A shed response is deliberately cheap: no cycles, a header-sized body —
  // fast feedback is what lets client breakers and retry budgets react.
  ServeReply reply;
  reply.id = entry.id;
  reply.status = 503;
  reply.shed = cause;
  container_->send(entry.reply_to, entry.reply_port, std::move(reply),
                   params_.port, 128);
}

void HttpdApp::on_request(net::Message& msg) {
  if (container_ == nullptr) return;
  ServeRequest* request = msg.body.get<ServeRequest>();
  if (request == nullptr) return;  // not a serving-tier request

  // Liveness probes (LB health checks) bypass admission: a loaded-but-alive
  // server must keep answering them or the LB would eject it exactly when
  // shedding is doing its job.
  if (request->op == ServeOp::kHealth) {
    ServeReply reply;
    reply.id = request->id;
    reply.status = 200;
    reply.health = true;
    container_->send(msg.src, msg.src_port, std::move(reply), params_.port,
                     64);
    return;
  }

  Request entry;
  entry.reply_to = msg.src;
  entry.reply_port = msg.src_port;
  entry.id = request->id;
  entry.path = std::move(request->path).value_or("/");
  entry.cost = request->cost.value_or(1.0);
  if (entry.cost < 1e-3) entry.cost = 1.0;
  admission_.admit(std::move(entry));
}

void HttpdApp::serve(Request entry, bool degraded) {
  const double cycles =
      params_.cycles_per_request * entry.cost *
      (degraded ? params_.brownout_cycles_factor : 1.0);
  const double bytes =
      static_cast<double>(params_.response_bytes) *
      (degraded ? params_.brownout_bytes_factor : 1.0);
  container_->run_cpu(cycles, [this, entry = std::move(entry), degraded,
                               bytes](bool completed) mutable {
    if (!admission_.finish(completed)) return;
    if (degraded) {
      ++served_brownout_;
      m_served_brownout_->inc();
    } else {
      ++served_ok_;
      m_served_ok_->inc();
    }
    ServeReply reply;
    reply.id = entry.id;
    reply.status = 200;
    reply.path = std::move(entry.path);
    if (degraded) reply.brownout = true;
    container_->send(entry.reply_to, entry.reply_port, std::move(reply),
                     params_.port, bytes);
    admission_.pump();
  });
}

util::Json HttpdApp::status() const {
  Json j = Json::object();
  j.set("requests", static_cast<unsigned long long>(admission_.received()));
  j.set("served_ok", static_cast<unsigned long long>(served_ok_));
  j.set("served_brownout",
        static_cast<unsigned long long>(served_brownout_));
  j.set("dropped", static_cast<unsigned long long>(admission_.dropped()));
  admission_.write_status(j);
  j.set("port", params_.port);
  return j;
}

}  // namespace picloud::apps
