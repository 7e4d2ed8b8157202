#include "apps/kvstore.h"

#include "os/node_os.h"
#include "util/logging.h"

namespace picloud::apps {

using util::Json;

KvStoreParams KvStoreParams::from_json(const Json& j) {
  KvStoreParams p;
  p.port = static_cast<std::uint16_t>(j.get_number("port", 6379));
  p.cycles_per_op = j.get_number("cycles_per_op", 0.5e6);
  p.admission_control = j.get_number("admission_control", 1) != 0;
  p.queue_capacity = static_cast<int>(j.get_number("queue_capacity", 128));
  p.service_concurrency =
      static_cast<int>(j.get_number("service_concurrency", 4));
  p.queue_deadline = sim::Duration::nanos(static_cast<std::int64_t>(
      j.get_number("queue_deadline_ns", 750.0 * 1e6)));
  p.brownout_enter_fill = j.get_number("brownout_enter_fill", 0.75);
  p.brownout_exit_fill = j.get_number("brownout_exit_fill", 0.25);
  p.brownout_cycles_factor = j.get_number("brownout_cycles_factor", 0.25);
  return p;
}

KvStoreApp::KvStoreApp(KvStoreParams params) : params_(params) {}

void KvStoreApp::bind_metrics(os::Container& container) {
  if (m_received_ != nullptr) return;
  util::MetricsRegistry& reg = container.node().simulation().metrics();
  m_received_ = &reg.counter("apps.kvstore.ops_received");
  m_served_ = &reg.counter("apps.kvstore.ops_served");
  m_served_brownout_ = &reg.counter("apps.kvstore.served_brownout");
  m_shed_admission_ = &reg.counter("apps.kvstore.shed_admission");
  m_shed_deadline_ = &reg.counter("apps.kvstore.shed_deadline");
  m_refused_at_start_ = &reg.counter("apps.kvstore.refused_at_start");
  m_queue_depth_ = &reg.gauge("apps.kvstore.queue_depth");
}

void KvStoreApp::start(os::Container& container) {
  container_ = &container;
  sim_ = &container.node().simulation();
  bind_metrics(container);
  // Re-charge the dataset (fresh start: zero; post-migration: full set).
  if (stored_bytes_ > 0) {
    util::Status charged = container.alloc_memory(stored_bytes_);
    if (!charged.ok()) {
      LOG_WARN("kvstore", "%s: dataset no longer fits (%s); dropping it",
               container.name().c_str(), charged.error().message.c_str());
      values_.clear();
      stored_bytes_ = 0;
    }
  }
  container.listen(params_.port,
                   [this](const net::Message& msg) { on_request(msg); });
}

void KvStoreApp::stop() {
  if (container_ == nullptr) return;
  container_->unlisten(params_.port);
  while (!queue_.empty()) {
    ++refused_at_start_;
    if (m_refused_at_start_ != nullptr) m_refused_at_start_->inc();
    queue_.pop_front();
    if (m_queue_depth_ != nullptr) m_queue_depth_->add(-1);
  }
  if (stored_bytes_ > 0) container_->free_memory(stored_bytes_);
  container_ = nullptr;
}

void KvStoreApp::reply(net::Ipv4Addr to, std::uint16_t port, Json body,
                       double padding) {
  if (container_ == nullptr) return;
  container_->send(to, port, std::move(body), params_.port, padding);
}

void KvStoreApp::update_brownout() {
  const double fill = params_.queue_capacity > 0
                          ? static_cast<double>(queue_.size()) /
                                static_cast<double>(params_.queue_capacity)
                          : 0.0;
  if (!brownout_ && fill >= params_.brownout_enter_fill) {
    brownout_ = true;
  } else if (brownout_ && fill <= params_.brownout_exit_fill) {
    brownout_ = false;
  }
}

void KvStoreApp::on_request(const net::Message& msg) {
  if (container_ == nullptr) return;
  const Json& request = msg.payload;

  if (request.get_string("op") == "health") {
    Json body = Json::object();
    body.set("id", request.get_number("id"));
    body.set("ok", true);
    body.set("health", true);
    reply(msg.src, msg.src_port, std::move(body), 64);
    return;
  }

  ++ops_received_;
  if (m_received_ != nullptr) m_received_->inc();

  QueueEntry entry;
  entry.reply_to = msg.src;
  entry.reply_port = msg.src_port;
  entry.request = request;
  entry.deadline = sim_->now() + params_.queue_deadline;

  if (!params_.admission_control) {
    ++in_service_;
    serve(std::move(entry));
    return;
  }

  if (static_cast<int>(queue_.size()) >= params_.queue_capacity) {
    ++shed_admission_;
    if (m_shed_admission_ != nullptr) m_shed_admission_->inc();
    Json body = Json::object();
    body.set("id", entry.request.get_number("id"));
    body.set("ok", false);
    body.set("shed", std::string("admission"));
    reply(entry.reply_to, entry.reply_port, std::move(body));
    return;
  }
  queue_.push_back(std::move(entry));
  if (m_queue_depth_ != nullptr) m_queue_depth_->add(1);
  update_brownout();
  pump();
}

void KvStoreApp::pump() {
  while (container_ != nullptr && in_service_ < params_.service_concurrency &&
         !queue_.empty()) {
    QueueEntry entry = std::move(queue_.front());
    queue_.pop_front();
    if (m_queue_depth_ != nullptr) m_queue_depth_->add(-1);
    if (sim_->now() > entry.deadline) {
      ++shed_deadline_;
      if (m_shed_deadline_ != nullptr) m_shed_deadline_->inc();
      Json body = Json::object();
      body.set("id", entry.request.get_number("id"));
      body.set("ok", false);
      body.set("shed", std::string("deadline"));
      reply(entry.reply_to, entry.reply_port, std::move(body));
      continue;
    }
    ++in_service_;
    serve(std::move(entry));
  }
  update_brownout();
}

void KvStoreApp::serve(QueueEntry entry) {
  const bool degraded = params_.admission_control && brownout_;
  const double cycles =
      params_.cycles_per_op *
      (degraded ? params_.brownout_cycles_factor : 1.0);
  container_->run_cpu(cycles, [this, entry = std::move(entry),
                               degraded](bool completed) {
    --in_service_;
    if (!completed || container_ == nullptr) {
      ++refused_at_start_;
      if (m_refused_at_start_ != nullptr) m_refused_at_start_->inc();
      return;
    }
    execute(entry, degraded);
    if (params_.admission_control) pump();
  });
}

void KvStoreApp::execute(const QueueEntry& entry, bool degraded) {
  const Json& request = entry.request;
  std::string op = request.get_string("op");
  std::string key = request.get_string("key");
  net::Ipv4Addr reply_to = entry.reply_to;
  std::uint16_t reply_port = entry.reply_port;
  Json body = Json::object();
  body.set("id", request.get_number("id"));

  auto served = [this, degraded]() {
    ++ops_served_;
    if (m_served_ != nullptr) m_served_->inc();
    if (degraded) {
      ++served_brownout_;
      if (m_served_brownout_ != nullptr) m_served_brownout_->inc();
    }
  };

  if (op == "put") {
    auto bytes = static_cast<std::uint64_t>(request.get_number("bytes"));
    auto existing = values_.find(key);
    std::uint64_t old_bytes = existing != values_.end() ? existing->second : 0;
    std::uint64_t delta = bytes > old_bytes ? bytes - old_bytes : 0;
    if (delta > 0 && !container_->alloc_memory(delta).ok()) {
      ++ops_rejected_;
      body.set("ok", false);
      body.set("error", "out of memory");
      reply(reply_to, reply_port, std::move(body));
      return;
    }
    if (old_bytes > bytes) container_->free_memory(old_bytes - bytes);
    values_[key] = bytes;
    stored_bytes_ = stored_bytes_ + bytes - old_bytes;
    served();
    body.set("ok", true);
    reply(reply_to, reply_port, std::move(body));
    return;
  }

  if (op == "get") {
    auto it = values_.find(key);
    served();
    if (it == values_.end()) {
      body.set("ok", false);
      body.set("error", "no such key");
      reply(reply_to, reply_port, std::move(body));
      return;
    }
    body.set("ok", true);
    body.set("bytes", static_cast<unsigned long long>(it->second));
    if (degraded) {
      // Brownout: metadata only — the value's bytes stay off the wire.
      body.set("brownout", true);
      reply(reply_to, reply_port, std::move(body));
    } else {
      // The value itself rides as padding.
      reply(reply_to, reply_port, std::move(body),
            static_cast<double>(it->second));
    }
    return;
  }

  if (op == "del") {
    auto it = values_.find(key);
    if (it != values_.end()) {
      container_->free_memory(it->second);
      stored_bytes_ -= it->second;
      values_.erase(it);
    }
    served();
    body.set("ok", true);
    reply(reply_to, reply_port, std::move(body));
    return;
  }

  ++ops_rejected_;
  body.set("ok", false);
  body.set("error", "unknown op");
  reply(reply_to, reply_port, std::move(body));
}

util::Json KvStoreApp::status() const {
  Json j = Json::object();
  j.set("keys", static_cast<unsigned long long>(values_.size()));
  j.set("bytes", static_cast<unsigned long long>(stored_bytes_));
  j.set("ops", static_cast<unsigned long long>(ops_served_));
  j.set("shed_admission", static_cast<unsigned long long>(shed_admission_));
  j.set("shed_deadline", static_cast<unsigned long long>(shed_deadline_));
  j.set("refused_at_start",
        static_cast<unsigned long long>(refused_at_start_));
  j.set("queue_depth", static_cast<unsigned long long>(queue_.size()));
  j.set("brownout", brownout_);
  return j;
}

}  // namespace picloud::apps
