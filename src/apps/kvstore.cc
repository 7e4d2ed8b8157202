#include "apps/kvstore.h"

#include "os/node_os.h"
#include "util/logging.h"

namespace picloud::apps {

using util::Json;

KvStoreParams KvStoreParams::from_json(const Json& j) {
  KvStoreParams p;
  p.port = static_cast<std::uint16_t>(j.get_number("port", 6379));
  p.cycles_per_op = j.get_number("cycles_per_op", 0.5e6);
  p.read_json(j);
  return p;
}

KvStoreApp::KvStoreApp(KvStoreParams params) : params_(params) {}

void KvStoreApp::start(os::Container& container) {
  container_ = &container;
  sim::Simulation& sim = container.node().simulation();
  admission_.start(sim, "apps.kvstore.", "ops_received",
                   /*count_brownouts=*/false);
  m_served_ = &sim.metrics().counter("apps.kvstore.ops_served");
  m_served_brownout_ = &sim.metrics().counter("apps.kvstore.served_brownout");
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
  admission_.stop();
  if (stored_bytes_ > 0) container_->free_memory(stored_bytes_);
  container_ = nullptr;
}

void KvStoreApp::reply(net::Ipv4Addr to, std::uint16_t port, Json body,
                       double padding) {
  if (container_ == nullptr) return;
  container_->send(to, port, std::move(body), params_.port, padding);
}

void KvStoreApp::shed(const Op& entry, const char* cause) {
  Json body = Json::object();
  body.set("id", entry.id);
  body.set("ok", false);
  body.set("shed", std::string(cause));
  reply(entry.reply_to, entry.reply_port, std::move(body));
}

void KvStoreApp::on_request(const net::Message& msg) {
  if (container_ == nullptr) return;
  const Json& request = msg.payload;
  std::string op = request.get_string("op");

  if (op == "health") {
    Json body = Json::object();
    body.set("id", request.get_number("id"));
    body.set("ok", true);
    body.set("health", true);
    reply(msg.src, msg.src_port, std::move(body), 64);
    return;
  }

  admission_.admit({msg.src, msg.src_port, request.get_number("id"),
                    std::move(op), request.get_string("key"),
                    request.get_number("bytes")});
}

void KvStoreApp::serve(Op entry, bool degraded) {
  const double cycles =
      params_.cycles_per_op *
      (degraded ? params_.brownout_cycles_factor : 1.0);
  container_->run_cpu(cycles, [this, entry = std::move(entry),
                               degraded](bool completed) {
    if (!admission_.finish(completed)) return;
    execute(entry, degraded);
    admission_.pump();
  });
}

void KvStoreApp::execute(const Op& entry, bool degraded) {
  const std::string& op = entry.op;
  const std::string& key = entry.key;
  net::Ipv4Addr reply_to = entry.reply_to;
  std::uint16_t reply_port = entry.reply_port;
  Json body = Json::object();
  body.set("id", entry.id);

  auto served = [this, degraded]() {
    ++ops_served_;
    m_served_->inc();
    if (degraded) {
      ++served_brownout_;
      m_served_brownout_->inc();
    }
  };

  if (op == "put") {
    auto bytes = static_cast<std::uint64_t>(entry.bytes);
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
  admission_.write_status(j);
  return j;
}

}  // namespace picloud::apps
