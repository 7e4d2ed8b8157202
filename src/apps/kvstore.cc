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
                   [this](net::Message& msg) { on_request(msg); });
}

void KvStoreApp::stop() {
  if (container_ == nullptr) return;
  container_->unlisten(params_.port);
  admission_.stop();
  if (stored_bytes_ > 0) container_->free_memory(stored_bytes_);
  container_ = nullptr;
}

void KvStoreApp::send_reply(net::Ipv4Addr to, std::uint16_t port,
                            ServeReply reply, double padding) {
  if (container_ == nullptr) return;
  container_->send(to, port, std::move(reply), params_.port, padding);
}

void KvStoreApp::shed(const Op& entry, ShedCause cause) {
  ServeReply reply;
  reply.id = entry.id;
  reply.ok = false;
  reply.shed = cause;
  send_reply(entry.reply_to, entry.reply_port, std::move(reply));
}

void KvStoreApp::on_request(net::Message& msg) {
  if (container_ == nullptr) return;
  ServeRequest* request = msg.body.get<ServeRequest>();
  if (request == nullptr) return;  // not a serving-tier request

  if (request->op == ServeOp::kHealth) {
    ServeReply reply;
    reply.id = request->id;
    reply.ok = true;
    reply.health = true;
    send_reply(msg.src, msg.src_port, std::move(reply), 64);
    return;
  }

  admission_.admit({msg.src, msg.src_port, request->id, request->op,
                    std::move(request->key).value_or(std::string()),
                    request->bytes.value_or(0)});
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
  const std::string& key = entry.key;
  net::Ipv4Addr reply_to = entry.reply_to;
  std::uint16_t reply_port = entry.reply_port;
  ServeReply reply;
  reply.id = entry.id;

  auto served = [this, degraded]() {
    ++ops_served_;
    m_served_->inc();
    if (degraded) {
      ++served_brownout_;
      m_served_brownout_->inc();
    }
  };

  if (entry.op == ServeOp::kPut) {
    const std::uint64_t bytes = entry.bytes;
    auto existing = values_.find(key);
    std::uint64_t old_bytes = existing != values_.end() ? existing->second : 0;
    std::uint64_t delta = bytes > old_bytes ? bytes - old_bytes : 0;
    if (delta > 0 && !container_->alloc_memory(delta).ok()) {
      ++ops_rejected_;
      reply.ok = false;
      reply.error = KvError::kOutOfMemory;
      send_reply(reply_to, reply_port, std::move(reply));
      return;
    }
    if (old_bytes > bytes) container_->free_memory(old_bytes - bytes);
    values_[key] = bytes;
    stored_bytes_ = stored_bytes_ + bytes - old_bytes;
    served();
    reply.ok = true;
    send_reply(reply_to, reply_port, std::move(reply));
    return;
  }

  if (entry.op == ServeOp::kGet) {
    auto it = values_.find(key);
    served();
    if (it == values_.end()) {
      reply.ok = false;
      reply.error = KvError::kNoSuchKey;
      send_reply(reply_to, reply_port, std::move(reply));
      return;
    }
    reply.ok = true;
    reply.bytes = it->second;
    if (degraded) {
      // Brownout: metadata only — the value's bytes stay off the wire.
      reply.brownout = true;
      send_reply(reply_to, reply_port, std::move(reply));
    } else {
      // The value itself rides as padding.
      send_reply(reply_to, reply_port, std::move(reply),
                 static_cast<double>(it->second));
    }
    return;
  }

  // del (health is answered before admission).
  auto it = values_.find(key);
  if (it != values_.end()) {
    container_->free_memory(it->second);
    stored_bytes_ -= it->second;
    values_.erase(it);
  }
  served();
  reply.ok = true;
  send_reply(reply_to, reply_port, std::move(reply));
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
