// In-memory key-value database container (the "Database Container" of the
// paper's Fig. 3 software stack).
//
// Values are charged to the container's memory cgroup, so a store that
// outgrows its limit sees real insertion failures — the per-VM soft limit
// behaviour the management API controls. The dataset survives migration:
// stop() keeps the map, start() re-charges it on the destination node.
//
// Wire protocol (JSON datagrams on port 6379):
//   {"op":"put","key":k,"bytes":n,"id":i}   -> {"ok":true,"id":i}
//   {"op":"get","key":k,"id":i}             -> {"ok":true,"bytes":n,"id":i}
//   {"op":"del","key":k,"id":i}             -> {"ok":true,"id":i}
//
// Overload resilience (DESIGN.md §11): ops pass the shared admission queue
// (apps/admission.h), served at fixed concurrency; a full queue or an
// expired queue deadline sheds the op with {"ok":false,"shed":...}. Under
// sustained pressure the store browns out: gets return metadata only (no
// value bytes on the wire) at a fraction of the cycles.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "apps/admission.h"
#include "os/container.h"
#include "util/json.h"
#include "util/metrics.h"

namespace picloud::apps {

struct KvStoreParams : AdmissionParams {
  // kvstore's default queue holds 128 ops (httpd's holds 64 requests).
  KvStoreParams() { queue_capacity = 128; }

  std::uint16_t port = 6379;
  double cycles_per_op = 0.5e6;

  static KvStoreParams from_json(const util::Json& j);
};

class KvStoreApp : public os::ContainerApp {
 public:
  // What an op keeps while it waits and runs.
  struct Op {
    net::Ipv4Addr reply_to;
    std::uint16_t reply_port = 0;
    double id = 0;
    std::string op;
    std::string key;
    double bytes = 0;  // read by put only
  };
  using Queue = AdmissionQueue<KvStoreApp, Op>;

  explicit KvStoreApp(KvStoreParams params = {});

  std::string kind() const override { return "kvstore"; }
  void start(os::Container& container) override;
  void stop() override;
  util::Json status() const override;
  double dirty_bytes_per_sec() const override {
    // Write-heavy stores dirty pages fast; scale with stored bytes.
    return 128.0 * 1024 + static_cast<double>(stored_bytes_) * 0.05;
  }

  size_t key_count() const { return values_.size(); }
  std::uint64_t stored_bytes() const { return stored_bytes_; }

  // Completed work: served ops (degraded ones included, and also counted
  // in served_brownout) and rejected ones (bad op, OOM put). The admission
  // identity's `completed` is ops_served + ops_rejected (see invariants.cc).
  std::uint64_t ops_served() const { return ops_served_; }
  std::uint64_t served_brownout() const { return served_brownout_; }
  std::uint64_t ops_rejected() const { return ops_rejected_; }
  const Queue& admission() const { return admission_; }

 private:
  friend Queue;

  void on_request(const net::Message& msg);
  void serve(Op entry, bool degraded);
  void shed(const Op& entry, const char* cause);
  void execute(const Op& entry, bool degraded);
  void reply(net::Ipv4Addr to, std::uint16_t port, util::Json body,
             double padding = 0);

  KvStoreParams params_;
  Queue admission_{*this, params_};
  os::Container* container_ = nullptr;
  std::map<std::string, std::uint64_t> values_;  // key -> value size
  std::uint64_t stored_bytes_ = 0;

  std::uint64_t ops_served_ = 0;  // includes served_brownout_
  std::uint64_t served_brownout_ = 0;
  std::uint64_t ops_rejected_ = 0;

  // Registry series (aggregated across instances; bound in start()).
  util::Counter* m_served_ = nullptr;
  util::Counter* m_served_brownout_ = nullptr;
};

}  // namespace picloud::apps
