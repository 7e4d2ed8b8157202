// ControlPanel — the pimaster's web-based control panel (paper Fig. 4).
//
// "An outward-facing webserver on pimaster provides a web-based control
// panel to users and administrators ... Typical use-case scenarios include
// remote monitoring of the CPU load on some/all Pi nodes, spawning new VM
// instances and specifying (soft) per-VM resource utilisation limits."
//
// The panel is modelled as an administrator's browser session: it talks to
// the pimaster exclusively over the REST API (every click costs real
// round-trips on the fabric) and renders the dashboard as text — the same
// node grid, instance table and cluster header the screenshot shows. Every
// request takes one path: its callback gets the reply's body, or an error
// for a failed call or a refusal (the pimaster's {"error", "message"}).
// Only a refused migration is a result: its 409 carries the failed report.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/addr.h"
#include "net/network.h"
#include "proto/rest.h"
#include "util/json.h"
#include "util/result.h"

namespace picloud::cloud {

class ControlPanel {
 public:
  ControlPanel(net::Network& network, net::Ipv4Addr self,
               net::Ipv4Addr master, std::uint16_t master_port = 9000);

  // --- Panel pages -------------------------------------------------------------
  // Fetches summary + nodes + instances and renders the dashboard text.
  void render_dashboard(std::function<void(util::Result<std::string>)> cb);

  // --- Use cases from §II-C ------------------------------------------------------
  // CPU load of the named nodes (empty = all). Result maps hostname -> load.
  using CpuCallback =
      std::function<void(util::Result<std::map<std::string, double>>)>;
  void monitor_cpu(std::vector<std::string> hostnames, CpuCallback cb);

  // Spawning a new VM instance through the panel's "new instance" form.
  using JsonCallback = std::function<void(util::Result<util::Json>)>;
  void spawn_vm(util::Json spec, JsonCallback cb);

  // Soft per-VM resource limits.
  void set_vm_limits(const std::string& instance, util::Json limits,
                     JsonCallback cb);

  // Kick off a migration from the instance row's action menu.
  // A refusal reaches `cb` as a result: the failed report.
  void migrate_vm(const std::string& instance, const std::string& to,
                  bool live, JsonCallback cb);

  // Deleting a name the pimaster does not know fails with its not_found.
  void delete_vm(const std::string& instance, JsonCallback cb);

  // GET /metrics — the master's full MetricsRegistry snapshot (the
  // canonical {counters, gauges, histograms} shape, DESIGN.md §9).
  void get_metrics(JsonCallback cb) { get_json("/metrics", std::move(cb)); }

  proto::RestClient& client() { return client_; }

  // Pure rendering helper (unit-testable): builds the dashboard text from
  // the three API payloads.
  static std::string render(const util::Json& summary, const util::Json& nodes,
                            const util::Json& instances);

 private:
  // The one request path to the pimaster. `cb` gets the body of a 2xx
  // reply, or of one with `result_status`; any other reply is an error.
  void request(proto::Method method, const std::string& path, util::Json body,
               const proto::RetryPolicy& policy, JsonCallback cb,
               int result_status = 0);
  void get_json(const std::string& path, JsonCallback cb);
  // Stamps a fresh idempotency key onto a mutating request body so wire
  // retries of the same click stay at-most-once on the pimaster.
  util::Json stamp_idem(util::Json body, const std::string& op);

  net::Ipv4Addr master_;
  std::uint16_t master_port_;
  proto::RestClient client_;
  std::uint64_t idem_seq_ = 0;
};

}  // namespace picloud::cloud
