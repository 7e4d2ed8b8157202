#include "cloud/control_panel.h"

#include <memory>

#include "util/strings.h"

namespace picloud::cloud {

using proto::HttpResponse;
using proto::Method;
using util::Json;

ControlPanel::ControlPanel(net::Network& network, net::Ipv4Addr self,
                           net::Ipv4Addr master, std::uint16_t master_port)
    : master_(master),
      master_port_(master_port),
      client_(network, self, /*ephemeral_port=*/50080) {}

void ControlPanel::request(Method method, const std::string& path, Json body,
                           const proto::RetryPolicy& policy, JsonCallback cb,
                           int result_status) {
  client_.call(master_, master_port_, method, path, std::move(body),
               [cb = std::move(cb), result_status](
                   util::Result<HttpResponse> result) {
                 if (!result.ok()) {
                   cb(result.error());
                   return;
                 }
                 HttpResponse& reply = result.value();
                 if (!reply.ok() && reply.status != result_status) {
                   cb(util::Error::make(reply.body.get_string("error", "error"),
                                        reply.body.get_string("message", "")));
                   return;
                 }
                 cb(std::move(reply.body));
               },
               policy);
}

void ControlPanel::get_json(const std::string& path, JsonCallback cb) {
  // Reads are idempotent: a browser retries a stalled page fetch.
  request(Method::kGet, path, Json(), proto::RetryPolicy::standard(2),
          std::move(cb));
}

util::Json ControlPanel::stamp_idem(Json body, const std::string& op) {
  if (body.get_string("idem").empty()) {
    body.set("idem", util::format("panel/%s/%llu", op.c_str(),
                                  static_cast<unsigned long long>(++idem_seq_)));
  }
  return body;
}

void ControlPanel::render_dashboard(
    std::function<void(util::Result<std::string>)> cb) {
  // Three sequential fetches, like a browser populating the page.
  auto state = std::make_shared<std::array<Json, 3>>();
  get_json("/cluster/summary", [this, state, cb](util::Result<Json> summary) {
    if (!summary.ok()) {
      cb(summary.error());
      return;
    }
    (*state)[0] = std::move(summary).value();
    get_json("/nodes", [this, state, cb](util::Result<Json> nodes) {
      if (!nodes.ok()) {
        cb(nodes.error());
        return;
      }
      (*state)[1] = std::move(nodes).value();
      get_json("/instances", [state, cb](util::Result<Json> instances) {
        if (!instances.ok()) {
          cb(instances.error());
          return;
        }
        (*state)[2] = std::move(instances).value();
        cb(render((*state)[0], (*state)[1], (*state)[2]));
      });
    });
  });
}

std::string ControlPanel::render(const Json& summary, const Json& nodes,
                                 const Json& instances) {
  std::string out;
  out += "+====================== PiCloud Control Panel ======================+\n";
  out += util::format(
      "| nodes %2d/%-2d up | containers %3d | avg cpu %5.1f%% | power %7.1f W |\n",
      static_cast<int>(summary.get_number("nodes_alive")),
      static_cast<int>(summary.get_number("nodes_total")),
      static_cast<int>(summary.get_number("containers_running")),
      summary.get_number("avg_cpu") * 100.0, summary.get_number("watts"));
  out += util::format(
      "| memory %s / %s%s|\n",
      util::human_bytes(summary.get_number("mem_used")).c_str(),
      util::human_bytes(summary.get_number("mem_capacity")).c_str(),
      std::string(38, ' ').c_str());
  out += "+--------------------------------------------------------------------+\n";
  out += "| node          rack ip              cpu%  mem         ct  W   state |\n";
  for (const Json& node : nodes.as_array()) {
    // Node rows are the canonical metrics snapshot ({counters, gauges})
    // plus top-level identity keys the master stamps on.
    const Json& g = node.get("gauges");
    out += util::format(
        "| %s %2d   %s %5.1f %s %2d %5.1f %s |\n",
        util::pad(node.get_string("hostname"), 13).c_str(),
        static_cast<int>(node.get_number("rack")),
        util::pad(node.get_string("ip"), 15).c_str(),
        g.get_number("cpu_utilization") * 100.0,
        util::pad(util::human_bytes(g.get_number("mem_used")), 11).c_str(),
        static_cast<int>(g.get_number("containers_total")),
        g.get_number("power_watts"),
        node.get_bool("alive") ? "up  " : "DOWN");
  }
  out += "+--------------------------------------------------------------------+\n";
  out += "| instance            node          ip              app       state  |\n";
  for (const Json& inst : instances.as_array()) {
    out += util::format(
        "| %s %s %s %s %s |\n", util::pad(inst.get_string("name"), 19).c_str(),
        util::pad(inst.get_string("node"), 13).c_str(),
        util::pad(inst.get_string("ip"), 15).c_str(),
        util::pad(inst.get_string("app", "-"), 9).c_str(),
        util::pad(inst.get_string("state"), 6).c_str());
  }
  out += "+====================================================================+\n";
  return out;
}

void ControlPanel::monitor_cpu(std::vector<std::string> hostnames,
                               CpuCallback cb) {
  get_json("/nodes", [hostnames = std::move(hostnames),
                      cb = std::move(cb)](util::Result<Json> nodes) {
    if (!nodes.ok()) {
      cb(nodes.error());
      return;
    }
    std::map<std::string, double> loads;
    for (const Json& node : nodes.value().as_array()) {
      std::string hostname = node.get_string("hostname");
      if (!hostnames.empty() &&
          std::find(hostnames.begin(), hostnames.end(), hostname) ==
              hostnames.end()) {
        continue;
      }
      loads[hostname] = node.get("gauges").get_number("cpu_utilization");
    }
    cb(std::move(loads));
  });
}

void ControlPanel::spawn_vm(Json spec, JsonCallback cb) {
  // Spawns can pull image layers over 100 Mb links; give each attempt
  // headroom. The idem key makes the retry safe (no double-spawn).
  request(Method::kPost, "/instances", stamp_idem(std::move(spec), "spawn"),
          proto::RetryPolicy::standard(2, sim::Duration::seconds(300)),
          std::move(cb));
}

void ControlPanel::set_vm_limits(const std::string& instance, Json limits,
                                 JsonCallback cb) {
  request(Method::kPut, "/instances/" + instance + "/limits",
          std::move(limits), proto::RetryPolicy::standard(3), std::move(cb));
}

void ControlPanel::migrate_vm(const std::string& instance,
                              const std::string& to, bool live,
                              JsonCallback cb) {
  Json body = Json::object();
  if (!to.empty()) body.set("to", to);
  body.set("live", live);
  // A refused migration answers 409 with the failed report: a result.
  request(Method::kPost, "/instances/" + instance + "/migrate",
          stamp_idem(std::move(body), "migrate/" + instance),
          proto::RetryPolicy::standard(2, sim::Duration::seconds(120)),
          std::move(cb), /*result_status=*/409);
}

void ControlPanel::delete_vm(const std::string& instance, JsonCallback cb) {
  request(Method::kDelete, "/instances/" + instance,
          stamp_idem(Json::object(), "delete/" + instance),
          proto::RetryPolicy::standard(3), std::move(cb));
}

}  // namespace picloud::cloud
