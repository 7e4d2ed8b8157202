// Linux-container (LXC) model.
//
// Paper §II-B: "we use a lightweight operating system-level virtualisation
// method ... Linux containers do not provide a full virtual machine, but
// rather a virtual environment that has its own process and network space".
// A Container owns a cpu cgroup, a memory cgroup and a bridged network
// identity on its host Pi. Its workload is a ContainerApp (webserver,
// database, Hadoop worker — the Fig. 3 stack) that runs *through* the
// container's resource API, so contention is enforced by the host scheduler.
//
// Lifecycle (lxc-start / lxc-freeze / lxc-stop):
//   Stopped -> start() -> Running <-> freeze()/thaw() -> stop() -> Stopped
//   destroy() from any state -> Destroyed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/addr.h"
#include "net/network.h"
#include "os/memory.h"
#include "os/scheduler.h"
#include "util/json.h"
#include "util/result.h"

namespace picloud::os {

class NodeOs;
class Container;

// A workload that runs inside a container. Implementations live in
// src/apps/. start() may be called more than once (after stop()), which is
// how live migration moves an app between hosts while preserving its state.
class ContainerApp {
 public:
  virtual ~ContainerApp() = default;
  virtual std::string kind() const = 0;
  // Begin serving inside `container`: register listeners, kick off work.
  virtual void start(Container& container) = 0;
  // Quiesce: deregister listeners, drop in-flight work. State must survive.
  virtual void stop() {}
  // App-specific status for the management API (/containers/<n> endpoint).
  virtual util::Json status() const { return util::Json::object(); }
  // Rate at which the app dirties memory while running — drives the
  // iterative pre-copy rounds of live migration.
  virtual double dirty_bytes_per_sec() const { return 64.0 * 1024; }
};

struct ContainerConfig {
  std::string name;
  std::string image_id;          // layer id the rootfs was spawned from
  double cpu_shares = 1024;      // cgroup cpu.shares
  double cpu_limit = 0;          // fraction of node CPU, 0 = uncapped
  std::uint64_t memory_limit = 0;  // cgroup bytes, 0 = no per-container cap
  // Paper §III "removal of virtualisation ... renting out physical nodes
  // rather than virtual ones": a bare-metal tenancy skips the container
  // runtime — no 30 MB idle footprint (only a token supervisor stub), and
  // the workload owns the node's resources directly.
  bool bare_metal = false;
};

enum class ContainerState { kStopped, kRunning, kFrozen, kDestroyed };

const char* container_state_name(ContainerState state);

class Container {
 public:
  // Idle footprint of a running container: "we can run three containers on
  // a single Pi, each consuming 30MB RAM when idle" (§II-B).
  static constexpr std::uint64_t kIdleRamBytes = 30ull << 20;
  // Footprint of a bare-metal tenancy's supervisor stub (§III).
  static constexpr std::uint64_t kBareMetalRamBytes = 2ull << 20;

  // RAM this configuration pins at start.
  std::uint64_t idle_ram_bytes() const {
    return config_.bare_metal ? kBareMetalRamBytes : kIdleRamBytes;
  }

  Container(NodeOs& node, ContainerConfig config);
  ~Container();

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  // --- Lifecycle --------------------------------------------------------------
  // Starts the container with the given bridged IP: charges the idle RAM,
  // creates cgroups, binds the IP to the host NIC, starts the app (if set).
  util::Status start(net::Ipv4Addr ip);
  util::Status freeze();
  util::Status thaw();
  util::Status stop();

  // --- Identity ----------------------------------------------------------------
  const std::string& name() const { return config_.name; }
  const ContainerConfig& config() const { return config_; }
  ContainerState state() const { return state_; }
  net::Ipv4Addr ip() const { return ip_; }
  NodeOs& node() { return node_; }

  // --- Resource API (used by apps) ---------------------------------------------
  // Runs CPU work under this container's cgroup.
  CpuTaskId run_cpu(double cycles, std::function<void(bool)> on_done);
  void cancel_cpu(CpuTaskId task);
  // App heap beyond the idle footprint. Fails on cgroup limit or node OOM.
  util::Status alloc_memory(std::uint64_t bytes);
  void free_memory(std::uint64_t bytes);

  // Datagram API, bridged through the host NIC. `padding_bytes` models bulk
  // body size charged on the wire without materialising the bytes.
  bool send(net::Ipv4Addr dst, std::uint16_t dst_port, util::Json payload,
            std::uint16_t src_port = 0, double padding_bytes = 0);
  void listen(std::uint16_t port, net::Network::Handler handler);
  void unlisten(std::uint16_t port);

  // --- Limits (management plane) -------------------------------------------------
  void set_cpu_limit(double fraction);
  void set_cpu_shares(double shares);
  void set_memory_limit(std::uint64_t bytes);

  // --- Introspection ---------------------------------------------------------------
  std::uint64_t memory_usage() const;
  // Instantaneous CPU rate granted to this container (cycles/sec).
  double cpu_rate() const;
  double cpu_cycles_used();

  void set_app(std::unique_ptr<ContainerApp> app);
  ContainerApp* app() { return app_.get(); }
  const ContainerApp* app() const { return app_.get(); }
  // Removes the app without stopping it — used by migration to move it.
  std::unique_ptr<ContainerApp> detach_app();

  util::Json describe();

 private:
  friend class NodeOs;
  void destroy();  // NodeOs tears the container down

  NodeOs& node_;
  ContainerConfig config_;
  ContainerState state_ = ContainerState::kStopped;
  net::Ipv4Addr ip_;
  CgroupId cpu_group_ = kInvalidCgroup;
  MemGroupId mem_group_ = 0;
  bool mem_group_valid_ = false;
  std::vector<std::uint16_t> listened_ports_;
  std::unique_ptr<ContainerApp> app_;
};

}  // namespace picloud::os
