#include "os/container.h"

#include "os/node_os.h"
#include "util/check.h"
#include "util/logging.h"

namespace picloud::os {

const char* container_state_name(ContainerState state) {
  switch (state) {
    case ContainerState::kStopped: return "stopped";
    case ContainerState::kRunning: return "running";
    case ContainerState::kFrozen: return "frozen";
    case ContainerState::kDestroyed: return "destroyed";
  }
  return "?";
}

Container::Container(NodeOs& node, ContainerConfig config)
    : node_(node), config_(std::move(config)) {}

Container::~Container() {
  if (state_ != ContainerState::kDestroyed) destroy();
}

util::Status Container::start(net::Ipv4Addr ip) {
  if (state_ == ContainerState::kDestroyed) {
    return util::Error::make("state", "container is destroyed");
  }
  if (state_ != ContainerState::kStopped) {
    return util::Error::make("state", "container already started");
  }
  // Memory cgroup first: the idle footprint must fit or lxc-start fails.
  mem_group_ = node_.memory().create_group(config_.memory_limit);
  mem_group_valid_ = true;
  util::Status charged = node_.memory().charge(mem_group_, idle_ram_bytes());
  if (!charged.ok()) {
    node_.memory().destroy_group(mem_group_);
    mem_group_valid_ = false;
    return charged;
  }
  cpu_group_ = node_.cpu().create_group(config_.cpu_shares, config_.cpu_limit);
  ip_ = ip;
  if (!ip_.is_any()) {
    // Bridged networking: the container's IP answers on the host NIC.
    node_.network().bind_ip(ip_, node_.fabric_node());
  }
  state_ = ContainerState::kRunning;
  LOG_INFO("lxc", "%s: started %s (ip %s)", node_.hostname().c_str(),
           config_.name.c_str(), ip_.to_string().c_str());
  if (app_) app_->start(*this);
  return util::Status::success();
}

util::Status Container::freeze() {
  if (state_ != ContainerState::kRunning) {
    return util::Error::make("state", "container not running");
  }
  node_.cpu().freeze_group(cpu_group_, true);
  state_ = ContainerState::kFrozen;
  return util::Status::success();
}

util::Status Container::thaw() {
  if (state_ != ContainerState::kFrozen) {
    return util::Error::make("state", "container not frozen");
  }
  node_.cpu().freeze_group(cpu_group_, false);
  state_ = ContainerState::kRunning;
  return util::Status::success();
}

util::Status Container::stop() {
  if (state_ != ContainerState::kRunning && state_ != ContainerState::kFrozen) {
    return util::Error::make("state", "container not running");
  }
  if (app_) app_->stop();
  for (std::uint16_t port : listened_ports_) {
    node_.network().unlisten(ip_, port);
  }
  listened_ports_.clear();
  if (!ip_.is_any()) node_.network().unbind_ip(ip_);
  node_.cpu().destroy_group(cpu_group_);
  cpu_group_ = kInvalidCgroup;
  node_.memory().destroy_group(mem_group_);
  mem_group_valid_ = false;
  state_ = ContainerState::kStopped;
  LOG_INFO("lxc", "%s: stopped %s", node_.hostname().c_str(),
           config_.name.c_str());
  return util::Status::success();
}

void Container::destroy() {
  if (state_ == ContainerState::kRunning || state_ == ContainerState::kFrozen) {
    (void)stop();
  }
  state_ = ContainerState::kDestroyed;
}

CpuTaskId Container::run_cpu(double cycles, std::function<void(bool)> on_done) {
  if (state_ != ContainerState::kRunning && state_ != ContainerState::kFrozen) {
    // Not schedulable: report failure asynchronously to keep callers simple.
    node_.simulation().after(sim::Duration::zero(),
                             [cb = std::move(on_done)]() {
                               if (cb) cb(false);
                             });
    return 0;
  }
  return node_.cpu().run(cpu_group_, cycles, std::move(on_done));
}

void Container::cancel_cpu(CpuTaskId task) {
  if (task != 0) node_.cpu().cancel(task);
}

util::Status Container::alloc_memory(std::uint64_t bytes) {
  if (!mem_group_valid_) {
    return util::Error::make("state", "container not running");
  }
  return node_.memory().charge(mem_group_, bytes);
}

void Container::free_memory(std::uint64_t bytes) {
  if (mem_group_valid_) node_.memory().uncharge(mem_group_, bytes);
}

bool Container::send(net::Ipv4Addr dst, std::uint16_t dst_port,
                     net::Body body, std::uint16_t src_port,
                     double padding_bytes) {
  if (state_ != ContainerState::kRunning) return false;
  net::Message msg;
  msg.src = ip_;
  msg.dst = dst;
  msg.src_port = src_port;
  msg.dst_port = dst_port;
  msg.body = std::move(body);
  msg.padding_bytes = padding_bytes;
  return node_.network().send(std::move(msg));
}

void Container::listen(std::uint16_t port, net::Network::Handler handler) {
  PICLOUD_CHECK(!ip_.is_any()) << "listen() before the container has an IP";
  node_.network().listen(ip_, port, std::move(handler));
  listened_ports_.push_back(port);
}

void Container::unlisten(std::uint16_t port) {
  node_.network().unlisten(ip_, port);
  std::erase(listened_ports_, port);
}

void Container::set_cpu_limit(double fraction) {
  config_.cpu_limit = fraction;
  if (cpu_group_ != kInvalidCgroup) node_.cpu().set_limit(cpu_group_, fraction);
}

void Container::set_cpu_shares(double shares) {
  config_.cpu_shares = shares;
  if (cpu_group_ != kInvalidCgroup) node_.cpu().set_shares(cpu_group_, shares);
}

void Container::set_memory_limit(std::uint64_t bytes) {
  config_.memory_limit = bytes;
  if (mem_group_valid_) node_.memory().set_limit(mem_group_, bytes);
}

std::uint64_t Container::memory_usage() const {
  return mem_group_valid_ ? node_.memory().group_usage(mem_group_) : 0;
}

double Container::cpu_rate() const {
  return cpu_group_ != kInvalidCgroup ? node_.cpu().group_rate(cpu_group_) : 0;
}

double Container::cpu_cycles_used() {
  return cpu_group_ != kInvalidCgroup ? node_.cpu().group_cycles_used(cpu_group_)
                                      : 0;
}

void Container::set_app(std::unique_ptr<ContainerApp> app) {
  app_ = std::move(app);
  if (state_ == ContainerState::kRunning && app_) app_->start(*this);
}

std::unique_ptr<ContainerApp> Container::detach_app() {
  return std::move(app_);
}

util::Json Container::describe() {
  util::Json j = util::Json::object();
  j.set("name", config_.name);
  j.set("image", config_.image_id);
  j.set("state", container_state_name(state_));
  j.set("ip", ip_.to_string());
  j.set("memory_bytes", static_cast<unsigned long long>(memory_usage()));
  j.set("memory_limit", static_cast<unsigned long long>(config_.memory_limit));
  j.set("cpu_shares", config_.cpu_shares);
  j.set("cpu_limit", config_.cpu_limit);
  j.set("cpu_rate_hz", cpu_rate());
  if (app_) {
    j.set("app", app_->kind());
    j.set("app_status", app_->status());
  }
  return j;
}

}  // namespace picloud::os
