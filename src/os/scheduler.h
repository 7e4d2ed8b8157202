// Proportional-share CPU scheduler with cgroup semantics.
//
// Models the Linux kernel CFS + cgroup cpu controller the paper's containers
// rely on ("the Linux Container, which is supported by the Linux kernel's
// CGROUPS functionality", §II-B). Each cgroup has cpu.shares (relative
// weight) and an optional utilisation cap — the "(soft) per-VM resource
// utilisation limits" the management API sets (§II-C).
//
// Tasks request a cycle budget and complete when it has been served at the
// group's fair rate; rates are recomputed whenever the runnable set changes
// (same progressive-allocation approach as the network fabric).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "sim/simulation.h"
#include "util/stats.h"

namespace picloud::os {

using CgroupId = std::uint32_t;
using CpuTaskId = std::uint64_t;
inline constexpr CgroupId kInvalidCgroup = ~0u;

class CpuScheduler {
 public:
  CpuScheduler(sim::Simulation& sim, double cycles_per_sec);

  double capacity() const { return capacity_; }

  // --- Cgroups ---------------------------------------------------------------
  // `shares` is the relative weight (Linux default 1024); `limit_fraction`
  // in (0, 1] caps the group at that share of node CPU (0 = uncapped).
  CgroupId create_group(double shares = 1024, double limit_fraction = 0);
  void set_shares(CgroupId group, double shares);
  void set_limit(CgroupId group, double limit_fraction);
  // Freezes/thaws every task in the group (lxc-freeze; also used while a
  // container is stop-copied during migration).
  void freeze_group(CgroupId group, bool frozen);
  // Destroys the group; pending tasks complete with success=false.
  void destroy_group(CgroupId group);
  bool group_exists(CgroupId group) const { return groups_.count(group) > 0; }

  // --- Tasks -------------------------------------------------------------------
  // Runs `cycles` of work in `group`; on_done(true) on completion,
  // on_done(false) if cancelled or the group is destroyed.
  using TaskCallback = std::function<void(bool completed)>;
  CpuTaskId run(CgroupId group, double cycles, TaskCallback on_done);
  void cancel(CpuTaskId task);

  // --- Introspection -------------------------------------------------------------
  // Instantaneous allocation / capacity, in [0, 1].
  double utilization() const;
  // Current service rate of a group (cycles/sec).
  double group_rate(CgroupId group) const;
  // Total cycles a group has consumed (settled to now).
  double group_cycles_used(CgroupId group);
  size_t runnable_tasks() const;
  size_t group_count() const { return groups_.size(); }
  // Time-average utilisation since construction.
  double average_utilization(sim::SimTime now) const {
    return util_signal_.average(now.to_seconds());
  }

  // Invoked after every reallocation with the new utilisation — NodeOs wires
  // this to the device power meter.
  void set_utilization_listener(std::function<void(double)> listener) {
    utilization_listener_ = std::move(listener);
  }

 private:
  struct Task {
    CpuTaskId id = 0;
    CgroupId group = kInvalidCgroup;
    double remaining_cycles = 0;
    double rate = 0;  // cycles/sec currently granted
    // Rate the live completion event was computed with (reschedule guard).
    double scheduled_rate = -1;
    sim::SimTime last_update;
    sim::Timer completion;
    TaskCallback on_done;
  };

  struct Group {
    double shares = 1024;
    double limit_fraction = 0;
    bool frozen = false;
    bool decided = false;       // reallocate(): rate fixed this round
    // The group's entries in tasks_: run() and finish_task() keep it equal.
    int task_count = 0;
    double rate = 0;            // cycles/sec granted to the group
    double cycles_used = 0;     // settled consumption
  };

  void settle_all();
  void reallocate();
  void finish_task(CpuTaskId id, bool completed);

  sim::Simulation& sim_;
  double capacity_;
  std::map<CgroupId, Group> groups_;
  std::map<CpuTaskId, Task> tasks_;
  CgroupId next_group_ = 1;
  CpuTaskId next_task_ = 1;
  util::TimeWeighted util_signal_;
  std::function<void(double)> utilization_listener_;
  // Cluster-aggregated registry counters: every node's scheduler shares the
  // `os.sched.*` series (never null).
  util::Counter* tasks_started_ = nullptr;
  util::Counter* tasks_completed_ = nullptr;
  util::Counter* tasks_cancelled_ = nullptr;
  util::Counter* reallocations_ = nullptr;
};

}  // namespace picloud::os
