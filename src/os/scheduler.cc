#include "os/scheduler.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace picloud::os {

namespace {
constexpr double kDrainEpsilonCycles = 1e-6;
}

CpuScheduler::CpuScheduler(sim::Simulation& sim, double cycles_per_sec)
    : sim_(sim), capacity_(cycles_per_sec) {
  PICLOUD_CHECK_GT(capacity_, 0) << "CpuScheduler capacity";
  util::MetricsRegistry& m = sim_.metrics();
  tasks_started_ = &m.counter("os.sched.tasks_started");
  tasks_completed_ = &m.counter("os.sched.tasks_completed");
  tasks_cancelled_ = &m.counter("os.sched.tasks_cancelled");
  reallocations_ = &m.counter("os.sched.reallocations");
}

CgroupId CpuScheduler::create_group(double shares, double limit_fraction) {
  PICLOUD_CHECK_GT(shares, 0) << "cgroup shares";
  CgroupId id = next_group_++;
  Group g;
  g.shares = shares;
  g.limit_fraction = std::clamp(limit_fraction, 0.0, 1.0);
  groups_[id] = g;
  return id;
}

void CpuScheduler::set_shares(CgroupId group, double shares) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  it->second.shares = std::max(shares, 1.0);
  reallocate();
}

void CpuScheduler::set_limit(CgroupId group, double limit_fraction) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  it->second.limit_fraction = std::clamp(limit_fraction, 0.0, 1.0);
  reallocate();
}

void CpuScheduler::freeze_group(CgroupId group, bool frozen) {
  auto it = groups_.find(group);
  if (it == groups_.end() || it->second.frozen == frozen) return;
  it->second.frozen = frozen;
  reallocate();
}

void CpuScheduler::destroy_group(CgroupId group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  // Fail the group's tasks. Collect ids first: finish_task mutates tasks_.
  std::vector<CpuTaskId> doomed;
  for (const auto& [tid, task] : tasks_) {
    if (task.group == group) doomed.push_back(tid);
  }
  for (CpuTaskId tid : doomed) finish_task(tid, /*completed=*/false);
  groups_.erase(group);
  reallocate();
}

CpuTaskId CpuScheduler::run(CgroupId group, double cycles,
                            TaskCallback on_done) {
  PICLOUD_CHECK_GT(groups_.count(group), 0u) << "run() on unknown cgroup " << group;
  PICLOUD_CHECK_GE(cycles, 0) << "run() with negative cycles";
  CpuTaskId id = next_task_++;
  Task task;
  task.id = id;
  task.group = group;
  task.remaining_cycles = std::max(cycles, kDrainEpsilonCycles);
  task.last_update = sim_.now();
  task.on_done = std::move(on_done);
  tasks_.emplace(id, std::move(task));
  ++groups_[group].task_count;
  tasks_started_->inc();
  reallocate();
  return id;
}

void CpuScheduler::cancel(CpuTaskId task) {
  if (tasks_.count(task) == 0) return;
  finish_task(task, /*completed=*/false);
}

// Runs over every task on each scheduling change — keep allocation-free.
// picloud-hot
void CpuScheduler::settle_all() {
  for (auto& [id, task] : tasks_) {
    sim::Duration elapsed = sim_.now() - task.last_update;
    if (elapsed > sim::Duration::zero() && task.rate > 0) {
      double done = task.rate * elapsed.to_seconds();
      done = std::min(done, task.remaining_cycles);
      task.remaining_cycles -= done;
      groups_[task.group].cycles_used += done;
    }
    task.last_update = sim_.now();
  }
}

// Runs on every task start and finish; builds no container.
// picloud-hot
void CpuScheduler::reallocate() {
  reallocations_->inc();
  settle_all();

  // Phase 1: group rates — weighted fair share with per-group caps
  // (water-filling: capped groups bind first, the rest re-share).
  for (auto& [gid, g] : groups_) {
    g.rate = 0;
    g.decided = false;
  }

  double remaining_capacity = capacity_;
  while (true) {
    double total_shares = 0;
    for (auto& [gid, g] : groups_) {
      if (g.decided || g.frozen || g.task_count == 0) continue;
      total_shares += g.shares;
    }
    if (total_shares <= 0) break;
    bool capped_someone = false;
    // First pass: bind groups whose cap is below their fair share.
    for (auto& [gid, g] : groups_) {
      if (g.decided || g.frozen || g.task_count == 0) continue;
      double fair = remaining_capacity * g.shares / total_shares;
      double cap = g.limit_fraction > 0 ? g.limit_fraction * capacity_
                                        : capacity_;
      if (cap < fair) {
        g.rate = cap;
        g.decided = true;
        remaining_capacity -= cap;
        capped_someone = true;
      }
    }
    if (capped_someone) continue;
    // No caps bind: everyone gets the fair share.
    for (auto& [gid, g] : groups_) {
      if (g.decided || g.frozen || g.task_count == 0) continue;
      g.rate = remaining_capacity * g.shares / total_shares;
      g.decided = true;
    }
    break;
  }

  // Phase 2: split each group's rate equally across its runnable tasks and
  // reschedule completions.
  for (auto& [tid, task] : tasks_) {
    const Group& g = groups_[task.group];
    double task_rate =
        (g.frozen || g.task_count == 0)
            ? 0.0
            : g.rate / static_cast<double>(g.task_count);
    task.rate = task_rate;
    // Unchanged rate -> unchanged finish time: keep the existing event
    // (bounds event churn under heavy request turnover).
    if (task_rate == task.scheduled_rate && task.completion.armed()) {
      continue;
    }
    task.completion.cancel();
    task.scheduled_rate = task_rate;
    if (task_rate > 0) {
      double seconds = task.remaining_cycles / task_rate;
      CpuTaskId id = tid;
      task.completion.after(
          sim_, sim::Duration::seconds(seconds),
          [this, id]() { finish_task(id, /*completed=*/true); });
    }
  }

  // Phase 3: utilisation gauge + power hook.
  double util = utilization();
  util_signal_.set(sim_.now().to_seconds(), util);
  if (utilization_listener_) utilization_listener_(util);
}

void CpuScheduler::finish_task(CpuTaskId id, bool completed) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  Task& task = it->second;
  // Settle the finishing task exactly.
  sim::Duration elapsed = sim_.now() - task.last_update;
  if (elapsed > sim::Duration::zero() && task.rate > 0) {
    double done = std::min(task.rate * elapsed.to_seconds(),
                           task.remaining_cycles);
    task.remaining_cycles -= done;
    groups_[task.group].cycles_used += done;
  }
  TaskCallback cb = std::move(task.on_done);
  auto group_it = groups_.find(task.group);
  if (group_it != groups_.end() && group_it->second.task_count > 0) {
    --group_it->second.task_count;
  }
  tasks_.erase(it);  // cancels its completion event
  if (completed) {
    tasks_completed_->inc();
  } else {
    tasks_cancelled_->inc();
  }
  reallocate();
  if (cb) cb(completed);
}

double CpuScheduler::utilization() const {
  double allocated = 0;
  for (const auto& [gid, g] : groups_) allocated += g.rate;
  return capacity_ > 0 ? std::min(allocated / capacity_, 1.0) : 0.0;
}

double CpuScheduler::group_rate(CgroupId group) const {
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second.rate : 0.0;
}

double CpuScheduler::group_cycles_used(CgroupId group) {
  settle_all();
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second.cycles_used : 0.0;
}

size_t CpuScheduler::runnable_tasks() const {
  size_t n = 0;
  for (const auto& [tid, task] : tasks_) {
    if (!groups_.at(task.group).frozen) ++n;
  }
  return n;
}

}  // namespace picloud::os
