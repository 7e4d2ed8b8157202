#include "apps/mapreduce.h"

#include <cassert>


namespace picloud::apps {

using util::Json;

// ---------------------------------------------------------------------------
// Worker

void MapReduceWorkerApp::start(os::Container& container) {
  container_ = &container;
  container.listen(kMapReducePort,
                   [this](const net::Message& msg) { on_message(msg); });
}

void MapReduceWorkerApp::stop() {
  if (container_ == nullptr) return;
  container_->unlisten(kMapReducePort);
  container_ = nullptr;
}

util::Json MapReduceWorkerApp::status() const {
  Json j = Json::object();
  j.set("maps_done", static_cast<unsigned long long>(maps_done_));
  j.set("reduces_done", static_cast<unsigned long long>(reduces_done_));
  return j;
}

void MapReduceWorkerApp::on_message(const net::Message& msg) {
  if (container_ == nullptr) return;
  if (const auto* map = msg.body.get<MapTask>()) {
    handle_map(*map, msg.src, msg.src_port);
  } else if (const auto* partition = msg.body.get<MapPartition>()) {
    handle_partition(*partition);
  } else if (const auto* order = msg.body.get<ReduceOrder>()) {
    handle_reduce_order(*order, msg.src, msg.src_port);
  }
}

void MapReduceWorkerApp::handle_map(const MapTask& map, net::Ipv4Addr from,
                                    std::uint16_t from_port) {
  double cycles = map.bytes * map.cycles_per_byte;
  TaskDone done;
  done.job = map.job;
  done.id = map.id;
  done.task = map.task;
  done.op = MapReduceOp::kMapDone;

  container_->run_cpu(cycles, [this, bytes = map.bytes,
                               shuffle_frac = map.shuffle_fraction,
                               job = map.job, reducers = map.reducers, from,
                               from_port, done](bool completed) {
    if (!completed || container_ == nullptr) return;
    ++maps_done_;
    // Push one partition of the map output to every reducer. The bulk bytes
    // ride as padding — this is the shuffle crossing the fabric.
    if (!reducers.empty()) {
      double partition = bytes * shuffle_frac /
                         static_cast<double>(reducers.size());
      for (net::Ipv4Addr reducer : reducers) {
        MapPartition part;
        part.job = job;
        part.bytes = partition;
        container_->send(reducer, kMapReducePort, std::move(part),
                         kMapReducePort, partition);
      }
    }
    container_->send(from, from_port, done, kMapReducePort);
  });
}

void MapReduceWorkerApp::handle_partition(const MapPartition& partition) {
  ReduceState& state = reduce_jobs_[partition.job];
  state.received_bytes += partition.bytes;
  state.received_parts += 1;
  maybe_run_reduce(partition.job);
}

void MapReduceWorkerApp::handle_reduce_order(const ReduceOrder& order,
                                             net::Ipv4Addr from,
                                             std::uint16_t from_port) {
  ReduceState& state = reduce_jobs_[order.job];
  state.ordered = true;
  state.expect_bytes = order.expect_bytes;
  state.expect_parts = order.expect_parts;
  state.cycles_per_byte = order.cycles_per_byte;
  state.driver = from;
  state.driver_port = from_port;
  state.request_id = order.id;
  maybe_run_reduce(order.job);
}

void MapReduceWorkerApp::maybe_run_reduce(const std::string& job) {
  ReduceState& state = reduce_jobs_[job];
  if (!state.ordered || state.running) return;
  if (state.received_parts < state.expect_parts) return;
  state.running = true;
  double cycles = state.received_bytes * state.cycles_per_byte;
  net::Ipv4Addr driver = state.driver;
  std::uint16_t driver_port = state.driver_port;
  TaskDone done;
  done.job = job;
  done.id = state.request_id;
  done.op = MapReduceOp::kReduceDone;
  container_->run_cpu(cycles,
                      [this, job, driver, driver_port, done](bool completed) {
                        if (!completed || container_ == nullptr) return;
                        ++reduces_done_;
                        reduce_jobs_.erase(job);
                        container_->send(driver, driver_port, done,
                                         kMapReducePort);
                      });
}

// ---------------------------------------------------------------------------
// Driver

MapReduceDriver::MapReduceDriver(net::Network& network, net::Ipv4Addr self,
                                 std::uint16_t port)
    : network_(network),
      sim_(network.simulation()),
      self_(self),
      port_(port) {
  network_.listen(self_, port_,
                  [this](const net::Message& msg) { on_message(msg); });
}

MapReduceDriver::~MapReduceDriver() { network_.unlisten(self_, port_); }

void MapReduceDriver::send(net::Ipv4Addr to, net::Body body) {
  net::Message msg;
  msg.src = self_;
  msg.dst = to;
  msg.src_port = port_;
  msg.dst_port = kMapReducePort;
  msg.body = std::move(body);
  network_.send(std::move(msg));
}

void MapReduceDriver::run(MapReduceJobSpec spec, JobCallback cb,
                          sim::Duration timeout) {
  MapReduceJobResult bad;
  if (spec.workers.empty() || spec.reducers.empty() || spec.map_tasks <= 0) {
    bad.error = "job needs workers, reducers and map tasks";
    cb(bad);
    return;
  }
  if (jobs_.count(spec.job_id) > 0) {
    bad.error = "job id in use";
    cb(bad);
    return;
  }
  JobState& job = jobs_[spec.job_id];
  job.spec = spec;
  job.cb = std::move(cb);
  job.started = sim_.now();
  job.maps_pending = spec.map_tasks;
  job.reduces_pending = static_cast<int>(spec.reducers.size());
  job.timer.after(sim_, timeout, [this, id = spec.job_id]() {
    finish(id, false, "job timed out");
  });

  double split = spec.input_bytes / spec.map_tasks;
  for (int task = 0; task < spec.map_tasks; ++task) {
    net::Ipv4Addr worker = spec.workers[task % spec.workers.size()];
    MapTask map;
    map.job = spec.job_id;
    map.reducers = spec.reducers;
    map.bytes = split;
    map.cycles_per_byte = spec.map_cycles_per_byte;
    map.shuffle_fraction = spec.shuffle_fraction;
    map.id = static_cast<std::uint64_t>(task);
    map.task = task;
    send(worker, std::move(map));
  }
}

void MapReduceDriver::order_reduces(JobState& job) {
  job.reduces_ordered = true;
  const MapReduceJobSpec& spec = job.spec;
  double shuffle_total = spec.input_bytes * spec.shuffle_fraction;
  double per_reducer = shuffle_total / spec.reducers.size();
  for (size_t i = 0; i < spec.reducers.size(); ++i) {
    ReduceOrder reduce;
    reduce.job = spec.job_id;
    reduce.cycles_per_byte = spec.reduce_cycles_per_byte;
    reduce.expect_bytes = per_reducer;
    reduce.id = i;
    reduce.expect_parts = spec.map_tasks;
    send(spec.reducers[i], std::move(reduce));
  }
}

void MapReduceDriver::on_message(const net::Message& msg) {
  const auto* done = msg.body.get<TaskDone>();
  if (done == nullptr) return;
  auto it = jobs_.find(done->job);
  if (it == jobs_.end()) return;
  JobState& job = it->second;

  if (done->op == MapReduceOp::kMapDone) {
    if (job.maps_pending > 0) --job.maps_pending;
    if (job.maps_pending == 0 && !job.reduces_ordered) order_reduces(job);
    return;
  }
  if (done->op == MapReduceOp::kReduceDone) {
    if (job.reduces_pending > 0) --job.reduces_pending;
    if (job.reduces_pending == 0) finish(done->job, true, "");
  }
}

void MapReduceDriver::finish(const std::string& job_id, bool success,
                             const std::string& error) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  const JobState& job = it->second;
  MapReduceJobResult result;
  result.success = success;
  result.error = error;
  result.duration = sim_.now() - job.started;
  result.shuffle_bytes = job.spec.input_bytes * job.spec.shuffle_fraction;
  result.map_tasks = job.spec.map_tasks;
  result.reduce_tasks = static_cast<int>(job.spec.reducers.size());
  JobCallback cb = std::move(it->second.cb);
  jobs_.erase(it);  // cancels the timeout
  if (cb) cb(result);
}

}  // namespace picloud::apps
