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
  const Json& request = msg.body.json();
  std::string op = request.get_string("op");
  if (op == "map") {
    handle_map(request, msg.src, msg.src_port);
  } else if (op == "partition") {
    handle_partition(request, msg.padding_bytes);
  } else if (op == "reduce") {
    handle_reduce_order(request, msg.src, msg.src_port);
  }
}

void MapReduceWorkerApp::handle_map(const Json& request, net::Ipv4Addr from,
                                    std::uint16_t from_port) {
  double bytes = request.get_number("bytes");
  double cycles = bytes * request.get_number("cpb", 1.0);
  std::string job = request.get_string("job");
  double shuffle_frac = request.get_number("shuffle_frac", 0.4);
  // Copy the reducer list out of the request, skipping entries that are
  // not address strings.
  std::vector<net::Ipv4Addr> reducers;
  for (const Json& r : request.get("reducers").as_array()) {
    if (!r.is_string()) continue;
    auto ip = net::Ipv4Addr::parse(r.as_string());
    if (ip) reducers.push_back(*ip);
  }
  Json done = Json::object();
  done.set("op", "map_done");
  done.set("job", job);
  done.set("task", request.get_number("task"));
  done.set("id", request.get_number("id"));

  container_->run_cpu(cycles, [this, bytes, shuffle_frac, job, reducers, from,
                               from_port, done](bool completed) {
    if (!completed || container_ == nullptr) return;
    ++maps_done_;
    // Push one partition of the map output to every reducer. The bulk bytes
    // ride as padding — this is the shuffle crossing the fabric.
    if (!reducers.empty()) {
      double partition = bytes * shuffle_frac /
                         static_cast<double>(reducers.size());
      for (net::Ipv4Addr reducer : reducers) {
        Json part = Json::object();
        part.set("op", "partition");
        part.set("job", job);
        part.set("bytes", partition);
        container_->send(reducer, kMapReducePort, std::move(part),
                         kMapReducePort, partition);
      }
    }
    container_->send(from, from_port, done, kMapReducePort);
  });
}

void MapReduceWorkerApp::handle_partition(const Json& request,
                                          double /*padding*/) {
  std::string job = request.get_string("job");
  ReduceState& state = reduce_jobs_[job];
  state.received_bytes += request.get_number("bytes");
  state.received_parts += 1;
  maybe_run_reduce(job);
}

void MapReduceWorkerApp::handle_reduce_order(const Json& request,
                                             net::Ipv4Addr from,
                                             std::uint16_t from_port) {
  std::string job = request.get_string("job");
  ReduceState& state = reduce_jobs_[job];
  state.ordered = true;
  state.expect_bytes = request.get_number("expect_bytes");
  state.expect_parts = static_cast<int>(request.get_number("expect_parts"));
  state.cycles_per_byte = request.get_number("cpb", 0.5);
  state.driver = from;
  state.driver_port = from_port;
  state.request_id = request.get_number("id");
  maybe_run_reduce(job);
}

void MapReduceWorkerApp::maybe_run_reduce(const std::string& job) {
  ReduceState& state = reduce_jobs_[job];
  if (!state.ordered || state.running) return;
  if (state.received_parts < state.expect_parts) return;
  state.running = true;
  double cycles = state.received_bytes * state.cycles_per_byte;
  net::Ipv4Addr driver = state.driver;
  std::uint16_t driver_port = state.driver_port;
  Json done = Json::object();
  done.set("op", "reduce_done");
  done.set("job", job);
  done.set("id", state.request_id);
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

void MapReduceDriver::send(net::Ipv4Addr to, Json body) {
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
    Json map = Json::object();
    map.set("op", "map");
    map.set("job", spec.job_id);
    map.set("task", task);
    map.set("bytes", split);
    map.set("cpb", spec.map_cycles_per_byte);
    map.set("shuffle_frac", spec.shuffle_fraction);
    map.set("id", task);
    Json reducers = Json::array();
    for (net::Ipv4Addr r : spec.reducers) reducers.push_back(r.to_string());
    map.set("reducers", std::move(reducers));
    send(worker, std::move(map));
  }
}

void MapReduceDriver::order_reduces(JobState& job) {
  job.reduces_ordered = true;
  const MapReduceJobSpec& spec = job.spec;
  double shuffle_total = spec.input_bytes * spec.shuffle_fraction;
  double per_reducer = shuffle_total / spec.reducers.size();
  for (size_t i = 0; i < spec.reducers.size(); ++i) {
    Json reduce = Json::object();
    reduce.set("op", "reduce");
    reduce.set("job", spec.job_id);
    reduce.set("expect_bytes", per_reducer);
    reduce.set("expect_parts", spec.map_tasks);
    reduce.set("cpb", spec.reduce_cycles_per_byte);
    reduce.set("id", static_cast<double>(i));
    send(spec.reducers[i], std::move(reduce));
  }
}

void MapReduceDriver::on_message(const net::Message& msg) {
  const Json& body = msg.body.json();
  std::string job_id = body.get_string("job");
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  JobState& job = it->second;

  std::string op = body.get_string("op");
  if (op == "map_done") {
    if (job.maps_pending > 0) --job.maps_pending;
    if (job.maps_pending == 0 && !job.reduces_ordered) order_reduces(job);
    return;
  }
  if (op == "reduce_done") {
    if (job.reduces_pending > 0) --job.reduces_pending;
    if (job.reduces_pending == 0) finish(job_id, true, "");
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
