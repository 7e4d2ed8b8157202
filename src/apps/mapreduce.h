// Hadoop-style MapReduce over PiCloud containers (the "Hadoop Container" of
// Fig. 3; §IV names hadoop as an emulatable DC workload).
//
// Roles:
//   * MapReduceWorkerApp — runs inside a container; executes map tasks
//     (CPU proportional to split size), pushes shuffle partitions to every
//     reducer over the fabric, executes reduce tasks once all expected
//     partitions arrive.
//   * MapReduceDriver   — the job client (runs at the admin workstation or
//     any host): splits the input, assigns map tasks round-robin over the
//     workers, designates reducers, and reports job metrics.
//
// The shuffle is the point: map outputs cross ToR and aggregation links as
// real flows, producing the all-to-all traffic pattern whose interaction
// with placement the paper wants observable.
//
// Wire protocol (port 7070, datagrams; bulk bytes ride as padding):
//   driver -> worker  (MapTask):      {"bytes":B,"cpb":c,"id":i,"job":J,
//                                      "op":"map","reducers":[ips],
//                                      "shuffle_frac":f,"task":T}
//   worker -> reducer (MapPartition): {"bytes":P,"job":J,"op":"partition"}
//   driver -> reducer (ReduceOrder):  {"cpb":c,"expect_bytes":E,
//                                      "expect_parts":N,"id":i,"job":J,
//                                      "op":"reduce"}
//   worker -> driver  (TaskDone):     {"id":i,"job":J,"op":"map_done","task":T}
//   reducer -> driver (TaskDone):     {"id":i,"job":J,"op":"reduce_done"}
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "os/container.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "util/schema.h"

namespace picloud::apps {

inline constexpr std::uint16_t kMapReducePort = 7070;

enum class MapReduceOp : std::uint8_t {
  kMap,
  kPartition,
  kReduce,
  kMapDone,
  kReduceDone
};
constexpr std::array<std::string_view, 5> json_names(MapReduceOp) {
  return {"map", "partition", "reduce", "map_done", "reduce_done"};
}

struct MapTask : util::JsonSchema<MapTask> {
  std::string job;
  std::vector<net::Ipv4Addr> reducers;  // each gets one partition
  double bytes = 0;                     // the split
  double cycles_per_byte = 0;
  double shuffle_fraction = 0;  // map output / input
  std::uint64_t id = 0;
  int task = 0;
  MapReduceOp op = MapReduceOp::kMap;

  static constexpr auto json_fields() {
    return std::tuple{util::field("bytes", &MapTask::bytes),
                      util::field("cpb", &MapTask::cycles_per_byte),
                      util::field("id", &MapTask::id),
                      util::field("job", &MapTask::job),
                      util::field("op", &MapTask::op),
                      util::field("reducers", &MapTask::reducers),
                      util::field("shuffle_frac", &MapTask::shuffle_fraction),
                      util::field("task", &MapTask::task)};
  }
};

struct MapPartition : util::JsonSchema<MapPartition> {
  std::string job;
  double bytes = 0;
  MapReduceOp op = MapReduceOp::kPartition;

  static constexpr auto json_fields() {
    return std::tuple{util::field("bytes", &MapPartition::bytes),
                      util::field("job", &MapPartition::job),
                      util::field("op", &MapPartition::op)};
  }
};

struct ReduceOrder : util::JsonSchema<ReduceOrder> {
  std::string job;
  double cycles_per_byte = 0;
  double expect_bytes = 0;
  std::uint64_t id = 0;
  int expect_parts = 0;
  MapReduceOp op = MapReduceOp::kReduce;

  static constexpr auto json_fields() {
    return std::tuple{util::field("cpb", &ReduceOrder::cycles_per_byte),
                      util::field("expect_bytes", &ReduceOrder::expect_bytes),
                      util::field("expect_parts", &ReduceOrder::expect_parts),
                      util::field("id", &ReduceOrder::id),
                      util::field("job", &ReduceOrder::job),
                      util::field("op", &ReduceOrder::op)};
  }
};

// A map or reduce task's completion, echoing its order's id.
struct TaskDone : util::JsonSchema<TaskDone> {
  std::string job;
  std::uint64_t id = 0;
  std::optional<int> task;  // map_done only
  MapReduceOp op = MapReduceOp::kMapDone;

  static constexpr auto json_fields() {
    return std::tuple{util::field("id", &TaskDone::id),
                      util::field("job", &TaskDone::job),
                      util::field("op", &TaskDone::op),
                      util::field("task", &TaskDone::task)};
  }
};

class MapReduceWorkerApp : public os::ContainerApp {
 public:
  std::string kind() const override { return "mr-worker"; }
  void start(os::Container& container) override;
  void stop() override;
  util::Json status() const override;
  double dirty_bytes_per_sec() const override { return 512.0 * 1024; }

  std::uint64_t map_tasks_done() const { return maps_done_; }
  std::uint64_t reduce_tasks_done() const { return reduces_done_; }

 private:
  struct ReduceState {
    double received_bytes = 0;
    int received_parts = 0;
    // Set once the driver's reduce order arrives.
    bool ordered = false;
    double expect_bytes = 0;
    int expect_parts = 0;
    double cycles_per_byte = 0;
    net::Ipv4Addr driver;
    std::uint16_t driver_port = 0;
    std::uint64_t request_id = 0;
    bool running = false;
  };

  void on_message(const net::Message& msg);
  void handle_map(const MapTask& map, net::Ipv4Addr from,
                  std::uint16_t from_port);
  void handle_partition(const MapPartition& partition);
  void handle_reduce_order(const ReduceOrder& order, net::Ipv4Addr from,
                           std::uint16_t from_port);
  void maybe_run_reduce(const std::string& job);

  os::Container* container_ = nullptr;
  std::map<std::string, ReduceState> reduce_jobs_;
  std::uint64_t maps_done_ = 0;
  std::uint64_t reduces_done_ = 0;
};

// Job description + result, driver side.
struct MapReduceJobSpec {
  std::string job_id;
  double input_bytes = 64ull << 20;  // total dataset
  int map_tasks = 8;
  std::vector<net::Ipv4Addr> workers;   // all run map tasks
  std::vector<net::Ipv4Addr> reducers;  // subset receiving the shuffle
  double map_cycles_per_byte = 1.0;
  double reduce_cycles_per_byte = 0.5;
  double shuffle_fraction = 0.4;  // map output / input ratio (wordcount-ish)
};

struct MapReduceJobResult {
  bool success = false;
  std::string error;
  sim::Duration duration;
  double shuffle_bytes = 0;
  int map_tasks = 0;
  int reduce_tasks = 0;
};

class MapReduceDriver {
 public:
  MapReduceDriver(net::Network& network, net::Ipv4Addr self,
                  std::uint16_t port = 7071);
  ~MapReduceDriver();

  using JobCallback = std::function<void(const MapReduceJobResult&)>;
  // Runs the job; the callback fires once on completion or timeout.
  void run(MapReduceJobSpec spec, JobCallback cb,
           sim::Duration timeout = sim::Duration::minutes(30));

 private:
  struct JobState {
    MapReduceJobSpec spec;
    JobCallback cb;
    sim::SimTime started;
    int maps_pending = 0;
    int reduces_pending = 0;
    bool reduces_ordered = false;
    sim::Timer timer;
  };

  void on_message(const net::Message& msg);
  void order_reduces(JobState& job);
  void finish(const std::string& job_id, bool success,
              const std::string& error);
  void send(net::Ipv4Addr to, net::Body body);

  net::Network& network_;
  sim::Simulation& sim_;
  net::Ipv4Addr self_;
  std::uint16_t port_;
  std::map<std::string, JobState> jobs_;
};

}  // namespace picloud::apps
