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
// Wire protocol (port 7070, JSON datagrams; bulk bytes ride as padding):
//   driver -> worker : {"op":"map","job":J,"task":T,"bytes":B,
//                       "reducers":[ips],"cpb":c,"shuffle_frac":f,"id":i}
//   worker -> reducer: {"op":"partition","job":J,"bytes":P}
//   driver -> reducer: {"op":"reduce","job":J,"expect_bytes":E,
//                       "expect_parts":N,"cpb":c,"id":i}
//   worker -> driver : {"op":"map_done","job":J,"task":T,"id":i}
//   reducer -> driver: {"op":"reduce_done","job":J,"id":i}
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/network.h"
#include "os/container.h"
#include "sim/simulation.h"
#include "util/json.h"

namespace picloud::apps {

inline constexpr std::uint16_t kMapReducePort = 7070;

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
    double request_id = 0;
    bool running = false;
  };

  void on_message(const net::Message& msg);
  void handle_map(const util::Json& request, net::Ipv4Addr from,
                  std::uint16_t from_port);
  void handle_partition(const util::Json& request, double padding);
  void handle_reduce_order(const util::Json& request, net::Ipv4Addr from,
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
  void send(net::Ipv4Addr to, util::Json body);

  net::Network& network_;
  sim::Simulation& sim_;
  net::Ipv4Addr self_;
  std::uint16_t port_;
  std::map<std::string, JobState> jobs_;
};

}  // namespace picloud::apps
