// Batch compute tenant — a CPU-bound workload ("computation-intensive jobs
// are often divided into several small tasks which are in turn distributed
// over many servers", paper §IV).
//
// The app burns CPU continuously in chunks (optionally with a duty cycle),
// counting the cycles it is actually granted. Because it always has work
// queued, the ratio of delivered cycles to entitled cycles is a direct SLO
// measurement under oversubscription — the economics bench's instrument.
#pragma once

#include <cstdint>

#include "os/container.h"
#include "sim/simulation.h"
#include "util/json.h"

namespace picloud::apps {

struct BatchParams {
  double chunk_cycles = 10e6;  // work unit between scheduler decisions
  // Fraction of time the tenant wants CPU (1.0 = always hungry).
  double duty = 1.0;
  std::uint64_t working_set_bytes = 5ull << 20;

  static BatchParams from_json(const util::Json& j);
};

class BatchApp : public os::ContainerApp {
 public:
  explicit BatchApp(BatchParams params = {});

  std::string kind() const override { return "batch"; }
  void start(os::Container& container) override;
  void stop() override;
  util::Json status() const override;
  double dirty_bytes_per_sec() const override {
    return static_cast<double>(params_.working_set_bytes) * 0.1;
  }

  double cycles_completed() const { return cycles_completed_; }

 private:
  void next_chunk();

  BatchParams params_;
  os::Container* container_ = nullptr;
  bool working_set_resident_ = false;
  double cycles_completed_ = 0;
  os::CpuTaskId current_task_ = 0;
  sim::Timer pause_timer_;  // duty-cycle rest between chunks
};

}  // namespace picloud::apps
