#include "apps/batch.h"

#include "os/node_os.h"

namespace picloud::apps {

using util::Json;

BatchParams BatchParams::from_json(const Json& j) {
  BatchParams p;
  p.chunk_cycles = j.get_number("chunk_cycles", 10e6);
  p.duty = j.get_number("duty", 1.0);
  p.working_set_bytes = static_cast<std::uint64_t>(
      j.get_number("working_set_bytes", 5.0 * (1 << 20)));
  return p;
}

BatchApp::BatchApp(BatchParams params) : params_(params) {}

void BatchApp::start(os::Container& container) {
  container_ = &container;
  working_set_resident_ =
      container.alloc_memory(params_.working_set_bytes).ok();
  next_chunk();
}

void BatchApp::stop() {
  if (container_ == nullptr) return;
  if (current_task_ != 0) {
    container_->cancel_cpu(current_task_);
    current_task_ = 0;
  }
  pause_timer_.cancel();
  if (working_set_resident_) {
    container_->free_memory(params_.working_set_bytes);
    working_set_resident_ = false;
  }
  container_ = nullptr;
}

void BatchApp::next_chunk() {
  if (container_ == nullptr) return;
  current_task_ = container_->run_cpu(
      params_.chunk_cycles, [this](bool completed) {
        current_task_ = 0;
        if (!completed || container_ == nullptr) return;
        cycles_completed_ += params_.chunk_cycles;
        if (params_.duty >= 1.0) {
          next_chunk();
          return;
        }
        // Duty cycle: rest so that busy/(busy+rest) == duty. The rest
        // interval is computed from the chunk's ideal solo runtime so a
        // throttled tenant still *requests* the same average load.
        double solo_seconds =
            params_.chunk_cycles / container_->node().cpu().capacity();
        double rest = solo_seconds * (1.0 - params_.duty) /
                      std::max(params_.duty, 1e-6);
        pause_timer_.after(container_->node().simulation(),
                           sim::Duration::seconds(rest),
                           [this]() { next_chunk(); });
      });
}

util::Json BatchApp::status() const {
  Json j = Json::object();
  j.set("cycles", cycles_completed_);
  j.set("duty", params_.duty);
  return j;
}

}  // namespace picloud::apps
