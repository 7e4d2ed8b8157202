// SD-card storage model.
//
// Each Pi "runs Linux from a Sandisk 16GB SD card storage" (paper §II-A).
// The card serves IO requests sequentially from a FIFO queue at its
// class-10-ish sequential bandwidth — the storage bottleneck that shapes
// container spawn times and image patching on a real PiCloud.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/simulation.h"

namespace picloud::storage {

class SdCard {
 public:
  SdCard(sim::Simulation& sim, std::uint64_t capacity_bytes,
         double read_bytes_per_sec, double write_bytes_per_sec);

  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t free_bytes() const { return capacity_ - used_; }

  // Space accounting (separate from IO time): returns false when full.
  bool reserve(std::uint64_t bytes);
  void release(std::uint64_t bytes);

  // Queues an IO request; `on_done` fires when the transfer has been
  // serviced (after everything queued ahead of it).
  using IoCallback = std::function<void()>;
  void read(std::uint64_t bytes, IoCallback on_done);
  void write(std::uint64_t bytes, IoCallback on_done);

  size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  double total_bytes_read() const { return bytes_read_; }
  double total_bytes_written() const { return bytes_written_; }

 private:
  struct IoRequest {
    std::uint64_t bytes;
    bool is_write;
    IoCallback on_done;
  };

  void enqueue(IoRequest req);
  void service_next();

  sim::Simulation& sim_;
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  double read_bps_;   // bytes/sec
  double write_bps_;  // bytes/sec
  std::deque<IoRequest> queue_;
  bool busy_ = false;
  // The in-service request's completion; destroying the card cancels it.
  sim::Timer io_timer_;
  double bytes_read_ = 0;
  double bytes_written_ = 0;
};

}  // namespace picloud::storage
