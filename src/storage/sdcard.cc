#include "storage/sdcard.h"

#include "util/check.h"

namespace picloud::storage {

SdCard::SdCard(sim::Simulation& sim, std::uint64_t capacity_bytes,
               double read_bytes_per_sec, double write_bytes_per_sec)
    : sim_(sim),
      capacity_(capacity_bytes),
      read_bps_(read_bytes_per_sec),
      write_bps_(write_bytes_per_sec) {
  PICLOUD_CHECK(read_bps_ > 0 && write_bps_ > 0) << "SD card throughput spec";
}

bool SdCard::reserve(std::uint64_t bytes) {
  if (used_ + bytes > capacity_) return false;
  used_ += bytes;
  return true;
}

void SdCard::release(std::uint64_t bytes) {
  PICLOUD_CHECK_LE(bytes, used_) << "SdCard::release more than reserved";
  used_ -= bytes;
}

void SdCard::read(std::uint64_t bytes, IoCallback on_done) {
  enqueue(IoRequest{bytes, /*is_write=*/false, std::move(on_done)});
}

void SdCard::write(std::uint64_t bytes, IoCallback on_done) {
  enqueue(IoRequest{bytes, /*is_write=*/true, std::move(on_done)});
}

void SdCard::enqueue(IoRequest req) {
  queue_.push_back(std::move(req));
  if (!busy_) service_next();
}

void SdCard::service_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  IoRequest req = std::move(queue_.front());
  queue_.pop_front();
  double bps = req.is_write ? write_bps_ : read_bps_;
  double seconds = static_cast<double>(req.bytes) / bps;
  if (req.is_write) {
    bytes_written_ += static_cast<double>(req.bytes);
  } else {
    bytes_read_ += static_cast<double>(req.bytes);
  }
  io_timer_.after(sim_, sim::Duration::seconds(seconds),
                  [this, cb = std::move(req.on_done)]() {
                    if (cb) cb();
                    service_next();
                  });
}

}  // namespace picloud::storage
