// Lightweight httpd — the paper's canonical Pi workload.
//
// §IV: "We are therefore currently limited to a subset of software
// (lightweight httpd servers, hadoop etc.) at the application layer that can
// be used to emulate current DC workloads." Each GET costs CPU cycles under
// the container's cgroup and returns a response body over the fabric, so
// request latency reflects both CPU contention on the Pi and network
// congestion on the path.
//
// Overload resilience (DESIGN.md §11): requests pass the shared admission
// queue (apps/admission.h) — bounded, shedding at capacity and again when a
// request's deadline expires before service starts, and browning out under
// sustained pressure: degraded responses that cost a fraction of the cycles
// and bytes, instead of letting the backlog collapse every request's
// latency. Every drop is metered by cause.
#pragma once

#include <cstdint>
#include <string>

#include "apps/admission.h"
#include "os/container.h"
#include "util/json.h"
#include "util/metrics.h"

namespace picloud::apps {

struct HttpdParams : AdmissionParams {
  std::uint16_t port = 80;
  double cycles_per_request = 2e6;     // ~3 ms alone on a 700 MHz Pi
  std::uint64_t response_bytes = 8192; // page size
  std::uint64_t working_set_bytes = 10ull << 20;  // resident beyond idle
  // A brownout response carries bytes * factor.
  double brownout_bytes_factor = 0.125;

  static HttpdParams from_json(const util::Json& j);
  util::Json to_json() const;
};

class HttpdApp : public os::ContainerApp {
 public:
  // What a request keeps while it waits and runs.
  struct Request {
    net::Ipv4Addr reply_to;
    std::uint16_t reply_port = 0;
    double id = 0;
    std::string path;
    double cost = 1.0;  // heavy-tailed per-request work multiplier
  };
  using Queue = AdmissionQueue<HttpdApp, Request>;

  explicit HttpdApp(HttpdParams params = {});

  std::string kind() const override { return "httpd"; }
  void start(os::Container& container) override;
  void stop() override;
  util::Json status() const override;
  double dirty_bytes_per_sec() const override {
    // Logs + caches churn a slice of the working set.
    return static_cast<double>(params_.working_set_bytes) * 0.02;
  }

  // Completed work splits into full and degraded responses; the admission
  // identity's `completed` is their sum (see invariants.cc).
  std::uint64_t served_ok() const { return served_ok_; }
  std::uint64_t served_brownout() const { return served_brownout_; }
  std::uint64_t requests_served() const {
    return served_ok_ + served_brownout_;
  }
  const Queue& admission() const { return admission_; }
  const HttpdParams& params() const { return params_; }

 private:
  friend Queue;

  void on_request(const net::Message& msg);
  void serve(Request entry, bool degraded);
  void shed(const Request& entry, const char* cause);

  HttpdParams params_;
  Queue admission_{*this, params_};
  os::Container* container_ = nullptr;
  bool working_set_resident_ = false;

  std::uint64_t served_ok_ = 0;
  std::uint64_t served_brownout_ = 0;
  // Registry series (aggregated across instances; bound in start()).
  util::Counter* m_served_ok_ = nullptr;
  util::Counter* m_served_brownout_ = nullptr;
};

}  // namespace picloud::apps
