// L7 load balancer — the front door of the overload-resilient serving tier
// (DESIGN.md §11).
//
// The paper's public-website use case (§II) puts a fleet of lightweight httpd
// containers behind one address; this app is that address. It proxies
// serving-tier request datagrams (apps/serving.h) to a backend pool, with:
//
//   * pluggable balancing policy: round-robin or least-outstanding;
//   * per-backend active health checks ({"op":"health"} probes) driving a
//     three-state breaker: Healthy -> (consecutive failures) -> Ejected ->
//     (ejection period elapses) -> HalfOpen -> (probe succeeds) -> Healthy;
//   * a RetryBudget (apps/upstream.h) on retries to a sibling, so a failing
//     backend cannot trigger retry-storm amplification on failover;
//   * endpoint-change ingestion: set_backends() preserves breaker state for
//     surviving backends and keeps the round-robin cursor deterministic, so
//     ReplicaSet churn does not perturb same-seed digests.
//
// Accounting invariant (see invariants.cc): at any instant
//   requests_received == responses_ok + responses_error + dropped_in_flight
//                        + in_flight,
// and retry_budget().bounded(attempts_forwarded()).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/serving.h"
#include "apps/upstream.h"
#include "os/container.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "util/metrics.h"

namespace picloud::apps {

enum class LbPolicy { kRoundRobin, kLeastOutstanding };

struct LbParams {
  std::uint16_t port = 80;           // client-facing
  std::uint16_t upstream_port = 8081;  // source port for backend traffic
  std::uint16_t backend_port = 80;   // where backends listen
  LbPolicy policy = LbPolicy::kRoundRobin;
  double retry_budget_burst = RetryBudget::kBurst;

  static LbParams from_json(const util::Json& j);
};

class LbApp : public os::ContainerApp {
 public:
  enum class BackendState { kHealthy, kEjected, kHalfOpen };

  explicit LbApp(LbParams params = {});

  std::string kind() const override { return "lb"; }
  void start(os::Container& container) override;
  void stop() override;
  util::Json status() const override;
  double dirty_bytes_per_sec() const override { return 16.0 * 1024; }

  // Replaces the backend pool (ReplicaSet endpoint-change hook). Breaker
  // state survives for backends present in both pools; the round-robin
  // cursor follows the backend it pointed at, keeping rotation
  // deterministic across churn.
  void set_backends(std::vector<net::Ipv4Addr> backends);

  // --- Accounting (conservation probe: see invariants.cc) --------------------
  std::uint64_t requests_received() const { return requests_received_; }
  std::uint64_t responses_ok() const { return responses_ok_; }
  std::uint64_t responses_error() const { return responses_error_; }
  std::uint64_t dropped_in_flight() const { return dropped_in_flight_; }
  std::size_t in_flight() const { return proxies_.size(); }
  // Requests that entered the proxy path (received minus no-backend 503s).
  std::uint64_t requests_forwarded() const { return budget_.originals(); }
  // Total upstream sends, including retries.
  std::uint64_t attempts_forwarded() const { return attempts_forwarded_; }
  std::uint64_t retries_attempted() const { return budget_.retries(); }
  std::uint64_t retries_denied() const { return budget_.denials(); }
  const RetryBudget& retry_budget() const { return budget_; }
  std::uint64_t no_backend_errors() const { return no_backend_; }
  std::uint64_t backends_ejected() const { return backends_ejected_; }
  std::uint64_t backends_readmitted() const { return backends_readmitted_; }

  std::vector<net::Ipv4Addr> healthy_backends() const;
  BackendState backend_state(net::Ipv4Addr ip) const;
  std::size_t backend_count() const { return backends_.size(); }

 private:
  struct Backend {
    BackendState state = BackendState::kHealthy;
    int consecutive_failures = 0;
    int outstanding = 0;           // proxied requests currently in flight
    sim::Timer reopen_timer;       // ejected -> half-open transition
  };

  struct Proxy {
    net::Ipv4Addr client;
    std::uint16_t client_port = 0;
    std::uint64_t client_id = 0;   // restored on the way back
    ServeRequest request;          // the client's, with the proxy id in place
    double padding = 0;
    net::Ipv4Addr backend;         // current attempt's target
    int attempts = 0;
    sim::SimTime attempt_at;       // when the current attempt was forwarded
    sim::Timer timer;              // the current attempt's timeout
  };

  void on_client(net::Message& msg);
  void on_upstream(net::Message& msg);
  void on_health_reply(net::Ipv4Addr backend);
  void run_health_checks();
  void probe(net::Ipv4Addr ip);
  // Picks a backend for a new attempt; `exclude` skips the backend that just
  // failed when an alternative exists. Returns false if none is eligible.
  bool choose_backend(net::Ipv4Addr exclude, bool use_exclude,
                      net::Ipv4Addr* out);
  void forward(std::uint64_t pid);
  void finish(std::uint64_t pid, ServeReply reply, double padding, bool ok);
  void attempt_failed(std::uint64_t pid);
  void backend_failure(net::Ipv4Addr ip);
  void backend_success(net::Ipv4Addr ip);
  void eject(net::Ipv4Addr ip);

  LbParams params_;
  os::Container* container_ = nullptr;
  sim::Simulation* sim_ = nullptr;
  sim::Timer health_task_;

  Rotation rotation_;
  std::map<net::Ipv4Addr, Backend> backends_;

  std::uint64_t next_pid_ = 1;  // proxy + probe id space (upstream port)
  std::map<std::uint64_t, Proxy> proxies_;
  struct PendingProbe {
    net::Ipv4Addr backend;
    sim::Timer timer;
  };
  std::map<std::uint64_t, PendingProbe> probes_;

  RetryBudget budget_{params_.retry_budget_burst};

  std::uint64_t requests_received_ = 0;
  std::uint64_t responses_ok_ = 0;
  std::uint64_t responses_error_ = 0;
  std::uint64_t dropped_in_flight_ = 0;
  std::uint64_t attempts_forwarded_ = 0;
  std::uint64_t no_backend_ = 0;
  std::uint64_t upstream_timeouts_ = 0;
  std::uint64_t backends_ejected_ = 0;
  std::uint64_t backends_readmitted_ = 0;

  // Registry series (bound in start(); set_backends() may come first).
  util::Counter* m_received_ = nullptr;
  util::Counter* m_retries_ = nullptr;
  util::Counter* m_retries_denied_ = nullptr;
  util::Counter* m_upstream_timeouts_ = nullptr;
  util::Counter* m_ejected_ = nullptr;
  util::Counter* m_readmitted_ = nullptr;
  util::Counter* m_no_backend_ = nullptr;
  util::Gauge* m_healthy_ = nullptr;
  util::LogHistogram* m_upstream_latency_ = nullptr;
};

}  // namespace picloud::apps
