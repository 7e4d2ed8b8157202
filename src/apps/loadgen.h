// Workload and traffic generation.
//
// The paper's core critique of simulators is unrealistic traffic: "Traffic
// patterns in operational Cloud DC networks constantly change over time and
// are generally unpredictable" (§I, citing Gill et al. and VL2). Two
// generators reproduce the relevant behaviours:
//
//   * HttpLoadGen — open-loop Poisson request stream against a pool of web
//     instances (the "public website hosting" use case), measuring
//     end-to-end latency (CPU contention + fabric congestion).
//   * BackgroundTraffic — VL2-style machine-to-machine flows: Poisson
//     arrivals, Pareto (heavy-tailed) sizes, tunable rack locality.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/serving.h"
#include "apps/upstream.h"
#include "net/fabric.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/rng.h"

namespace picloud::apps {

// Time-varying open-loop arrival process (DESIGN.md §11). The shape
// modulates a base rate as a pure function of sim time, so same-seed runs
// see identical offered load:
//   * steady      — constant base rate;
//   * diurnal     — sinusoid: base * (1 + amplitude * sin(2π t / period));
//   * flash_crowd — base rate stepped to base * multiplier inside
//                   [at, at + duration) — the 10× spike of the acceptance
//                   scenario.
// Independently, `cost_alpha > 1` gives each request a Pareto-distributed
// work multiplier (mean `cost_mean`) that servers apply to their per-request
// cycles — the heavy-tailed request cost of real traffic.
struct TrafficShape {
  enum class Kind { kSteady, kDiurnal, kFlashCrowd };
  Kind kind = Kind::kSteady;
  double amplitude = 0.5;                                  // diurnal
  sim::Duration period = sim::Duration::seconds(120);      // diurnal
  sim::Duration at = sim::Duration::seconds(30);           // flash crowd
  sim::Duration duration = sim::Duration::seconds(20);     // flash crowd
  double multiplier = 10.0;                                // flash crowd
  double cost_mean = 1.0;   // heavy-tailed request cost (any kind)
  double cost_alpha = 0.0;  // <= 1 disables (constant cost 1)

  // Rate multiplier at time `t` since the generator started.
  double factor(sim::Duration t) const;

  static TrafficShape from_json(const util::Json& j);
  util::Json to_json() const;
};

class HttpLoadGen {
 public:
  struct Params {
    double requests_per_sec = 20;
    std::uint16_t server_port = 80;
    sim::Duration request_timeout = sim::Duration::seconds(10);
    TrafficShape shape;
  };

  HttpLoadGen(net::Network& network, net::Ipv4Addr self,
              std::vector<net::Ipv4Addr> targets, Params params,
              util::Rng rng, std::uint16_t client_port = 40080);
  ~HttpLoadGen();

  void start();
  void stop();

  // Replaces the target pool. Breaker state survives for targets present in
  // both pools and the rotation cursor follows the target it pointed at, so
  // ReplicaSet churn does not perturb same-seed digests.
  void set_targets(std::vector<net::Ipv4Addr> targets);

  // Changes the offered base rate; takes effect from the next arrival (the
  // TracePlayer's knob; the shape multiplies on top).
  void set_rate(double requests_per_sec);
  double rate() const { return params_.requests_per_sec; }
  void set_shape(TrafficShape shape) { params_.shape = shape; }

  // Fixed-memory log-bucket latency distribution (ms). Quantiles carry the
  // LogHistogram's ≤8% relative-error bound; benches that need exact
  // quantiles keep their own util::Histogram.
  const util::LogHistogram& latencies() const { return latencies_; }

  // --- Accounting (loadgen-accounting probe: see runner.cc) -----------------
  // arrivals == completed + failed + timed_out + breaker_rejected
  //             + in_flight, at any instant; and
  // retry_budget().bounded(attempts_sent()).
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t sent() const { return budget_.originals(); }
  std::uint64_t attempts_sent() const { return attempts_sent_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t completed_brownout() const { return completed_brownout_; }
  std::uint64_t timed_out() const { return timed_out_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t retries() const { return budget_.retries(); }
  std::uint64_t retries_denied() const { return budget_.denials(); }
  const RetryBudget& retry_budget() const { return budget_; }
  std::uint64_t breaker_rejected() const { return breaker_rejected_; }
  std::uint64_t breakers_opened() const { return breakers_opened_; }
  std::size_t in_flight() const { return pending_.size(); }

 private:
  // Client-side protection (DESIGN.md §11): a failed attempt retries on
  // another target within budget_, and each target has a breaker.
  struct Breaker {
    int consecutive_failures = 0;
    sim::SimTime open_until;   // breaker open while now < open_until
    bool open = false;
  };

  struct Pending {
    sim::SimTime first_sent_at;
    net::Ipv4Addr target;
    std::optional<double> cost;  // absent: constant cost 1
    int attempts = 0;
    sim::Timer timer;  // the current attempt's timeout
  };

  void fire_next();
  void on_arrival();
  void send_attempt(std::uint64_t id);
  // Retries a failed attempt if attempts and retry budget allow, else
  // settles the request as timed out or failed.
  void attempt_failed(std::uint64_t id, bool timed_out);
  void on_message(net::Message& msg);
  bool pick_target(net::Ipv4Addr exclude, bool use_exclude,
                   net::Ipv4Addr* out);
  void record_failure(net::Ipv4Addr target);
  void record_success(net::Ipv4Addr target);

  net::Network& network_;
  sim::Simulation& sim_;
  net::Ipv4Addr self_;
  Rotation targets_;
  Params params_;
  util::Rng rng_;
  std::uint16_t port_;
  bool running_ = false;
  sim::SimTime started_at_;
  std::uint64_t next_id_ = 1;
  sim::Timer arrival_timer_;

  std::map<net::Ipv4Addr, Breaker> breakers_;
  RetryBudget budget_;

  std::map<std::uint64_t, Pending> pending_;
  util::LogHistogram latencies_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t attempts_sent_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t completed_brownout_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t breaker_rejected_ = 0;
  std::uint64_t breakers_opened_ = 0;
};

// Machine-to-machine background flows straight on the fabric.
class BackgroundTraffic {
 public:
  struct Params {
    double flows_per_sec = 10;
    double mean_flow_bytes = 1 << 20;   // Pareto-distributed around this
    double pareto_alpha = 1.5;          // heavy tail
    // Probability the destination shares the source's rack (Gill et al.:
    // most DC traffic stays rack-local).
    double rack_locality = 0.7;
  };

  BackgroundTraffic(net::Fabric& fabric, const net::Topology& topology,
                    Params params, util::Rng rng);

  void start();
  void stop();

  std::uint64_t flows_started() const { return flows_started_; }
  double bytes_offered() const { return bytes_offered_; }

 private:
  void fire_next();

  net::Fabric& fabric_;
  const net::Topology& topology_;
  Params params_;
  util::Rng rng_;
  bool running_ = false;
  sim::Timer arrival_timer_;
  std::uint64_t flows_started_ = 0;
  double bytes_offered_ = 0;
};

// Thin client for KvStoreApp (used by examples/tests). The callback gets
// kvstore's reply, or a "timeout" error after 10 s.
class KvClient {
 public:
  KvClient(net::Network& network, net::Ipv4Addr self,
           std::uint16_t client_port = 46379);
  ~KvClient();

  using Callback = std::function<void(util::Result<ServeReply>)>;
  void put(net::Ipv4Addr server, const std::string& key, std::uint64_t bytes,
           Callback cb, std::uint16_t server_port = 6379);
  void get(net::Ipv4Addr server, const std::string& key, Callback cb,
           std::uint16_t server_port = 6379);
  void del(net::Ipv4Addr server, const std::string& key, Callback cb,
           std::uint16_t server_port = 6379);

 private:
  void request(net::Ipv4Addr server, std::uint16_t server_port,
               ServeRequest request, Callback cb);
  void on_message(net::Message& msg);

  net::Network& network_;
  sim::Simulation& sim_;
  net::Ipv4Addr self_;
  std::uint16_t port_;
  std::uint64_t next_id_ = 1;
  struct Pending {
    Callback cb;
    sim::Timer timer;
  };
  std::map<std::uint64_t, Pending> pending_;
};

}  // namespace picloud::apps
