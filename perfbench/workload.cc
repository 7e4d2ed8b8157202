// One repetition of one perfbench workload (perfbench/README.md).
//
//   perfbench_workload --workload idle_fleet|flash_crowd|fuzz_sweep
//                      --seed N [--size full|tiny] [--trace 0|1]
//                      [--trace-out FILE]
//
// Sets the deployment up (timed as setup_s), runs the measured phase
// (run_s), checks the simulated outputs, and prints one JSON object on
// stdout:
//
//   {"workload", "seed", "size", "traced", "setup_s", "setup_wall_s",
//    "setups", "run_s", "run_wall_s", "probe_slice_s", "peak_rss_mb",
//    "sim_seconds", "sim_digest", "ops", "ops_failed", "failures": [...],
//    "counts": {...}, "times": {...}, "windows_s": [...]}
//
// setup_s and run_s are host seconds scaled to a reference host speed by
// SpeedProbe; the *_wall_s figures are the same spans as measured.
// `counts` are work counts read from outside the program after the run and
// the simulated request latencies; they repeat exactly for one build.
// `times` are host times. `failures` lists every correctness check that did
// not hold (empty = correct).
//
// Everything here drives public APIs only (cloud::PiCloud, apps::HttpLoadGen
// and LbApp, testing::ScenarioGenerator and run_scenario, sim::Simulation)
// and reads counters without interning names, so a run of this program
// simulates exactly what an application of the library would.
//
// With --trace 1 the run also records a span around each call into a layer
// and the host seconds of each window of the measured phase, times the end
// state (snapshots, JSON codec, GET /metrics) after sim_digest is taken, and
// writes the spans to --trace-out as Chrome trace-event JSON.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/lb.h"
#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "testing/runner.h"
#include "testing/scenario.h"
#include "tests/golden_digests.h"
#include "util/json.h"
#include "util/logging.h"

using namespace picloud;

namespace {

using Clock = std::chrono::steady_clock;
using util::Json;
using util::JsonObject;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// FNV-1a, the construction testing::run_scenario digests its end state with.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(std::string_view s) {
    for (char c : s) mix(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void mix(unsigned char c) {
    hash_ ^= c;
    hash_ *= 0x100000001B3ULL;
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// Spans around the benchmark's own calls into each layer, kept in memory and
// written at exit. span() always returns the host seconds of `fn`; only an
// enabled tracer records, so the untraced run pays one clock pair per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  template <typename F>
  double span(const char* name, const char* layer, F&& fn) {
    const size_t id = spans_.size();
    if (enabled_) {
      spans_.push_back({name, layer, 0, 0, open_.empty() ? -1 : open_.back()});
      open_.push_back(static_cast<int>(id));
    }
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (enabled_) {
      open_.pop_back();
      spans_[id].start_us = seconds_between(origin_, t0) * 1e6;
      spans_[id].dur_us = seconds_between(t0, t1) * 1e6;
    }
    return seconds_between(t0, t1);
  }

  // Chrome trace-event JSON: one complete ("X") event per span, timestamps
  // in microseconds since the process started; args.id / args.parent give
  // the span tree (parent -1 = root).
  bool write(const std::string& path) const {
    Json events = Json::array();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      events.push_back(Json(JsonObject{
          {"name", s.name},
          {"cat", s.layer},
          {"ph", "X"},
          {"ts", s.start_us},
          {"dur", s.dur_us},
          {"pid", 1},
          {"tid", 1},
          {"args", Json(JsonObject{{"id", static_cast<double>(i)},
                                   {"parent", s.parent}})},
      }));
    }
    std::ofstream out(path, std::ios::binary);
    out << Json(JsonObject{{"traceEvents", events},
                           {"displayTimeUnit", "ms"}})
               .dump()
        << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct SpanRecord {
    const char* name;
    const char* layer;
    double start_us;
    double dur_us;
    int parent;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

// --- Host-speed probe --------------------------------------------------------
//
// A shared host runs the simulator at a speed that drifts by tens of percent
// over seconds to minutes, with whatever else runs on its cores. To keep
// run_s and setup_s comparable across runs, the workloads time their work in
// pieces and follow each piece with a short slice of a fixed probe kernel
// that does not depend on the simulator's code. scale() turns a piece's host
// seconds into seconds at the reference speed: it multiplies them by
// kReferenceSliceS over the mean of the probe slices just before and just
// after the piece. The kernel is the inner loop of a discrete-event
// simulator: pop the earliest of 20k timestamped entries from a binary heap
// and push it back later, an L2-sized working set. Of the kernels tried
// (perfbench/README.md), its slowdown tracked the workloads' own best.
class SpeedProbe {
 public:
  // Host seconds of one slice at the reference speed.
  static constexpr double kReferenceSliceS = 0.004;

  SpeedProbe() {
    heap_.reserve(kEntries);
    for (std::uint32_t i = 0; i < kEntries; ++i) heap_.push_back({next(), i});
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    last_ = slice();
  }

  // `wall_s` host seconds of work that just ended, at the reference speed.
  double scale(double wall_s) {
    const double after = slice();
    const double scaled = wall_s * kReferenceSliceS / ((last_ + after) / 2);
    last_ = after;
    return scaled;
  }

  // Host seconds of every slice so far.
  const std::vector<double>& slices_s() const { return slices_s_; }

 private:
  static constexpr std::uint32_t kEntries = 20000;
  static constexpr int kSliceOps = 32768;

  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

  double slice() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t sum = 0;
    for (int i = 0; i < kSliceOps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.back().first += next() >> 10;
      sum += heap_.back().second;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    sink_ = sink_ + sum;
    const double s = seconds_between(t0, Clock::now());
    slices_s_.push_back(s);
    return s;
  }

  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
  std::uint64_t state_ = 1;
  volatile std::uint64_t sink_ = 0;
  double last_ = 0;
  std::vector<double> slices_s_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  bool trace = false;
  std::string trace_out;
};

struct Result {
  // One per set-up, at the reference speed and as measured; reported as
  // their medians.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  double run_s = 0;  // at the reference speed
  double run_wall_s = 0;
  double peak_rss_mb = 0;
  double sim_seconds = 0;  // simulated time of the measured phase
  std::uint64_t digest = 0;
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> counts;
  // Host-time samples per name; reported as their medians.
  std::map<std::string, std::vector<double>> times;
  std::vector<double> windows_s;
  SpeedProbe probe;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void add_setup(double wall_s) {
    setup_wall_s.push_back(wall_s);
    setup_s.push_back(probe.scale(wall_s));
  }
  void add_run(double wall_s) {
    run_wall_s += wall_s;
    run_s += probe.scale(wall_s);
  }
};

// Peak resident memory of this process image, from VmHWM. getrusage()'s
// ru_maxrss is not used: Linux carries it across exec, so it would report
// the launching Python process whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

// --- Per-layer counts, read from outside ------------------------------------
//
// Only counter_value()/snapshot()/queue_stats() and plain accessors: the
// string-keyed counter() would intern new names and publish_queue_stats()
// would add sim.queue.* series, either of which changes the registry size,
// the heartbeat cost and the digest.

// Counters that are meaningful over the whole run (set-up included) rather
// than as a measured-phase delta: high-water marks, and work done at set-up.
constexpr const char* kWholeRun[] = {
    "sim.queue.live_highwater",   "net.sdn.packet_ins",
    "net.sdn.table_hits",         "cloud.master.spawn_requests",
    "cloud.master.spawns_ok",     "cloud.master.spawns_failed",
};

constexpr const char* kRegistryCounters[] = {
    "net.fabric.flows_started",
    "net.sdn.packet_ins",
    "net.sdn.table_hits",
    "os.sched.reallocations",
    "os.sched.tasks_started",
    "proto.rest.server.requests",
    "cloud.monitor.samples_ingested",
    "cloud.master.spawn_requests",
    "cloud.master.spawns_ok",
    "cloud.master.spawns_failed",
    "cloud.reconciler.sweeps",
    "cloud.reconciler.node_queries",
    "apps.lb.requests_received",
    "apps.lb.retries",
    "apps.lb.upstream_timeouts",
    "apps.httpd.requests_received",
    "apps.httpd.served_brownout",
    "apps.httpd.shed_admission",
    "apps.httpd.shed_deadline",
};

constexpr const char* kRestClientSuffixes[] = {"attempts", "retries",
                                               "timeouts"};

// True for a REST client counter `<scope>.rest.<suffix>`; the server counts
// under proto.rest.server.* with other suffixes.
bool rest_client_counter(const std::string& name, const char* suffix) {
  return name.ends_with(std::string(".rest.") + suffix);
}

std::map<std::string, double> read_counts(cloud::PiCloud& cloud) {
  const sim::Simulation& sim = cloud.simulation();
  const util::MetricsRegistry& m = sim.metrics();
  std::map<std::string, double> c;
  c["sim.events"] = static_cast<double>(sim.events_executed());
  const sim::EventQueue::Stats q = sim.queue_stats();
  c["sim.queue.live_highwater"] = static_cast<double>(q.live_highwater);
  c["sim.queue.spill_allocs"] = static_cast<double>(q.spill_allocs);
  c["net.messages_sent"] = static_cast<double>(cloud.network().messages_sent());
  c["net.messages_dropped"] =
      static_cast<double>(cloud.network().messages_dropped());
  const net::FabricSolverStats& s = cloud.fabric().solver_stats();
  c["net.fabric.solver.solves"] = static_cast<double>(s.solves);
  c["net.fabric.solver.component_solves"] =
      static_cast<double>(s.component_solves);
  c["net.fabric.solver.full_solves"] = static_cast<double>(s.full_solves);
  c["net.fabric.solver.fast_path"] = static_cast<double>(s.fast_path);
  c["net.fabric.solver.component_flows"] =
      static_cast<double>(s.component_flows);
  c["net.fabric.solver.steps"] =
      static_cast<double>(s.heap_ops + s.flow_visits + s.link_scans);
  for (const char* name : kRegistryCounters) {
    c[name] = static_cast<double>(m.counter_value(name));
  }
  const Json snapshot = m.snapshot();
  for (const auto& [name, value] : snapshot.get("counters").as_object()) {
    for (const char* suffix : kRestClientSuffixes) {
      if (rest_client_counter(name, suffix)) {
        c[std::string("proto.rest.client.") + suffix] += value.as_number();
      }
    }
  }
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    const cloud::NodeDaemon& daemon = std::as_const(cloud).daemon(i);
    c["cloud.heartbeats"] += static_cast<double>(daemon.heartbeats_sent());
    c["cloud.heartbeat_timeouts"] += static_cast<double>(
        m.counter_value("node." + daemon.hostname() + ".rest.timeouts"));
  }
  return c;
}

// Measured-phase deltas plus the ratios derived from them.
std::map<std::string, double> phase_counts(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> c = after;
  for (auto& [name, value] : c) {
    const bool whole_run =
        std::find_if(std::begin(kWholeRun), std::end(kWholeRun),
                     [&](const char* w) { return name == w; }) !=
        std::end(kWholeRun);
    const auto it = before.find(name);
    if (!whole_run && it != before.end()) value -= it->second;
  }
  c["net.fabric.solver.steps_per_message"] =
      ratio(c["net.fabric.solver.steps"], c["net.messages_sent"]);
  c["net.fabric.solver.flows_per_component_solve"] =
      ratio(c["net.fabric.solver.component_flows"],
            c["net.fabric.solver.component_solves"]);
  c["os.sched.reallocations_per_task"] =
      ratio(c["os.sched.reallocations"], c["os.sched.tasks_started"]);
  return c;
}

// Runs `d` of simulated time as measured work, in windows of `window`
// (run_until only advances the clock, so the event order is unchanged), each
// a piece of run_s. A traced run records the host seconds of each full
// window; a shorter last window is traced but left out of windows_s.
void advance(sim::Simulation& sim, sim::Duration d, sim::Duration window,
             Tracer& tracer, Result& r) {
  const sim::SimTime end = sim.now() + d;
  while (sim.now() < end) {
    const sim::SimTime next = std::min(end, sim.now() + window);
    const bool full = next - sim.now() == window;
    const double s =
        tracer.span("sim.window", "sim", [&]() { sim.run_until(next); });
    r.add_run(s);
    if (full && tracer.enabled()) r.windows_s.push_back(s);
  }
}

// A simulation and the cloud built on it. The cloud is declared after the
// simulation, so it is torn down first.
struct Deployment {
  explicit Deployment(std::uint64_t seed) : sim(seed) {}

  sim::Simulation sim;
  std::unique_ptr<cloud::PiCloud> cloud;
  net::Ipv4Addr lb_ip;
  std::vector<std::string> failures;
};

// Sets a deployment up `reps` times, each timed as one setup_s sample, and
// keeps the last. Earlier ones are torn down outside the timed span.
template <typename SetUp>
std::unique_ptr<Deployment> set_up(int reps, std::uint64_t seed,
                                   Tracer& tracer, Result& r,
                                   SetUp&& set_up_into) {
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < reps; ++i) {
    d.reset();
    r.add_setup(tracer.span("setup", "bench", [&]() {
      d = std::make_unique<Deployment>(seed);
      set_up_into(*d);
    }));
  }
  for (const std::string& f : d->failures) r.failures.push_back(f);
  return d;
}

// Builds and boots the cloud: the first part of both cloud set-ups.
void boot_cloud(Deployment& d, const cloud::PiCloudConfig& config,
                Tracer& tracer, Result& r) {
  bool ready = false;
  r.times["cloud.build_s"].push_back(tracer.span("cloud.build", "cloud", [&]() {
    d.cloud = std::make_unique<cloud::PiCloud>(d.sim, config);
  }));
  r.times["cloud.boot_s"].push_back(tracer.span("cloud.boot", "cloud", [&]() {
    d.cloud->power_on();
    ready = d.cloud->await_ready();
  }));
  if (!ready) d.failures.push_back("fleet did not become ready");
}

// After the measured phase: digest first, then counts, then (traced only)
// the end-state timings, which may change the registry and the clock.
void finish_cloud(Deployment& d, const std::map<std::string, double>& before,
                  Tracer& tracer, Result& r) {
  cloud::PiCloud& cloud = *d.cloud;
  const util::MetricsRegistry& m = d.sim.metrics();
  Fnv digest;
  digest.add(m.snapshot().dump());
  digest.add(d.sim.events_executed());
  digest.add(static_cast<std::uint64_t>(d.sim.now().ns()));
  r.digest = digest.value();
  r.peak_rss_mb = peak_rss_mb();

  for (const auto& [name, value] : phase_counts(before, read_counts(cloud))) {
    r.counts[name] = value;
  }
  r.counts["util.metrics.names"] = static_cast<double>(m.size());
  if (!tracer.enabled()) return;

  for (size_t i = 0; i < cloud.node_count(); ++i) {
    const std::string scope =
        "node." + std::as_const(cloud).daemon(i).hostname();
    r.times["util.metrics.snapshot_scope_us"].push_back(
        tracer.span("util.metrics.snapshot_scope", "util",
                    [&]() { (void)m.snapshot(scope); }) *
        1e6);
  }
  r.times["util.metrics.snapshot_full_ms"].push_back(
      tracer.span("util.metrics.snapshot_full", "util",
                  [&]() { (void)m.snapshot(); }) *
      1e3);

  // One heartbeat body: what NodeDaemon::send_heartbeat posts.
  const Json body =
      m.snapshot("node." + std::as_const(cloud).daemon(0).hostname());
  const std::string text = body.dump();
  r.counts["util.json.heartbeat_bytes"] = static_cast<double>(text.size());
  constexpr int kCodecReps = 200;
  for (int i = 0; i < kCodecReps; ++i) {
    r.times["util.json.dump_us"].push_back(
        tracer.span("util.json.dump", "util", [&]() { (void)body.dump(); }) *
        1e6);
    r.times["util.json.parse_us"].push_back(
        tracer.span("util.json.parse", "util",
                    [&]() { (void)Json::parse(text); }) *
        1e6);
  }

  bool got_metrics = false;
  r.times["cloud.get_metrics_s"].push_back(
      tracer.span("cloud.get_metrics", "cloud",
                  [&]() { got_metrics = cloud.metrics_snapshot().ok(); }));
  r.check(got_metrics, "GET /metrics failed after the run");
}

// --- Workloads --------------------------------------------------------------

// 16 racks x 14 Pis, SDN/ECMP multi-root tree, 2 s heartbeats, no apps:
// the management plane alone for 60 sim-s, in windows of one heartbeat
// period. One set-up per process: it costs about as much as the measured
// phase.
void idle_fleet(const Options& o, Tracer& tracer, Result& r) {
  cloud::PiCloudConfig config;
  config.racks = o.tiny ? 2 : 16;
  config.hosts_per_rack = 14;
  std::unique_ptr<Deployment> d =
      set_up(1, o.seed, tracer, r,
             [&](Deployment& dep) { boot_cloud(dep, config, tracer, r); });
  if (!r.failures.empty()) return;

  const std::map<std::string, double> before = read_counts(*d->cloud);
  const sim::Duration phase = sim::Duration::seconds(o.tiny ? 5 : 60);
  tracer.span("run", "bench", [&]() {
    advance(d->sim, phase, sim::Duration::seconds(2), tracer, r);
  });
  r.sim_seconds = static_cast<double>(phase.ns()) * 1e-9;
  finish_cloud(*d, before, tracer, r);

  r.ops = static_cast<std::uint64_t>(r.counts["cloud.heartbeats"]);
  r.ops_failed =
      static_cast<std::uint64_t>(r.counts["cloud.heartbeat_timeouts"]);
  r.check(r.ops > 0, "no heartbeats in the measured phase");
}

// One Lego rack: 12 httpd replicas behind one lb, open-loop Poisson clients
// at 100 req/s with a 10x crowd from sim-s 90 to 180 and Pareto request
// cost, 300 sim-s plus a 5 s drain. Set-up (boot + 13 spawns) takes a few
// milliseconds, so it is repeated and the median reported.
void flash_crowd(const Options& o, Tracer& tracer, Result& r) {
  const int replicas = o.tiny ? 3 : 12;
  cloud::PiCloudConfig config;
  config.racks = 1;
  config.hosts_per_rack = o.tiny ? 5 : 14;
  auto set_up_into = [&](Deployment& d) {
    boot_cloud(d, config, tracer, r);
    if (!d.failures.empty()) return;
    const double spawn_s = tracer.span("cloud.spawn", "cloud", [&]() {
      std::vector<net::Ipv4Addr> tier;
      for (int i = 0; i < replicas; ++i) {
        const std::string name = "web-" + std::to_string(i);
        auto rec = d.cloud->spawn_and_wait({.name = name, .app_kind = "httpd"});
        if (rec.ok()) {
          tier.push_back(rec.value().ip);
        } else {
          d.failures.push_back("spawn " + name + " failed");
        }
      }
      auto rec = d.cloud->spawn_and_wait({.name = "lb", .app_kind = "lb"});
      cloud::NodeDaemon* daemon =
          rec.ok() ? d.cloud->daemon_by_hostname(rec.value().hostname)
                   : nullptr;
      os::Container* c =
          daemon != nullptr ? daemon->node().find_container("lb") : nullptr;
      auto* lb = c != nullptr ? dynamic_cast<apps::LbApp*>(c->app()) : nullptr;
      if (lb == nullptr) {
        d.failures.push_back("spawn lb failed");
        return;
      }
      lb->set_backends(tier);
      d.lb_ip = rec.value().ip;
    });
    r.times["cloud.spawn_s"].push_back(spawn_s);
  };
  constexpr int kSetUps = 21;
  std::unique_ptr<Deployment> d =
      set_up(o.tiny ? 2 : kSetUps, o.seed, tracer, r, set_up_into);
  if (!r.failures.empty()) return;

  apps::HttpLoadGen::Params load;
  load.requests_per_sec = 100;
  load.request_timeout = sim::Duration::seconds(1);
  load.shape.kind = apps::TrafficShape::Kind::kFlashCrowd;
  load.shape.at = sim::Duration::seconds(o.tiny ? 3 : 90);
  load.shape.duration = sim::Duration::seconds(o.tiny ? 3 : 90);
  load.shape.multiplier = 10.0;
  load.shape.cost_alpha = 1.5;
  load.shape.cost_mean = 1.0;
  const sim::Duration offered = sim::Duration::seconds(o.tiny ? 10 : 300);
  const sim::Duration drain = sim::Duration::seconds(5);

  const std::map<std::string, double> before = read_counts(*d->cloud);
  // Starting and stopping the clients only schedules events; the windows
  // that run them are the measured work.
  std::unique_ptr<apps::HttpLoadGen> clients;
  const sim::Duration window = sim::Duration::seconds(10);
  tracer.span("run", "bench", [&]() {
    clients = std::make_unique<apps::HttpLoadGen>(
        d->cloud->network(), d->cloud->admin_ip(),
        std::vector<net::Ipv4Addr>{d->lb_ip}, load, util::Rng(o.seed));
    clients->start();
    advance(d->sim, offered, window, tracer, r);
    clients->stop();
    advance(d->sim, drain, window, tracer, r);
  });
  r.sim_seconds = static_cast<double>((offered + drain).ns()) * 1e-9;
  finish_cloud(*d, before, tracer, r);

  const apps::HttpLoadGen& g = *clients;
  r.counts["apps.loadgen.arrivals"] = static_cast<double>(g.arrivals());
  r.counts["apps.loadgen.completed"] = static_cast<double>(g.completed());
  r.counts["apps.loadgen.timed_out"] = static_cast<double>(g.timed_out());
  r.counts["apps.loadgen.failed"] = static_cast<double>(g.failed());
  r.counts["apps.loadgen.breaker_rejected"] =
      static_cast<double>(g.breaker_rejected());
  r.counts["apps.loadgen.retries"] = static_cast<double>(g.retries());
  r.counts["sim_p50_ms"] = g.latencies().median();
  r.counts["sim_p99_ms"] = g.latencies().p99();
  r.counts["sim_latency_samples"] =
      static_cast<double>(g.latencies().count());
  r.ops = g.arrivals();
  r.ops_failed = g.timed_out() + g.failed() + g.breaker_rejected();

  r.check(g.arrivals() == g.completed() + g.failed() + g.timed_out() +
                              g.breaker_rejected() + g.in_flight(),
          "loadgen conservation: arrivals != completed + failed + timed_out "
          "+ breaker_rejected + in_flight");
  r.check(g.latencies().count() == g.completed(),
          "loadgen latency samples != completed");
  r.check(g.completed() > 0, "no request completed");
}

// The tier-1 fuzz corpus: the 25 scenarios ScenarioGenerator makes from
// seeds 1..25, each booting a 2-16 host cloud and running replica sets,
// chaos and invariant sweeps to convergence. The workload seed s runs them
// with simulation seeds s..s+24 (Scenario::seed), so seed 1 is the corpus
// exactly. The shapes stay fixed because one scenario's cost varies about
// 2x with its shape: 25 freshly generated scenarios would differ by a
// third in run_s from one seed to the next.
// Set-up is scenario generation alone, about 10 us per sweep of 25: too
// short for one clock reading to time steadily. Each set-up sample times
// sweeps_per_sample generations of the sweep in one span and records the
// time per sweep. Each scenario is one piece of run_s.
void fuzz_sweep(const Options& o, Tracer& tracer, Result& r) {
  const int seeds = o.tiny ? 2 : 25;
  const testing::ScenarioGenerator generator;
  constexpr int kSetUps = 11;
  const int sweeps_per_sample = o.tiny ? 20 : 2000;
  std::vector<testing::Scenario> scenarios;
  for (int rep = 0; rep < kSetUps; ++rep) {
    const double s = tracer.span("setup", "bench", [&]() {
      for (int sweep = 0; sweep < sweeps_per_sample; ++sweep) {
        std::vector<testing::Scenario> batch;
        for (int i = 0; i < seeds; ++i) {
          const auto offset = static_cast<std::uint64_t>(i);
          batch.push_back(generator.generate(1 + offset));
          batch.back().seed = o.seed + offset;
        }
        scenarios = std::move(batch);
      }
    });
    r.add_setup(s / sweeps_per_sample);
  }

  std::vector<testing::RunReport> reports;
  tracer.span("run", "bench", [&]() {
    for (const testing::Scenario& s : scenarios) {
      const double wall_s =
          tracer.span("testing.run_scenario", "testing",
                      [&]() { reports.push_back(testing::run_scenario(s)); });
      r.times["testing.run_scenario_s"].push_back(wall_s);
      r.add_run(wall_s);
    }
  });
  r.peak_rss_mb = peak_rss_mb();

  Fnv digest;
  const bool golden_seeds = o.seed == 1;
  for (size_t i = 0; i < reports.size(); ++i) {
    const testing::RunReport& rep = reports[i];
    digest.add(rep.digest);
    digest.add(rep.events);
    r.counts["testing.events"] += static_cast<double>(rep.events);
    r.counts["testing.sweeps"] += static_cast<double>(rep.sweeps);
    r.counts["testing.violations"] +=
        static_cast<double>(rep.violations.size());
    const std::string id = "scenario seed " + std::to_string(rep.seed);
    r.check(!rep.failed(), id + " failed: " + rep.signature());
    if (golden_seeds) {
      r.check(rep.digest == testing_support::kFuzzSweepGoldens[i],
              id + " digest differs from kFuzzSweepGoldens");
    }
    r.ops += 1;
    r.ops_failed += rep.failed() ? 1 : 0;
  }
  r.digest = digest.value();
  r.counts["sim.events"] = r.counts["testing.events"];
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload "
               "idle_fleet|flash_crowd|fuzz_sweep --seed N "
               "[--size full|tiny] [--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (argc % 2 != 1) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--size" && (value == "full" || value == "tiny")) {
      o.tiny = value == "tiny";
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      return usage();
    }
  }

  util::Logging::set_level(util::LogLevel::kOff);
  Tracer tracer(o.trace);
  Result r;
  if (o.workload == "idle_fleet") {
    idle_fleet(o, tracer, r);
  } else if (o.workload == "flash_crowd") {
    flash_crowd(o, tracer, r);
  } else if (o.workload == "fuzz_sweep") {
    fuzz_sweep(o, tracer, r);
  } else {
    return usage();
  }
  if (o.trace && !o.trace_out.empty() && !tracer.write(o.trace_out)) {
    r.failures.push_back("cannot write trace " + o.trace_out);
  }

  JsonObject counts, times;
  for (const auto& [k, v] : r.counts) counts[k] = v;
  for (const auto& [k, v] : r.times) times[k] = median(v);
  Json failures = Json::array();
  for (const std::string& f : r.failures) failures.push_back(f);
  Json windows = Json::array();
  for (double w : r.windows_s) windows.push_back(w);
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.digest));
  const Json out(JsonObject{
      {"workload", o.workload},
      {"seed", static_cast<double>(o.seed)},
      {"size", o.tiny ? "tiny" : "full"},
      {"traced", o.trace},
      {"setup_s", median(r.setup_s)},
      {"setup_wall_s", median(r.setup_wall_s)},
      {"setups", static_cast<double>(r.setup_s.size())},
      {"run_s", r.run_s},
      {"run_wall_s", r.run_wall_s},
      {"probe_slice_s", median(r.probe.slices_s())},
      {"peak_rss_mb", r.peak_rss_mb},
      {"sim_seconds", r.sim_seconds},
      {"sim_digest", std::string(digest)},
      {"ops", static_cast<double>(r.ops)},
      {"ops_failed", static_cast<double>(r.ops_failed)},
      {"failures", failures},
      {"counts", Json(std::move(counts))},
      {"times", Json(std::move(times))},
      {"windows_s", windows},
  });
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
