// MetricsRegistry — the unified telemetry spine (DESIGN.md §9).
//
// The paper's management plane exists to answer "what is the cloud doing
// right now" (the Fig. 4 panel, per-Pi CPU/memory monitoring of §II-C, the
// power accounting of Table I). Every layer of this model reports through
// one registry instead of ad-hoc per-module structs:
//
//   * Counter    — monotonically increasing u64 (events, retries, drops);
//   * Gauge      — last-write-wins double (utilisation, watts, queue depth);
//   * LogHistogram — fixed-memory log-bucket distribution (latencies, sizes).
//
// Names are hierarchical dotted paths, lowercase, with the owning layer as
// the first segment: `net.fabric.pkts_dropped`, `cloud.reconciler.orphans_gc`,
// `proto.rest.retries`, `node.<hostname>.cpu_utilization`. Per-node metrics
// live under `node.<hostname>.` so a daemon can serve its own scope.
//
// The registry is owned by the sim::Simulation context (sim.metrics());
// handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime, so components grab them once at construction and
// increment on the hot path without a map lookup. Everything is
// deterministic: same-seed runs produce bit-identical snapshot() JSON
// (asserted by tests/determinism_test.cc).
//
// Internally names are interned (util/intern.h): each kind's instances
// live in a dense vector indexed by Symbol id, so a handle-keyed lookup is
// one indexed load and a repeated string-keyed lookup is one hash probe —
// no std::map node chase, no string compares. Canonical strings appear
// only at the snapshot() boundary, which walks a name-ordered index of the
// ids from its prefix, so a scoped snapshot costs its own series, not the
// registry's.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/intern.h"
#include "util/json.h"

namespace picloud::util {

// Monotonic event count. inc() is a single add — safe on hot paths.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Fixed-memory distribution: geometric buckets over (min_value, +inf).
//
// Bucket i spans [min_value * growth^i, min_value * growth^(i+1)); a
// percentile query answers the geometric midpoint of its bucket, so the
// relative error of any quantile is bounded by (growth - 1) — ≤ 8% with the
// defaults — while memory stays O(max_buckets) no matter how many samples
// stream in. min(), max(), mean() and sum() are exact (tracked separately).
//
// Use this on hot paths (per-request latencies over hours of simulated
// time); util::Histogram keeps exact percentiles for benches whose tables
// need them and whose sample counts are bounded.
class LogHistogram {
 public:
  explicit LogHistogram(double min_value = 1e-6, double growth = 1.08,
                        int max_buckets = 512);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  // p in [0, 100]. Relative error ≤ (growth - 1); extremes are exact.
  double percentile(double p) const;
  double median() const { return percentile(50); }
  double p99() const { return percentile(99); }

  std::string summary() const;  // "n=…, p50=…, p99=…, max=…"
  Json to_json() const;         // {count, sum, min, max, mean, p50, p90, p99}

 private:
  int bucket_index(double v) const;

  double min_value_;
  double log_growth_;   // precomputed ln(growth)
  double growth_;
  std::vector<std::uint64_t> buckets_;  // fixed size, allocated at ctor
  std::uint64_t underflow_ = 0;         // samples <= 0 or below min_value
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// The registry: hierarchical names -> metric instances. Handles are stable
// pointers for the registry's lifetime (values are heap-allocated);
// requesting an existing name returns the same instance, so independent
// components contributing to one logical series (e.g. every node's CPU
// scheduler under `os.sched.*`) aggregate naturally.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Interns `name`, returning a handle usable with the Symbol overloads
  // below. Components that emit under a fixed name should resolve it once
  // (construction time) and keep the Counter*/Gauge* instead.
  Symbol name_symbol(std::string_view name) {
    PICLOUD_DCHECK(!name.empty()) << "metric name";
    const std::size_t known = names_.size();
    const Symbol s = names_.intern(name);
    if (names_.size() != known) index_name(s);
    return s;
  }
  const std::string& name_of(Symbol s) const { return names_.str(s); }

  Counter& counter(Symbol name);
  Gauge& gauge(Symbol name);
  LogHistogram& histogram(Symbol name, double min_value = 1e-6,
                          double growth = 1.08, int max_buckets = 512);

  // Linked counter: `name` exports `read(ctx)` — evaluated at snapshot /
  // read time — instead of a stored cell. For monotonic values a hot loop
  // already maintains (e.g. the event loop's executed-event count), this
  // keeps the loop free of a per-event registry increment while snapshots
  // still see the exact value at any event boundary. `ctx` must outlive the
  // registry. A name is either linked or stored, never both.
  void link_counter(Symbol name, std::uint64_t (*read)(const void*),
                    const void* ctx);

  // String-keyed conveniences (construction-time call sites).
  Counter& counter(const std::string& name) {
    return counter(name_symbol(name));
  }
  Gauge& gauge(const std::string& name) { return gauge(name_symbol(name)); }
  LogHistogram& histogram(const std::string& name, double min_value = 1e-6,
                          double growth = 1.08, int max_buckets = 512) {
    return histogram(name_symbol(name), min_value, growth, max_buckets);
  }

  // The read path for every reader (endpoints, tests, examples, benches):
  // no component keeps a copy of its series. Missing names read as zero
  // and do not intern.
  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;
  bool has(std::string_view name) const;
  std::size_t size() const;

  // Canonical JSON export:
  //   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  // With a non-empty `prefix`, only metrics named `prefix` or `prefix.*`
  // are exported and the `prefix.` is stripped from the keys — the shape a
  // node daemon serves for its own `node.<hostname>.` scope. JsonObject
  // keeps keys sorted, so serialization is deterministic. The walk visits
  // only the names that start with `prefix`, however many sibling scopes
  // the registry holds.
  Json snapshot(const std::string& prefix = "") const;

  // Running count of the names snapshot() has walked: the index entries
  // that start with its prefix. Deterministic and digest-invisible (not a
  // registry series): tests and the perf baseline use its deltas to pin
  // what a snapshot costs.
  std::uint64_t names_visited() const { return names_visited_; }

 private:
  // Inserts a newly interned name into by_name_.
  void index_name(Symbol s);

  // Dense per-kind storage indexed by Symbol id; a slot is null until that
  // (name, kind) pair is first requested. The three kinds share one symbol
  // space, so each vector has gaps — cheap (8 bytes/gap) next to the O(1)
  // hot-path lookup it buys. Ids are first-use order; by_name_ holds every
  // id once, in canonical-name order, so the names under one prefix are a
  // contiguous run that snapshot() binary-searches to.
  StringTable names_;
  std::vector<std::uint32_t> by_name_;
  mutable std::uint64_t names_visited_ = 0;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<LogHistogram>> histograms_;
  // Sparse, indexed by Symbol id like the stores above (read == nullptr
  // means "not linked"); exported alongside counters_ on every read path.
  struct LinkedCounter {
    std::uint64_t (*read)(const void*) = nullptr;
    const void* ctx = nullptr;
  };
  std::vector<LinkedCounter> linked_counters_;
};

}  // namespace picloud::util
