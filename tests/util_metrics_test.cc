// Telemetry spine unit tests: registry semantics, log-bucket histogram
// accuracy, canonical snapshot JSON, and the sim-time trace ring.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/intern.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace picloud::util {
namespace {

TEST(MetricsRegistry, CountersAreStableAndShared) {
  MetricsRegistry m;
  Counter& a = m.counter("net.fabric.flows_started");
  a.inc();
  a.inc(4);
  // Requesting the same name returns the same instance: independent
  // components contributing to one logical series aggregate naturally.
  Counter& b = m.counter("net.fabric.flows_started");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(m.counter_value("net.fabric.flows_started"), 5u);
  EXPECT_EQ(m.counter_value("never.registered"), 0u);
  EXPECT_TRUE(m.has("net.fabric.flows_started"));
  EXPECT_FALSE(m.has("net.fabric"));
}

TEST(MetricsRegistry, HandlesSurviveLaterRegistrations) {
  MetricsRegistry m;
  Counter* first = &m.counter("a.first");
  // A pile of later registrations must not invalidate the earlier handle
  // (components grab pointers once at construction).
  for (int i = 0; i < 200; ++i) {
    m.counter("b.fill." + std::to_string(i)).inc();
  }
  first->inc(7);
  EXPECT_EQ(m.counter_value("a.first"), 7u);
  EXPECT_EQ(m.size(), 201u);
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  MetricsRegistry m;
  Gauge& g = m.gauge("node.pi-r0-00.cpu_utilization");
  g.set(0.25);
  g.set(0.75);
  g.add(0.05);
  EXPECT_DOUBLE_EQ(m.gauge_value("node.pi-r0-00.cpu_utilization"), 0.80);
}

TEST(LogHistogram, ExactAggregatesAndBoundedQuantileError) {
  LogHistogram h;  // min 1e-6, growth 1.08 -> quantile error <= 8%
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(static_cast<double>(i));
  double sum = 0;
  for (double v : samples) {
    h.observe(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), sum / 1000.0);
  // Quantiles land within the documented relative-error bound of the exact
  // rank statistic; extremes are exact.
  EXPECT_NEAR(h.median(), 500.0, 500.0 * 0.08);
  EXPECT_NEAR(h.percentile(90), 900.0, 900.0 * 0.08);
  EXPECT_NEAR(h.p99(), 990.0, 990.0 * 0.08);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(LogHistogram, UnderflowAndEmptyBehave) {
  LogHistogram h(/*min_value=*/1.0, /*growth=*/2.0, /*max_buckets=*/8);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);  // empty
  h.observe(-3.0);  // below min_value: counted, sorts before bucket 0
  h.observe(0.0);
  h.observe(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);  // exact even for underflow samples
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.percentile(10), -3.0);  // rank 1 -> underflow -> min
  EXPECT_DOUBLE_EQ(h.percentile(100), 4.0);
}

TEST(LogHistogram, TopBucketClampKeepsMaxExact) {
  LogHistogram h(/*min_value=*/1.0, /*growth=*/2.0, /*max_buckets=*/4);
  h.observe(1e9);  // far beyond the top bucket (span ends at 16)
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // The quantile saturates at the clamped bucket but never exceeds max().
  EXPECT_LE(h.median(), 1e9);
}

TEST(MetricsRegistry, SnapshotJsonRoundTrip) {
  MetricsRegistry m;
  m.counter("cloud.master.spawns_ok").inc(3);
  m.gauge("node.pi-r0-00.power_watts").set(2.75);
  LogHistogram& h = m.histogram("cloud.migration.downtime_seconds");
  h.observe(0.5);
  h.observe(1.5);

  Json snap = m.snapshot();
  // All three sections are always present, even when empty elsewhere.
  ASSERT_TRUE(snap.has("counters"));
  ASSERT_TRUE(snap.has("gauges"));
  ASSERT_TRUE(snap.has("histograms"));
  EXPECT_EQ(snap.get("counters").get_number("cloud.master.spawns_ok"), 3);
  EXPECT_DOUBLE_EQ(snap.get("gauges").get_number("node.pi-r0-00.power_watts"),
                   2.75);
  const Json& hist =
      snap.get("histograms").get("cloud.migration.downtime_seconds");
  EXPECT_EQ(hist.get_number("count"), 2);
  EXPECT_DOUBLE_EQ(hist.get_number("sum"), 2.0);

  // Canonical form: dump -> parse -> dump is the identity (sorted keys).
  std::string dumped = snap.dump();
  auto parsed = Json::parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().dump(), dumped);
}

// The scoped snapshot a prefix must produce, built from the full one: keep
// `prefix` itself and `prefix.*`, stripping "prefix." from the latter.
Json filter_and_strip(const Json& full, const std::string& prefix) {
  Json out = Json::object();
  for (const auto& [kind, series] : full.as_object()) {
    Json kept = Json::object();
    for (const auto& [name, value] : series.as_object()) {
      if (prefix.empty() || name == prefix) {
        kept.set(name, value);
      } else if (name.starts_with(prefix + ".")) {
        kept.set(name.substr(prefix.size() + 1), value);
      }
    }
    out.set(kind, std::move(kept));
  }
  return out;
}

TEST(MetricsRegistry, SnapshotPrefixFiltersAndStrips) {
  MetricsRegistry m;
  m.counter("node.pi-r0-00.heartbeats_sent").inc(9);
  m.gauge("node.pi-r0-00.cpu_utilization").set(0.5);
  m.counter("node.pi-r0-01.heartbeats_sent").inc(2);
  m.counter("cloud.master.spawns_ok").inc();
  // Sorts between "node.pi-r0-00" and its "." children ('-' < '.').
  m.counter("node.pi-r0-00-x.a").inc(4);
  // Sorts after them.
  m.counter("node.pi-r0-000.a").inc(5);
  // A series named exactly as the scope.
  m.gauge("node.pi-r0-00").set(1.25);
  // "node.pi-r0-0" is not a path component boundary of pi-r0-00's scope.
  Json none = m.snapshot("node.pi-r0-0");
  EXPECT_FALSE(none.get("counters").has("0.heartbeats_sent"));

  Json scoped = m.snapshot("node.pi-r0-00");
  EXPECT_EQ(scoped.get("counters").get_number("heartbeats_sent"), 9);
  EXPECT_DOUBLE_EQ(scoped.get("gauges").get_number("cpu_utilization"), 0.5);
  EXPECT_DOUBLE_EQ(scoped.get("gauges").get_number("node.pi-r0-00"), 1.25);
  EXPECT_FALSE(scoped.get("counters").has("node.pi-r0-01.heartbeats_sent"));
  EXPECT_FALSE(scoped.get("counters").has("cloud.master.spawns_ok"));
  EXPECT_FALSE(scoped.get("counters").has("x.a"));
  EXPECT_FALSE(scoped.get("counters").has("0.a"));

  // Registered after the first snapshot: the index takes them in too.
  m.counter("node.pi-r0-00.late").inc(6);
  m.histogram("node.pi-r0-00-x.late").observe(0.5);
  m.counter("a.first").inc();
  m.counter("z.last").inc();

  const Json full = m.snapshot();
  for (const std::string prefix :
       {"node.pi-r0-00", "node.pi-r0-0", "node.absent", ""}) {
    EXPECT_EQ(m.snapshot(prefix).dump(),
              filter_and_strip(full, prefix).dump())
        << "prefix '" << prefix << "'";
  }
  EXPECT_EQ(m.snapshot("node.pi-r0-00").get("counters").get_number("late"),
            6);
}

TEST(MetricsRegistry, ScopedSnapshotCostIgnoresSiblingScopes) {
  // A heartbeat snapshots its own node's ~20 series. What that costs must
  // not grow with the sibling scopes (the rest of the fleet) around it.
  auto visited_for_scope = [](int siblings) {
    MetricsRegistry m;
    for (int i = 0; i <= siblings; ++i) {
      const std::string n = std::to_string(i);
      const std::string host = "node.pi-" + std::string(4 - n.size(), '0') + n;
      for (int k = 0; k < 20; ++k) {
        m.counter(host + ".series_" + std::to_string(k)).inc();
      }
    }
    const std::uint64_t before = m.names_visited();
    const Json scoped = m.snapshot("node.pi-0005");
    EXPECT_EQ(scoped.get("counters").size(), 20u);
    const std::uint64_t scope_cost = m.names_visited() - before;
    // A whole-registry walk visits every name.
    const std::uint64_t before_full = m.names_visited();
    (void)m.snapshot();
    EXPECT_EQ(m.names_visited() - before_full,
              static_cast<std::uint64_t>(20 * (siblings + 1)));
    return scope_cost;
  };
  const std::uint64_t beside_10 = visited_for_scope(10);
  const std::uint64_t beside_1000 = visited_for_scope(1000);
  EXPECT_EQ(beside_10, beside_1000);
  EXPECT_EQ(beside_10, 20u);
}

TEST(TraceBuffer, RingKeepsNewestAndCountsDrops) {
  TraceBuffer tb(/*capacity=*/4);
  std::int64_t now = 0;
  tb.set_clock([&now]() { return now; });
  for (int i = 0; i < 10; ++i) {
    now = i * 1000;
    PICLOUD_TRACE(tb, "test", "tick", {"i", std::to_string(i)});
  }
  EXPECT_EQ(tb.recorded(), 10u);
  EXPECT_EQ(tb.dropped(), 6u);
  std::vector<TraceEvent> events = tb.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, newest retained.
  EXPECT_EQ(events.front().kv.at(0).second, "6");
  EXPECT_EQ(events.back().kv.at(0).second, "9");
  EXPECT_EQ(events.back().t_ns, 9000);
}

TEST(StringTable, InternDedupesAndRoundTrips) {
  StringTable t;
  Symbol a = t.intern("net.fabric");
  Symbol b = t.intern("os.sched");
  Symbol a2 = t.intern("net.fabric");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.str(a), "net.fabric");
  EXPECT_EQ(t.str(b), "os.sched");
  EXPECT_EQ(t.symbol_at(a.id()), a);
  EXPECT_EQ(t.find("os.sched"), b);
  EXPECT_FALSE(t.find("never.seen").valid());
  EXPECT_FALSE(Symbol{}.valid());
}

TEST(StringTable, IdsFollowFirstInternOrder) {
  // Ids are dense and assigned in first-intern order — a pure function of
  // the (deterministic) event order, never of hash layout.
  StringTable t;
  EXPECT_EQ(t.intern("zebra").id(), 0u);
  EXPECT_EQ(t.intern("aardvark").id(), 1u);
  EXPECT_EQ(t.intern("zebra").id(), 0u);  // re-intern keeps the first id
  EXPECT_EQ(t.intern("mid").id(), 2u);
}

TEST(StringTable, StoredStringsSurviveTableGrowth) {
  // str() hands out references that components may hold across later
  // interns (deque backing: growth never moves stored strings).
  StringTable t;
  Symbol first = t.intern("stable.key");
  const std::string* addr = &t.str(first);
  for (int i = 0; i < 1000; ++i) t.intern("fill." + std::to_string(i));
  EXPECT_EQ(&t.str(first), addr);
  EXPECT_EQ(t.str(first), "stable.key");
}

TEST(MetricsRegistry, SymbolHandlesAliasStringNames) {
  // The Symbol overloads and the string conveniences reach the same
  // instrument; name_symbol/name_of round-trip the canonical name.
  MetricsRegistry m;
  Symbol s = m.name_symbol("net.fabric.flows_started");
  m.counter(s).inc(3);
  EXPECT_EQ(&m.counter(s), &m.counter("net.fabric.flows_started"));
  m.counter("net.fabric.flows_started").inc(4);
  EXPECT_EQ(m.counter_value("net.fabric.flows_started"), 7u);
  EXPECT_EQ(m.name_of(s), "net.fabric.flows_started");
  // One name, one symbol — whichever instrument kind uses it.
  m.gauge(s).set(1.5);
  EXPECT_DOUBLE_EQ(m.gauge_value("net.fabric.flows_started"), 1.5);
  EXPECT_EQ(m.name_symbol("net.fabric.flows_started"), s);
}

TEST(MetricsRegistry, SnapshotIsRegistrationOrderIndependent) {
  // The dense handle-keyed stores lay instruments out in intern order, but
  // snapshots stay canonically name-sorted: two registries fed the same
  // series in different orders serialize byte-identically.
  MetricsRegistry a;
  a.counter("z.last").inc(2);
  a.gauge("a.first").set(0.5);
  a.counter("m.mid").inc(1);
  MetricsRegistry b;
  b.gauge("a.first").set(0.5);
  b.counter("m.mid").inc(1);
  b.counter("z.last").inc(2);
  EXPECT_EQ(a.snapshot().dump(), b.snapshot().dump());

  // Scoped, as a heartbeat reads it: one node's series beside sibling scopes
  // that share its prefix string, interned in opposite orders.
  MetricsRegistry fwd;
  fwd.counter("node.pi-r0-0.heartbeats_sent").inc(7);
  fwd.counter("node.pi-r0-00.rest.attempts").inc(3);
  fwd.counter("node.pi-r0-00.heartbeats_sent").inc(5);
  fwd.gauge("node.pi-r0-00.mem_used").set(2);
  fwd.gauge("node.pi-r0-00.cpu_utilization").set(0.5);
  fwd.histogram("node.pi-r0-00.latency_s").observe(0.25);
  fwd.counter("node.pi-r0-01.heartbeats_sent").inc(9);
  MetricsRegistry rev;
  rev.counter("node.pi-r0-01.heartbeats_sent").inc(9);
  rev.histogram("node.pi-r0-00.latency_s").observe(0.25);
  rev.gauge("node.pi-r0-00.cpu_utilization").set(0.5);
  rev.gauge("node.pi-r0-00.mem_used").set(2);
  rev.counter("node.pi-r0-00.heartbeats_sent").inc(5);
  rev.counter("node.pi-r0-00.rest.attempts").inc(3);
  rev.counter("node.pi-r0-0.heartbeats_sent").inc(7);
  const std::string scoped = fwd.snapshot("node.pi-r0-00").dump();
  EXPECT_EQ(scoped, rev.snapshot("node.pi-r0-00").dump());
  // Keys sorted within each kind; the sibling scopes stay out.
  EXPECT_TRUE(scoped.starts_with(
      "{\"counters\":{\"heartbeats_sent\":5,\"rest.attempts\":3},"
      "\"gauges\":{\"cpu_utilization\":0.5,\"mem_used\":2},"
      "\"histograms\":{\"latency_s\":{"))
      << scoped;
}

TEST(TraceBuffer, MaterializedEventsRebuildInternedStrings) {
  // Records keep Symbol handles for component/event/kv-keys; materialized
  // TraceEvents carry the full canonical strings again.
  TraceBuffer tb(/*capacity=*/8);
  std::int64_t now = 42;
  tb.set_clock([&now]() { return now; });
  for (int i = 0; i < 3; ++i) {
    PICLOUD_TRACE(tb, "net.fabric", "flow_start", {"flow", std::to_string(i)});
  }
  std::vector<TraceEvent> events = tb.events();
  ASSERT_EQ(events.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].component, "net.fabric");
    EXPECT_EQ(events[i].event, "flow_start");
    ASSERT_EQ(events[i].kv.size(), 1u);
    EXPECT_EQ(events[i].kv[0].first, "flow");
    EXPECT_EQ(events[i].kv[0].second, std::to_string(i));
    EXPECT_EQ(events[i].t_ns, 42);
  }
}

TEST(TraceBuffer, SinkSeesEverythingAndDisableSkips) {
  TraceBuffer tb(/*capacity=*/2);
  int sunk = 0;
  tb.set_sink([&sunk](const TraceEvent&) { ++sunk; });
  for (int i = 0; i < 5; ++i) PICLOUD_TRACE(tb, "test", "e");
  EXPECT_EQ(sunk, 5);  // the sink outlives ring eviction
  tb.set_enabled(false);
  PICLOUD_TRACE(tb, "test", "e");
  EXPECT_EQ(sunk, 5);
  EXPECT_EQ(tb.recorded(), 5u);
}

}  // namespace
}  // namespace picloud::util
