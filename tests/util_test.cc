// Unit tests for util: JSON, strings, stats, RNG, Result.
#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"
#include "util/faults.h"
#include "util/json.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace picloud::util {
namespace {

// ---------------------------------------------------------------------------
// check (PICLOUD_CHECK framework)

TEST(Check, PassingChecksAreSilent) {
  PICLOUD_CHECK(1 + 1 == 2);
  PICLOUD_CHECK_EQ(4, 4) << "context never evaluated on success";
  PICLOUD_CHECK_GE(5, 5);
  PICLOUD_DCHECK_LT(1, 2);
}

TEST(CheckDeathTest, FailureReportsExpressionAndContext) {
  EXPECT_DEATH(PICLOUD_CHECK(2 + 2 == 5) << "arithmetic ctx " << 42,
               "CHECK failed: 2 \\+ 2 == 5.*arithmetic ctx 42");
  EXPECT_DEATH(PICLOUD_CHECK_GT(1, 3), "CHECK failed: 1 > 3");
}

TEST(CheckDeathTest, ChecksSurviveInEveryBuildType) {
  // Unlike assert(), PICLOUD_CHECK stays live under NDEBUG — this death test
  // passing in a Release build is the point of the framework.
  EXPECT_DEATH(Rng(1).uniform_int(9, 3), "CHECK failed");
}

// ---------------------------------------------------------------------------
// strings

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a//b", '/'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", '/'), (std::vector<std::string>{""}));
}

TEST(Strings, SplitNonemptyDropsEmptyFields) {
  EXPECT_EQ(split_nonempty("/a//b/", '/'),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_nonempty("///", '/').empty());
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(join({}, "/"), "");
}

TEST(Strings, TrimStripsWhitespace) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("pi-r0-00", "pi-"));
  EXPECT_FALSE(starts_with("pi", "pi-"));
  EXPECT_TRUE(ends_with("base:1", ":1"));
  EXPECT_FALSE(ends_with(":1", "base:1"));
}

TEST(Strings, ToLowerAsciiOnly) {
  EXPECT_EQ(to_lower("Pi-R0-00"), "pi-r0-00");
  EXPECT_EQ(to_lower("already lower"), "already lower");
}

TEST(Strings, ParseU64) {
  unsigned long long v = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ULL);
  EXPECT_FALSE(parse_u64("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(parse_u64("12a", &v));
  EXPECT_FALSE(parse_u64("", &v));
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(30.0 * (1 << 20)), "30.0 MiB");
  EXPECT_EQ(human_bytes(512), "512.0 B");
}

TEST(Strings, PadTruncatesAndFills) {
  EXPECT_EQ(pad("abc", 5), "abc  ");
  EXPECT_EQ(pad("abcdef", 3), "abc");
}

// ---------------------------------------------------------------------------
// Result

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(Error::make("oom", "out of memory"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, "oom");
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(Result, StatusDefaultsToSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status e(Error::make("x", "y"));
  EXPECT_FALSE(e.ok());
}

// ---------------------------------------------------------------------------
// JSON

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  // Non-integers carry 17 significant digits, as printf's %.17g writes them.
  EXPECT_EQ(Json(0.1).dump(), "0.10000000000000001");
  EXPECT_EQ(Json(1.0 / 3).dump(), "0.33333333333333331");
  EXPECT_EQ(Json(1e21).dump(), "1e+21");
  EXPECT_EQ(Json(1e-7).dump(), "9.9999999999999995e-08");
  EXPECT_EQ(Json(5e-324).dump(), "4.9406564584124654e-324");
  // Integers from 2^53 up take the same form.
  EXPECT_EQ(Json(18014398509481984.0).dump(), "18014398509481984");
  // JSON has no -0, NaN or infinity.
  EXPECT_EQ(Json(-0.0).dump(), "0");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(HUGE_VAL).dump(), "null");
  EXPECT_EQ(Json(-HUGE_VAL).dump(), "null");
}

TEST(Json, ObjectAndArrayBuilders) {
  Json j = Json::object();
  j.set("name", "pi-r0-00").set("rack", 0).set("up", true);
  j.set("tags", Json::array().push_back("a").push_back("b"));
  EXPECT_EQ(j.dump(),
            R"({"name":"pi-r0-00","rack":0,"tags":["a","b"],"up":true})");
}

TEST(Json, ParseRoundTripPreservesStructure) {
  const char* text =
      R"({"a":[1,2.5,null,true,"x"],"b":{"nested":{"deep":-3e2}},"s":"q\"uote\n"})";
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  auto reparsed = Json::parse(parsed.value().dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(parsed.value(), reparsed.value());
  EXPECT_EQ(parsed.value().get("b").get("nested").get_number("deep"), -300.0);
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::parse("tru").ok());
  EXPECT_FALSE(Json::parse("1 2").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
  // Numbers outside the RFC 8259 grammar.
  EXPECT_FALSE(Json::parse("+5").ok());
  EXPECT_FALSE(Json::parse("01").ok());
  EXPECT_FALSE(Json::parse("1.").ok());
  EXPECT_FALSE(Json::parse(".5").ok());
  EXPECT_FALSE(Json::parse("-.5").ok());
}

TEST(Json, UnicodeEscapes) {
  auto parsed = Json::parse(R"("Aé")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "A\xc3\xa9");
}

TEST(Json, DeepNestingIsBounded) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::parse(deep).ok());  // beyond kMaxDepth
}

TEST(Json, GettersWithFallbacks) {
  Json j = Json::object();
  j.set("n", 5);
  EXPECT_EQ(j.get_number("n"), 5.0);
  EXPECT_EQ(j.get_number("missing", -1), -1.0);
  EXPECT_EQ(j.get_string("n", "fallback"), "fallback");  // wrong type
  EXPECT_FALSE(j.has("missing"));
  EXPECT_TRUE(j.get("missing").is_null());
}

TEST(Json, LargeIntegersSerializeWithoutExponent) {
  Json j(static_cast<unsigned long long>(1800ull << 20));
  EXPECT_EQ(j.dump(), "1887436800");
}

TEST(Json, AsIntTruncatesAndDefaults) {
  EXPECT_EQ(Json(41.9).as_int(), 41);
  EXPECT_EQ(Json(-3).as_int(), -3);
  EXPECT_EQ(Json("nan").as_int(), 0);  // wrong type: zero value
}

TEST(Json, InitializerListKeepsTheFirstOfARepeatedKey) {
  // As std::map's initializer-list constructor does.
  const Json j(JsonObject{{"a", 1}, {"b", 2}, {"a", 3}});
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.get_number("a"), 1.0);
  EXPECT_EQ(j.dump(), R"({"a":1,"b":2})");
}

TEST(Json, ParseKeepsTheLastOfARepeatedKey) {
  auto parsed = Json::parse(R"({"a":1,"b":2,"a":3})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value().get_number("a"), 3.0);
  EXPECT_EQ(parsed.value().dump(), R"({"a":3,"b":2})");
}

TEST(Json, InsertionOrderReachesNeitherEqualityNorBytes) {
  Json forward = Json::object();
  forward.set("B", 1).set("a", 2).set("b", 3).set("\xc3\xa9", 4);
  Json backward = Json::object();
  backward.set("\xc3\xa9", 4).set("b", 3).set("a", 2).set("B", 1);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.dump(), backward.dump());
  // Byte order: upper case before lower case, bytes >= 0x80 last.
  EXPECT_EQ(forward.dump(), "{\"B\":1,\"a\":2,\"b\":3,\"\xc3\xa9\":4}");
}

// ---------------------------------------------------------------------------
// stats

TEST(RunningStats, WelfordMatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 100; ++i) {
    double x = std::sin(i) * 10;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Histogram, PercentilesOnKnownData) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100);
  EXPECT_NEAR(h.median(), 50.5, 1e-9);
  EXPECT_NEAR(h.p99(), 99.01, 1e-9);
}

TEST(TimeWeighted, IntegralAndAverage) {
  TimeWeighted tw;
  tw.set(0.0, 2.0);   // 2 for 10s
  tw.set(10.0, 6.0);  // 6 for 10s
  EXPECT_DOUBLE_EQ(tw.integral(20.0), 2.0 * 10 + 6.0 * 10);
  EXPECT_DOUBLE_EQ(tw.average(20.0), 4.0);
  EXPECT_DOUBLE_EQ(tw.current(), 6.0);
}

// ---------------------------------------------------------------------------
// RNG

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.uniform_int(3, 8);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 8);
    saw_lo |= v == 3;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(5.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.15);
}

TEST(Rng, NormalMeanAndSpreadConverge) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ParetoRespectsMinimumAndMean) {
  Rng rng(13);
  RunningStats s;
  double alpha = 3.0;
  double xm = 2.0;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.pareto(alpha, xm);
    ASSERT_GE(v, xm);
    s.add(v);
  }
  EXPECT_NEAR(s.mean(), alpha * xm / (alpha - 1), 0.1);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(17);
  std::vector<double> weights{1, 0, 3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.35);
}

TEST(Rng, ForkOrderIsDeterministicAcrossRuns) {
  // Two identically seeded parents forked the same way must yield identical
  // child streams — fork order is part of the reproducibility contract.
  Rng a(123);
  Rng b(123);
  Rng child_a1 = a.fork();
  Rng child_a2 = a.fork();
  Rng child_b1 = b.fork();
  Rng child_b2 = b.fork();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(child_a1.next_u64(), child_b1.next_u64());
    EXPECT_EQ(child_a2.next_u64(), child_b2.next_u64());
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "fork() perturbed the parent";
  }
}

TEST(Rng, ForkedChildIsIndependentOfParent) {
  Rng parent(31);
  Rng child = parent.fork();
  // No positional collisions between the streams (64-bit values — any
  // collision in 1000 draws means the states are related).
  int collisions = 0;
  RunningStats parent_stats;
  RunningStats child_stats;
  Rng parent_copy = parent;  // drained in lockstep for comparison
  for (int i = 0; i < 1000; ++i) {
    if (parent_copy.next_u64() == child.next_u64()) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
  // Both streams remain individually well-distributed: means of U(0,1)
  // draws converge to 0.5 (a correlated/degenerate child would not).
  Rng child2 = parent.fork();
  for (int i = 0; i < 20000; ++i) {
    parent_stats.add(parent.next_double());
    child_stats.add(child2.next_double());
  }
  EXPECT_NEAR(parent_stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(child_stats.mean(), 0.5, 0.01);
}

TEST(Rng, SiblingForksDoNotCollide) {
  Rng parent(77);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

// ---------------------------------------------------------------------------
// faults (ScopedFaultInjection)

TEST(Faults, ScopedGuardRestoresKnobsOnExit) {
  FaultInjection::instance().reset();
  {
    ScopedFaultInjection faults;
    faults->double_count_spawn_ok = true;
    EXPECT_TRUE(FaultInjection::instance().any());
  }
  EXPECT_FALSE(FaultInjection::instance().any());
}

TEST(Faults, ScopedGuardRestoresPreExistingState) {
  // The guard restores whatever state it found — including knobs that were
  // already flipped — not merely the all-off default.
  FaultInjection::instance().reset();
  FaultInjection::instance().skip_link_drop_accounting = true;
  {
    ScopedFaultInjection faults;
    faults->skip_link_drop_accounting = false;
    faults->double_count_spawn_ok = true;
  }
  EXPECT_TRUE(FaultInjection::instance().skip_link_drop_accounting);
  EXPECT_FALSE(FaultInjection::instance().double_count_spawn_ok);
  FaultInjection::instance().reset();
}

}  // namespace
}  // namespace picloud::util
