// Tests for the control-plane model checker (DESIGN.md §13): schedule
// serialization, episode determinism, exhaustive exploration of the canned
// configs, DPOR pruning vs the naive baseline, and the planted-bug pipeline
// (explore -> minimize -> serialize -> replay bit-identically).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mc/explorer.h"
#include "mc/harness.h"
#include "mc/schedule.h"
#include "util/faults.h"

namespace picloud::mc {
namespace {

// ---------------------------------------------------------------------------
// Schedule serialization

TEST(Schedule, JsonRoundTripPreservesEveryField) {
  Schedule s;
  s.config = "duplicate-spawn";
  s.seed = 42;
  s.choices = {"deliver:a>b#1", "fault:crash#1"};
  s.violation = "probe:spawn-accounting";
  s.digest = 0xDEADBEEFCAFEF00Dull;

  auto parsed = Schedule::parse(s.dump());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().config, s.config);
  EXPECT_EQ(parsed.value().seed, s.seed);
  EXPECT_EQ(parsed.value().choices, s.choices);
  EXPECT_EQ(parsed.value().violation, s.violation);
  EXPECT_EQ(parsed.value().digest, s.digest);
}

TEST(Schedule, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Schedule::parse("not json").ok());
  EXPECT_FALSE(Schedule::parse("[1,2,3]").ok());
  EXPECT_FALSE(Schedule::parse("{\"seed\": 1}").ok());  // missing config
}

TEST(Schedule, ConfigCatalogueResolvesEveryListedName) {
  for (const std::string& name : list_mc_configs()) {
    auto config = mc_config(name);
    ASSERT_TRUE(config.ok()) << name;
    EXPECT_EQ(config.value().name, name);
  }
  EXPECT_FALSE(mc_config("no-such-config").ok());
}

// ---------------------------------------------------------------------------
// Episode determinism

TEST(Harness, SameChoicesProduceBitIdenticalEpisodes) {
  auto config = mc_config("duplicate-spawn");
  ASSERT_TRUE(config.ok());
  EpisodeResult first = run_episode(config.value(), {});
  EpisodeResult second = run_episode(config.value(), {});
  EXPECT_TRUE(first.completed);
  // The duplicate-spawn race is made of message deliveries; the recorded
  // kinds (and their display names) say so.
  ASSERT_FALSE(first.steps.empty());
  ASSERT_FALSE(first.steps[0].kinds.empty());
  EXPECT_STREQ(sim::schedule_point_kind_name(first.steps[0].kinds[0]),
               "delivery");
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.events, second.events);
  ASSERT_EQ(first.steps.size(), second.steps.size());
  for (std::size_t i = 0; i < first.steps.size(); ++i) {
    EXPECT_EQ(first.steps[i].ready, second.steps[i].ready);
    EXPECT_EQ(first.steps[i].chosen, second.steps[i].chosen);
  }

  // Forcing a recorded non-default choice is also deterministic, and
  // genuinely changes the execution relative to pure FIFO order.
  ASSERT_FALSE(first.steps.empty());
  ASSERT_GE(first.steps[0].ready.size(), 2u);
  const std::vector<std::string> flipped = {first.steps[0].ready[1]};
  EpisodeResult third = run_episode(config.value(), flipped);
  EpisodeResult fourth = run_episode(config.value(), flipped);
  EXPECT_EQ(third.digest, fourth.digest);
  EXPECT_EQ(third.steps[0].chosen, first.steps[0].ready[1]);
}

// ---------------------------------------------------------------------------
// Exploration

TEST(Explorer, ExhaustsEveryCannedConfigWithoutViolations) {
  for (const std::string& name : list_mc_configs()) {
    auto config = mc_config(name);
    ASSERT_TRUE(config.ok());
    Explorer explorer(config.value());
    ExploreResult result = explorer.run();
    EXPECT_TRUE(result.exhausted) << name;
    EXPECT_FALSE(result.found_violation)
        << name << ": " << result.violation_signature;
    // Every config must present a real choice: more than one interleaving
    // and more than one decision deep.
    EXPECT_GE(result.episodes, 2u) << name;
    EXPECT_GE(result.max_depth, 2u) << name;
    EXPECT_EQ(result.episodes,
              explorer.metrics().counter_value("mc.episodes"))
        << name;
  }
}

TEST(Explorer, DporExploresStrictlyFewerInterleavingsThanNaive) {
  // The acceptance ratio: on the same config, DPOR must terminate having
  // run strictly fewer episodes than naive full enumeration while covering
  // the same reachable end states (its digest set is a subset) and agreeing
  // on the verdict.
  for (const std::string& name :
       {std::string("duplicate-spawn"),
        std::string("migration-vs-source-crash")}) {
    auto config = mc_config(name);
    ASSERT_TRUE(config.ok());

    ExplorerOptions dpor_options;
    dpor_options.dpor = true;
    Explorer dpor(config.value(), dpor_options);
    ExploreResult dpor_result = dpor.run();

    ExplorerOptions naive_options;
    naive_options.dpor = false;
    Explorer naive(config.value(), naive_options);
    ExploreResult naive_result = naive.run();

    ASSERT_TRUE(dpor_result.exhausted) << name;
    ASSERT_TRUE(naive_result.exhausted) << name;
    EXPECT_LT(dpor_result.episodes, naive_result.episodes) << name;
    EXPECT_LT(dpor_result.transitions, naive_result.transitions) << name;
    EXPECT_EQ(dpor_result.found_violation, naive_result.found_violation)
        << name;
    EXPECT_TRUE(std::includes(
        naive_result.end_digests.begin(), naive_result.end_digests.end(),
        dpor_result.end_digests.begin(), dpor_result.end_digests.end()))
        << name << ": DPOR reached an end state naive enumeration did not";
  }
}

TEST(Explorer, TransitionBudgetReportsNonExhaustedSearch) {
  auto config = mc_config("duplicate-spawn");
  ASSERT_TRUE(config.ok());
  ExplorerOptions options;
  options.dpor = false;
  options.max_episodes = 2;
  Explorer explorer(config.value(), options);
  ExploreResult result = explorer.run();
  EXPECT_FALSE(result.exhausted);
  EXPECT_EQ(result.episodes, 2u);
}

// ---------------------------------------------------------------------------
// Planted-bug pipeline (DESIGN.md §13.4)

TEST(Explorer, FindsScheduleDependentPlantedBugAndReplayIsBitIdentical) {
  util::ScopedFaultInjection faults;
  faults->recount_replayed_spawn = true;

  auto config = mc_config("duplicate-spawn");
  ASSERT_TRUE(config.ok());
  Explorer explorer(config.value());
  ExploreResult result = explorer.run();
  ASSERT_TRUE(result.found_violation)
      << "planted recount-replayed-spawn bug was not found";
  EXPECT_EQ(result.violation_signature, "probe:spawn-accounting");
  // The bug is schedule-dependent: the FIFO episode (always explored
  // first) is clean, so finding it required exploring a reordering.
  EXPECT_GT(result.episodes, 1u);

  // Minimization keeps the signature, and replaying the minimized schedule
  // reproduces the recorded digest bit-for-bit.
  Schedule minimized = minimize_schedule(result.counterexample);
  EXPECT_LE(minimized.choices.size(), result.counterexample.choices.size());
  EXPECT_FALSE(minimized.choices.empty())
      << "a schedule-dependent bug cannot minimize to the empty schedule";
  EXPECT_EQ(minimized.violation, result.counterexample.violation);

  auto replayed = replay_schedule(minimized);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(replayed.value().violation_signature(), minimized.violation);
  EXPECT_EQ(replayed.value().digest, minimized.digest);

  // Round-trip through the serialized form loses nothing.
  auto parsed = Schedule::parse(minimized.dump());
  ASSERT_TRUE(parsed.ok());
  auto replayed_again = replay_schedule(parsed.value());
  ASSERT_TRUE(replayed_again.ok());
  EXPECT_EQ(replayed_again.value().digest, minimized.digest);
}

// Regression pin: the counterexample committed by this PR keeps failing the
// same way, bit for bit, on every future revision. If an intentional
// behaviour change breaks the digest, regenerate the file with
//   picloud_mc --config=duplicate-spawn --plant=recount-replayed-spawn
//              --out=tests/data/mc_counterexample_duplicate_spawn.json
// (minus the minimization differences, see the file's choices) and note the
// change in the commit message.
TEST(Explorer, CommittedCounterexampleReplaysBitIdentically) {
  const std::string path = std::string(PICLOUD_SOURCE_DIR) +
                           "/tests/data/mc_counterexample_duplicate_spawn.json";
  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "missing " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  auto schedule = Schedule::parse(buffer.str());
  ASSERT_TRUE(schedule.ok()) << schedule.error().message;
  ASSERT_EQ(schedule.value().violation, "probe:spawn-accounting");
  ASSERT_FALSE(schedule.value().choices.empty());

  {
    util::ScopedFaultInjection faults;
    faults->recount_replayed_spawn = true;
    auto replayed = replay_schedule(schedule.value());
    ASSERT_TRUE(replayed.ok()) << replayed.error().message;
    EXPECT_EQ(replayed.value().violation_signature(),
              schedule.value().violation);
    EXPECT_EQ(replayed.value().digest, schedule.value().digest);
  }

  // Without the planted knob the same schedule is clean — the committed
  // file captures a genuine interleaving bug, not a config that always
  // fails.
  auto clean = replay_schedule(schedule.value());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().violation_signature(), "");
}

}  // namespace
}  // namespace picloud::mc
