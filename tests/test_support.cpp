// Tests for the support module: assertions, timers, env helpers, RNG.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace elmo {
namespace {

TEST(Assert, RequireThrowsWithContext) {
  try {
    ELMO_REQUIRE(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
  EXPECT_NO_THROW(ELMO_REQUIRE(true, ""));
}

TEST(Assert, CheckThrowsInternalError) {
  EXPECT_THROW(ELMO_CHECK(false, "broken invariant"), InternalError);
}

TEST(Error, HierarchyCatchableAsBase) {
  try {
    throw OverflowError("x");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "x");
  }
  MemoryBudgetError mem("m", 100, 50);
  EXPECT_EQ(mem.requested_bytes, 100u);
  EXPECT_EQ(mem.budget_bytes, 50u);
}

TEST(Timer, StopwatchAdvances) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(watch.seconds(), 0.0);
  double before = watch.seconds();
  watch.reset();
  EXPECT_LE(watch.seconds(), before + 1.0);
}

TEST(Timer, PhaseTimerAccumulatesAndMerges) {
  PhaseTimer timer;
  timer.add("gen cand", 1.5);
  timer.add("gen cand", 0.5);
  timer.add("merge", 0.25);
  EXPECT_DOUBLE_EQ(timer.seconds("gen cand"), 2.0);
  EXPECT_DOUBLE_EQ(timer.seconds("missing"), 0.0);

  PhaseTimer other;
  other.add("gen cand", 1.0);
  other.add("rank test", 3.0);
  PhaseTimer sum = timer;
  sum.merge(other);
  EXPECT_DOUBLE_EQ(sum.seconds("gen cand"), 3.0);
  EXPECT_DOUBLE_EQ(sum.seconds("rank test"), 3.0);

  PhaseTimer peak = timer;
  peak.merge_max(other);
  EXPECT_DOUBLE_EQ(peak.seconds("gen cand"), 2.0);  // max(2.0, 1.0)
  EXPECT_DOUBLE_EQ(peak.seconds("rank test"), 3.0);
}

TEST(Timer, PhaseEnumAndStringApisAreEquivalent) {
  // The interned enum names ARE the historical string keys.
  EXPECT_EQ(phase_from_name("gen cand"), Phase::kGenCand);
  EXPECT_EQ(phase_from_name("rank test"), Phase::kRankTest);
  EXPECT_EQ(phase_from_name("communicate"), Phase::kCommunicate);
  EXPECT_EQ(phase_from_name("merge"), Phase::kMerge);
  EXPECT_EQ(phase_from_name("checkpoint"), Phase::kCheckpoint);
  EXPECT_EQ(phase_from_name("gen cand "), std::nullopt);
  EXPECT_EQ(phase_from_name(""), std::nullopt);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const Phase phase = static_cast<Phase>(p);
    EXPECT_EQ(phase_from_name(phase_name(phase)), phase);
  }

  // Adds through either API land in the same slot.
  PhaseTimer timer;
  timer.add(Phase::kGenCand, 1.0);
  timer.add("gen cand", 2.0);
  EXPECT_DOUBLE_EQ(timer.seconds(Phase::kGenCand), 3.0);
  EXPECT_DOUBLE_EQ(timer.seconds("gen cand"), 3.0);

  // Ad-hoc names still work via the fallback map, and totals() shows both
  // kinds (zero-valued interned phases are omitted).
  timer.add("custom phase", 0.5);
  auto totals = timer.totals();
  EXPECT_EQ(totals.size(), 2u);
  EXPECT_DOUBLE_EQ(totals.at("gen cand"), 3.0);
  EXPECT_DOUBLE_EQ(totals.at("custom phase"), 0.5);

  PhaseTimer other;
  other.add(Phase::kGenCand, 5.0);
  other.add("custom phase", 0.25);
  PhaseTimer peak = timer;
  peak.merge_max(other);
  EXPECT_DOUBLE_EQ(peak.seconds(Phase::kGenCand), 5.0);
  EXPECT_DOUBLE_EQ(peak.seconds("custom phase"), 0.5);

  timer.clear();
  EXPECT_TRUE(timer.totals().empty());
}

TEST(Timer, ScopedPhaseAddsOnDestruction) {
  PhaseTimer timer;
  {
    ScopedPhase phase(timer, "work");
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_GT(timer.seconds("work"), 0.0);
}

TEST(Env, StringIntAndFlag) {
  ::setenv("ELMO_TEST_VAR", "17", 1);
  EXPECT_EQ(env_string("ELMO_TEST_VAR").value(), "17");
  EXPECT_EQ(env_long("ELMO_TEST_VAR", -1), 17);
  EXPECT_TRUE(env_flag("ELMO_TEST_VAR"));

  ::setenv("ELMO_TEST_VAR", "off", 1);
  EXPECT_FALSE(env_flag("ELMO_TEST_VAR"));
  ::setenv("ELMO_TEST_VAR", "0", 1);
  EXPECT_FALSE(env_flag("ELMO_TEST_VAR"));
  EXPECT_EQ(env_long("ELMO_TEST_VAR", -1), 0);
  ::setenv("ELMO_TEST_VAR", "junk", 1);
  EXPECT_EQ(env_long("ELMO_TEST_VAR", -1), -1);

  ::unsetenv("ELMO_TEST_VAR");
  EXPECT_FALSE(env_string("ELMO_TEST_VAR").has_value());
  EXPECT_FALSE(env_flag("ELMO_TEST_VAR"));
  EXPECT_EQ(env_long("ELMO_TEST_VAR", 42), 42);
}

TEST(Random, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  Rng c(124);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    auto x = a.next();
    EXPECT_EQ(x, b.next());
    if (x != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Random, BelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
    auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    auto u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Random, RoughlyUniform) {
  Rng rng(9);
  int buckets[8] = {};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++buckets[rng.below(8)];
  for (int b = 0; b < 8; ++b) {
    EXPECT_GT(buckets[b], n / 8 - n / 40);
    EXPECT_LT(buckets[b], n / 8 + n / 40);
  }
}

}  // namespace
}  // namespace elmo
