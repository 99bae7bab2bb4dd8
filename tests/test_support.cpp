// Tests for the support module: assertions, timers, env helpers, RNG, and
// the byte codec (integers, CRC32, frames).
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include "support/assert.hpp"
#include "support/codec.hpp"
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

TEST(Codec, Crc32MatchesIeeeTestVector) {
  const std::string check = "123456789";
  // char -> uint8_t view of the CRC test vector.  lint:allow(reinterpret-cast)
  EXPECT_EQ(codec::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                         check.size()),
            0xCBF43926u);
  EXPECT_EQ(codec::crc32(nullptr, 0), 0u);
}

TEST(Codec, IntegersAreLittleEndianAndTruncationThrows) {
  codec::Bytes out;
  codec::put_u8(out, 0xAB);
  codec::put_u32(out, 0x01020304u);
  codec::put_u64(out, 0x1122334455667788ull);
  ASSERT_EQ(out.size(), 13u);
  EXPECT_EQ(out[1], 0x04);
  EXPECT_EQ(out[5], 0x88);
  const std::uint8_t* cursor = out.data();
  const std::uint8_t* end = out.data() + out.size();
  EXPECT_EQ(codec::get_u8(cursor, end), 0xAB);
  EXPECT_EQ(codec::get_u32(cursor, end), 0x01020304u);
  EXPECT_EQ(codec::get_u64(cursor, end), 0x1122334455667788ull);
  EXPECT_EQ(cursor, end);
  EXPECT_THROW(codec::get_u8(cursor, end), ParseError);
}

TEST(Codec, FrameScanStopsAtTheFirstUntrustedFrame) {
  std::ostringstream written;
  const std::vector<codec::Bytes> bodies = {{1, 2, 3}, {}, {9, 8, 7, 6}};
  for (const auto& body : bodies) codec::write_frame(written, body);
  const std::string image = written.str();
  const std::size_t first_end = 3 + codec::kFrameOverhead;
  const std::size_t second_end = first_end + codec::kFrameOverhead;
  ASSERT_EQ(image.size(), second_end + 4 + codec::kFrameOverhead);

  auto scan = [](const std::string& bytes, std::size_t accept_frames,
                 std::vector<codec::Bytes>* seen) {
    std::istringstream in(bytes);
    return codec::scan_frames(in, [&](codec::Bytes&& body) {
      if (seen->size() == accept_frames) return false;
      seen->push_back(std::move(body));
      return true;
    });
  };
  std::vector<codec::Bytes> seen;
  codec::FrameScan clean = scan(image, 3, &seen);
  EXPECT_EQ(clean.stream_end, image.size());
  EXPECT_FALSE(clean.bad_crc);
  EXPECT_EQ(clean.frames, 3u);
  EXPECT_EQ(clean.intact_end, image.size());
  EXPECT_EQ(seen, bodies);

  seen.clear();
  codec::FrameScan rejected = scan(image, 1, &seen);
  EXPECT_FALSE(rejected.bad_crc);
  EXPECT_EQ(rejected.frames, 1u);
  EXPECT_EQ(rejected.intact_end, first_end);

  std::string flipped = image;
  flipped[second_end + 9] ^= 0x10;  // a body byte of the third frame
  seen.clear();
  codec::FrameScan bad = scan(flipped, 3, &seen);
  ASSERT_TRUE(bad.bad_crc);
  EXPECT_NE(bad.bad_crc->stored, bad.bad_crc->actual);
  EXPECT_EQ(bad.intact_end, second_end);

  seen.clear();
  codec::FrameScan cut = scan(image.substr(0, image.size() - 1), 3, &seen);
  EXPECT_FALSE(cut.bad_crc);
  EXPECT_EQ(cut.stream_end, image.size() - 1);
  EXPECT_EQ(cut.intact_end, second_end);

  // A size field beyond the stream is a cut-short frame, not an allocation.
  std::string huge = image;
  huge[first_end + 7] = '\x7f';
  seen.clear();
  codec::FrameScan oversized = scan(huge, 3, &seen);
  EXPECT_FALSE(oversized.bad_crc);
  EXPECT_EQ(oversized.intact_end, first_end);
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
