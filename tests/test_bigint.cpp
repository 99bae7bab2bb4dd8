// Unit and property tests for the arbitrary-precision integer.
#include "bigint/bigint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "support/error.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.to_i64(), 0);
}

TEST(BigInt, ConstructFromInt64Extremes) {
  BigInt max(INT64_MAX);
  BigInt min(INT64_MIN);
  EXPECT_EQ(max.to_string(), "9223372036854775807");
  EXPECT_EQ(min.to_string(), "-9223372036854775808");
  EXPECT_EQ(max.to_i64(), INT64_MAX);
  EXPECT_EQ(min.to_i64(), INT64_MIN);
  EXPECT_TRUE(max.fits_i64());
  EXPECT_TRUE(min.fits_i64());
  // One beyond either extreme no longer fits.
  EXPECT_FALSE((max + BigInt(1)).fits_i64());
  EXPECT_FALSE((min - BigInt(1)).fits_i64());
  EXPECT_THROW((void)(max + BigInt(1)).to_i64(), OverflowError);
}

TEST(BigInt, FromStringRoundTrip) {
  const char* cases[] = {"0",
                         "1",
                         "-1",
                         "42",
                         "-4294967296",
                         "18446744073709551616",
                         "-123456789012345678901234567890",
                         "999999999999999999999999999999999999"};
  for (const char* text : cases) {
    EXPECT_EQ(BigInt::from_string(text).to_string(), text) << text;
  }
}

TEST(BigInt, FromStringAcceptsPlusAndRejectsGarbage) {
  EXPECT_EQ(BigInt::from_string("+17").to_i64(), 17);
  EXPECT_THROW(BigInt::from_string(""), ParseError);
  EXPECT_THROW(BigInt::from_string("-"), ParseError);
  EXPECT_THROW(BigInt::from_string("12a"), ParseError);
  EXPECT_THROW(BigInt::from_string(" 1"), ParseError);
}

TEST(BigInt, NegativeZeroNormalises) {
  BigInt z = BigInt(5) - BigInt(5);
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ((-z).sign(), 0);
  EXPECT_EQ(BigInt::from_string("-0").to_string(), "0");
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt::from_string("4294967295");  // 2^32 - 1
  EXPECT_EQ((a + BigInt(1)).to_string(), "4294967296");
  BigInt b = BigInt::from_string("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ((b + BigInt(1)).to_string(), "18446744073709551616");
}

TEST(BigInt, MixedSignAddition) {
  EXPECT_EQ((BigInt(10) + BigInt(-3)).to_i64(), 7);
  EXPECT_EQ((BigInt(-10) + BigInt(3)).to_i64(), -7);
  EXPECT_EQ((BigInt(-10) + BigInt(-3)).to_i64(), -13);
  EXPECT_EQ((BigInt(3) - BigInt(10)).to_i64(), -7);
}

TEST(BigInt, MultiplicationLarge) {
  BigInt a = BigInt::from_string("123456789012345678901234567890");
  BigInt b = BigInt::from_string("-987654321098765432109876543210");
  EXPECT_EQ(
      (a * b).to_string(),
      "-121932631137021795226185032733622923332237463801111263526900");
  EXPECT_EQ((a * BigInt(0)).to_string(), "0");
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_i64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_i64(), -3);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).to_i64(), -3);
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).to_i64(), 3);
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_i64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_i64(), -1);
  EXPECT_EQ((BigInt(7) % BigInt(-2)).to_i64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(-2)).to_i64(), -1);
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), InvalidArgumentError);
  EXPECT_THROW(BigInt(1) % BigInt(0), InvalidArgumentError);
}

TEST(BigInt, KnuthDAddBackCase) {
  // A dividend/divisor pair engineered to trigger the rare "add back"
  // correction step in Algorithm D.
  BigInt dividend = BigInt::from_string("340282366920938463463374607431768211455");
  BigInt divisor = BigInt::from_string("18446744073709551615");
  BigInt q = dividend / divisor;
  BigInt r = dividend % divisor;
  EXPECT_EQ((q * divisor + r), dividend);
  EXPECT_LT(r.abs(), divisor.abs());
}

TEST(BigInt, Comparison) {
  EXPECT_LT(BigInt(-2), BigInt(-1));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt::from_string("99999999999999999999"),
            BigInt::from_string("100000000000000000000"));
  EXPECT_GT(BigInt::from_string("-99999999999999999999"),
            BigInt::from_string("-100000000000000000000"));
  EXPECT_EQ(BigInt(5), BigInt(5));
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_i64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_i64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(7)).to_i64(), 7);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).to_i64(), 0);
  BigInt a = BigInt::from_string("123456789012345678901234567890");
  EXPECT_EQ(BigInt::gcd(a * BigInt(35), a * BigInt(21)), a * BigInt(7));
}

TEST(BigInt, ExactDiv) {
  BigInt a = BigInt::from_string("123456789012345678901234567890");
  EXPECT_EQ((a * BigInt(12345)).exact_div(BigInt(12345)), a);
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ(BigInt::from_string("18446744073709551616").bit_length(), 65u);
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(12345).to_double(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).to_double(), -12345.0);
  EXPECT_NEAR(BigInt::from_string("1000000000000000000000").to_double(),
              1e21, 1e6);
}

// Property test: ring axioms and divmod identity hold for random values of
// mixed magnitudes, checked against the int64 reference where possible.
TEST(BigIntProperty, RandomizedAgainstI64Reference) {
  Rng rng(42);
  for (int iter = 0; iter < 2000; ++iter) {
    std::int64_t x = static_cast<std::int32_t>(rng.next());
    std::int64_t y = static_cast<std::int32_t>(rng.next());
    BigInt bx(x);
    BigInt by(y);
    EXPECT_EQ((bx + by).to_i64(), x + y);
    EXPECT_EQ((bx - by).to_i64(), x - y);
    EXPECT_EQ((bx * by).to_i64(), x * y);
    if (y != 0) {
      EXPECT_EQ((bx / by).to_i64(), x / y);
      EXPECT_EQ((bx % by).to_i64(), x % y);
    }
  }
}

TEST(BigIntProperty, DivmodIdentityLargeRandom) {
  Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    // Random dividends up to ~256 bits, divisors up to ~128 bits.
    BigInt dividend(static_cast<std::int64_t>(rng.next() >> 1));
    for (int k = 0; k < 3; ++k)
      dividend = dividend * BigInt(static_cast<std::int64_t>(rng.next() >> 1)) +
                 BigInt(static_cast<std::int64_t>(rng.next() >> 1));
    BigInt divisor(static_cast<std::int64_t>(rng.next() >> 1) + 1);
    divisor = divisor * BigInt(static_cast<std::int64_t>(rng.next() >> 1) + 1);
    if (rng.chance(0.5)) dividend = -dividend;
    if (rng.chance(0.5)) divisor = -divisor;

    BigInt q;
    BigInt r;
    BigInt::divmod(dividend, divisor, q, r);
    EXPECT_EQ(q * divisor + r, dividend);
    EXPECT_LT(r.abs(), divisor.abs());
    // Remainder sign follows the dividend (C semantics).
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), dividend.sign());
    }
  }
}

TEST(BigIntProperty, StringRoundTripRandom) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    BigInt v(static_cast<std::int64_t>(rng.next()));
    // Check every size on the way up: one or two limbs take to_string's
    // uint64 fast path, the later products the general one.
    EXPECT_EQ(BigInt::from_string(v.to_string()), v);
    for (int k = 0; k < 4; ++k) {
      v = v * BigInt(static_cast<std::int64_t>(rng.next() >> 3)) +
          BigInt(static_cast<std::int64_t>(rng.next() >> 3));
      EXPECT_EQ(BigInt::from_string(v.to_string()), v);
    }
  }
}

TEST(BigInt, ToStringAtLimbBoundaries) {
  const char* const kValues[] = {
      "0",
      "1",
      "-1",
      "4294967295",                       // 2^32 - 1: one full limb
      "-4294967295",
      "4294967296",                       // 2^32: two limbs
      "-4294967296",
      "9223372036854775807",              // INT64_MAX
      "-9223372036854775808",             // INT64_MIN
      "9223372036854775808",              // INT64_MAX + 1, still two limbs
      "18446744073709551615",             // 2^64 - 1: two full limbs
      "-18446744073709551615",
      "18446744073709551616",             // 2^64: three limbs
      "-39614081257132168796771975167",   // -(2^95 - 1)
  };
  for (const char* text : kValues) {
    const BigInt value = BigInt::from_string(text);
    EXPECT_EQ(value.to_string(), text);
    EXPECT_EQ(BigInt::from_string(value.to_string()), value) << text;
  }
  EXPECT_EQ(BigInt(INT64_MIN).to_string(), "-9223372036854775808");
  EXPECT_EQ(BigInt(INT64_MAX).to_string(), "9223372036854775807");
}

TEST(BigIntProperty, TwoLimbToStringMatchesUint64) {
  Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    const std::uint64_t magnitude = rng.next() >> (iter % 64);
    std::string text = iter % 2 == 1 && magnitude != 0 ? "-" : "";
    text += std::to_string(magnitude);
    EXPECT_EQ(BigInt::from_string(text).to_string(), text);
  }
}

}  // namespace
}  // namespace elmo
