// Tests for the overflow-checked int64 scalar.
#include "bigint/checked.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace elmo {
namespace {

TEST(CheckedI64, BasicArithmetic) {
  CheckedI64 a(6);
  CheckedI64 b(-4);
  EXPECT_EQ((a + b).value(), 2);
  EXPECT_EQ((a - b).value(), 10);
  EXPECT_EQ((a * b).value(), -24);
  EXPECT_EQ((a / b).value(), -1);
  EXPECT_EQ((a % b).value(), 2);
  EXPECT_EQ((-a).value(), -6);
}

TEST(CheckedI64, AdditionOverflowThrows) {
  CheckedI64 max(INT64_MAX);
  EXPECT_THROW(max + CheckedI64(1), OverflowError);
  CheckedI64 min(INT64_MIN);
  EXPECT_THROW(min - CheckedI64(1), OverflowError);
}

TEST(CheckedI64, MultiplicationOverflowThrows) {
  CheckedI64 big(INT64_MAX / 2 + 1);
  EXPECT_THROW(big * CheckedI64(2), OverflowError);
  EXPECT_NO_THROW(CheckedI64(INT64_MAX / 2) * CheckedI64(2));
}

TEST(CheckedI64, NegationAndAbsOfMinThrows) {
  CheckedI64 min(INT64_MIN);
  EXPECT_THROW((void)-min, OverflowError);
  EXPECT_THROW((void)min.abs(), OverflowError);
}

TEST(CheckedI64, DivisionEdgeCases) {
  EXPECT_THROW(CheckedI64(1) / CheckedI64(0), InvalidArgumentError);
  EXPECT_THROW(CheckedI64(INT64_MIN) / CheckedI64(-1), OverflowError);
  EXPECT_EQ((CheckedI64(INT64_MIN) % CheckedI64(-1)).value(), 0);
}

TEST(CheckedI64, Gcd) {
  EXPECT_EQ(CheckedI64::gcd(CheckedI64(12), CheckedI64(-18)).value(), 6);
  EXPECT_EQ(CheckedI64::gcd(CheckedI64(0), CheckedI64(0)).value(), 0);
  EXPECT_THROW(CheckedI64::gcd(CheckedI64(INT64_MIN), CheckedI64(2)),
               OverflowError);
}

TEST(CheckedI64, Ordering) {
  EXPECT_LT(CheckedI64(-1), CheckedI64(0));
  EXPECT_GT(CheckedI64(5), CheckedI64(3));
  EXPECT_EQ(CheckedI64(7), CheckedI64(7));
}

}  // namespace
}  // namespace elmo
