// Tests for the inline support set Bitset<W> (every width shares semantics).
#include "bitset/bitset.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/random.hpp"

namespace elmo {
namespace {

// The word view's length is a compile-time constant, and a support holds
// nothing but its words.
static_assert(std::tuple_size_v<Bitset<3>::Words> == 3);
static_assert(Bitset<2>::capacity() == 128);
static_assert(sizeof(Bitset<4>) == 4 * sizeof(std::uint64_t));

TEST(Bitset, OneWordSetTestCount) {
  Bitset<1> s;
  EXPECT_EQ(s.count(), 0u);
  s.set(0);
  s.set(63);
  s.set(17);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(63));
  EXPECT_FALSE(s.test(1));
  EXPECT_EQ(s.words()[0], (1ULL << 63) | (1ULL << 17) | 1ULL);
}

TEST(Bitset, MultiWordBasics) {
  Bitset<4> s;
  s.set(0);
  s.set(64);
  s.set(128);
  s.set(199);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.test(128));
  EXPECT_FALSE(s.test(127));
  EXPECT_EQ(s.words()[1], 1u);
  EXPECT_EQ(s.words()[3], 1ULL << (199 - 192));
}

TEST(Bitset, SubsetAcrossWords) {
  Bitset<3> a;
  Bitset<3> b;
  a.set(5);
  a.set(100);
  b.set(5);
  b.set(100);
  b.set(129);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  Bitset<3> c;
  c.set(7);
  EXPECT_FALSE(c.is_subset_of(b));
}

TEST(Bitset, OneWordOrderingMatchesWordValue) {
  Bitset<1> a;
  a.words()[0] = 0b0110;
  Bitset<1> b;
  b.words()[0] = 0b1001;
  EXPECT_LT(a, b);
  EXPECT_EQ(a, a);
  EXPECT_NE(a, b);
}

TEST(Bitset, OrderingIsMostSignificantWordFirst) {
  Bitset<3> a;
  Bitset<3> b;
  a.set(129);  // high word
  b.set(0);    // low word
  b.set(64);
  EXPECT_GT(a, b);
}

TEST(Bitset, AppendIndicesAscendingAcrossWords) {
  Bitset<2> s;
  for (std::size_t i : {127u, 3u, 64u, 0u, 70u}) s.set(i);
  std::vector<std::size_t> indices;
  s.append_indices(indices);
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 3, 64, 70, 127}));
}

TEST(Bitset, FactoryRespectsCapacity) {
  auto small = make_support<Bitset<1>>(64);
  EXPECT_EQ(small.count(), 0u);
  EXPECT_THROW(make_support<Bitset<1>>(65), InvalidArgumentError);
  EXPECT_NO_THROW(make_support<Bitset<2>>(128));
  EXPECT_THROW(make_support<Bitset<2>>(129), InvalidArgumentError);
  EXPECT_NO_THROW(make_support<Bitset<8>>(500));
}

// Property: one and two words agree on every operation for <= 64 bits, so
// widening a network's supports cannot change the solver's sort order.
TEST(BitsetProperty, WidthsAgreeOnTheLowWord) {
  Rng rng(3);
  for (int iter = 0; iter < 500; ++iter) {
    Bitset<1> a1;
    Bitset<1> b1;
    Bitset<2> a2;
    Bitset<2> b2;
    for (int k = 0; k < 12; ++k) {
      const std::size_t i = rng.below(64);
      const std::size_t j = rng.below(64);
      a1.set(i);
      a2.set(i);
      b1.set(j);
      b2.set(j);
    }
    EXPECT_EQ(a1.count(), a2.count());
    EXPECT_EQ(a1.is_subset_of(b1), a2.is_subset_of(b2));
    EXPECT_EQ(a1 == b1, a2 == b2);
    EXPECT_EQ(a1 < b1, a2 < b2);
  }
}

}  // namespace
}  // namespace elmo
