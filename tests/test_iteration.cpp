// Unit tests for the iteration machinery: classification, candidate-ref
// generation (support cancellation, pre-test bounds), blocked processing
// (memory cap, cross-block dedup), and merge_next semantics.
#include "nullspace/iteration.hpp"

#include <gtest/gtest.h>

#include "bitset/bitset.hpp"
#include "nullspace/rank_test.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

using Col = FluxColumn<CheckedI64, Bitset<1>>;

Col col(std::initializer_list<std::int64_t> values) {
  std::vector<CheckedI64> v;
  for (auto x : values) v.emplace_back(x);
  return Col::from_values(std::move(v));
}

TEST(FluxColumn, FromValuesNormalisesAndComputesSupport) {
  Col c = col({0, 6, -9, 0});
  EXPECT_EQ(c.values[1].value(), 2);  // divided by gcd 3
  EXPECT_EQ(c.values[2].value(), -3);
  EXPECT_FALSE(c.support.test(0));
  EXPECT_TRUE(c.support.test(1));
  EXPECT_TRUE(c.support.test(2));
  EXPECT_EQ(c.support.count(), 2u);
}

TEST(FluxColumn, CombineAnnihilatesRow) {
  Col u = col({1, 2, 0});   // positive at row 0
  Col v = col({-2, 0, 3});  // negative at row 0
  Col w = combine_columns(u, v, 0);
  EXPECT_TRUE(scalar_is_zero(w.values[0]));
  // w = 2*u + 1*v = (0, 4, 3).
  EXPECT_EQ(w.values[1].value(), 4);
  EXPECT_EQ(w.values[2].value(), 3);
}

TEST(ClassifyRow, SplitsBySign) {
  std::vector<Col> columns = {col({1, 0}), col({-1, 1}), col({0, 1}),
                              col({2, -1})};
  auto cls = classify_row(columns, 0);
  EXPECT_EQ(cls.positive, (std::vector<std::uint32_t>{0, 3}));
  EXPECT_EQ(cls.negative, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(cls.zero, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(cls.pair_count(), 2u);
}

TEST(GenerateRefs, ComputesExactSupportWithCancellation) {
  // u = (1, 1, 1, 0), v = (-1, -1, 0, 1): combination u + v = (0, 0, 1, 1)
  // — row 1 cancels even though both supports contain it.
  std::vector<Col> columns = {col({1, 1, 1, 0}), col({-1, -1, 0, 1})};
  RowClassification cls;
  cls.positive = {0};
  cls.negative = {1};
  std::vector<CandidateRef<Bitset<1>>> refs;
  IterationStats stats;
  std::uint64_t cursor = 0;
  generate_candidate_refs(columns, /*row=*/0, cls, &cursor, 1, /*rank=*/3,
                          SIZE_MAX, refs, stats);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_FALSE(refs[0].support.test(0));
  EXPECT_FALSE(refs[0].support.test(1));  // cancelled
  EXPECT_TRUE(refs[0].support.test(2));
  EXPECT_TRUE(refs[0].support.test(3));
  EXPECT_EQ(stats.pairs_probed, 1u);
  EXPECT_EQ(stats.pretest_survivors, 1u);
}

TEST(GenerateRefs, MirrorPairProducesNoCandidate) {
  // v = -u: the combination is the zero vector.
  std::vector<Col> columns = {col({1, 2, -1}), col({-1, -2, 1})};
  RowClassification cls;
  cls.positive = {0};
  cls.negative = {1};
  std::vector<CandidateRef<Bitset<1>>> refs;
  IterationStats stats;
  std::uint64_t cursor = 0;
  generate_candidate_refs(columns, 0, cls, &cursor, 1, 3, SIZE_MAX, refs,
                          stats);
  EXPECT_TRUE(refs.empty());
  EXPECT_EQ(stats.pretest_survivors, 1u);
}

TEST(GenerateRefs, PreTestRejectsWideUnions) {
  // rank = 1 => unions of more than 3 rows are rejected without
  // materialisation.
  std::vector<Col> columns = {col({1, 1, 1, 0, 0}), col({-1, 0, 0, 1, 1})};
  RowClassification cls;
  cls.positive = {0};
  cls.negative = {1};
  std::vector<CandidateRef<Bitset<1>>> refs;
  IterationStats stats;
  std::uint64_t cursor = 0;
  generate_candidate_refs(columns, 0, cls, &cursor, 1, /*rank=*/1, SIZE_MAX,
                          refs, stats);
  EXPECT_TRUE(refs.empty());
  EXPECT_EQ(stats.pairs_probed, 1u);
  EXPECT_EQ(stats.pretest_survivors, 0u);  // union of 5 > rank + 2
}

TEST(GenerateRefs, RefCapPausesAndResumes) {
  // 3 positives x 2 negatives = 6 pairs, all surviving; cap at 2 refs per
  // call and resume via the cursor.
  std::vector<Col> columns = {col({1, 1, 0}),  col({2, 0, 1}),
                              col({1, 1, 1}),  col({-1, 1, 0}),
                              col({-2, 0, 1})};
  RowClassification cls;
  cls.positive = {0, 1, 2};
  cls.negative = {3, 4};
  std::uint64_t cursor = 0;
  IterationStats stats;
  std::size_t calls = 0;
  std::size_t total_refs = 0;
  while (cursor < cls.pair_count()) {
    std::vector<CandidateRef<Bitset<1>>> refs;
    generate_candidate_refs(columns, 0, cls, &cursor, cls.pair_count(),
                            /*rank=*/5, /*ref_cap=*/2, refs, stats);
    EXPECT_LE(refs.size(), 2u);
    total_refs += refs.size();
    ++calls;
    ASSERT_LT(calls, 20u) << "cursor failed to advance";
  }
  EXPECT_EQ(stats.pairs_probed, 6u);
  EXPECT_EQ(total_refs, stats.pretest_survivors);
  EXPECT_GE(calls, 3u);  // the cap forced multiple blocks
}

TEST(ProcessPairRange, BlockedRunMatchesUnblocked) {
  // Random columns; compare accepted sets between a one-shot run and a
  // tiny-block run.
  Rng rng(15);
  std::vector<Col> columns;
  for (int c = 0; c < 24; ++c) {
    std::vector<CheckedI64> v(6, CheckedI64(0));
    for (int k = 0; k < 3; ++k)
      v[rng.below(6)] = CheckedI64(rng.range(-2, 2));
    v[rng.below(6)] = CheckedI64(1 + static_cast<std::int64_t>(rng.below(2)));
    columns.push_back(Col::from_values(std::move(v)));
  }
  Matrix<CheckedI64> n = Matrix<CheckedI64>::from_rows(
      {{1, -1, 0, 0, 0, 0}, {0, 1, -1, 0, 0, 0}, {0, 0, 1, -1, 1, -1}});
  RankTester<CheckedI64> tester(n);
  auto is_elementary = [&](const Bitset<1>& s) {
    return tester.is_elementary(s);
  };

  auto run = [&](std::size_t cap) {
    auto cls = classify_row(columns, 0);
    IterationStats stats;
    PhaseTimer phases;
    std::vector<Col> accepted;
    process_pair_range(columns, 0, cls, /*rank=*/3, 0, cls.pair_count(), cap,
                       is_elementary, stats, phases, accepted);
    std::sort(accepted.begin(), accepted.end());
    return accepted;
  };
  auto one_shot = run(SIZE_MAX);
  auto blocked = run(1);
  EXPECT_EQ(one_shot, blocked);
}

TEST(MergeNext, KeepsNegativesOnlyForReversibleRows) {
  std::vector<Col> columns = {col({1, 0}), col({-1, 1}), col({0, 1})};
  auto cls = classify_row(columns, 0);
  {
    auto copy = columns;
    auto next = merge_next(std::move(copy), cls, /*row_reversible=*/false,
                           {});
    EXPECT_EQ(next.size(), 2u);  // zero + positive
  }
  {
    auto copy = columns;
    auto next =
        merge_next(std::move(copy), cls, /*row_reversible=*/true, {});
    EXPECT_EQ(next.size(), 3u);
  }
}

TEST(CrossCandidateFilter, RemovesSupersets) {
  std::vector<Col> accepted = {col({1, 1, 0, 0}), col({1, 1, 1, 0})};
  IterationStats stats;
  stats.accepted = 2;
  cross_candidate_subset_filter(accepted, stats);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0].support.count(), 2u);
  EXPECT_EQ(stats.accepted, 1u);
}

}  // namespace
}  // namespace elmo
