// Tests for the result writers and the bench table renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "io/efm_writer.hpp"
#include "io/mode_set.hpp"
#include "nullspace/efm.hpp"
#include "io/table.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace elmo {
namespace {

TEST(EfmWriter, TextLayout) {
  std::vector<std::vector<BigInt>> modes = {
      {BigInt(1), BigInt(0)},
      {BigInt(-2), BigInt(3)},
  };
  auto text = efms_to_text(modes, {"r1", "r2"});
  EXPECT_EQ(text, "r1\t1\t-2\nr2\t0\t3\n");
}

TEST(EfmWriter, CsvLayout) {
  std::vector<std::vector<BigInt>> modes = {{BigInt(1), BigInt(0)}};
  auto csv = efms_to_csv(modes, {"r1", "r2"});
  EXPECT_EQ(csv, "r1,r2\n1,0\n");
}

TEST(EfmWriter, WritesValuesBeyondSixtyFourBits) {
  // 2^64 + 1 and -(2^64 - 1) straddle to_string's two-limb fast path.
  std::vector<std::vector<BigInt>> modes = {
      {BigInt::from_string("18446744073709551617"), BigInt(-7), BigInt(0)},
      {BigInt::from_string("-18446744073709551615"), BigInt(INT64_MIN),
       BigInt(1)},
  };
  EXPECT_EQ(efms_to_csv(modes, {"r1", "r2", "r3"}),
            "r1,r2,r3\n"
            "18446744073709551617,-7,0\n"
            "-18446744073709551615,-9223372036854775808,1\n");
  EXPECT_EQ(efms_to_text(modes, {"r1", "r2", "r3"}),
            "r1\t18446744073709551617\t-18446744073709551615\n"
            "r2\t-7\t-9223372036854775808\n"
            "r3\t0\t1\n");
}

TEST(EfmWriter, NoModesWritesHeaderOnly) {
  const std::vector<std::vector<BigInt>> none;
  EXPECT_EQ(efms_to_csv(none, {"r1", "r2"}), "r1,r2\n");
  EXPECT_EQ(efms_to_text(none, {"r1", "r2"}), "r1\nr2\n");
  ModeSet empty(2);
  empty.canonicalize({true, false});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty, ModeSet(2));
  EXPECT_EQ(efms_to_csv(empty, {"r1", "r2"}), "r1,r2\n");
  EXPECT_EQ(efms_to_text(empty, {"r1", "r2"}), "r1\nr2\n");
}

TEST(EfmWriter, DimensionMismatchThrows) {
  std::vector<std::vector<BigInt>> modes = {{BigInt(1)}};
  EXPECT_THROW(efms_to_text(modes, {"r1", "r2"}), InvalidArgumentError);
  EXPECT_THROW(efms_to_csv(modes, {"r1", "r2"}), InvalidArgumentError);
}

/// The canonical form of nullspace/efm.hpp spelled out on BigInt rows:
/// orient fully reversible rows, then std::sort and std::unique.
std::vector<std::vector<BigInt>> sorted_bigint_rows(
    std::vector<std::vector<BigInt>> rows,
    const std::vector<bool>& reversible) {
  for (auto& row : rows) {
    int lead = 0;
    bool fully_reversible = true;
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j].is_zero()) continue;
      if (!reversible[j]) fully_reversible = false;
      if (lead == 0) lead = row[j].sign();
    }
    if (fully_reversible && lead < 0)
      for (auto& value : row) value = -value;
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// CSV of BigInt rows through BigInt::to_string only.
std::string bigint_csv(const std::vector<std::vector<BigInt>>& rows,
                       const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t r = 0; r < names.size(); ++r)
    out += (r ? "," : "") + names[r];
  out += '\n';
  for (const auto& row : rows) {
    for (std::size_t r = 0; r < row.size(); ++r) {
      if (r) out += ',';
      out += row[r].to_string();
    }
    out += '\n';
  }
  return out;
}

TEST(ModeSet, MixedRowsSortDedupAndPrintLikeBigIntRows) {
  // Rows in the int64 arena and in the BigInt side table, duplicates of
  // both kinds, and a fully reversible row led by INT64_MIN whose
  // orientation leaves int64 (it must move to the side table).
  const std::vector<bool> reversible = {true, true, false, true};
  const BigInt two64 = BigInt::from_string("18446744073709551617");
  const std::vector<std::vector<BigInt>> rows = {
      {BigInt(INT64_MIN), BigInt(0), BigInt(0), BigInt(3)},
      {BigInt(1), BigInt(2), BigInt(3), BigInt(4)},
      {BigInt(-1), BigInt(2), BigInt(0), BigInt(0)},
      {two64, BigInt(1), BigInt(0), BigInt(0)},
      {BigInt(1), BigInt(2), BigInt(3), BigInt(4)},
      {-two64, BigInt(0), BigInt(0), BigInt(5)},
      {BigInt(5), BigInt(-7), BigInt(1), BigInt(INT64_MIN)},
      {BigInt(-3), BigInt(0), BigInt(2), BigInt(0)},
      {two64, BigInt(1), BigInt(0), BigInt(0)},
      {BigInt(1), BigInt(-2), BigInt(0), BigInt(0)},
      {BigInt(INT64_MAX), BigInt(0), BigInt(1), BigInt(0)},
      {BigInt(0), BigInt(0), BigInt(0), BigInt(-1)},
  };
  const auto expected = sorted_bigint_rows(rows, reversible);
  ASSERT_EQ(expected.size(), 9u);

  ModeSet set(rows, 4);
  set.canonicalize(reversible);
  ASSERT_EQ(set.size(), expected.size());
  EXPECT_EQ(set.to_bigint(), expected);
  std::size_t wide = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set[i], expected[i]);
    const bool fits = std::all_of(expected[i].begin(), expected[i].end(),
                                  [](const BigInt& v) { return v.fits_i64(); });
    EXPECT_EQ(set.is_wide(i), !fits) << "row " << i;
    wide += set.is_wide(i) ? 1 : 0;
  }
  EXPECT_EQ(wide, 3u);  // 2^64 + 1 twice over, and -INT64_MIN

  const std::vector<std::string> names = {"a", "b", "c", "d"};
  EXPECT_EQ(efms_to_csv(set, names), bigint_csv(expected, names));
  EXPECT_EQ(efms_to_text(set, names), efms_to_text(expected, names));

  // The BigInt entry point gives the same list.
  auto adapted = rows;
  canonicalize_modes(adapted, reversible);
  EXPECT_EQ(adapted, expected);
  EXPECT_EQ(ModeSet(expected, 4), set);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"# cores", "total time (sec)"});
  table.add_row({"1", "2894.40"});
  table.add_row({"64", "61.87"});
  auto text = table.render("Table II");
  EXPECT_NE(text.find("Table II"), std::string::npos);
  EXPECT_NE(text.find("# cores"), std::string::npos);
  EXPECT_NE(text.find("2894.40"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), InvalidArgumentError);
}

TEST(Format, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1515314), "1,515,314");
  EXPECT_EQ(with_commas(159599700951ULL), "159,599,700,951");
}

TEST(Format, SecondsAndBytes) {
  EXPECT_EQ(seconds_str(141.6), "141.60");
  EXPECT_EQ(seconds_str(0.125, 3), "0.125");
  EXPECT_EQ(bytes_str(512), "512 B");
  EXPECT_EQ(bytes_str(1536), "1.50 KiB");
  EXPECT_EQ(bytes_str(3ull << 30), "3.00 GiB");
}

}  // namespace
}  // namespace elmo
