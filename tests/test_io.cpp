// Tests for the result writers and the bench table renderer.
#include <gtest/gtest.h>

#include <cstdint>

#include "io/efm_writer.hpp"
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
  EXPECT_EQ(efms_to_csv({}, {"r1", "r2"}), "r1,r2\n");
  EXPECT_EQ(efms_to_text({}, {"r1", "r2"}), "r1\nr2\n");
}

TEST(EfmWriter, DimensionMismatchThrows) {
  std::vector<std::vector<BigInt>> modes = {{BigInt(1)}};
  EXPECT_THROW(efms_to_text(modes, {"r1", "r2"}), InvalidArgumentError);
  EXPECT_THROW(efms_to_csv(modes, {"r1", "r2"}), InvalidArgumentError);
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
