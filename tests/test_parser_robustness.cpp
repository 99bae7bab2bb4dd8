// Robustness tests: the parser and deserialisers must reject arbitrary
// garbage with typed exceptions, never crash, and survive adversarial but
// well-formed inputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/checkpoint.hpp"
#include "mpsim/serialize.hpp"
#include "network/parser.hpp"
#include "nullspace/column_codec.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

TEST(ParserRobustness, RandomGarbageThrowsParseErrorNotCrash) {
  Rng rng(101);
  const char alphabet[] = "RAB12 :=<>+#\n\t externmtabolie-_";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    std::size_t length = rng.below(120);
    for (std::size_t i = 0; i < length; ++i)
      text.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    try {
      Network net = parse_network(text);
      // Parsed fine: the result must at least be internally consistent.
      (void)net.stoichiometry<BigInt>();
    } catch (const ParseError&) {
      // expected for most garbage
    } catch (const InvalidArgumentError&) {
      // duplicate names etc. surfaced through network construction
    }
  }
}

TEST(ParserRobustness, HugeCoefficientsSurvive) {
  Network net = parse_network("R1 : 40141 ATP => 40141 ADP + Pext\n");
  auto n = net.stoichiometry<BigInt>();
  bool found = false;
  for (std::size_t i = 0; i < n.rows(); ++i)
    for (std::size_t j = 0; j < n.cols(); ++j)
      if (n(i, j) == BigInt(40141)) found = true;
  EXPECT_TRUE(found);
}

TEST(ParserRobustness, DeepWhitespaceAndCommentsIgnored) {
  Network net = parse_network(
      "\n\n   # leading comment\n\t\n"
      "R1 :   A   +   2   B   =>   C   // trailing\n"
      "   \t  \n# done\n");
  EXPECT_EQ(net.num_reactions(), 1u);
  EXPECT_EQ(net.reaction(0).terms.size(), 3u);
}

TEST(ParserRobustness, CrLfLineEndings) {
  Network net = parse_network("R1 : A => B\r\nR2 : B => C\r\n");
  EXPECT_EQ(net.num_reactions(), 2u);
  // The carriage returns must not leak into names.
  EXPECT_TRUE(net.find_metabolite("B").has_value());
}

TEST(ParserRobustness, MetaboliteOnBothSidesNets) {
  // 2 A => A + B nets to: A: -1, B: +1.
  Network net = parse_network("R1 : 2 A => A + B\n");
  auto a = net.find_metabolite("A").value();
  auto b = net.find_metabolite("B").value();
  EXPECT_EQ(net.reaction(0).coefficient_of(a), -1);
  EXPECT_EQ(net.reaction(0).coefficient_of(b), 1);
}

TEST(SerializeRobustness, RandomBufferNeverCrashes) {
  // Each junk buffer goes to the message decoder, the spill block decoder
  // and, behind the checkpoint magic, the frame scanner.  The decoders must
  // reject it with a ParseError; the checkpoint loader must return exactly
  // the intact records before the junk.
  const std::string path = ::testing::TempDir() + "elmo_fuzz_ckpt.bin";
  CheckpointRecord intact;
  intact.pattern = {{1, true}};
  intact.modes = {{BigInt(2), BigInt(-1)}};
  Rng rng(202);
  for (int trial = 0; trial < 500; ++trial) {
    mpsim::Payload junk(rng.below(96));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.next());
    std::vector<FluxColumn<CheckedI64, Bitset<1>>> small;
    EXPECT_THROW(mpsim::decode_columns(junk, small), ParseError);
    EXPECT_THROW(decode_column_batch(junk.data(), junk.size(), small),
                 ParseError);
    std::vector<FluxColumn<BigInt, Bitset<2>>> big;
    EXPECT_THROW(decode_column_batch(junk.data(), junk.size(), big),
                 ParseError);

    // Odd trials put one intact record between the magic and the junk.
    std::remove(path.c_str());
    const bool with_record = trial % 2 == 1;
    if (with_record) {
      append_checkpoint_record(path, intact);
    } else {
      std::ofstream(path, std::ios::binary) << "ELMOCKP1";
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      // Byte-for-byte write.  lint:allow(reinterpret-cast)
      out.write(reinterpret_cast<const char*>(junk.data()),
                static_cast<std::streamsize>(junk.size()));
    }
    const auto records = load_checkpoint(path);
    ASSERT_EQ(records.size(), with_record ? 1u : 0u);
    if (with_record) {
      EXPECT_EQ(records[0].modes, intact.modes);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeRobustness, BigIntRoundTripTorture) {
  Rng rng(303);
  for (int trial = 0; trial < 300; ++trial) {
    BigInt v(static_cast<std::int64_t>(rng.next()));
    for (int k = 0; k < static_cast<int>(rng.below(5)); ++k)
      v = v * BigInt(static_cast<std::int64_t>(rng.next() >> 1)) +
          BigInt(static_cast<std::int64_t>(rng.next() >> 1));
    if (rng.chance(0.5)) v = -v;
    std::vector<std::uint8_t> buffer;
    v.serialize(buffer);
    const std::uint8_t* cursor = buffer.data();
    BigInt back = BigInt::deserialize(cursor, buffer.data() + buffer.size());
    EXPECT_EQ(back, v);
    EXPECT_EQ(cursor, buffer.data() + buffer.size());
  }
}

}  // namespace
}  // namespace elmo
