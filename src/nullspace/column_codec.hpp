// The byte layout of a batch of flux columns: the body of a rank message
// (mpsim/serialize.hpp adds a CRC) and of a spill block (nullspace/spill.hpp
// stores it in a SpillFile frame).
//
//   u64 column count, then per column: the support words (u64 each), the
//   u64 value count and the values, CheckedI64 as its u64 two's complement
//   and BigInt in BigInt::serialize's format.
//
// Sender and receiver instantiate the same Scalar and Bitset<W>, so a batch
// carries no type tag.  The layout is frozen: mpsim message byte counts
// are compared across versions.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "bigint/bigint.hpp"
#include "nullspace/flux_column.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"

namespace elmo {

template <typename Scalar, typename Support>
codec::Bytes encode_column_batch(
    const std::vector<FluxColumn<Scalar, Support>>& columns) {
  codec::Bytes out;
  codec::put_u64(out, columns.size());
  for (const auto& column : columns) {
    for (const std::uint64_t word : column.support.words())
      codec::put_u64(out, word);
    codec::put_u64(out, column.values.size());
    for (const auto& value : column.values) {
      if constexpr (std::is_same_v<Scalar, BigInt>) {
        value.serialize(out);
      } else {
        codec::put_u64(out, static_cast<std::uint64_t>(value.value()));
      }
    }
  }
  return out;
}

/// Append the columns of the batch in [data, data + size) to `out`.  Throws
/// ParseError on a truncated batch, on trailing bytes, and on a count the
/// bytes cannot hold, so junk never sizes an allocation.
template <typename Scalar, typename Support>
void decode_column_batch(const std::uint8_t* data, std::size_t size,
                         std::vector<FluxColumn<Scalar, Support>>& out) {
  // The smallest column is its words and its count; the smallest value is
  // a u64 (CheckedI64) or a sign byte and a limb count (BigInt).
  constexpr std::size_t kMinColumn = 8 * Support::kWords + 8;
  constexpr std::size_t kMinValue = std::is_same_v<Scalar, BigInt> ? 5 : 8;
  const std::uint8_t* cursor = data;
  const std::uint8_t* const end = data + size;
  const std::uint64_t count = codec::get_u64(cursor, end);
  if (count > size / kMinColumn)
    throw ParseError("column batch: count exceeds the batch");
  if (out.empty()) out.reserve(count);  // appends grow geometrically
  for (std::uint64_t c = 0; c < count; ++c) {
    FluxColumn<Scalar, Support> column;
    for (auto& word : column.support.words())
      word = codec::get_u64(cursor, end);
    const std::uint64_t length = codec::get_u64(cursor, end);
    if (length > static_cast<std::size_t>(end - cursor) / kMinValue)
      throw ParseError("column batch: value count exceeds the batch");
    column.values.resize(length);
    for (auto& value : column.values) {
      if constexpr (std::is_same_v<Scalar, BigInt>) {
        value = BigInt::deserialize(cursor, end);
      } else {
        value = Scalar(static_cast<std::int64_t>(codec::get_u64(cursor, end)));
      }
    }
    out.push_back(std::move(column));
  }
  if (cursor != end)
    throw ParseError("column batch: trailing bytes after the last column");
}

}  // namespace elmo
