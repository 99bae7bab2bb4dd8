// Serialisation of flux columns for the simulated message-passing layer.
//
// Candidate EFMs exchanged in Communicate&Merge are encoded exactly as an
// MPI implementation would pack them; message sizes reported by the
// communicator therefore reflect real traffic volumes.
//
// Message integrity: every encoded batch carries a trailing CRC32 over the
// body, verified before decoding.  A payload damaged in flight (or by
// injected corruption, fault.hpp) therefore surfaces as a typed
// CorruptPayloadError a caller can retry on, never as silently-decoded
// garbage columns.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"
#include "bigint/scalar.hpp"
#include "bitset/bitset.hpp"
#include "mpsim/communicator.hpp"
#include "nullspace/flux_column.hpp"
#include "support/error.hpp"

namespace elmo::mpsim {

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const Payload& payload) {
  return crc32(payload.data(), payload.size());
}

/// Append a little-endian CRC32 of the current contents to `payload`.
inline void append_crc32(Payload& payload) {
  const std::uint32_t crc = crc32(payload);
  for (int b = 0; b < 4; ++b)
    payload.push_back(static_cast<std::uint8_t>(crc >> (8 * b)));
}

/// Verify the trailing CRC32 and return the body size (payload size minus
/// the 4 checksum bytes).  Throws CorruptPayloadError on mismatch or a
/// payload too short to carry a checksum.
inline std::size_t verify_crc32(const Payload& payload) {
  if (payload.size() < 4) {
    throw CorruptPayloadError("mpsim: payload too short for CRC32 framing",
                              0, 0);
  }
  const std::size_t body = payload.size() - 4;
  std::uint32_t stored = 0;
  for (int b = 0; b < 4; ++b)
    stored |= static_cast<std::uint32_t>(payload[body + static_cast<std::size_t>(b)])
              << (8 * b);
  const std::uint32_t actual = crc32(payload.data(), body);
  if (stored != actual) {
    throw CorruptPayloadError(
        "mpsim: payload failed CRC32 verification (corrupted in flight)",
        stored, actual);
  }
  return body;
}

namespace detail {

inline void put_u64(Payload& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

inline std::uint64_t get_u64(const std::uint8_t*& cursor,
                             const std::uint8_t* end) {
  if (end - cursor < 8) throw ParseError("mpsim: truncated u64");
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(*cursor++) << (8 * b);
  return v;
}

// ---- scalar encoding ----
inline void put_scalar(Payload& out, const CheckedI64& v) {
  put_u64(out, static_cast<std::uint64_t>(v.value()));
}
inline void put_scalar(Payload& out, const BigInt& v) { v.serialize(out); }

inline void get_scalar(const std::uint8_t*& cursor, const std::uint8_t* end,
                       CheckedI64& v) {
  v = CheckedI64(static_cast<std::int64_t>(get_u64(cursor, end)));
}
inline void get_scalar(const std::uint8_t*& cursor, const std::uint8_t* end,
                       BigInt& v) {
  v = BigInt::deserialize(cursor, end);
}

// ---- support encoding ----
// The words only: sender and receiver instantiate the same Bitset<W>.
template <std::size_t W>
void put_support(Payload& out, const Bitset<W>& s) {
  for (const std::uint64_t w : s.words()) put_u64(out, w);
}
template <std::size_t W>
void get_support(const std::uint8_t*& cursor, const std::uint8_t* end,
                 Bitset<W>& s) {
  for (auto& w : s.words()) w = get_u64(cursor, end);
}

}  // namespace detail

/// Encode a batch of columns into one checksummed message payload.
template <typename Scalar, typename Support>
Payload encode_columns(const std::vector<FluxColumn<Scalar, Support>>& columns) {
  Payload out;
  detail::put_u64(out, columns.size());
  for (const auto& column : columns) {
    detail::put_support(out, column.support);
    detail::put_u64(out, column.values.size());
    for (const auto& value : column.values) detail::put_scalar(out, value);
  }
  append_crc32(out);
  return out;
}

/// Inverse of encode_columns; verifies the CRC32 framing first and throws
/// CorruptPayloadError on damaged bytes.
template <typename Scalar, typename Support>
std::vector<FluxColumn<Scalar, Support>> decode_columns(
    const Payload& payload) {
  const std::size_t body = verify_crc32(payload);
  const std::uint8_t* cursor = payload.data();
  const std::uint8_t* end = payload.data() + body;
  std::vector<FluxColumn<Scalar, Support>> columns;
  const std::uint64_t count = detail::get_u64(cursor, end);
  columns.reserve(count);
  for (std::uint64_t c = 0; c < count; ++c) {
    FluxColumn<Scalar, Support> column;
    detail::get_support(cursor, end, column.support);
    const std::uint64_t size = detail::get_u64(cursor, end);
    column.values.resize(size);
    for (auto& value : column.values)
      detail::get_scalar(cursor, end, value);
    columns.push_back(std::move(column));
  }
  if (cursor != end)
    throw ParseError("mpsim: trailing bytes after column batch");
  return columns;
}

}  // namespace elmo::mpsim
