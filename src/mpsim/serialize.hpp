// Serialisation of flux columns for the simulated message-passing layer.
//
// Candidate EFMs exchanged in Communicate&Merge are encoded exactly as an
// MPI implementation would pack them (nullspace/column_codec.hpp); message
// sizes reported by the communicator therefore reflect real traffic
// volumes.
//
// Message integrity: every encoded batch carries a trailing CRC32 over the
// body, verified before decoding.  A payload damaged in flight (or by
// injected corruption, fault.hpp) therefore surfaces as a typed
// CorruptPayloadError a caller can retry on, never as silently-decoded
// garbage columns.
#pragma once

#include <cstdint>
#include <vector>

#include "mpsim/communicator.hpp"
#include "nullspace/column_codec.hpp"
#include "nullspace/flux_column.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"

namespace elmo::mpsim {

/// Append a little-endian CRC32 of the current contents to `payload`.
inline void append_crc32(Payload& payload) {
  codec::put_u32(payload, codec::crc32(payload.data(), payload.size()));
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
  const std::uint8_t* tail = payload.data() + body;
  const std::uint32_t stored = codec::get_u32(tail, tail + 4);
  const std::uint32_t actual = codec::crc32(payload.data(), body);
  if (stored != actual) {
    throw CorruptPayloadError(
        "mpsim: payload failed CRC32 verification (corrupted in flight)",
        stored, actual);
  }
  return body;
}

/// Encode a batch of columns into one checksummed message payload.
template <typename Scalar, typename Support>
Payload encode_columns(const std::vector<FluxColumn<Scalar, Support>>& columns) {
  Payload out = encode_column_batch(columns);
  append_crc32(out);
  return out;
}

/// Inverse of encode_columns, appending to `out`; verifies the CRC32
/// framing first and throws CorruptPayloadError on damaged bytes.
template <typename Scalar, typename Support>
void decode_columns(const Payload& payload,
                    std::vector<FluxColumn<Scalar, Support>>& out) {
  decode_column_batch(payload.data(), verify_crc32(payload), out);
}

}  // namespace elmo::mpsim
