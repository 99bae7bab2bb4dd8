// The byte codec behind every format elmo writes: rank messages
// (mpsim/serialize.hpp), spill blocks (resource/spill.hpp) and subset
// checkpoints (core/checkpoint.hpp).  Integers are fixed-width
// little-endian, the checksum is CRC-32 (IEEE 802.3), and spill and
// checkpoint files are an 8-byte magic followed by append-only frames
// [u64 body size][body][u32 crc32(body)].
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

#include "support/error.hpp"

namespace elmo::codec {

using Bytes = std::vector<std::uint8_t>;

template <typename UInt>
void put(Bytes& out, UInt v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(UInt));
  for (std::size_t b = 0; b < sizeof(UInt); ++b)
    out[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
}

/// Read a UInt at `cursor` and advance it; ParseError if it runs past `end`.
template <typename UInt>
UInt get(const std::uint8_t*& cursor, const std::uint8_t* end) {
  if (static_cast<std::size_t>(end - cursor) < sizeof(UInt))
    throw ParseError("codec: truncated buffer");
  UInt v = 0;
  for (std::size_t b = 0; b < sizeof(UInt); ++b)
    v = static_cast<UInt>(v | static_cast<UInt>(cursor[b]) << (8 * b));
  cursor += sizeof(UInt);
  return v;
}

inline void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }
inline void put_u32(Bytes& out, std::uint32_t v) { put(out, v); }
inline void put_u64(Bytes& out, std::uint64_t v) { put(out, v); }
inline std::uint8_t get_u8(const std::uint8_t*& c, const std::uint8_t* e) {
  return get<std::uint8_t>(c, e);
}
inline std::uint32_t get_u32(const std::uint8_t*& c, const std::uint8_t* e) {
  return get<std::uint32_t>(c, e);
}
inline std::uint64_t get_u64(const std::uint8_t*& c, const std::uint8_t* e) {
  return get<std::uint64_t>(c, e);
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Bytes a frame adds around its body: the u64 size and the u32 CRC.
inline constexpr std::size_t kFrameOverhead = 12;

/// Write one frame around `body`; the caller checks the stream state.
void write_frame(std::ostream& out, const Bytes& body);

struct FrameScan {
  std::uint64_t intact_end = 0;  // stream offset past the last intact frame
  std::uint64_t stream_end = 0;  // stream offset of the end of the stream
  std::size_t frames = 0;        // bodies `accept` took
  struct CrcMismatch {
    std::uint32_t stored, actual;
  };
  std::optional<CrcMismatch> bad_crc;  // set if a frame failed its CRC
};

/// Read frames from the current position of `in`, handing each intact body
/// to `accept`, up to the end of the stream or the first frame that is cut
/// short, fails its CRC or is refused (then intact_end < stream_end).  A
/// size field larger than the rest of the stream is a cut-short frame, so
/// junk never allocates more than the stream holds.
FrameScan scan_frames(std::istream& in,
                      const std::function<bool(Bytes&&)>& accept);

}  // namespace elmo::codec
