#include "support/codec.hpp"

#include <array>
#include <istream>
#include <ostream>

namespace elmo::codec {

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void write_frame(std::ostream& out, const Bytes& body) {
  Bytes size, crc;
  put_u64(size, body.size());
  put_u32(crc, crc32(body.data(), body.size()));
  const Bytes* parts[] = {&size, &body, &crc};
  for (const Bytes* part : parts) {
    // lint:allow(reinterpret-cast) byte-buffer stream I/O
    out.write(reinterpret_cast<const char*>(part->data()),
              static_cast<std::streamsize>(part->size()));
  }
}

FrameScan scan_frames(std::istream& in,
                      const std::function<bool(Bytes&&)>& accept) {
  auto read = [&in](Bytes& into) {
    // lint:allow(reinterpret-cast) byte-buffer stream I/O
    in.read(reinterpret_cast<char*>(into.data()),
            static_cast<std::streamsize>(into.size()));
  };
  FrameScan scan;
  scan.intact_end = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::end);
  scan.stream_end = static_cast<std::uint64_t>(in.tellg());
  in.seekg(static_cast<std::streamoff>(scan.intact_end));
  for (std::uint64_t at = scan.intact_end;
       scan.stream_end - at >= kFrameOverhead; at = scan.intact_end) {
    Bytes frame(8);
    read(frame);
    const std::uint8_t* cursor = frame.data();
    const std::uint64_t size = get_u64(cursor, cursor + 8);
    if (size > scan.stream_end - at - kFrameOverhead) break;
    frame.resize(size + 4);
    read(frame);
    if (!in) break;
    cursor = frame.data() + size;
    const std::uint32_t stored = get_u32(cursor, cursor + 4);
    frame.resize(size);
    const std::uint32_t actual = crc32(frame.data(), size);
    if (stored != actual) {
      scan.bad_crc = FrameScan::CrcMismatch{stored, actual};
      break;
    }
    if (!accept(std::move(frame))) break;
    scan.intact_end = at + size + kFrameOverhead;
    ++scan.frames;
  }
  return scan;
}

}  // namespace elmo::codec
