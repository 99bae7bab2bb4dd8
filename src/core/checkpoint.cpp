#include "core/checkpoint.hpp"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bigint/bigint.hpp"
#include "obs/obs.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"

namespace elmo {

namespace {

constexpr char kMagic[8] = {'E', 'L', 'M', 'O', 'C', 'K', 'P', '1'};

codec::Bytes encode_record(const CheckpointRecord& record) {
  codec::Bytes body;
  codec::put_u64(body, record.pattern.size());
  for (const auto& [row, nonzero] : record.pattern) {
    codec::put_u64(body, row);
    codec::put_u8(body, nonzero ? 1 : 0);
  }
  codec::put_u64(body, record.candidate_pairs);
  codec::put_u64(body, std::bit_cast<std::uint64_t>(record.seconds));
  codec::put_u64(body, record.extra_splits);
  codec::put_u64(body, record.attempts);
  codec::put_u64(body, record.modes.size());
  for (const auto& mode : record.modes) {
    codec::put_u64(body, mode.size());
    for (const auto& value : mode) value.serialize(body);
  }
  return body;
}

CheckpointRecord decode_record(const codec::Bytes& body) {
  const std::uint8_t* cursor = body.data();
  const std::uint8_t* const end = body.data() + body.size();
  // Counts are not trusted for reserve(): every element consumes bytes, so
  // a damaged count runs into the end of the body and throws ParseError.
  CheckpointRecord record;
  const std::uint64_t pattern_count = codec::get_u64(cursor, end);
  for (std::uint64_t i = 0; i < pattern_count; ++i) {
    const std::uint64_t row = codec::get_u64(cursor, end);
    record.pattern.emplace_back(row, codec::get_u8(cursor, end) != 0);
  }
  record.candidate_pairs = codec::get_u64(cursor, end);
  record.seconds = std::bit_cast<double>(codec::get_u64(cursor, end));
  record.extra_splits = codec::get_u64(cursor, end);
  record.attempts = codec::get_u64(cursor, end);
  const std::uint64_t mode_count = codec::get_u64(cursor, end);
  for (std::uint64_t m = 0; m < mode_count; ++m) {
    const std::uint64_t length = codec::get_u64(cursor, end);
    std::vector<BigInt> mode;
    for (std::uint64_t v = 0; v < length; ++v)
      mode.push_back(BigInt::deserialize(cursor, end));
    record.modes.push_back(std::move(mode));
  }
  if (cursor != end)
    throw ParseError("checkpoint: trailing bytes in record body");
  return record;
}

/// Decode every intact record of `path` into `records`.  A missing or
/// empty file has none; one without the magic is not a checkpoint file
/// (ParseError).  A frame that is cut short, fails its CRC or does not
/// decode (a CRC collision on garbage) is the interrupted tail: the scan
/// stops there.
codec::FrameScan scan_checkpoint(const std::string& path,
                                 std::vector<CheckpointRecord>& records) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof kMagic];
  in.read(magic, sizeof magic);
  if (in.gcount() == 0) return {};
  if (in.gcount() != sizeof magic ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw ParseError("checkpoint: " + path + " is not a checkpoint file");
  }
  return codec::scan_frames(in, [&records](codec::Bytes&& body) {
    try {
      records.push_back(decode_record(body));
      return true;
    } catch (const ParseError&) {
      return false;
    }
  });
}

}  // namespace

void append_checkpoint_record(const std::string& path,
                              const CheckpointRecord& record) {
  obs::TraceSpan span("checkpoint write", "checkpoint");
  static const obs::Counter writes =
      obs::Registry::global().counter("checkpoint.records_written");
  writes.add(1);
  std::ofstream out(path, std::ios::binary | std::ios::app | std::ios::ate);
  if (!out)
    throw InvalidArgumentError("checkpoint: cannot open for append: " + path);
  if (out.tellp() == std::streampos(0)) out.write(kMagic, sizeof kMagic);
  codec::write_frame(out, encode_record(record));
  out.flush();
  if (!out)
    throw InvalidArgumentError("checkpoint: short write to " + path);
}

std::vector<CheckpointRecord> load_checkpoint(const std::string& path) {
  obs::TraceSpan span("checkpoint load", "checkpoint");
  std::vector<CheckpointRecord> records;
  scan_checkpoint(path, records);
  return records;
}

std::size_t repair_checkpoint(const std::string& path) {
  std::vector<CheckpointRecord> records;
  const codec::FrameScan scan = scan_checkpoint(path, records);
  const auto damaged =
      static_cast<std::size_t>(scan.stream_end - scan.intact_end);
  if (damaged == 0) return 0;
  static const obs::Counter repairs =
      obs::Registry::global().counter("checkpoint.tail_bytes_trimmed");
  repairs.add(damaged);
  std::error_code ec;
  std::filesystem::resize_file(path, scan.intact_end, ec);
  if (ec) throw InvalidArgumentError("checkpoint: cannot truncate " + path);
  return damaged;
}

}  // namespace elmo
