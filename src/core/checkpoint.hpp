// Subset-level checkpoint/restart for Algorithm 3.
//
// Each completed divide-and-conquer subset is an independently-valid piece
// of the final EFM set (the 2^qsub subsets are disjoint by construction),
// so the combined driver can persist subsets as it finishes them and a
// later run can skip straight past them — making multi-hour Table-IV-class
// runs interruptible.
//
// File format: the magic "ELMOCKP1", then one support/codec.hpp frame
// ([u64 body_size][body][u32 crc32(body)], little-endian) per record,
// appended as subsets complete.  Record body:
//   u64 pattern_count, then per entry: u64 reduced row, u8 nonzero-flag
//   u64 candidate_pairs, f64 seconds, u64 extra_splits, u64 attempts
//   u64 mode_count, then per mode: u64 length + BigInt::serialize values
// These bytes are frozen: a checkpoint written by an earlier build must
// still resume.
//
// Modes are stored in the full reduced reaction space, after the
// Proposition-1 filter, as scalar-agnostic BigInt — a checkpoint written by
// the int64 kernel resumes bit-identically under the BigInt kernel and
// vice versa.  The loader verifies each record's CRC and silently stops at
// a truncated or damaged tail (the signature of a writer killed mid-append);
// everything before the tail is recovered.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"

namespace elmo {

/// One completed subset as persisted to / recovered from a checkpoint.
struct CheckpointRecord {
  /// Subset identity: (reduced row, must-be-nonzero) per partition
  /// reaction, matching SubsetSpec::pattern.
  std::vector<std::pair<std::uint64_t, bool>> pattern;
  /// The subset's EFMs in the full reduced reaction space.
  std::vector<std::vector<BigInt>> modes;
  std::uint64_t candidate_pairs = 0;
  double seconds = 0.0;
  std::uint64_t extra_splits = 0;
  std::uint64_t attempts = 1;
};

/// Append one record to `path`, creating the file (with header) if needed.
void append_checkpoint_record(const std::string& path,
                              const CheckpointRecord& record);

/// Load every complete record of `path`.  Returns an empty vector for a
/// missing file; stops silently at a truncated/corrupt tail; throws
/// ParseError if the file exists but is not a checkpoint file.
std::vector<CheckpointRecord> load_checkpoint(const std::string& path);

/// Truncate `path` to its last intact frame, so later appends land after
/// valid data instead of behind an unreadable damaged tail.  No-op for a
/// missing, empty, or clean file.  Returns the bytes trimmed.  Throws
/// ParseError if the file exists but is not a checkpoint file.
std::size_t repair_checkpoint(const std::string& path);

}  // namespace elmo
