// Exception hierarchy used across the elmo library.
//
// All errors thrown by elmo derive from elmo::Error so callers can catch a
// single type at the API boundary.  Specific subclasses exist for conditions
// a caller may want to handle programmatically (arithmetic overflow triggers
// the big-integer fallback; memory-budget exhaustion triggers
// divide-and-conquer re-splitting, mirroring the paper's Network II story).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace elmo {

/// Base class for all exceptions thrown by the elmo library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Checked 64-bit arithmetic overflowed; retry the computation with BigInt.
class OverflowError : public Error {
 public:
  explicit OverflowError(const std::string& what) : Error(what) {}
};

/// A reaction-equation or network file could not be parsed.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// A checksummed payload failed CRC verification: the bytes were damaged in
/// flight (or by injected corruption) and must not be decoded.  Derives from
/// ParseError because it is detected at the decoding layer, but callers with
/// a retry policy treat it as a transient, retryable fault.
class CorruptPayloadError : public ParseError {
 public:
  CorruptPayloadError(const std::string& what, std::uint32_t expected,
                      std::uint32_t actual)
      : ParseError(what), expected_crc(expected), actual_crc(actual) {}

  std::uint32_t expected_crc;
  std::uint32_t actual_crc;
};

/// Matrix/vector dimensions do not conform.
class DimensionError : public Error {
 public:
  explicit DimensionError(const std::string& what) : Error(what) {}
};

/// A caller-supplied argument is invalid (bad reaction id, bad subset, ...).
class InvalidArgumentError : public Error {
 public:
  explicit InvalidArgumentError(const std::string& what) : Error(what) {}
};

/// A simulated compute rank exceeded its configured memory budget.  This is
/// the failure mode that aborted the paper's Algorithm-2 run on Network II
/// at iteration 59 and motivates the divide-and-conquer split.
class MemoryBudgetError : public Error {
 public:
  MemoryBudgetError(const std::string& what, std::size_t requested,
                    std::size_t budget)
      : Error(what), requested_bytes(requested), budget_bytes(budget) {}

  std::size_t requested_bytes;
  std::size_t budget_bytes;
};

/// A divide-and-conquer subset kept failing after every attempt its
/// RetryPolicy allowed; carries the subset identity, the attempt count and
/// the final underlying failure for diagnostics.
class RetryExhaustedError : public Error {
 public:
  RetryExhaustedError(const std::string& label, int attempt_count,
                      const std::string& last_failure)
      : Error("subset [" + label + "] failed after " +
              std::to_string(attempt_count) +
              " attempt(s); last error: " + last_failure),
        subset_label(label),
        attempts(attempt_count),
        last_error(last_failure) {}

  std::string subset_label;
  int attempts;
  std::string last_error;
};

/// A real process resource was exhausted: an allocation failed with
/// std::bad_alloc, or the MemoryGovernor found the resident charge alone
/// over `--mem-limit` at an iteration boundary.  Unlike
/// MemoryBudgetError (a *simulated* per-rank budget used to reproduce the
/// paper's Network-II abort), ResourceError reports genuine pressure on the
/// host.  It is classified as retryable-with-degradation: the retry ladder
/// responds by halving the candidate tile size, forcing spill-always mode,
/// and finally falling back to an ungoverned serial attempt.
class ResourceError : public Error {
 public:
  ResourceError(const std::string& what, std::size_t requested,
                std::size_t limit)
      : Error(what), requested_bytes(requested), limit_bytes(limit) {}

  std::size_t requested_bytes;  // 0 when unknown (e.g. raw bad_alloc)
  std::size_t limit_bytes;      // 0 when no --mem-limit was configured
};

/// Cooperative cancellation: a SIGINT/SIGTERM handler (or a test) requested
/// shutdown and the solver honoured it at the next iteration boundary.
/// Never retried — it propagates to the API boundary, where the driver
/// flushes a resumable checkpoint plus a final report and exits with the
/// distinct resumable exit code so the run can continue under `--resume`.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// A watchdog hard deadline expired: a subset solve (or a wedged/straggling
/// rank inside it) made no progress within its allotted wall-clock budget.
/// The combined driver treats this like memory exhaustion — re-queue the
/// subset with an extra split so each half fits its deadline.
class DeadlineExceededError : public Error {
 public:
  DeadlineExceededError(const std::string& what, double deadline_secs)
      : Error(what), deadline_seconds(deadline_secs) {}

  double deadline_seconds;
};

/// Internal invariant violated; indicates a bug in elmo itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

}  // namespace elmo
