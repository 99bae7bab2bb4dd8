// End-to-end fault tolerance: per-subset retry in the Algorithm-3 driver,
// subset checkpoint/restart, the BigInt last-resort rung of the retry
// ladder, and the paper's Network-II memory story replayed under failure
// injection (budgeted Algorithm 2 dies; Algorithm 3 with adaptive re-splits
// and a retry policy completes and matches the serial result exactly).
#include "core/api.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/combined.hpp"
#include "efm_test_util.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "mpsim/fault.hpp"
#include "nullspace/efm.hpp"

namespace elmo {
namespace {

/// Unique scratch path inside gtest's temp dir, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_(::testing::TempDir() + "elmo_" + name) {
    std::remove(path_.c_str());
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Yeast Network I with the same knockouts the hybrid tests use, small
/// enough for exhaustive checks but big enough for real retry traffic.
Network trimmed_yeast_1() {
  Network net = models::yeast_network_1();
  std::vector<ReactionId> trim;
  for (const char* name : {"R15", "R33", "R41", "R46", "R92r", "R98", "R100",
                           "R77", "R101", "R32r", "R30r"}) {
    if (auto id = net.find_reaction(name)) trim.push_back(*id);
  }
  return net.without_reactions(trim);
}

/// Yeast Network II (Network I plus reversible R54r/R60r/R63r and modified
/// R62 — the paper's Table IV configuration) with the same trim applied.
Network trimmed_yeast_2() {
  Network net = models::yeast_network_2();
  std::vector<ReactionId> trim;
  for (const char* name : {"R15", "R33", "R41", "R46", "R92r", "R98", "R100",
                           "R77", "R101", "R32r", "R30r"}) {
    if (auto id = net.find_reaction(name)) trim.push_back(*id);
  }
  return net.without_reactions(trim);
}

EfmOptions toy_combined_options() {
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.partition_reactions = {"r6r", "r8r"};
  return options;
}

// ---------------------------------------------------------------------------
// Retry policy.

TEST(FaultTolerance, RankCrashMidRunIsRetried) {
  Network net = models::toy_network();
  auto baseline = compute_efms(net, toy_combined_options());

  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->crash_rank(1, /*at_op=*/3, /*times=*/1);
  options.retry.max_attempts = 2;
  auto result = compute_efms(net, options);

  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_EQ(result.total_retries, 1u);
  EXPECT_EQ(options.fault_plan->totals().crashes, 1u);
  // The doomed subset reports both attempts; the rest ran clean.
  std::size_t retried = 0;
  for (const auto& subset : result.subsets) {
    if (subset.attempts == 2) ++retried;
  }
  EXPECT_EQ(retried, 1u);
}

TEST(FaultTolerance, CorruptedPayloadIsRetried) {
  Network net = models::toy_network();
  auto baseline = compute_efms(net, toy_combined_options());

  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->corrupt_payload(0, /*nth_payload=*/0);
  options.retry.max_attempts = 3;
  auto result = compute_efms(net, options);

  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_GE(result.total_retries, 1u);
  EXPECT_EQ(options.fault_plan->totals().corruptions, 1u);
}

TEST(FaultTolerance, RetryExhaustionCarriesSubsetContext) {
  Network net = models::toy_network();
  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  // Re-arms on every attempt: the subset can never succeed.
  options.fault_plan->crash_rank(1, 0, /*times=*/1000);
  options.retry.max_attempts = 2;
  try {
    compute_efms(net, options);
    FAIL() << "expected RetryExhaustedError";
  } catch (const RetryExhaustedError& e) {
    EXPECT_EQ(e.attempts, 2);
    EXPECT_FALSE(e.subset_label.empty());
    EXPECT_NE(e.last_error.find("injected crash"), std::string::npos);
  }
}

TEST(FaultTolerance, SerialFinalAttemptDefeatsPersistentCrashes) {
  Network net = models::toy_network();
  auto baseline = compute_efms(net, toy_combined_options());

  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->crash_rank(1, 0, /*times=*/1000);
  options.retry.max_attempts = 2;
  options.retry.serial_final_attempt = true;
  options.retry.backoff_seconds = 0.25;
  auto result = compute_efms(net, options);

  EXPECT_EQ(result.modes, baseline.modes);
  // Every one of the four subsets crashed once, then finished serially.
  EXPECT_EQ(result.total_retries, 4u);
  EXPECT_DOUBLE_EQ(result.simulated_backoff_seconds, 4 * 0.25);
  for (const auto& subset : result.subsets) {
    EXPECT_EQ(subset.attempts, 2u) << subset.label;
    EXPECT_DOUBLE_EQ(subset.backoff_seconds, 0.25) << subset.label;
  }
}

TEST(FaultTolerance, HalvedRanksStillAgree) {
  Network net = models::toy_network();
  auto baseline = compute_efms(net, toy_combined_options());

  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->crash_rank(1, 2, /*times=*/1);
  options.retry.max_attempts = 3;
  options.retry.halve_ranks_on_retry = true;  // retries run with 1 rank
  auto result = compute_efms(net, options);
  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_GE(result.total_retries, 1u);
}

TEST(FaultTolerance, BigIntFallbackIsTheLastRung) {
  Network net = models::toy_network();
  auto baseline = compute_efms(net, toy_combined_options());

  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  // Five firings: failed subsets re-queue at the back, so the int64 pass
  // burns one crash on each of the four subsets' first attempts and a
  // fifth on the first re-attempt — exhausting that subset's two-attempt
  // allowance and tripping the BigInt rung, which then runs on a depleted
  // trigger and succeeds.
  options.fault_plan->crash_rank(1, 0, /*times=*/5);
  options.retry.max_attempts = 2;
  options.retry.bigint_fallback = true;
  auto result = compute_efms(net, options);

  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_TRUE(result.used_bigint);
  EXPECT_TRUE(result.stats.bigint_fallback);
  EXPECT_EQ(options.fault_plan->totals().crashes, 5u);
}

TEST(FaultTolerance, StragglerChangesNothingButTime) {
  Network net = models::toy_network();
  auto baseline = compute_efms(net, toy_combined_options());

  auto options = toy_combined_options();
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  options.fault_plan->straggle(0, /*delay_us=*/100);
  auto result = compute_efms(net, options);
  EXPECT_EQ(result.modes, baseline.modes);
  EXPECT_EQ(result.total_retries, 0u);
  EXPECT_GT(options.fault_plan->totals().delays, 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint file format.

TEST(Checkpoint, RoundTripAndTruncatedTail) {
  ScratchFile file("ckpt_roundtrip.bin");
  CheckpointRecord a;
  a.pattern = {{3, true}, {7, false}};
  a.modes = {{BigInt(1), BigInt(-2), BigInt(0)},
             {BigInt(0), BigInt(5), BigInt(9)}};
  a.candidate_pairs = 42;
  a.seconds = 1.5;
  a.extra_splits = 1;
  a.attempts = 2;
  CheckpointRecord b;
  b.pattern = {{3, false}, {7, true}};
  b.modes = {{BigInt::from_string("123456789012345678901234567890"),
              BigInt(0), BigInt(-1)}};
  append_checkpoint_record(file.path(), a);
  append_checkpoint_record(file.path(), b);

  auto records = load_checkpoint(file.path());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].pattern, a.pattern);
  EXPECT_EQ(records[0].modes, a.modes);
  EXPECT_EQ(records[0].candidate_pairs, 42u);
  EXPECT_DOUBLE_EQ(records[0].seconds, 1.5);
  EXPECT_EQ(records[0].extra_splits, 1u);
  EXPECT_EQ(records[0].attempts, 2u);
  EXPECT_EQ(records[1].modes, b.modes);

  // Chop bytes off the tail — the simulated kill -9 mid-append.  Record a
  // must survive; the damaged record b is dropped without an exception.
  std::ifstream in(file.path(), std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::string bytes(size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  in.close();

  // The file bytes are frozen: checkpoints written by earlier builds must
  // resume, so this hex may only change with the format's magic.
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex.push_back("0123456789abcdef"[byte >> 4]);
    hex.push_back("0123456789abcdef"[byte & 0xF]);
  }
  EXPECT_EQ(hex,
            "454c4d4f434b5031"  // magic
            // record a: frame size 128, pattern {3, nonzero}, {7, zero}
            "8000000000000000"
            "0200000000000000" "0300000000000000" "01" "0700000000000000" "00"
            // candidate_pairs 42, seconds 1.5, extra_splits 1, attempts 2
            "2a00000000000000" "000000000000f83f" "0100000000000000"
            "0200000000000000"
            // two modes of three BigInts: (1, -2, 0) and (0, 5, 9)
            "0200000000000000"
            "0300000000000000" "000100000001000000" "010100000002000000"
            "0000000000"
            "0300000000000000" "0000000000" "000100000005000000"
            "000100000009000000"
            "88e3c7df"  // CRC32 of record a
            // record b: frame size 109, pattern {3, zero}, {7, nonzero}
            "6d00000000000000"
            "0200000000000000" "0300000000000000" "00" "0700000000000000" "01"
            "0000000000000000" "0000000000000000" "0000000000000000"
            "0100000000000000"
            // one mode: (123456789012345678901234567890, 0, -1)
            "0100000000000000"
            "0300000000000000" "0004000000d20a3f4eeee073c3f60fe98e01000000"
            "0000000000" "010100000001000000"
            "f38e717a");  // CRC32 of record b

  std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(size - 5));
  out.close();

  auto recovered = load_checkpoint(file.path());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].modes, a.modes);
}

TEST(Checkpoint, MissingFileIsEmptyAndGarbageRejected) {
  EXPECT_TRUE(load_checkpoint(::testing::TempDir() + "elmo_no_such.bin")
                  .empty());
  ScratchFile file("ckpt_garbage.bin");
  std::ofstream(file.path(), std::ios::binary) << "definitely not a ckpt";
  EXPECT_THROW(load_checkpoint(file.path()), ParseError);
}

// ---------------------------------------------------------------------------
// Checkpoint/restart end-to-end on yeast Network I.

TEST(Checkpoint, ResumeSkipsEverythingAndIsBitIdentical) {
  Network net = trimmed_yeast_1();
  ScratchFile file("ckpt_yeast_full.bin");

  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.qsub = 2;
  options.checkpoint_path = file.path();
  auto baseline = compute_efms(net, options);
  ASSERT_GT(baseline.num_modes(), 0u);

  // The resumed run carries a hair-trigger fault plan: if ANY subset were
  // recomputed, its world would crash at the very first operation.  A clean
  // pass proves every subset came from the checkpoint.
  EfmOptions resume;
  resume.algorithm = Algorithm::kCombined;
  resume.num_ranks = 2;
  resume.qsub = 2;
  resume.resume_from = file.path();
  resume.fault_plan = std::make_shared<mpsim::FaultPlan>();
  for (int r = 0; r < 2; ++r)
    resume.fault_plan->crash_rank(r, 0, /*times=*/1000);
  auto resumed = compute_efms(net, resume);

  EXPECT_EQ(resumed.modes, baseline.modes);
  EXPECT_EQ(resume.fault_plan->totals().crashes, 0u);
  ASSERT_EQ(resumed.subsets.size(), baseline.subsets.size());
  for (const auto& subset : resumed.subsets) {
    EXPECT_TRUE(subset.resumed) << subset.label;
  }
}

TEST(Checkpoint, InterruptedRunResumesBitIdentical) {
  Network net = trimmed_yeast_1();

  // Pass 1 — measure: a trigger-free plan rides along only to count rank
  // 0's operations, giving a deterministic "minutes into the job" marker.
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.qsub = 2;
  options.fault_plan = std::make_shared<mpsim::FaultPlan>();
  auto baseline = compute_efms(net, options);
  const std::uint64_t total_ops = options.fault_plan->ops_seen(0);
  ASSERT_GT(total_ops, 4u);

  // Pass 2 — interrupt: same computation, checkpointing enabled, rank 0
  // killed halfway through.  Some subsets must have committed by then.
  ScratchFile file("ckpt_yeast_interrupted.bin");
  EfmOptions interrupted;
  interrupted.algorithm = Algorithm::kCombined;
  interrupted.num_ranks = 2;
  interrupted.qsub = 2;
  interrupted.checkpoint_path = file.path();
  interrupted.fault_plan = std::make_shared<mpsim::FaultPlan>();
  interrupted.fault_plan->crash_rank(0, total_ops / 2, /*times=*/1);
  EXPECT_THROW(compute_efms(net, interrupted), mpsim::InjectedFaultError);

  auto committed = load_checkpoint(file.path());
  ASSERT_GT(committed.size(), 0u) << "crash landed before any checkpoint";
  ASSERT_LT(committed.size(), baseline.subsets.size());

  // Pass 3 — resume: skip the committed subsets, recompute the rest.
  EfmOptions resume;
  resume.algorithm = Algorithm::kCombined;
  resume.num_ranks = 2;
  resume.qsub = 2;
  resume.checkpoint_path = file.path();
  resume.resume_from = file.path();
  auto resumed = compute_efms(net, resume);

  EXPECT_EQ(resumed.modes, baseline.modes);
  std::size_t from_checkpoint = 0;
  for (const auto& subset : resumed.subsets)
    if (subset.resumed) ++from_checkpoint;
  EXPECT_EQ(from_checkpoint, committed.size());
  // The finished file now covers every subset.
  EXPECT_EQ(load_checkpoint(file.path()).size(), resumed.subsets.size());
}

// ---------------------------------------------------------------------------
// Resume from damaged checkpoint files.  The recovery contract: a damaged
// tail costs at most the records it covered — the valid prefix is honored,
// the rest is recomputed, and the final mode set is bit-identical.

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

EfmOptions yeast_checkpoint_options(const std::string& checkpoint_path) {
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.qsub = 2;
  options.checkpoint_path = checkpoint_path;
  return options;
}

TEST(Checkpoint, ResumeFromZeroLengthFileRecomputesEverything) {
  // The crash-before-first-commit case: the file exists but holds nothing,
  // not even the magic.  That is an empty checkpoint, not a corrupt one.
  Network net = trimmed_yeast_1();
  ScratchFile file("ckpt_yeast_zero.bin");

  auto baseline = compute_efms(net, yeast_checkpoint_options(file.path()));
  ASSERT_GT(baseline.num_modes(), 0u);

  write_file_bytes(file.path(), "");
  EXPECT_TRUE(load_checkpoint(file.path()).empty());

  auto options = yeast_checkpoint_options(file.path());
  options.resume_from = file.path();
  auto resumed = compute_efms(net, options);
  EXPECT_EQ(resumed.modes, baseline.modes);
  for (const auto& subset : resumed.subsets)
    EXPECT_FALSE(subset.resumed) << subset.label;
  // The rerun re-checkpointed the full set.
  EXPECT_EQ(load_checkpoint(file.path()).size(), resumed.subsets.size());
}

TEST(Checkpoint, ResumeFromBitFlippedFileKeepsTheValidPrefix) {
  Network net = trimmed_yeast_1();
  ScratchFile file("ckpt_yeast_bitflip.bin");

  auto baseline = compute_efms(net, yeast_checkpoint_options(file.path()));
  const std::size_t total = baseline.subsets.size();
  ASSERT_EQ(load_checkpoint(file.path()).size(), total);

  // Flip one bit in the last frame (past the magic, near the tail): the CRC
  // catches it, that record and everything after it is dropped, and the
  // records before it survive untouched.
  std::string bytes = read_file_bytes(file.path());
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() - 3] ^= 0x20;
  write_file_bytes(file.path(), bytes);

  auto damaged = load_checkpoint(file.path());
  ASSERT_GE(damaged.size(), 1u) << "flip unexpectedly destroyed every record";
  ASSERT_LT(damaged.size(), total);

  auto options = yeast_checkpoint_options(file.path());
  options.resume_from = file.path();
  auto resumed = compute_efms(net, options);
  EXPECT_EQ(resumed.modes, baseline.modes);
  std::size_t from_checkpoint = 0;
  for (const auto& subset : resumed.subsets)
    if (subset.resumed) ++from_checkpoint;
  EXPECT_EQ(from_checkpoint, damaged.size());
}

TEST(Checkpoint, ResumeFromTruncatedFileRecomputesTheTail) {
  // kill -9 mid-append leaves a short final frame; resume must treat the
  // file exactly like one that stopped at the previous commit.
  Network net = trimmed_yeast_1();
  ScratchFile file("ckpt_yeast_trunc.bin");

  auto baseline = compute_efms(net, yeast_checkpoint_options(file.path()));
  const std::size_t total = baseline.subsets.size();

  std::string bytes = read_file_bytes(file.path());
  ASSERT_GT(bytes.size(), 32u);
  write_file_bytes(file.path(), bytes.substr(0, bytes.size() - 7));

  auto damaged = load_checkpoint(file.path());
  ASSERT_GE(damaged.size(), 1u);
  ASSERT_LT(damaged.size(), total);

  auto options = yeast_checkpoint_options(file.path());
  options.resume_from = file.path();
  options.checkpoint_path = file.path();
  auto resumed = compute_efms(net, options);
  EXPECT_EQ(resumed.modes, baseline.modes);
  // The finished file is whole again: every subset committed.
  EXPECT_EQ(load_checkpoint(file.path()).size(), total);
}

// ---------------------------------------------------------------------------
// The paper's Network II story, replayed with the fault machinery on the
// trimmed model: a memory budget kills Algorithm 2 outright, while
// Algorithm 3 survives it by re-splitting oversized subsets (Table IV) and
// retrying, and still reproduces the serial mode set exactly.

TEST(FaultTolerance, NetworkTwoMemoryStory) {
  Network net = trimmed_yeast_2();

  EfmOptions serial;
  auto expected = compute_efms(net, serial);
  ASSERT_GT(expected.num_modes(), 0u);

  // Probe both algorithms' appetites, then choose a budget that binds for
  // the biggest divide-and-conquer subset (and a fortiori for the full
  // replica Algorithm 2 keeps on every rank).
  EfmOptions probe;
  probe.algorithm = Algorithm::kCombinatorialParallel;
  probe.num_ranks = 2;
  auto unbudgeted = compute_efms(net, probe);
  ASSERT_GT(unbudgeted.peak_rank_memory, 0u);

  EfmOptions combined;
  combined.algorithm = Algorithm::kCombined;
  combined.num_ranks = 2;
  combined.partition_reactions = {"R54r", "R90r"};
  auto combined_probe = compute_efms(net, combined);
  ASSERT_GT(combined_probe.peak_rank_memory, 0u);
  const std::size_t budget = combined_probe.peak_rank_memory * 3 / 4;
  ASSERT_LT(budget, unbudgeted.peak_rank_memory);

  EfmOptions budgeted_flat = probe;
  budgeted_flat.memory_budget_per_rank = budget;
  EXPECT_THROW(compute_efms(net, budgeted_flat), MemoryBudgetError);

  combined.memory_budget_per_rank = budget;
  combined.max_extra_splits = 2;
  combined.retry.max_attempts = 2;
  combined.retry.serial_final_attempt = true;
  auto survived = compute_efms(net, combined);

  EXPECT_EQ(survived.modes, expected.modes);
  std::size_t resplit_subsets = 0;
  for (const auto& subset : survived.subsets)
    if (subset.extra_splits > 0) ++resplit_subsets;
  // The budget binds for Algorithm 2, so the divide-and-conquer run must
  // have leaned on at least one recovery mechanism to finish.
  EXPECT_TRUE(resplit_subsets > 0 || survived.total_retries > 0)
      << "budget never bound inside Algorithm 3";
}

}  // namespace
}  // namespace elmo
