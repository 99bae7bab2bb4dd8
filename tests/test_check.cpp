// The correctness-tooling subsystem (src/check/): contract macros, the
// InvariantAuditor, the lock-order checker, and the mpsim progress
// (deadlock) checker.  Each auditor class must TRIP on seeded corruption
// and stay silent on clean runs — an auditor that cannot fail proves
// nothing.
//
// ELMO_AUDIT is defined for this translation unit only, so the
// ELMO_ENSURE/ELMO_INVARIANT macros are active here even in the release
// (NDEBUG) tier-1 build.
#define ELMO_AUDIT 1

#include "check/audit.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "bitset/bitset.hpp"
#include "check/contracts.hpp"
#include "check/lockorder.hpp"
#include "compress/compression.hpp"
#include "core/api.hpp"
#include "models/toy.hpp"
#include "mpsim/communicator.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"

namespace elmo {
namespace {

using check::AuditLedger;
using check::InvariantAuditor;
using Column = FluxColumn<CheckedI64, Bitset<2>>;

/// Reduced toy problem + its solved EFM columns, the seed data every
/// corruption test perturbs.
struct ToyFixture {
  EfmProblem<CheckedI64> problem;
  std::vector<Column> columns;

  ToyFixture() {
    auto compressed = compress(models::toy_network(), {});
    problem = to_problem<CheckedI64>(compressed);
    columns = solve_efms<CheckedI64, Bitset<2>>(problem, {}).columns;
  }
};

// ---------------------------------------------------------------------------
// Contract macros

TEST(Contracts, EnsurePassesOnTrueCondition) {
  EXPECT_NO_THROW(ELMO_ENSURE(1 + 1 == 2, "arithmetic holds"));
}

TEST(Contracts, EnsureThrowsContractViolation) {
  EXPECT_THROW(ELMO_ENSURE(false, "seeded failure"), ContractViolation);
}

TEST(Contracts, InvariantThrowsContractViolation) {
  EXPECT_THROW(ELMO_INVARIANT(2 + 2 == 5, "seeded failure"),
               ContractViolation);
}

TEST(Contracts, ViolationCarriesContext) {
  try {
    ELMO_INVARIANT(false, "the ledger must balance");
    FAIL() << "ELMO_INVARIANT(false) did not throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the ledger must balance"), std::string::npos);
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos);
  }
}

TEST(Contracts, ContractViolationIsInternalError) {
  // Callers that already handle InternalError keep working under audit.
  EXPECT_THROW(ELMO_ENSURE(false, "x"), InternalError);
}

// ---------------------------------------------------------------------------
// InvariantAuditor: each class passes on clean data, trips on corruption.

TEST(Audit, NullspaceProductPassesOnSolvedColumns) {
  ToyFixture toy;
  InvariantAuditor auditor;
  EXPECT_NO_THROW(auditor.check_nullspace_product(toy.problem.stoichiometry,
                                                  toy.columns, "clean"));
}

TEST(Audit, NullspaceProductTripsOnCorruptedValue) {
  ToyFixture toy;
  ASSERT_FALSE(toy.columns.empty());
  // Seeded corruption: bump one flux value — the column leaves null(S).
  toy.columns[0].values[0] = toy.columns[0].values[0] + CheckedI64(1);
  InvariantAuditor auditor;
  try {
    auditor.check_nullspace_product(toy.problem.stoichiometry, toy.columns,
                                    "corrupted");
    FAIL() << "corrupted column passed the S*R audit";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("audit[nullspace-product]"),
              std::string::npos);
  }
}

TEST(Audit, RankNullityPassesOnSolvedColumns) {
  ToyFixture toy;
  RankTester<CheckedI64> tester(toy.problem.stoichiometry);
  InvariantAuditor auditor;
  EXPECT_NO_THROW(auditor.check_rank_nullity(tester, toy.columns, "clean"));
}

TEST(Audit, RankNullityTripsOnCompositeColumn) {
  ToyFixture toy;
  ASSERT_GE(toy.columns.size(), 2u);
  // The sum of two distinct EFMs stays in null(S) but its support
  // submatrix has nullity >= 2: exactly the corruption the rank-test
  // audit exists to catch (a false accept slipping into the matrix).
  std::vector<CheckedI64> blend;
  for (std::size_t j = 0; j < toy.columns[0].values.size(); ++j) {
    blend.push_back(toy.columns[0].values[j] + toy.columns[1].values[j]);
  }
  std::vector<Column> corrupted = {Column::from_values(std::move(blend))};
  RankTester<CheckedI64> tester(toy.problem.stoichiometry);
  InvariantAuditor auditor;
  try {
    auditor.check_rank_nullity(tester, corrupted, "composite");
    FAIL() << "composite (non-elementary) column passed the rank audit";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("audit[rank-nullity]"),
              std::string::npos);
  }
}

TEST(Audit, SupportMinimalityPassesOnSolvedColumns) {
  ToyFixture toy;
  InvariantAuditor auditor;
  EXPECT_NO_THROW(auditor.check_support_minimality(toy.columns, "clean"));
}

TEST(Audit, SupportMinimalityTripsOnNestedSupport) {
  ToyFixture toy;
  ASSERT_GE(toy.columns.size(), 2u);
  // Seeded corruption: keep a composite column alongside its parts — its
  // support strictly contains both parents' supports.
  std::vector<CheckedI64> blend;
  for (std::size_t j = 0; j < toy.columns[0].values.size(); ++j) {
    blend.push_back(toy.columns[0].values[j] + toy.columns[1].values[j]);
  }
  auto corrupted = toy.columns;
  corrupted.push_back(Column::from_values(std::move(blend)));
  InvariantAuditor auditor;
  try {
    auditor.check_support_minimality(corrupted, "nested");
    FAIL() << "nested support passed the minimality audit";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("audit[support-minimality]"),
              std::string::npos);
  }
}

TEST(Audit, Proposition1PassesOnConsistentPattern) {
  ToyFixture toy;
  ASSERT_FALSE(toy.columns.empty());
  const auto& column = toy.columns[0];
  // Build a pattern the column actually satisfies.
  check::SubsetPattern pattern;
  for (std::size_t row = 0; row < column.values.size() && pattern.size() < 2;
       ++row) {
    pattern.emplace_back(row, !scalar_is_zero(column.values[row]));
  }
  InvariantAuditor auditor;
  const std::vector<Column> one = {column};
  EXPECT_NO_THROW(auditor.check_proposition1(one, pattern, "consistent"));
}

TEST(Audit, Proposition1TripsOnPatternViolation) {
  ToyFixture toy;
  ASSERT_FALSE(toy.columns.empty());
  const auto& column = toy.columns[0];
  std::size_t nonzero_row = column.values.size();
  for (std::size_t row = 0; row < column.values.size(); ++row) {
    if (!scalar_is_zero(column.values[row])) {
      nonzero_row = row;
      break;
    }
  }
  ASSERT_LT(nonzero_row, column.values.size());
  // The column carries flux on a row the pattern declares REMOVED.
  check::SubsetPattern pattern = {{nonzero_row, false}};
  InvariantAuditor auditor;
  const std::vector<Column> one = {column};
  try {
    auditor.check_proposition1(one, pattern, "violated");
    FAIL() << "pattern violation passed the Proposition-1 audit";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("audit[proposition-1]"),
              std::string::npos);
  }
}

TEST(Audit, SubsetPartitionAcceptsExactCover) {
  // {row0:0}, {row0:+,row1:0}, {row0:+,row1:+} — an adaptive re-split of
  // the row0:+ half, still disjoint and covering.
  std::vector<check::SubsetPattern> patterns = {
      {{0, false}},
      {{0, true}, {1, false}},
      {{0, true}, {1, true}},
  };
  EXPECT_NO_THROW(
      check::check_subset_partition(patterns, {"a", "b", "c"}));
}

TEST(Audit, SubsetPartitionTripsOnOverlap) {
  // {row0:0} and {row1:0} overlap: the cell row0=0,row1=0 is in both.
  std::vector<check::SubsetPattern> patterns = {
      {{0, false}},
      {{1, false}},
  };
  try {
    check::check_subset_partition(patterns, {"a", "b"});
    FAIL() << "overlapping patterns passed the partition audit";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("audit[subset-partition]"),
              std::string::npos);
  }
}

TEST(Audit, SubsetPartitionTripsOnMissingCell) {
  // Only half the space: {row0:0} without {row0:+}.
  std::vector<check::SubsetPattern> patterns = {{{0, false}}};
  EXPECT_THROW(check::check_subset_partition(patterns, {"a"}),
               ContractViolation);
}

TEST(Audit, PairConservationPassesAndTrips) {
  InvariantAuditor auditor;
  EXPECT_NO_THROW(auditor.check_pair_conservation(42, 42, "clean"));
  try {
    auditor.check_pair_conservation(41, 42, "lost pair");
    FAIL() << "mismatched pair counts passed the conservation audit";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("audit[pair-conservation]"),
              std::string::npos);
  }
}

TEST(Audit, LedgerCountsChecksAndFailures) {
  auto& ledger = AuditLedger::global();
  ledger.reset();
  InvariantAuditor auditor;
  auditor.check_pair_conservation(7, 7, "count me");
  EXPECT_THROW(auditor.check_pair_conservation(7, 8, "fail me"),
               ContractViolation);
  const auto stats = ledger.snapshot();
  EXPECT_EQ(stats.pair_conservation_checks, 1u);
  EXPECT_EQ(stats.failures, 1u);
  ledger.reset();
  EXPECT_EQ(ledger.snapshot().total_checks(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: a clean --audit run checks everything and fails nothing.

TEST(Audit, CleanToyRunPassesAllInvariants) {
  AuditLedger::global().reset();
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.qsub = 2;
  options.audit = true;
  auto result = compute_efms(models::toy_network(), options);
  EXPECT_EQ(result.num_modes(), 8u);
  const auto stats = AuditLedger::global().snapshot();
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.nullspace_products, 0u);
  EXPECT_GT(stats.rank_nullity_checks, 0u);
  EXPECT_GT(stats.minimality_checks, 0u);
  EXPECT_GT(stats.partition_checks, 0u);
  EXPECT_GT(stats.proposition1_checks, 0u);
  EXPECT_GT(stats.pair_conservation_checks, 0u);
}

TEST(Audit, CleanSerialAndParallelRunsPass) {
  for (auto algorithm :
       {Algorithm::kSerial, Algorithm::kCombinatorialParallel}) {
    AuditLedger::global().reset();
    EfmOptions options;
    options.algorithm = algorithm;
    options.num_ranks = 3;
    options.audit = true;
    auto result = compute_efms(models::toy_network(), options);
    EXPECT_EQ(result.num_modes(), 8u);
    EXPECT_EQ(AuditLedger::global().snapshot().failures, 0u);
    EXPECT_GT(AuditLedger::global().snapshot().total_checks(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Lock-order checker

TEST(LockOrder, RecordsEdgesAndAcceptsConsistentOrder) {
  auto& graph = check::LockOrderGraph::global();
  graph.reset();
  {
    check::ScopedLockOrder outer("test.outer");
    check::ScopedLockOrder inner("test.inner");
  }
  {
    // Same order again: consistent, no cycle.
    check::ScopedLockOrder outer("test.outer");
    check::ScopedLockOrder inner("test.inner");
  }
  const auto edges = graph.edges();
  bool found = false;
  for (const auto& edge : edges) found = found || edge == "test.outer -> test.inner";
  EXPECT_TRUE(found);
  graph.reset();
}

TEST(LockOrder, DetectsInvertedAcquisitionCycle) {
  auto& graph = check::LockOrderGraph::global();
  graph.reset();
  {
    check::ScopedLockOrder a("test.A");
    check::ScopedLockOrder b("test.B");
  }
  try {
    check::ScopedLockOrder b("test.B");
    check::ScopedLockOrder a("test.A");  // closes B -> A -> B
    FAIL() << "inverted lock order was not detected";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lock-order cycle"), std::string::npos);
    EXPECT_NE(what.find("test.A"), std::string::npos);
    EXPECT_NE(what.find("test.B"), std::string::npos);
  }
  graph.reset();
}

TEST(LockOrder, CycleDetectionSpansThreads) {
  auto& graph = check::LockOrderGraph::global();
  graph.reset();
  // Thread 1 records A -> B; the main thread then tries B -> A.  The graph
  // is process-global, so the inconsistency is caught even though no
  // single thread ever held both in conflicting order.
  std::thread t([] {
    check::ScopedLockOrder a("test.cross.A");
    check::ScopedLockOrder b("test.cross.B");
  });
  t.join();
  std::atomic<bool> caught{false};
  try {
    check::ScopedLockOrder b("test.cross.B");
    check::ScopedLockOrder a("test.cross.A");
  } catch (const ContractViolation&) {
    caught = true;
  }
  EXPECT_TRUE(caught.load());
  graph.reset();
}

// ---------------------------------------------------------------------------
// mpsim progress checker: provable stalls abort deterministically.

TEST(Deadlock, CrossRecvAbortsWithDiagnosis) {
  using mpsim::AbortedError;
  using mpsim::Communicator;
  try {
    mpsim::run_ranks(2, [](Communicator& comm) {
      // Rank 0 waits on rank 1 and vice versa; nobody ever sends.
      (void)comm.recv(1 - comm.rank(), 7);
    });
    FAIL() << "cross recv deadlock was not detected";
  } catch (const AbortedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock detected"), std::string::npos);
    EXPECT_NE(what.find("recv"), std::string::npos);
  }
}

TEST(Deadlock, BarrierRecvMismatchAborts) {
  using mpsim::AbortedError;
  using mpsim::Communicator;
  try {
    mpsim::run_ranks(2, [](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.barrier();  // never completes: rank 1 is stuck in recv
      } else {
        (void)comm.recv(0, 1);  // never satisfied: rank 0 sends nothing
      }
    });
    FAIL() << "barrier/recv deadlock was not detected";
  } catch (const AbortedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock detected"), std::string::npos);
    EXPECT_NE(what.find("barrier"), std::string::npos);
  }
}

TEST(Deadlock, DetectionCanBeDisabled) {
  using mpsim::Communicator;
  // With the checker off, the exit-based fallback still releases blocked
  // ranks once the peer leaves — the world must not hang or misreport.
  mpsim::RunOptions options;
  options.detect_deadlock = false;
  EXPECT_THROW(mpsim::run_ranks(2,
                                [](Communicator& comm) {
                                  if (comm.rank() == 1) {
                                    (void)comm.recv(0, 9);
                                  }
                                  // rank 0 exits immediately.
                                },
                                options),
               mpsim::AbortedError);
}

TEST(Deadlock, BusyWorldHasNoFalsePositives) {
  using mpsim::Communicator;
  // Barriers, sends, recvs and collectives interleaved across ranks; the
  // wait-satisfiability re-check must keep the stall detector silent.
  EXPECT_NO_THROW(mpsim::run_ranks(4, [](Communicator& comm) {
    for (int round = 0; round < 25; ++round) {
      comm.barrier();
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send(next, round, {static_cast<std::uint8_t>(comm.rank())});
      const auto payload = comm.recv(prev, round);
      ASSERT_EQ(payload.size(), 1u);
      (void)comm.all_reduce_sum(static_cast<std::uint64_t>(round));
      comm.barrier();
      comm.barrier();  // back-to-back barriers stress stale registrations
    }
  }));
}

}  // namespace
}  // namespace elmo
