// End-to-end tests of the public compute_efms API.
#include "core/api.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "efm_test_util.hpp"
#include "io/efm_writer.hpp"
#include "models/ecoli_core.hpp"
#include "models/random_network.hpp"
#include "models/toy.hpp"
#include "models/yeast.hpp"
#include "network/parser.hpp"
#include "nullspace/efm.hpp"
#include "obs/trace.hpp"

namespace elmo {
namespace {

TEST(Api, ToyNetworkSerial) {
  Network net = models::toy_network();
  auto result = compute_efms(net);
  EXPECT_EQ(result.num_modes(), 8u);
  EXPECT_EQ(result.reaction_names.size(), 9u);
  EXPECT_EQ(result.modes.to_bigint(),
            canonical_modes_from_i64(models::toy_efms_paper(),
                                     net.reversibility()));
  EXPECT_FALSE(result.used_bigint);
  EXPECT_EQ(result.reduced_reactions, 8u);
  EXPECT_EQ(result.reduced_metabolites, 4u);
  EXPECT_GE(result.seconds, 0.0);
  EXPECT_GT(result.stats.phases.seconds(Phase::kExpand), 0.0);
  EXPECT_LE(result.stats.phases.seconds(Phase::kExpand), result.seconds);
}

TEST(Api, AllThreeAlgorithmsAgree) {
  Network net = models::toy_network();
  EfmOptions serial;
  auto a = compute_efms(net, serial);

  EfmOptions parallel;
  parallel.algorithm = Algorithm::kCombinatorialParallel;
  parallel.num_ranks = 3;
  auto b = compute_efms(net, parallel);

  EfmOptions combined;
  combined.algorithm = Algorithm::kCombined;
  combined.num_ranks = 2;
  combined.partition_reactions = {"r6r", "r8r"};
  auto c = compute_efms(net, combined);

  EfmOptions partitioned;
  partitioned.algorithm = Algorithm::kPartitioned;
  partitioned.num_ranks = 3;
  auto d = compute_efms(net, partitioned);

  EXPECT_EQ(a.modes, b.modes);
  EXPECT_EQ(a.modes, c.modes);
  EXPECT_EQ(a.modes, d.modes);
  EXPECT_EQ(c.subsets.size(), 4u);
  EXPECT_GT(b.message_bytes, 0u);
  EXPECT_GT(d.message_bytes, 0u);
}

TEST(Api, SparseEngineCountersAddUpOnEveryAlgorithm) {
  // Every solver candidate the sparse engine tests is either served by a
  // sparse path or delegated to the dense tester, whichever algorithm
  // distributed the pairs; the totals must survive the per-rank folds.
  Network net = models::ecoli_core();
  for (Algorithm algorithm :
       {Algorithm::kSerial, Algorithm::kCombinatorialParallel,
        Algorithm::kPartitioned, Algorithm::kCombined}) {
    SCOPED_TRACE("algorithm " + std::to_string(static_cast<int>(algorithm)));
    EfmOptions options;
    options.algorithm = algorithm;
    options.num_ranks = 2;
    options.rank_backend = RankTestBackend::kSparse;
    auto result = compute_efms(net, options);
    const SolveStats& stats = result.stats;
    EXPECT_GT(stats.total_rank_tests, 0u);
    EXPECT_EQ(stats.total_rank_sparse_hits + stats.total_rank_dense_fallbacks,
              stats.total_rank_tests);
  }
}

TEST(Api, EveryAlgorithmRunsTheSameRowLoop) {
  // Algorithms 1, 2 and 4 share one iteration loop: on E. coli they record
  // the same (row, columns_after) history and peak width and call
  // on_iteration once per iteration, and every algorithm runs each --audit
  // check.
  Network net = models::ecoli_core();
  using Row = std::pair<std::size_t, std::uint64_t>;
  std::vector<Row> serial_history;
  std::uint64_t serial_peak = 0;
  for (Algorithm algorithm :
       {Algorithm::kSerial, Algorithm::kCombinatorialParallel,
        Algorithm::kPartitioned}) {
    SCOPED_TRACE("algorithm " + std::to_string(static_cast<int>(algorithm)));
    EfmOptions options;
    options.algorithm = algorithm;
    options.num_ranks = 2;
    options.record_history = true;
    std::size_t calls = 0;
    options.on_iteration = [&calls](const IterationStats&) { ++calls; };
    auto result = compute_efms(net, options);
    std::vector<Row> history;
    for (const auto& it : result.stats.history)
      history.emplace_back(it.row, it.columns_after);
    ASSERT_GT(result.stats.iterations, 0u);
    EXPECT_EQ(calls, result.stats.iterations);
    EXPECT_EQ(history.size(), result.stats.iterations);
    if (algorithm == Algorithm::kSerial) {
      serial_history = history;
      serial_peak = result.stats.peak_columns;
    } else {
      EXPECT_EQ(history, serial_history);
      EXPECT_EQ(result.stats.peak_columns, serial_peak);
    }
  }

  for (Algorithm algorithm :
       {Algorithm::kSerial, Algorithm::kCombinatorialParallel,
        Algorithm::kPartitioned, Algorithm::kCombined}) {
    SCOPED_TRACE("audit, algorithm " +
                 std::to_string(static_cast<int>(algorithm)));
    check::AuditLedger::global().reset();
    EfmOptions options;
    options.algorithm = algorithm;
    options.num_ranks = 2;
    options.audit = true;
    compute_efms(net, options);
    const auto audit = check::AuditLedger::global().snapshot();
    EXPECT_EQ(audit.failures, 0u);
    EXPECT_GT(audit.nullspace_products, 0u);
    EXPECT_GT(audit.rank_nullity_checks, 0u);
    EXPECT_GT(audit.minimality_checks, 0u);
  }
}

TEST(Api, ForceBigIntGivesSameModes) {
  Network net = models::toy_network();
  EfmOptions options;
  options.force_bigint = true;
  auto result = compute_efms(net, options);
  EXPECT_TRUE(result.used_bigint);
  EXPECT_EQ(result.modes, compute_efms(net).modes);
}

TEST(Api, ExpandOverflowRedoesOnlyThatModeInBigInt) {
  // R1's reconstruction numerator is 5e18 (coupled to R2 through M).  One
  // reduced mode carries flux 2 on the merged column, so its int64 expand
  // overflows; the other mode's does not.  The solve itself stays in int64.
  Network net = parse_network(R"(
    R1 : Xext => M
    R2 : 5000000000000000000 M => B + 2 C
    R3 : 2 B + C => Yext
    R4 : Zext => B
    R5 : C => Wext
  )");
  auto result = compute_efms(net);
  EXPECT_FALSE(result.used_bigint);
  EXPECT_FALSE(result.stats.bigint_fallback);
  ASSERT_EQ(result.num_modes(), 2u);
  EXPECT_EQ(result.modes[0],
            (std::vector<BigInt>{BigInt(5000000000000000000), BigInt(1),
                                 BigInt(2), BigInt(3), BigInt(0)}));
  EXPECT_EQ(result.modes[1],
            (std::vector<BigInt>{BigInt::from_string("10000000000000000000"),
                                 BigInt(2), BigInt(1), BigInt(0), BigInt(3)}));

  // Mode 0 fits int64 and lives in the arena; mode 1 lives in the BigInt
  // side table.  Both print as the BigInt rows do.
  EXPECT_FALSE(result.modes.is_wide(0));
  EXPECT_TRUE(result.modes.is_wide(1));
  EXPECT_EQ(efms_to_csv(result.modes, result.reaction_names),
            "R1,R2,R3,R4,R5\n"
            "5000000000000000000,1,2,3,0\n"
            "10000000000000000000,2,1,0,3\n");

  EfmOptions exact;
  exact.force_bigint = true;
  auto reference = compute_efms(net, exact);
  EXPECT_TRUE(reference.used_bigint);
  EXPECT_EQ(result.modes, reference.modes);
}

TEST(Api, DemoNetworkInt64MatchesForceBigInt) {
  // Network I minus seven reactions: 24,339 modes, all expanded through
  // the int64 path by default.  The BigInt solve must give the same set.
  Network net = models::yeast_network_1();
  std::vector<ReactionId> knockouts;
  for (const char* name : {"R15", "R33", "R41", "R46", "R92r", "R98", "R100"})
    knockouts.push_back(*net.find_reaction(name));
  net = net.without_reactions(knockouts);
  auto result = compute_efms(net);
  EXPECT_FALSE(result.used_bigint);
  EXPECT_EQ(result.num_modes(), 24339u);

  // The governor's ledger covers the result store.
  EXPECT_GE(result.mem_peak_bytes, result.num_modes() *
                                       result.reaction_names.size() *
                                       sizeof(std::int64_t));

  EfmOptions exact;
  exact.force_bigint = true;
  auto reference = compute_efms(net, exact);
  EXPECT_EQ(reference.num_modes(), 24339u);
  EXPECT_TRUE(result.modes == reference.modes);

  // The rows are in std::sort order of their BigInt values, duplicate-free,
  // and the ModeSet writers print what the BigInt entry points print.
  const auto rows = result.modes.to_bigint();
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end());
  EXPECT_EQ(efms_to_csv(result.modes, result.reaction_names),
            efms_to_csv(rows, result.reaction_names));
  EXPECT_EQ(efms_to_csv(reference.modes, result.reaction_names),
            efms_to_csv(rows, result.reaction_names));
}

TEST(Api, PartitionOnMergedReactionWorksViaRepresentative) {
  // r9 merges into r3 during compression; partitioning on r9 must resolve
  // to the representative's reduced column.  r3 is irreversible though, so
  // this must throw the reversibility requirement - which proves the name
  // mapping went through compression correctly.
  Network net = models::toy_network();
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.partition_reactions = {"r9"};
  EXPECT_THROW(compute_efms(net, options), InvalidArgumentError);
}

TEST(Api, PartitionOnRemovedReactionThrows) {
  // A dead-end reaction is removed by compression entirely.
  Network net = models::toy_network();
  net.add_metabolite("Orphan");
  net.add_reaction("dead", true, {{"A", -1}, {"Orphan", 1}});
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.partition_reactions = {"dead"};
  EXPECT_THROW(compute_efms(net, options), InvalidArgumentError);
}

TEST(Api, OverflowTriggersTransparentBigIntFallback) {
  // A chain of pairwise-coprime ~3e6 coefficients whose primitive kernel
  // vector has entries ~2.7e19 > 2^63.  The E/F cofactor pair keeps every
  // column's gcd at 1 so compression cannot rescale the primes away.
  Network net;
  for (const char* m : {"A", "B", "C", "E", "F"}) net.add_metabolite(m);
  net.add_metabolite("Xext", true);
  net.add_metabolite("Yext", true);
  net.add_reaction("r1", false,
                   {{"Xext", -1}, {"E", -1}, {"A", 3000017}, {"F", 1}});
  net.add_reaction("r2", false, {{"A", -3000029}, {"B", 3000047}});
  net.add_reaction("r3", false, {{"B", -3000061}, {"C", 3000073}});
  net.add_reaction("r4", false, {{"C", -3000083}, {"Yext", 1}});
  net.add_reaction("r5", false, {{"F", -1}, {"E", 1}});

  EfmOptions options;
  options.compression.kernel_coupling = false;  // keep the big numbers
  options.compression.couple_two_reaction_metabolites = false;
  auto result = compute_efms(net, options);
  EXPECT_TRUE(result.used_bigint);
  EXPECT_TRUE(result.stats.bigint_fallback);
  check_efm_invariants(net, result.modes.to_bigint());
  // The exact same modes come out when BigInt is forced from the start.
  EfmOptions forced = options;
  forced.force_bigint = true;
  EXPECT_EQ(result.modes, compute_efms(net, forced).modes);
}

TEST(Api, MemoryBudgetPropagates) {
  Network net = models::toy_network();
  EfmOptions options;
  options.algorithm = Algorithm::kCombinatorialParallel;
  options.num_ranks = 2;
  options.memory_budget_per_rank = 32;
  EXPECT_THROW(compute_efms(net, options), MemoryBudgetError);
}

TEST(Api, HybridThreadsThroughApi) {
  Network net = models::toy_network();
  EfmOptions options;
  options.algorithm = Algorithm::kCombinatorialParallel;
  options.num_ranks = 2;
  options.threads_per_rank = 2;
  auto result = compute_efms(net, options);
  EXPECT_EQ(result.modes, compute_efms(net).modes);
}

TEST(Api, UnusableThreadOrRankCountIsAnError) {
  // No algorithm can run on zero workers or zero ranks; none silently
  // rounds the count up to one.
  Network net = models::toy_network();
  for (Algorithm algorithm :
       {Algorithm::kSerial, Algorithm::kCombinatorialParallel,
        Algorithm::kPartitioned, Algorithm::kCombined}) {
    SCOPED_TRACE(algorithm_name(algorithm));
    EfmOptions options;
    options.algorithm = algorithm;
    options.threads_per_rank = 0;
    EXPECT_THROW(compute_efms(net, options), InvalidArgumentError);
    options.threads_per_rank = 1;
    options.num_ranks = -3;
    EXPECT_THROW(compute_efms(net, options), InvalidArgumentError);
  }
}

TEST(Api, ThreadsReachSerialAndPartitionedWorkers) {
  // threads_per_rank reaches Algorithm 1's and Algorithm 4's row loops: a
  // traced run names the thread pool's worker tracks and returns the modes
  // of the one-thread run.
  Network net = models::ecoli_core();
  for (Algorithm algorithm : {Algorithm::kSerial, Algorithm::kPartitioned}) {
    SCOPED_TRACE(algorithm_name(algorithm));
    EfmOptions options;
    options.algorithm = algorithm;
    options.num_ranks = 2;
    const auto single = compute_efms(net, options);
    options.threads_per_rank = 2;
    obs::TraceRecorder recorder;
    obs::install_trace(&recorder);
    const auto threaded = compute_efms(net, options);
    obs::install_trace(nullptr);
    bool pool_worker = false;
    for (const auto& [tid, name] : recorder.thread_names())
      pool_worker = pool_worker || name.rfind("pool worker", 0) == 0;
    EXPECT_TRUE(pool_worker);
    EXPECT_EQ(threaded.modes, single.modes);
  }
}

TEST(Api, SupportWordsFollowThePreparedWidth) {
  // Prepared widths of the demo (49), ko3 (56), full Network I (66) and
  // Network II (71) sit on either side of one word.
  for (std::size_t width : {49u, 56u, 64u})
    EXPECT_EQ(support_words(width), 1u) << width;
  for (std::size_t width : {65u, 66u, 71u, 128u})
    EXPECT_EQ(support_words(width), 2u) << width;
  try {
    (void)support_words(129);
    ADD_FAILURE() << "a 129-reaction network must not fit";
  } catch (const DimensionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("129"), std::string::npos) << what;
    EXPECT_NE(what.find("128"), std::string::npos) << what;
  }
}

TEST(Api, OnIterationCallbackFires) {
  Network net = models::toy_network();
  EfmOptions options;
  int iterations = 0;
  options.on_iteration = [&](const IterationStats&) { ++iterations; };
  compute_efms(net, options);
  EXPECT_EQ(iterations, 4);  // the paper's four processed rows
}

TEST(Api, RandomNetworksSatisfyInvariantsThroughApi) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    models::RandomNetworkSpec spec;
    spec.seed = seed;
    spec.num_metabolites = 5 + seed % 3;
    Network net = models::random_network(spec);
    auto result = compute_efms(net);
    check_efm_invariants(net, result.modes.to_bigint());
  }
}

TEST(Api, WritersRenderResults) {
  Network net = models::toy_network();
  auto result = compute_efms(net);
  auto text = efms_to_text(result.modes, result.reaction_names);
  auto csv = efms_to_csv(result.modes, result.reaction_names);
  // 9 reaction rows in the text form; 1 header + 8 mode rows in CSV.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 9);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 9);
  EXPECT_NE(text.find("r6r"), std::string::npos);
  EXPECT_NE(csv.find("r8r"), std::string::npos);
}

}  // namespace
}  // namespace elmo
