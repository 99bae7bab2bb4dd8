// End-to-end tests for tools/elmo_analyze: every pass must trip on its
// seeded fixture (tests/analyze_fixtures/) and stay silent on the clean
// counterparts, with the --json reports matching the committed goldens
// byte-for-byte.  The lock-discipline test is the full static-vs-runtime
// diff: the runtime edge dump is produced in-process by the real
// elmo::check::LockOrderGraph, then handed to the analyzer, proving the
// two lockdep graphs speak the same format.  Finally the analyzer runs
// over this repository's own src/ against the committed baseline — the
// tree must be clean.
//
// The analyzer binaries are spawned via std::system; paths arrive as
// compile definitions (ANALYZE_BIN, FIXTURES_DIR, SOURCE_ROOT).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "check/lockorder.hpp"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // merged stdout+stderr
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Run `cmd` with cwd `dir`, capturing merged output; returns the child's
/// exit status (not the raw std::system encoding).
RunResult run_in(const std::string& dir, const std::string& cmd) {
  const std::string out_path = ::testing::TempDir() + "analyze_out.txt";
  const std::string full =
      "cd '" + dir + "' && " + cmd + " > '" + out_path + "' 2>&1";
  const int raw = std::system(full.c_str());
  RunResult result;
  result.output = slurp(out_path);
#if defined(WIFEXITED)
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#else
  result.exit_code = raw;
#endif
  return result;
}

const std::string kBin = ANALYZE_BIN;
const std::string kFixtures = FIXTURES_DIR;
const std::string kSourceRoot = SOURCE_ROOT;

TEST(AnalyzeInclude, SeededTreeMatchesGolden) {
  const std::string json = ::testing::TempDir() + "include_tree.json";
  RunResult r = run_in(kFixtures, kBin +
                                      " --pass=include --root=include_tree"
                                      " --json=" +
                                      json);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // One seeded violation per rule.
  for (const char* rule :
       {"pragma-once", "self-contained", "missing-include", "unused-include",
        "facade", "cycle", "layering"}) {
    EXPECT_NE(r.output.find(std::string("[include:") + rule + "]"),
              std::string::npos)
        << "rule did not fire: " << rule << "\n"
        << r.output;
  }
  EXPECT_EQ(slurp(json), slurp(kFixtures + "/golden/include_tree.json"));
}

TEST(AnalyzeInclude, ModuleGraphDotDump) {
  const std::string dot = ::testing::TempDir() + "modules.dot";
  RunResult r = run_in(
      kFixtures,
      kBin + " --pass=include --root=include_tree --dot=" + dot);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string graph = slurp(dot);
  EXPECT_NE(graph.find("digraph"), std::string::npos);
  EXPECT_NE(graph.find("nullspace"), std::string::npos);
}

TEST(AnalyzeLock, DiffsStaticGraphAgainstRuntimeLockdep) {
  // Exercise ONE of the two statically-possible orders through the real
  // runtime lockdep recorder, exactly as instrumented code would.
  auto& graph = elmo::check::LockOrderGraph::global();
  graph.reset();
  graph.on_acquire("fix.a");
  graph.on_acquire("fix.b");  // edge fix.a -> fix.b while holding fix.a
  graph.on_release("fix.b");
  graph.on_release("fix.a");
  const std::string edges_path = ::testing::TempDir() + "runtime_edges.txt";
  {
    std::ofstream out(edges_path);
    for (const std::string& edge : graph.edges()) out << edge << "\n";
  }
  graph.reset();
  ASSERT_NE(slurp(edges_path).find("fix.a -> fix.b"), std::string::npos);

  const std::string json = ::testing::TempDir() + "locks.json";
  RunResult r = run_in(kFixtures,
                       kBin +
                           " --pass=lock --lockdep-edges=" + edges_path +
                           " --json=" + json +
                           " locks/lock_cycle.cpp locks/lock_blocking.cpp"
                           " locks/lock_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The static graph sees both orders -> cycle; the runtime graph only saw
  // fix.a -> fix.b, so fix.b -> fix.a is a coverage hole.
  EXPECT_NE(r.output.find("[lock:lock-cycle]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fix.a -> fix.b -> fix.a"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[lock:lock-unexercised]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fix.b -> fix.a"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[lock:lock-blocking]"), std::string::npos)
      << r.output;
  EXPECT_EQ(slurp(json), slurp(kFixtures + "/golden/locks.json"));
}

TEST(AnalyzeLock, CleanFileStaysSilent) {
  RunResult r = run_in(kFixtures, kBin + " --pass=lock locks/lock_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(AnalyzeOverflow, SeededArithMatchesGolden) {
  const std::string json = ::testing::TempDir() + "overflow.json";
  RunResult r = run_in(kFixtures,
                       kBin +
                           " --pass=overflow --json=" + json +
                           " overflow/overflow_bad.cpp"
                           " overflow/overflow_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[overflow:unchecked-arith]"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("overflow_clean"), std::string::npos) << r.output;
  EXPECT_EQ(slurp(json), slurp(kFixtures + "/golden/overflow.json"));
}

TEST(AnalyzeLint, SeededRulesMatchGolden) {
  const std::string json = ::testing::TempDir() + "lint.json";
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=lint --json=" + json +
                           " lint/lint_bad.cpp lint/lint_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* rule :
       {"naked-new", "no-rand", "catch-all", "reinterpret-cast"}) {
    EXPECT_NE(r.output.find(std::string("[lint:") + rule + "]"),
              std::string::npos)
        << "rule did not fire: " << rule << "\n"
        << r.output;
  }
  EXPECT_EQ(r.output.find("lint_clean"), std::string::npos) << r.output;
  EXPECT_EQ(slurp(json), slurp(kFixtures + "/golden/lint.json"));
}

TEST(AnalyzeLint, ShimKeepsHistoricalInterface) {
  // The lint-compat mode scripts/lint.sh runs over tests/.
  const std::string lint = kBin + " --pass=lint --lint-compat";
  RunResult bad = run_in(kFixtures, lint + " lint/lint_bad.cpp");
  EXPECT_EQ(bad.exit_code, 1) << bad.output;
  // Historical format: `file:line: [rule] message` + count trailer.
  EXPECT_NE(bad.output.find("lint/lint_bad.cpp:4: [naked-new]"),
            std::string::npos)
      << bad.output;
  EXPECT_NE(bad.output.find("elmo_lint: 4 finding(s)"), std::string::npos)
      << bad.output;

  RunResult clean = run_in(kFixtures, lint + " lint/lint_clean.cpp");
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
}

TEST(AnalyzeShared, SeededMutationsMatchGolden) {
  const std::string json = ::testing::TempDir() + "shared.json";
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=shared --json=" + json +
                           " shared/shared_bad.cpp shared/shared_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Every seeded mutation kind: member via ThreadPool::submit, global and
  // captured locals via parallel_for_dynamic, global via a thread vector.
  for (const char* site : {"'counter_'", "'g_total'", "'s_calls'", "'hits'"}) {
    EXPECT_NE(r.output.find(site), std::string::npos)
        << "site did not fire: " << site << "\n"
        << r.output;
  }
  EXPECT_EQ(r.output.find("shared_clean"), std::string::npos) << r.output;
  // Guarded/atomic/annotated sites in the bad file stay silent.
  EXPECT_EQ(r.output.find("g_atomic"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("'slots'"), std::string::npos) << r.output;
  EXPECT_EQ(slurp(json), slurp(kFixtures + "/golden/shared.json"));
}

TEST(AnalyzeShared, CleanFileStaysSilent) {
  RunResult r =
      run_in(kFixtures, kBin + " --pass=shared shared/shared_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(AnalyzeShared, TsanLogCrossCheckFlagsUnseenRaces) {
  // Fabricate a TSan report with two race sites: one where the static
  // pass already fires (shared_bad.cpp:42) and one where it is silent
  // (shared_clean.cpp:26, guarded).  Only the second may become a
  // shared-unseen finding.
  const std::string log = ::testing::TempDir() + "tsan.log";
  {
    std::ofstream out(log);
    out << "WARNING: ThreadSanitizer: data race (pid=123)\n"
        << "  Write of size 8 at 0x7b04 by thread T1:\n"
        << "    #0 pump shared/shared_clean.cpp:26 (t+0x1)\n"
        << "  Previous write of size 8 by thread T2:\n"
        << "    #0 lanes shared/shared_bad.cpp:42 (t+0x2)\n"
        << "SUMMARY: ThreadSanitizer: data race shared/shared_clean.cpp:26\n";
  }
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=shared --tsan-log=" + log +
                           " shared/shared_bad.cpp shared/shared_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[shared:shared-unseen]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("shared_clean.cpp:26"), std::string::npos)
      << r.output;
  // The statically-seen race must not be double-reported as unseen.
  EXPECT_EQ(r.output.find("shared_bad.cpp:42: [shared:shared-unseen]"),
            std::string::npos)
      << r.output;
}

TEST(AnalyzeErrpath, SeededLeaksMatchGolden) {
  const std::string json = ::testing::TempDir() + "errpath.json";
  RunResult r =
      run_in(kFixtures, kBin + " --pass=errpath --json=" + json +
                            " errpath/errpath_bad.cpp errpath/errpath_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* rule : {"raii-pair", "unhandled-throw"}) {
    EXPECT_NE(r.output.find(std::string("[errpath:") + rule + "]"),
              std::string::npos)
        << "rule did not fire: " << rule << "\n"
        << r.output;
  }
  EXPECT_NE(r.output.find("ResourceError"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("CancelledError"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("errpath_clean"), std::string::npos) << r.output;
  EXPECT_EQ(slurp(json), slurp(kFixtures + "/golden/errpath.json"));
}

TEST(AnalyzeErrpath, CleanFileStaysSilent) {
  RunResult r =
      run_in(kFixtures, kBin + " --pass=errpath errpath/errpath_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(AnalyzeDeterminism, SeededSourcesMatchGolden) {
  const std::string json = ::testing::TempDir() + "determinism.json";
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=determinism --json=" + json +
                           " determinism/determinism_bad.cpp"
                           " determinism/determinism_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* rule : {"pointer-key", "unordered-iter", "wall-clock"}) {
    EXPECT_NE(r.output.find(std::string("[determinism:") + rule + "]"),
              std::string::npos)
        << "rule did not fire: " << rule << "\n"
        << r.output;
  }
  EXPECT_EQ(r.output.find("determinism_clean"), std::string::npos) << r.output;
  EXPECT_EQ(slurp(json), slurp(kFixtures + "/golden/determinism.json"));
}

TEST(AnalyzeDeterminism, CleanFileStaysSilent) {
  RunResult r = run_in(
      kFixtures, kBin + " --pass=determinism determinism/determinism_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(AnalyzeProtocol, SeededSkeletonsMatchGolden) {
  const std::string json = ::testing::TempDir() + "protocol.json";
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=protocol --json=" + json +
                           " protocol/protocol_bad.cpp"
                           " protocol/protocol_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* rule : {"tag-mismatch", "orphan-recv", "peer-mismatch",
                           "collective-divergence", "recv-before-send"}) {
    EXPECT_NE(r.output.find(std::string("[protocol:") + rule + "]"),
              std::string::npos)
        << "rule did not fire: " << rule << "\n"
        << r.output;
  }
  EXPECT_EQ(r.output.find("protocol_clean"), std::string::npos) << r.output;
  EXPECT_EQ(slurp(json), slurp(kFixtures + "/golden/protocol.json"));
}

TEST(AnalyzeProtocol, CleanFileStaysSilent) {
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=protocol protocol/protocol_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(AnalyzeProtocol, FlowLogCrossCheckFlagsUnseenFlows) {
  // Fabricate a runtime trace in the PR-7 flow-event shape: a p2p flow
  // the static skeleton covers (tag 904 is sent in protocol_bad.cpp), a
  // p2p flow no send site can produce (tag 999), and a gather flow
  // (covered — the fixtures hold collective sites).  Only tag 999 may
  // become a flow-unseen finding.
  const std::string log = ::testing::TempDir() + "flow_trace.json";
  {
    std::ofstream out(log);
    out << "{\"traceEvents\":[{\"name\":\"msg\",\"cat\":\"mpsim\",\"ph\":"
           "\"s\",\"pid\":1,\"tid\":2,\"ts\":10,\"id\":7,\"args\":{"
           "\"detail\":\"src=0 dst=1 seq=1 bytes=64 tag=904\"}},"
           "{\"name\":\"msg\",\"cat\":\"mpsim\",\"ph\":\"f\",\"bp\":\"e\","
           "\"pid\":1,\"tid\":3,\"ts\":12,\"id\":7},"
           "{\"name\":\"msg\",\"cat\":\"mpsim\",\"ph\":\"s\",\"pid\":1,"
           "\"tid\":2,\"ts\":20,\"id\":8,\"args\":{\"detail\":\"src=0 "
           "dst=1 seq=2 bytes=64 tag=999\"}},"
           "{\"name\":\"gather\",\"cat\":\"mpsim\",\"ph\":\"s\",\"pid\":1,"
           "\"tid\":2,\"ts\":30,\"id\":9,\"args\":{\"detail\":\"src=0 "
           "round=1 bytes=128\"}}]}\n";
  }
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=protocol --flow-log=" + log +
                           " protocol/protocol_bad.cpp"
                           " protocol/protocol_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[protocol:flow-unseen]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("tag 999"), std::string::npos) << r.output;
  // The covered p2p flow and the covered gather flow stay silent.
  EXPECT_EQ(r.output.find("tag 904 but no static send site"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("no collective site"), std::string::npos)
      << r.output;
}

TEST(AnalyzeProtocol, MissingFlowLogIsAFinding) {
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=protocol --flow-log=/no/such/trace.json"
                              " protocol/protocol_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("cannot read flow log"), std::string::npos)
      << r.output;
}

TEST(AnalyzeTypestate, SeededMachinesMatchGolden) {
  const std::string json = ::testing::TempDir() + "typestate.json";
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=typestate --json=" + json +
                           " typestate/typestate_bad.cpp"
                           " typestate/typestate_clean.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* rule :
       {"spill-write-after-read", "use-after-release",
        "discarded-token", "repair-before-resume"}) {
    EXPECT_NE(r.output.find(std::string("[typestate:") + rule + "]"),
              std::string::npos)
        << "rule did not fire: " << rule << "\n"
        << r.output;
  }
  EXPECT_EQ(r.output.find("typestate_clean"), std::string::npos) << r.output;
  EXPECT_EQ(slurp(json), slurp(kFixtures + "/golden/typestate.json"));
}

TEST(AnalyzeTypestate, CleanFileStaysSilent) {
  // The clean corpus includes the range-for alias + subscripted receiver
  // shape and the lint:allow(discarded-token) escape.
  RunResult r = run_in(
      kFixtures, kBin + " --pass=typestate typestate/typestate_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(AnalyzeSarif, EmitsSarifOnStdoutTextOnStderr) {
  // SARIF goes to stdout only; the text report stays on stderr, so the
  // merged capture contains both.
  RunResult r = run_in(kFixtures,
                       kBin + " --pass=overflow --format=sarif"
                              " overflow/overflow_bad.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"$schema\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("sarif-2.1.0"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"name\": \"elmo_analyze\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"ruleId\": \"overflow:unchecked-arith\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"level\": \"error\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"startLine\": 5"), std::string::npos) << r.output;
  // Rule metadata: every emitted rule carries a fullDescription and a
  // stable helpUri (host elmo-analyze.invalid, path /rules/<pass>,
  // fragment <rule>).
  EXPECT_NE(r.output.find("\"fullDescription\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "\"helpUri\": "
                "\"https://elmo-analyze.invalid/rules/overflow#unchecked-"
                "arith\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("bypassing bigint/checked.hpp"), std::string::npos)
      << r.output;
}

TEST(AnalyzeBaseline, StaleEntriesFailFullRuns) {
  // Stale enforcement only applies to full runs (no explicit file list,
  // all passes on): a baseline key that no longer fires is itself a
  // finding.
  const std::string baseline = ::testing::TempDir() + "stale_baseline.txt";
  {
    std::ofstream out(baseline);
    out << "# long-gone finding\n"
        << "overflow:unchecked-arith:no/such/file.cpp:99\n";
  }
  RunResult full = run_in(kFixtures, kBin + " --root=include_tree --baseline=" +
                                         baseline);
  EXPECT_EQ(full.exit_code, 1) << full.output;
  EXPECT_NE(full.output.find("[baseline:stale]"), std::string::npos)
      << full.output;
  EXPECT_NE(full.output.find("overflow:unchecked-arith:no/such/file.cpp:99"),
            std::string::npos)
      << full.output;

  // Single-pass runs must NOT enforce staleness: most passes never ran,
  // so an unfired key proves nothing.
  RunResult partial = run_in(kFixtures,
                             kBin + " --pass=overflow --baseline=" + baseline +
                                 " overflow/overflow_clean.cpp");
  EXPECT_EQ(partial.exit_code, 0) << partial.output;
}

TEST(AnalyzeBaseline, SuppressesListedKeysOnly) {
  const std::string baseline = ::testing::TempDir() + "baseline.txt";
  {
    std::ofstream out(baseline);
    out << "# grandfathered fixture findings\n"
        << "overflow:unchecked-arith:overflow/overflow_bad.cpp:5\n"
        << "overflow:unchecked-arith:overflow/overflow_bad.cpp:9\n";
  }
  RunResult all = run_in(kFixtures,
                         kBin + " --pass=overflow --baseline=" + baseline +
                             " overflow/overflow_bad.cpp");
  EXPECT_EQ(all.exit_code, 0) << all.output;
  EXPECT_NE(all.output.find("2 baselined"), std::string::npos) << all.output;

  // A baseline listing only one of the two keys must still fail.
  {
    std::ofstream out(baseline);
    out << "overflow:unchecked-arith:overflow/overflow_bad.cpp:5\n";
  }
  RunResult partial = run_in(kFixtures,
                             kBin + " --pass=overflow --baseline=" +
                                 baseline + " overflow/overflow_bad.cpp");
  EXPECT_EQ(partial.exit_code, 1) << partial.output;
}

TEST(AnalyzeBaseline, WriteBaselineRoundTrips) {
  const std::string baseline = ::testing::TempDir() + "written_baseline.txt";
  RunResult write = run_in(kFixtures,
                           kBin + " --pass=overflow --write-baseline=" +
                               baseline + " overflow/overflow_bad.cpp");
  EXPECT_EQ(write.exit_code, 1) << write.output;
  RunResult reread = run_in(kFixtures,
                            kBin + " --pass=overflow --baseline=" + baseline +
                                " overflow/overflow_bad.cpp");
  EXPECT_EQ(reread.exit_code, 0) << reread.output;
}

TEST(AnalyzeSelfCheck, RepoSourceTreeIsCleanUnderCommittedBaseline) {
  RunResult r = run_in(kSourceRoot,
                       kBin + " --root=. --baseline=tools/analyze_baseline.txt");
  EXPECT_EQ(r.exit_code, 0)
      << "elmo_analyze reports findings over src/ not covered by "
         "tools/analyze_baseline.txt — fix them or (after review) "
         "regenerate the baseline:\n"
      << r.output;
}

}  // namespace
