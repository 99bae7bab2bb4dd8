// Tests for the observability layer: JSON DOM roundtrips, histogram bucket
// edges, the metrics registry under concurrent writers (run under the TSan
// preset by scripts/check.sh), trace JSON parse-back with per-rank tracks,
// report totals cross-checked against the returned SolveStats, and the
// progress reporter's heartbeat records.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "models/toy.hpp"
#include "nullspace/stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace elmo {
namespace {

// ---------------------------------------------------------------- JSON DOM

TEST(ObsJson, RoundtripPreservesValuesAndOrder) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("zeta", obs::JsonValue(std::int64_t{-42}));
  doc.set("alpha", obs::JsonValue(true));
  // > 2^53: would be silently rounded if stored as double.
  doc.set("big", obs::JsonValue(std::uint64_t{9'007'199'254'740'993ull}));
  doc.set("pi", obs::JsonValue(3.25));
  doc.set("text", obs::JsonValue("quote \" slash \\ newline \n tab \t"));
  doc.set("nothing", obs::JsonValue());
  obs::JsonValue list = obs::JsonValue::array();
  list.push_back(obs::JsonValue(std::uint64_t{1}));
  list.push_back(obs::JsonValue("two"));
  obs::JsonValue nested = obs::JsonValue::object();
  nested.set("k", obs::JsonValue(std::int64_t{7}));
  list.push_back(std::move(nested));
  doc.set("list", std::move(list));

  for (int indent : {-1, 0, 2}) {
    std::string error;
    obs::JsonValue back = obs::parse_json(doc.dump(indent), &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(back.kind(), obs::JsonValue::Kind::kObject);
    // Insertion order survives the roundtrip.
    ASSERT_EQ(back.as_object().size(), 7u);
    EXPECT_EQ(back.as_object()[0].first, "zeta");
    EXPECT_EQ(back.as_object()[1].first, "alpha");
    EXPECT_EQ(back.find("zeta")->as_int(), -42);
    EXPECT_TRUE(back.find("alpha")->as_bool());
    EXPECT_EQ(back.find("big")->as_uint(), 9'007'199'254'740'993ull);
    EXPECT_DOUBLE_EQ(back.find("pi")->as_double(), 3.25);
    EXPECT_EQ(back.find("text")->as_string(),
              "quote \" slash \\ newline \n tab \t");
    EXPECT_TRUE(back.find("nothing")->is_null());
    const auto& arr = back.find("list")->as_array();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr[0].as_uint(), 1u);
    EXPECT_EQ(arr[1].as_string(), "two");
    EXPECT_EQ(arr[2].find("k")->as_int(), 7);
  }
}

TEST(ObsJson, MalformedInputReportsError) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\" 1}", "[1 2]", "nul"}) {
    std::string error;
    obs::JsonValue v = obs::parse_json(bad, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << bad;
    EXPECT_TRUE(v.is_null());
  }
}

// ------------------------------------------------------- histogram buckets

TEST(ObsMetrics, HistogramBucketEdges) {
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 1u);
  EXPECT_EQ(obs::histogram_bucket(2), 2u);
  EXPECT_EQ(obs::histogram_bucket(3), 2u);
  EXPECT_EQ(obs::histogram_bucket(4), 3u);
  // Power-of-two boundaries: 2^k opens bucket k+1, 2^k - 1 closes bucket k.
  for (std::size_t k = 1; k < 64; ++k) {
    const std::uint64_t pow = std::uint64_t{1} << k;
    EXPECT_EQ(obs::histogram_bucket(pow), k + 1) << "2^" << k;
    EXPECT_EQ(obs::histogram_bucket(pow - 1), k) << "2^" << k << " - 1";
  }
  EXPECT_EQ(obs::histogram_bucket(std::numeric_limits<std::uint64_t>::max()),
            64u);

  EXPECT_EQ(obs::histogram_bucket_low(0), 0u);
  EXPECT_EQ(obs::histogram_bucket_low(1), 1u);
  EXPECT_EQ(obs::histogram_bucket_low(2), 2u);
  EXPECT_EQ(obs::histogram_bucket_low(3), 4u);
  EXPECT_EQ(obs::histogram_bucket_low(64), std::uint64_t{1} << 63);
  // Every value lands in the bucket whose low bound it is >= of.
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    EXPECT_EQ(obs::histogram_bucket(obs::histogram_bucket_low(i)), i);
  }
}

// --------------------------------------------------------- metrics registry

TEST(ObsMetrics, DisabledRegistryRecordsNothing) {
  obs::Registry registry;  // disabled by default
  obs::Counter c = registry.counter("c");
  obs::Gauge g = registry.gauge("g");
  obs::Histogram h = registry.histogram("h");
  c.add(5);
  g.set(9);
  h.observe(100);
  auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_EQ(snap.gauges.at("g").value, 0u);
  EXPECT_EQ(snap.gauges.at("g").max, 0u);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
}

TEST(ObsMetrics, EnabledRegistryAccumulatesAndResets) {
  obs::Registry registry;
  registry.set_enabled(true);
  obs::Counter c = registry.counter("c");
  // Interning is idempotent: the second handle hits the same cells.
  obs::Counter c2 = registry.counter("c");
  obs::Gauge g = registry.gauge("g");
  obs::Histogram h = registry.histogram("h");

  c.add(3);
  c2.add(4);
  c.add(0);  // no-op by contract
  g.set(10);
  g.set(7);  // max keeps 10, value follows
  h.observe(0);
  h.observe(1);
  h.observe(1023);
  h.observe(1024);

  auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 7u);
  EXPECT_EQ(snap.gauges.at("g").value, 7u);
  EXPECT_EQ(snap.gauges.at("g").max, 10u);
  const auto& hist = snap.histograms.at("h");
  EXPECT_EQ(hist.count, 4u);
  EXPECT_EQ(hist.sum, 0u + 1u + 1023u + 1024u);
  EXPECT_EQ(hist.buckets[0], 1u);
  EXPECT_EQ(hist.buckets[1], 1u);
  EXPECT_EQ(hist.buckets[10], 1u);  // 1023 = 2^10 - 1
  EXPECT_EQ(hist.buckets[11], 1u);  // 1024 = 2^10

  // Snapshot serialises; counters appear under their names.
  obs::JsonValue json = snap.to_json();
  ASSERT_NE(json.find("counters"), nullptr);
  EXPECT_EQ(json.find("counters")->find("c")->as_uint(), 7u);

  registry.reset();
  auto zeroed = registry.snapshot();
  EXPECT_EQ(zeroed.counters.at("c"), 0u);
  EXPECT_EQ(zeroed.gauges.at("g").max, 0u);
  EXPECT_EQ(zeroed.histograms.at("h").count, 0u);
}

TEST(ObsMetrics, ConcurrentWritersSumExactly) {
  obs::Registry registry;
  registry.set_enabled(true);
  obs::Counter counter = registry.counter("hits");
  obs::Histogram hist = registry.histogram("values");
  obs::Gauge gauge = registry.gauge("level");

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.add(1);
        hist.observe(static_cast<std::uint64_t>(i % 7));
        gauge.set(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& w : workers) w.join();

  auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("hits"),
            std::uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(snap.histograms.at("values").count,
            std::uint64_t{kThreads} * kOpsPerThread);
  EXPECT_LT(snap.gauges.at("level").max, std::uint64_t{kThreads});
}

// ------------------------------------------------------------------- trace

TEST(ObsTrace, JsonParsesBackWithNamedTracks) {
  obs::TraceRecorder recorder;
  obs::install_trace(&recorder);

  std::vector<std::thread> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back([r] {
      obs::set_current_thread_name("rank " + std::to_string(r));
      obs::TraceSpan span("rank test", "phase");
      obs::trace_counter("columns", 10 + static_cast<std::uint64_t>(r));
    });
  }
  for (auto& t : ranks) t.join();
  obs::trace_instant("retry", "combined", "subset [0] attempt 2");
  obs::install_trace(nullptr);

  EXPECT_EQ(obs::trace(), nullptr);
  ASSERT_GT(recorder.event_count(), 0u);

  std::string error;
  obs::JsonValue doc = obs::parse_json(recorder.to_json(), &error);
  ASSERT_TRUE(error.empty()) << error;
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::string> thread_names;
  bool saw_span = false, saw_counter = false, saw_instant = false;
  for (const auto& ev : events->as_array()) {
    const std::string& phase = ev.find("ph")->as_string();
    if (phase == "M") {
      EXPECT_EQ(ev.find("name")->as_string(), "thread_name");
      thread_names.insert(ev.find("args")->find("name")->as_string());
    } else if (phase == "X") {
      saw_span = true;
      EXPECT_EQ(ev.find("name")->as_string(), "rank test");
      EXPECT_EQ(ev.find("cat")->as_string(), "phase");
      EXPECT_GE(ev.find("ts")->as_double(), 0.0);
      EXPECT_GE(ev.find("dur")->as_double(), 0.0);
    } else if (phase == "C") {
      saw_counter = true;
      EXPECT_EQ(ev.find("name")->as_string(), "columns");
      EXPECT_GE(ev.find("args")->find("value")->as_uint(), 10u);
    } else if (phase == "i") {
      saw_instant = true;
      EXPECT_EQ(ev.find("s")->as_string(), "t");
      EXPECT_EQ(ev.find("args")->find("detail")->as_string(),
                "subset [0] attempt 2");
    }
  }
  EXPECT_TRUE(thread_names.count("rank 0"));
  EXPECT_TRUE(thread_names.count("rank 1"));
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_instant);
}

TEST(ObsTrace, DisabledTracingCostsNothingAndRecordsNothing) {
  ASSERT_EQ(obs::trace(), nullptr);
  {
    obs::TraceSpan span("unrecorded", "solve");
    obs::trace_instant("unrecorded", "solve");
    obs::trace_counter("unrecorded", 1);
    obs::set_current_thread_name("nobody");
  }
  obs::TraceRecorder recorder;
  EXPECT_EQ(recorder.event_count(), 0u);
}

// ----------------------------------------------------------- solve history

TEST(ObsStats, MergePreservesIterationHistory) {
  SolveStats a;
  a.keep_history = true;
  IterationStats it1;
  it1.row = 0;
  it1.pairs_probed = 6;
  it1.accepted = 2;
  it1.columns_after = 5;
  a.absorb(it1);

  SolveStats b;
  b.keep_history = true;
  IterationStats it2;
  it2.row = 1;
  it2.pairs_probed = 4;
  it2.accepted = 1;
  it2.columns_after = 6;
  b.absorb(it2);

  // Regression: merge() used to drop `other.history`, losing every
  // subproblem's growth curve after the first.
  a.merge(b);
  ASSERT_EQ(a.history.size(), 2u);
  EXPECT_EQ(a.history[0].row, 0u);
  EXPECT_EQ(a.history[1].row, 1u);
  EXPECT_EQ(a.total_pairs_probed, 10u);
  EXPECT_EQ(a.iterations, 2u);

  // keep_history=false absorb records totals only.
  SolveStats c;
  c.absorb(it1);
  EXPECT_TRUE(c.history.empty());
  // ...and merging history INTO it still preserves the incoming curve.
  c.merge(a);
  EXPECT_TRUE(c.keep_history);
  EXPECT_EQ(c.history.size(), 2u);
}

// ---------------------------------------------------- report cross-checks

TEST(ObsReport, TotalsMatchSolveStats) {
  Network net = models::toy_network();
  EfmOptions options;
  options.algorithm = Algorithm::kCombined;
  options.num_ranks = 2;
  options.partition_reactions = {"r6r", "r8r"};
  options.record_history = true;
  auto result = compute_efms(net, options);
  ASSERT_EQ(result.num_modes(), 8u);

  obs::SolveReport report = make_solve_report(result, options, "toy");
  EXPECT_EQ(report.network, "toy");
  EXPECT_EQ(report.algorithm, "combined");
  EXPECT_EQ(report.num_ranks, 2);
  EXPECT_EQ(report.num_efms, result.num_modes());
  EXPECT_EQ(report.totals.at("pairs_probed"), result.stats.total_pairs_probed);
  EXPECT_EQ(report.totals.at("rank_tests"), result.stats.total_rank_tests);
  EXPECT_EQ(report.totals.at("accepted"), result.stats.total_accepted);
  EXPECT_EQ(report.totals.at("duplicates_removed"),
            result.stats.total_duplicates_removed);
  EXPECT_EQ(report.totals.at("iterations"), result.stats.iterations);
  EXPECT_EQ(report.peak_columns, result.stats.peak_columns);
  EXPECT_EQ(report.subsets.size(), result.subsets.size());
  ASSERT_FALSE(report.subsets.empty());
  for (const auto& subset : report.subsets) {
    if (!subset.resumed) {
      EXPECT_FALSE(subset.ranks.empty());
    }
  }

  // The history made it into the report, and its per-iteration counters sum
  // to the solve totals.
  ASSERT_EQ(report.iterations.size(), result.stats.history.size());
  ASSERT_FALSE(report.iterations.empty());
  std::uint64_t history_pairs = 0;
  for (const auto& it : report.iterations) history_pairs += it.pairs_probed;
  EXPECT_EQ(history_pairs, result.stats.total_pairs_probed);

  // The serialised document parses back and carries the same totals.
  std::string error;
  obs::JsonValue doc = obs::parse_json(report.to_json().dump(2), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc.find("totals")->find("pairs_probed")->as_uint(),
            result.stats.total_pairs_probed);
  EXPECT_EQ(doc.find("num_efms")->as_uint(), result.num_modes());
  EXPECT_EQ(doc.find("subsets")->as_array().size(), report.subsets.size());

  // Reconstruction and canonicalisation are timed as their own phase.
  ASSERT_EQ(report.phase_seconds.count("expand"), 1u);
  EXPECT_GT(report.phase_seconds.at("expand"), 0.0);
  EXPECT_GT(doc.find("phase_seconds")->find("expand")->as_double(), 0.0);
}

TEST(ObsReport, GlobalMetricsMatchSerialSolveTotals) {
  auto& registry = obs::Registry::global();
  registry.reset();
  registry.set_enabled(true);

  Network net = models::toy_network();
  auto result = compute_efms(net);

  auto snap = registry.snapshot();
  registry.set_enabled(false);
  registry.reset();

  EXPECT_EQ(snap.counters.at("solver.pairs_probed"),
            result.stats.total_pairs_probed);
  EXPECT_EQ(snap.counters.at("solver.rank_tests"),
            result.stats.total_rank_tests);
  EXPECT_EQ(snap.counters.at("solver.accepted"),
            result.stats.total_accepted);
  EXPECT_EQ(snap.counters.at("solver.iterations"), result.stats.iterations);
  EXPECT_EQ(snap.histograms.at("solver.iteration_pairs").count,
            result.stats.iterations);
  EXPECT_EQ(snap.gauges.at("solver.columns").max, result.stats.peak_columns);
}

// ---------------------------------------------------------------- progress

/// A fresh heartbeat path under the test temp dir.
std::string heartbeat_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "elmo_obs_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

std::vector<obs::JsonValue> read_heartbeats(const std::string& path) {
  std::vector<obs::JsonValue> records;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    std::string error;
    records.push_back(obs::parse_json(line, &error));
    EXPECT_TRUE(error.empty()) << error << " in: " << line;
  }
  return records;
}

obs::ProgressSample sample_with_pairs(std::uint64_t pairs) {
  obs::ProgressSample sample;
  sample.pairs_probed = pairs;
  sample.columns = 4;
  return sample;
}

TEST(ObsProgress, IterationFractionClampsToOne) {
  // Three iterations against an announced total of two: the fraction
  // stops at 1, so the ETA bottoms out at zero instead of going negative
  // (and vanishing from the record).
  const std::string path = heartbeat_path("clamp");
  obs::ProgressOptions options;
  options.interval_seconds = 0.0;
  options.heartbeat_path = path;
  options.total_iterations = 2;
  {
    obs::ProgressReporter reporter(options);
    for (int i = 0; i < 3; ++i) reporter.on_iteration(sample_with_pairs(5));
    EXPECT_EQ(reporter.pairs_so_far(), 15u);
  }
  const auto records = read_heartbeats(path);
  ASSERT_EQ(records.size(), 4u);  // three iterations + the terminal record
  const obs::JsonValue& third = records[2];
  EXPECT_EQ(third.find("iteration")->as_uint(), 3u);
  EXPECT_EQ(third.find("total_iterations")->as_uint(), 2u);
  ASSERT_NE(third.find("eta_seconds"), nullptr);
  EXPECT_EQ(third.find("eta_seconds")->as_double(), 0.0);
}

TEST(ObsProgress, UnknownTotalOmitsTotalAndEta) {
  const std::string path = heartbeat_path("unknown_total");
  obs::ProgressOptions options;
  options.interval_seconds = 0.0;
  options.heartbeat_path = path;
  {
    obs::ProgressReporter reporter(options);
    reporter.on_iteration(sample_with_pairs(7));
    reporter.finish(3);
  }
  const auto records = read_heartbeats(path);
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    EXPECT_EQ(record.find("total_iterations"), nullptr);
    EXPECT_EQ(record.find("eta_seconds"), nullptr);
    EXPECT_EQ(record.find("pairs_probed")->as_uint(), 7u);
  }
  EXPECT_EQ(records.back().find("num_efms")->as_uint(), 3u);
}

TEST(ObsProgress, SubsetRecordsAreNeverThrottled) {
  // An hour-long throttle swallows every iteration update, but each
  // committed subset still lands exactly once.
  const std::string path = heartbeat_path("subsets");
  obs::ProgressOptions options;
  options.interval_seconds = 3600.0;
  options.heartbeat_path = path;
  options.label = "toy";
  {
    obs::ProgressReporter reporter(options);
    reporter.on_iteration(sample_with_pairs(1));
    reporter.on_subset("r6r:0 r8r:0", 2, 0.01);
    reporter.on_iteration(sample_with_pairs(1));
    reporter.on_subset("r6r:+ r8r:0", 3, 0.02);
    reporter.finish(5);
  }
  const auto records = read_heartbeats(path);
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(records[i].find("kind")->as_string(), "subset");
    EXPECT_EQ(records[i].find("label")->as_string(), "toy");
  }
  EXPECT_EQ(records[0].find("subset")->as_string(), "r6r:0 r8r:0");
  EXPECT_EQ(records[0].find("num_efms")->as_uint(), 2u);
  EXPECT_EQ(records[1].find("subset")->as_string(), "r6r:+ r8r:0");
  EXPECT_EQ(records[1].find("num_efms")->as_uint(), 3u);
  EXPECT_TRUE(records[2].find("done")->as_bool());
}

TEST(ObsProgress, DestructorWritesTerminalDoneRecord) {
  // No finish() call, and every update throttled: the destructor still
  // closes the stream with one `done` record.
  const std::string path = heartbeat_path("destructor");
  obs::ProgressOptions options;
  options.interval_seconds = 3600.0;
  options.heartbeat_path = path;
  options.total_iterations = 10;
  {
    obs::ProgressReporter reporter(options);
    reporter.on_iteration(sample_with_pairs(4));
    reporter.on_iteration(sample_with_pairs(6));
  }
  const auto records = read_heartbeats(path);
  ASSERT_EQ(records.size(), 1u);
  const obs::JsonValue& last = records.back();
  EXPECT_TRUE(last.find("done")->as_bool());
  EXPECT_EQ(last.find("iteration")->as_uint(), 2u);
  EXPECT_EQ(last.find("total_iterations")->as_uint(), 10u);
  EXPECT_EQ(last.find("pairs_probed")->as_uint(), 10u);
  EXPECT_EQ(last.find("num_efms")->as_uint(), 0u);
}

}  // namespace
}  // namespace elmo
