// elmo_perfbench: one whole EFM run, in one process, for perfbench/run.py.
//
//   elmo_perfbench gen --knockout R15,R46,R92r --output net.txt
//       Write S. cerevisiae Network I minus the knockouts with
//       write_network, in model reaction order.
//
//   elmo_perfbench run --input net.txt --output modes.csv
//                      --algorithm serial|combined [--spans spans.json]
//       Untraced (no --spans): do what `elmo_cli net.txt -o modes.csv
//       --algorithm A` does, through the public API: read, parse_network,
//       compress, compute_efms, efms_to_csv, write.  The timed run comes
//       first, in a cold process; kSetupReps more read+parse+compress
//       set-ups after it are reported alongside the run's own.
//       `combined` is Algorithm 3 with qsub 2 on 4 ranks x 1 thread.
//
//       Traced (--spans): repeat the body of compute_efms' run_with through
//       the same public calls, with a span around each call and the
//       program's own counters read at the same boundaries.  Spans stay in
//       memory until the run ends and are then written to the spans file.
//
// Either mode prints one JSON object on stdout.  Exit code 1 on any error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigint/checked.hpp"
#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "core/api.hpp"
#include "core/combined.hpp"
#include "io/efm_writer.hpp"
#include "models/yeast.hpp"
#include "network/parser.hpp"
#include "nullspace/efm.hpp"
#include "nullspace/problem.hpp"
#include "nullspace/solver.hpp"
#include "resource/governor.hpp"
#include "support/error.hpp"

namespace {

using namespace elmo;
using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), now_s(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Seconds covered by spans named `name` (0 if none was recorded).
  [[nodiscard]] double seconds(const std::string& name) const {
    double total = 0.0;
    for (const auto& span : spans_)
      if (span.name == name) total += span.end - span.start;
    return total;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& span = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << span.name
          << "\", \"start_s\": " << json_number(span.start)
          << ", \"end_s\": " << json_number(span.end)
          << ", \"parent\": " << span.parent << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
};

/// Span over one lexical scope.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int parent)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------- config

struct Config {
  std::string input;
  std::string output;
  std::string spans;
  std::string algorithm = "serial";
};

/// Set-ups timed after an untraced run, besides the run's own.
constexpr int kSetupReps = 20;

EfmOptions efm_options(const Config& config) {
  EfmOptions options;
  if (config.algorithm == "serial") {
    options.algorithm = Algorithm::kSerial;
  } else if (config.algorithm == "combined") {
    options.algorithm = Algorithm::kCombined;
    options.num_ranks = 4;
    options.threads_per_rank = 1;
    options.qsub = 2;
  } else {
    throw std::runtime_error("unknown algorithm: " + config.algorithm);
  }
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Write `text` and close the file, as elmo_cli -o does.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

struct SetUp {
  Network network;
  CompressedProblem compressed;
};

SetUp set_up(const std::string& path, const EfmOptions& options) {
  SetUp setup;
  setup.network = parse_network(read_file(path));
  setup.compressed = compress(setup.network, options.compression);
  return setup;
}

// ---------------------------------------------------------------- untraced

int run_untraced(const Config& config) {
  const EfmOptions options = efm_options(config);
  const double start = now_s();
  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    const double before = now_s();
    SetUp setup = set_up(config.input, options);
    setup_s.push_back(now_s() - before);
    return setup;
  };
  const SetUp setup = timed_set_up();
  const EfmResult result = compute_efms(
      setup.compressed, setup.network.reversibility(), options);
  const std::string csv = efms_to_csv(result.modes, result.reaction_names);
  write_file(config.output, csv);
  const double wall = now_s() - start;
  // After the timed run, so that it starts cold like a plain elmo_cli run.
  for (int rep = 0; rep < kSetupReps; ++rep) timed_set_up();

  std::string samples;
  for (double s : setup_s)
    samples += (samples.empty() ? "" : ", ") + json_number(s);
  std::printf(
      "{\"mode\": \"untraced\", \"wall_s\": %s, \"setup_s\": [%s], "
      "\"modes\": %zu, \"used_bigint\": %s, \"csv_bytes\": %zu, "
      "\"peak_rss_mb\": %s}\n",
      json_number(wall).c_str(), samples.c_str(), result.num_modes(),
      result.used_bigint ? "true" : "false", csv.size(),
      json_number(peak_rss_mb()).c_str());
  return 0;
}

// ---------------------------------------------------------------- traced

using Metrics = std::map<std::string, double>;

/// Sums of the mpsim counters and Algorithm-3 subset ledgers of one solve.
void add_parallel_metrics(const std::vector<SubsetReport>& subsets,
                          Metrics& metrics) {
  double max_s = 0.0;
  double sum_s = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double wait_data_us = 0.0;
  double wait_barrier_us = 0.0;
  std::size_t peak_rank_bytes = 0;
  for (const auto& subset : subsets) {
    max_s = std::max(max_s, subset.seconds);
    sum_s += subset.seconds;
    for (const auto& rank : subset.ranks.ranks) {
      messages += static_cast<double>(rank.messages_sent);
      bytes += static_cast<double>(rank.bytes_sent);
      wait_data_us += static_cast<double>(rank.wait_data_us);
      wait_barrier_us += static_cast<double>(rank.wait_barrier_us);
    }
    peak_rank_bytes = std::max(peak_rank_bytes, subset.ranks.max_memory_peak());
  }
  metrics["core.subsets"] = static_cast<double>(subsets.size());
  metrics["core.subset_max_s"] = max_s;
  metrics["core.subset_sum_s"] = sum_s;
  metrics["mpsim.messages_sent"] = messages;
  metrics["mpsim.bytes_sent"] = bytes;
  metrics["mpsim.wait_data_s"] = wait_data_us * 1e-6;
  metrics["mpsim.wait_barrier_s"] = wait_barrier_us * 1e-6;
  metrics["mpsim.peak_rank_memory_mb"] =
      static_cast<double>(peak_rank_bytes) / (1024.0 * 1024.0);
}

void add_solve_metrics(const SolveStats& stats, Metrics& metrics) {
  auto count = [](std::uint64_t value) { return static_cast<double>(value); };
  metrics["nullspace.gen_cand_s"] = stats.phases.seconds(Phase::kGenCand);
  metrics["nullspace.rank_test_s"] = stats.phases.seconds(Phase::kRankTest);
  metrics["nullspace.merge_s"] = stats.phases.seconds(Phase::kMerge);
  metrics["core.communicate_s"] = stats.phases.seconds(Phase::kCommunicate);
  metrics["nullspace.pairs_probed"] = count(stats.total_pairs_probed);
  metrics["nullspace.pretest_survivors"] = count(stats.total_pretest_survivors);
  metrics["nullspace.rank_tests"] = count(stats.total_rank_tests);
  metrics["nullspace.accepted"] = count(stats.total_accepted);
  metrics["nullspace.duplicates_removed"] =
      count(stats.total_duplicates_removed);
  metrics["nullspace.iterations"] = static_cast<double>(stats.iterations);
  metrics["nullspace.peak_columns"] = count(stats.peak_columns);
  metrics["nullspace.rank_warmstart_reuses"] =
      count(stats.total_rank_warmstart_reuses);
  metrics["nullspace.rank_dense_fallbacks"] =
      count(stats.total_rank_dense_fallbacks);
  auto ratio = [](std::uint64_t useful, std::uint64_t attempts) {
    return attempts == 0 ? 0.0
                         : static_cast<double>(useful) /
                               static_cast<double>(attempts);
  };
  metrics["nullspace.pretest_pass_ratio"] =
      ratio(stats.total_pretest_survivors, stats.total_pairs_probed);
  metrics["nullspace.accept_ratio"] =
      ratio(stats.total_accepted, stats.total_rank_tests);
}

/// The body of run_with (core/api.cpp), call for call, with spans.
template <typename Scalar, typename Support>
std::vector<std::vector<BigInt>> traced_solve(
    const CompressedProblem& compressed,
    const std::vector<bool>& original_reversibility, const EfmOptions& options,
    Tracer& tracer, int parent, Metrics& metrics) {
  EfmProblem<Scalar> problem;
  {
    Scope span(tracer, "nullspace.to_problem", parent);
    problem = to_problem<Scalar>(compressed);
  }

  SolverOptions solver;
  solver.ordering = options.ordering;
  solver.test = options.test;
  solver.rank_backend = options.rank_backend;
  solver.spill = options.spill;

  std::vector<FluxColumn<Scalar, Support>> columns;
  const double cpu_before = cpu_s();
  const double wall_before = now_s();
  if (options.algorithm == Algorithm::kSerial) {
    Scope span(tracer, "nullspace.solve_efms", parent);
    auto solved = solve_efms<Scalar, Support>(problem, solver);
    columns = std::move(solved.columns);
    add_solve_metrics(solved.stats, metrics);
    add_parallel_metrics({}, metrics);
  } else {
    Scope span(tracer, "core.solve_combined", parent);
    CombinedOptions combined;
    combined.qsub = options.qsub;
    combined.num_ranks = options.num_ranks;
    combined.threads_per_rank = options.threads_per_rank;
    combined.solver = solver;
    auto solved = solve_combined<Scalar, Support>(problem, combined);
    columns = std::move(solved.columns);
    add_solve_metrics(solved.total, metrics);
    add_parallel_metrics(solved.subsets, metrics);
  }
  const double solve_wall = now_s() - wall_before;
  metrics["nullspace.solve_s"] = solve_wall;
  metrics["parallel.solve_cpu_util"] =
      solve_wall > 0.0 ? (cpu_s() - cpu_before) / solve_wall : 0.0;

  std::vector<std::vector<BigInt>> reduced_modes;
  {
    Scope span(tracer, "nullspace.to_bigint", parent);
    reduced_modes = columns_to_bigint(columns);
  }
  std::vector<std::vector<BigInt>> modes;
  {
    Scope span(tracer, "compress.expand", parent);
    modes.reserve(reduced_modes.size());
    for (const auto& mode : reduced_modes)
      modes.push_back(compressed.expand(mode));
  }
  {
    Scope span(tracer, "nullspace.canonicalize", parent);
    canonicalize_modes(modes, original_reversibility);
  }
  return modes;
}

/// run_with_support's choice of support type (core/api.cpp).
template <typename Scalar>
std::vector<std::vector<BigInt>> traced_solve_with_support(
    const CompressedProblem& compressed,
    const std::vector<bool>& original_reversibility, const EfmOptions& options,
    Tracer& tracer, int parent, Metrics& metrics) {
  const std::size_t worst_case =
      compressed.num_reactions() +
      static_cast<std::size_t>(std::count(compressed.reversible.begin(),
                                          compressed.reversible.end(), true));
  if (worst_case <= Bitset64::capacity()) {
    return traced_solve<Scalar, Bitset64>(compressed, original_reversibility,
                                          options, tracer, parent, metrics);
  }
  return traced_solve<Scalar, DynBitset>(compressed, original_reversibility,
                                         options, tracer, parent, metrics);
}

int run_traced(const Config& config) {
  const EfmOptions options = efm_options(config);
  Tracer tracer;
  Metrics metrics;
  bool used_bigint = false;
  std::size_t csv_bytes = 0;
  std::size_t num_modes = 0;
  {
    Scope run(tracer, "run", -1);
    const int root = run.id();

    std::string text;
    {
      Scope span(tracer, "io.read", root);
      text = read_file(config.input);
    }
    Network network;
    {
      Scope span(tracer, "network.parse", root);
      network = parse_network(text);
    }
    CompressedProblem compressed;
    {
      Scope span(tracer, "compress.compress", root);
      compressed = compress(network, options.compression);
    }

    // compute_efms: a fresh governor ledger, then int64 with an exact
    // BigInt redo on overflow.
    auto& governor = resource::MemoryGovernor::global();
    governor.reset();
    governor.set_limit(options.mem_limit_bytes);
    const auto reversibility = network.reversibility();
    std::vector<std::vector<BigInt>> modes;
    try {
      modes = traced_solve_with_support<CheckedI64>(
          compressed, reversibility, options, tracer, root, metrics);
    } catch (const OverflowError&) {
      used_bigint = true;
      metrics.clear();
      modes = traced_solve_with_support<BigInt>(compressed, reversibility,
                                                options, tracer, root,
                                                metrics);
    }
    metrics["resource.governor_peak_mb"] =
        static_cast<double>(governor.peak_usage()) / (1024.0 * 1024.0);

    std::string csv;
    {
      Scope span(tracer, "io.csv", root);
      csv = efms_to_csv(modes, compressed.original_reaction_names);
    }
    {
      Scope span(tracer, "io.write", root);
      write_file(config.output, csv);
    }
    csv_bytes = csv.size();
    num_modes = modes.size();
    metrics["compress.reduced_cols"] =
        static_cast<double>(compressed.num_reactions());
    metrics["compress.reduced_rows"] =
        static_cast<double>(compressed.num_metabolites());
  }

  // Everything below reads the finished spans; nothing is timed any more.
  const auto& spans = tracer.spans();
  const Span& run = spans.front();
  double top_level = 0.0;
  for (const auto& span : spans)
    if (span.parent == 0) top_level += span.end - span.start;
  const double wall = run.end - run.start;

  metrics["network.parse_s"] = tracer.seconds("network.parse");
  metrics["compress.compress_s"] = tracer.seconds("compress.compress");
  metrics["compress.expand_s"] = tracer.seconds("compress.expand");
  metrics["nullspace.to_problem_s"] = tracer.seconds("nullspace.to_problem");
  metrics["nullspace.to_bigint_s"] = tracer.seconds("nullspace.to_bigint");
  metrics["nullspace.canonicalize_s"] =
      tracer.seconds("nullspace.canonicalize");
  metrics["io.read_s"] = tracer.seconds("io.read");
  metrics["io.csv_s"] = tracer.seconds("io.csv");
  metrics["io.write_s"] = tracer.seconds("io.write");
  metrics["io.csv_bytes"] = static_cast<double>(csv_bytes);
  metrics["bigint.fallback"] = used_bigint ? 1.0 : 0.0;
  metrics["trace.wall_s"] = wall;
  metrics["trace.unattributed_s"] = wall - top_level;
  tracer.write(config.spans);

  std::string body;
  for (const auto& [name, value] : metrics)
    body += (body.empty() ? "\"" : ", \"") + name + "\": " + json_number(value);
  std::printf(
      "{\"mode\": \"traced\", \"wall_s\": %s, \"modes\": %zu, "
      "\"used_bigint\": %s, \"csv_bytes\": %zu, \"peak_rss_mb\": %s, "
      "\"metrics\": {%s}}\n",
      json_number(wall).c_str(), num_modes, used_bigint ? "true" : "false",
      csv_bytes, json_number(peak_rss_mb()).c_str(), body.c_str());
  return 0;
}

// ---------------------------------------------------------------- gen

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

int run_gen(const std::string& knockouts, const std::string& output) {
  Network network = models::yeast_network_1();
  std::vector<ReactionId> removed;
  for (const auto& name : split_csv(knockouts)) {
    auto id = network.find_reaction(name);
    if (!id) throw std::runtime_error("unknown knockout reaction: " + name);
    removed.push_back(*id);
  }
  write_file(output, write_network(network.without_reactions(removed)));
  return 0;
}

[[noreturn]] void usage() {
  std::fputs(
      "usage: elmo_perfbench gen --knockout A,B,... --output FILE\n"
      "       elmo_perfbench run --input FILE --output FILE.csv\n"
      "                          --algorithm serial|combined [--spans FILE]\n",
      stderr);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  Config config;
  std::string knockouts;
  for (int i = 2; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    const std::string flag = argv[i];
    if (flag == "--input") {
      config.input = next();
    } else if (flag == "--output") {
      config.output = next();
    } else if (flag == "--spans") {
      config.spans = next();
    } else if (flag == "--algorithm") {
      config.algorithm = next();
    } else if (flag == "--knockout") {
      knockouts = next();
    } else {
      usage();
    }
  }
  try {
    if (command == "gen" && !config.output.empty())
      return run_gen(knockouts, config.output);
    if (command == "run" && !config.input.empty() && !config.output.empty())
      return config.spans.empty() ? run_untraced(config) : run_traced(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "elmo_perfbench: %s\n", e.what());
    return 1;
  }
  usage();
}
