#include "obs/ledger.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>

#include "obs/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>  // gethostname
#endif

namespace elmo::obs {

namespace {

/// Collect every numeric leaf of nested objects under dot paths.  Arrays
/// are deliberately skipped: per-rank/per-iteration detail is unbounded and
/// run-shaped; the ledger keeps the comparable scalars.
void flatten_metrics(const JsonValue& value, const std::string& prefix,
                     std::map<std::string, double>& out) {
  if (value.kind() == JsonValue::Kind::kObject) {
    for (const auto& [key, member] : value.as_object()) {
      const std::string path = prefix.empty() ? key : prefix + "." + key;
      flatten_metrics(member, path, out);
    }
    return;
  }
  if (!prefix.empty() && value.is_number()) out[prefix] = value.as_double();
}

/// Integral values print without a fraction (counts stay greppable);
/// everything else gets six significant digits.
std::string format_metric(double value) {
  char buffer[48];
  if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
  }
  return buffer;
}

std::string format_delta_pct(double baseline, double candidate) {
  if (baseline == 0.0) return candidate == 0.0 ? "+0%" : "n/a";
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%+.2f%%",
                (candidate - baseline) / std::fabs(baseline) * 100.0);
  return buffer;
}

/// Absolute noise floor below which a time/memory increase is never a
/// regression, regardless of its relative size (3 us -> 5 us is +67% and
/// meaningless).
double noise_floor(const std::string& name, MetricClass cls) {
  if (cls == MetricClass::kMemory) return 1 << 20;  // 1 MiB
  if (cls != MetricClass::kTime) return 0.0;
  if (name.find("_us") != std::string::npos) return 5e4;  // 50 ms
  if (name.find("seconds") != std::string::npos) return 0.05;
  if (name.find("pct") != std::string::npos) return 10.0;  // 10 points
  if (name.find("utilization") != std::string::npos) return 0.25;
  return 0.0;
}

std::string iso_timestamp_now() {
  if (const char* forced = std::getenv("ELMO_LEDGER_TIMESTAMP"))
    return forced;
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
#if defined(__unix__) || defined(__APPLE__)
  gmtime_r(&now, &utc);
#else
  utc = *std::gmtime(&now);
#endif
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' ? value : fallback;
}

std::string os_hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buffer[256] = {};
  if (gethostname(buffer, sizeof buffer - 1) == 0 && buffer[0] != '\0')
    return buffer;
#endif
  return "unknown";
}

}  // namespace

JsonValue LedgerRecord::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("schema_version", JsonValue(schema_version));
  out.set("timestamp", JsonValue(timestamp));
  out.set("git_describe", JsonValue(git_describe));
  out.set("hostname", JsonValue(hostname));
  out.set("network", JsonValue(network));
  out.set("algorithm", JsonValue(algorithm));
  out.set("num_ranks", JsonValue(num_ranks));
  JsonValue config_json = JsonValue::object();
  for (const auto& [key, value] : config) config_json.set(key, JsonValue(value));
  out.set("config", std::move(config_json));
  out.set("num_efms", JsonValue(num_efms));
  out.set("seconds", JsonValue(seconds));
  JsonValue metrics_json = JsonValue::object();
  for (const auto& [name, value] : metrics)
    metrics_json.set(name, JsonValue(value));
  out.set("metrics", std::move(metrics_json));
  return out;
}

std::string LedgerRecord::key() const {
  std::string out = network + "|" + algorithm + "|r" +
                    std::to_string(num_ranks) + "|";
  for (const auto& [name, value] : config) out += name + "=" + value + ";";
  return out;
}

LedgerRecord make_ledger_record(const JsonValue& report,
                                std::string timestamp,
                                std::string git_describe,
                                std::string hostname) {
  if (report.kind() != JsonValue::Kind::kObject)
    throw std::runtime_error("ledger: report document is not a JSON object");
  LedgerRecord record;
  record.timestamp = std::move(timestamp);
  record.git_describe = std::move(git_describe);
  record.hostname = std::move(hostname);
  if (const JsonValue* v = report.find("network"))
    record.network = v->as_string();
  if (const JsonValue* v = report.find("algorithm"))
    record.algorithm = v->as_string();
  if (const JsonValue* v = report.find("num_ranks"))
    record.num_ranks = static_cast<int>(v->as_int());
  if (const JsonValue* v = report.find("config")) {
    for (const auto& [key, value] : v->as_object()) {
      if (value.kind() == JsonValue::Kind::kString)
        record.config[key] = value.as_string();
    }
  }
  if (const JsonValue* v = report.find("num_efms"))
    record.num_efms = v->as_uint();
  if (const JsonValue* v = report.find("seconds"))
    record.seconds = v->as_double();
  flatten_metrics(report, "", record.metrics);
  record.metrics.erase("num_ranks");  // identity, not a metric
  // Untraced runs report the trace-derived flow fields as zeros; recording
  // those would flag spurious "regressions" whenever a traced baseline is
  // compared against an untraced run (or vice versa).  Omit them instead —
  // check_regression only compares metrics present on both sides.
  const JsonValue* flow = report.find("flow");
  const JsonValue* traced = flow != nullptr ? flow->find("traced") : nullptr;
  if (traced == nullptr || !traced->as_bool()) {
    for (auto it = record.metrics.begin(); it != record.metrics.end();) {
      const bool trace_derived =
          it->first.rfind("flow.critical_path", 0) == 0 ||
          it->first.rfind("flow.flows_", 0) == 0 ||
          it->first == "flow.wall_us";
      it = trace_derived ? record.metrics.erase(it) : ++it;
    }
  }
  return record;
}

LedgerRecord make_ledger_record_env(const JsonValue& report) {
  return make_ledger_record(report, iso_timestamp_now(),
                            env_or("ELMO_GIT_DESCRIBE", "unknown"),
                            os_hostname());
}

LedgerRecord parse_ledger_record(const JsonValue& value) {
  if (value.kind() != JsonValue::Kind::kObject)
    throw std::runtime_error("ledger: record is not a JSON object");
  LedgerRecord record;
  if (const JsonValue* v = value.find("schema_version"))
    record.schema_version = static_cast<int>(v->as_int());
  if (const JsonValue* v = value.find("timestamp"))
    record.timestamp = v->as_string();
  if (const JsonValue* v = value.find("git_describe"))
    record.git_describe = v->as_string();
  if (const JsonValue* v = value.find("hostname"))
    record.hostname = v->as_string();
  if (const JsonValue* v = value.find("network"))
    record.network = v->as_string();
  if (const JsonValue* v = value.find("algorithm"))
    record.algorithm = v->as_string();
  if (const JsonValue* v = value.find("num_ranks"))
    record.num_ranks = static_cast<int>(v->as_int());
  if (const JsonValue* v = value.find("config")) {
    for (const auto& [key, member] : v->as_object()) {
      if (member.kind() == JsonValue::Kind::kString)
        record.config[key] = member.as_string();
    }
  }
  if (const JsonValue* v = value.find("num_efms"))
    record.num_efms = v->as_uint();
  if (const JsonValue* v = value.find("seconds"))
    record.seconds = v->as_double();
  if (const JsonValue* v = value.find("metrics")) {
    for (const auto& [name, member] : v->as_object()) {
      if (member.is_number()) record.metrics[name] = member.as_double();
    }
  }
  return record;
}

void append_ledger_record(const std::string& path,
                          const LedgerRecord& record) {
  const std::string line = record.to_json().dump(-1) + "\n";
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr)
    throw std::runtime_error("cannot open ledger file: " + path);
  const std::size_t written = std::fwrite(line.data(), 1, line.size(), file);
  const bool ok = written == line.size() && std::fclose(file) == 0;
  if (!ok) throw std::runtime_error("failed appending to ledger: " + path);
}

std::vector<LedgerRecord> load_ledger(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr)
    throw std::runtime_error("cannot open ledger file: " + path);
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0)
    text.append(buffer, got);
  std::fclose(file);

  std::vector<LedgerRecord> records;
  std::size_t begin = 0;
  std::size_t line_number = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    ++line_number;
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string error;
    const JsonValue value = parse_json(line, &error);
    if (value.is_null() && !error.empty()) {
      throw std::runtime_error(path + ":" + std::to_string(line_number) +
                               ": bad ledger record: " + error);
    }
    records.push_back(parse_ledger_record(value));
  }
  return records;
}

std::string render_ledger_list(const std::vector<LedgerRecord>& records) {
  std::string out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const LedgerRecord& r = records[i];
    out.append("[").append(std::to_string(i)).append("] ")
        .append(r.timestamp).append(" ").append(r.network).append("/")
        .append(r.algorithm).append(" ranks=")
        .append(std::to_string(r.num_ranks)).append(" efms=")
        .append(std::to_string(r.num_efms)).append(" seconds=")
        .append(format_metric(r.seconds)).append(" git=")
        .append(r.git_describe).append(" host=").append(r.hostname)
        .append("\n");
  }
  if (records.empty()) out = "(empty ledger)\n";
  return out;
}

std::string render_ledger_diff(const LedgerRecord& baseline,
                               const LedgerRecord& candidate) {
  std::string out;
  out += "baseline : " + baseline.timestamp + " git=" +
         baseline.git_describe + " host=" + baseline.hostname + "\n";
  out += "candidate: " + candidate.timestamp + " git=" +
         candidate.git_describe + " host=" + candidate.hostname + "\n";
  if (baseline.key() != candidate.key())
    out += "warning: records describe different workloads\n";
  std::map<std::string, char> names;  // name -> 'b'oth/'l'eft/'r'ight
  for (const auto& [name, value] : baseline.metrics) names[name] = 'l';
  for (const auto& [name, value] : candidate.metrics) {
    auto it = names.find(name);
    names[name] = it == names.end() ? 'r' : 'b';
  }
  std::size_t unchanged = 0;
  for (const auto& [name, side] : names) {
    if (side == 'l') {
      out += "  " + name + ": only in baseline\n";
      continue;
    }
    if (side == 'r') {
      out += "  " + name + ": only in candidate\n";
      continue;
    }
    const double b = baseline.metrics.at(name);
    const double c = candidate.metrics.at(name);
    if (b == c) {
      ++unchanged;
      continue;
    }
    out += "  " + name + ": " + format_metric(b) + " -> " + format_metric(c) +
           " (" + format_delta_pct(b, c) + ")\n";
  }
  out += "  " + std::to_string(unchanged) + " metric(s) unchanged\n";
  return out;
}

MetricClass classify_metric(const std::string& name) {
  auto contains = [&name](const char* needle) {
    return name.find(needle) != std::string::npos;
  };
  if (contains("seconds") || contains("_us") || contains("wall") ||
      contains("pct") || contains("utilization")) {
    return MetricClass::kTime;
  }
  if (contains("bytes") || contains("rss") || contains("memory"))
    return MetricClass::kMemory;
  return MetricClass::kCount;
}

CheckResult check_regression(const LedgerRecord& baseline,
                             const LedgerRecord& candidate,
                             const CheckThresholds& thresholds) {
  CheckResult result;
  if (baseline.key() != candidate.key()) {
    result.report += "warning: baseline and candidate describe different "
                     "workloads; counts will likely mismatch\n";
  }
  for (const auto& [name, candidate_value] : candidate.metrics) {
    const auto base_it = baseline.metrics.find(name);
    if (base_it == baseline.metrics.end()) continue;
    const double b = base_it->second;
    const double c = candidate_value;
    const MetricClass cls = classify_metric(name);
    double tolerance_pct = 0.0;
    const auto override_it = thresholds.per_metric.find(name);
    if (override_it != thresholds.per_metric.end()) {
      tolerance_pct = override_it->second;
    } else {
      switch (cls) {
        case MetricClass::kTime: tolerance_pct = thresholds.time_pct; break;
        case MetricClass::kMemory:
          tolerance_pct = thresholds.memory_pct;
          break;
        case MetricClass::kCount: tolerance_pct = thresholds.count_pct; break;
      }
    }
    bool regressed = false;
    if (cls == MetricClass::kCount) {
      // Counts are deterministic: any drift — either direction — is wrong
      // (a lost EFM is as bad as a spurious one).
      regressed = std::fabs(c - b) > std::fabs(b) * tolerance_pct / 100.0;
    } else {
      // One-sided with a noise floor: only a material increase regresses.
      const double allowance = std::max(std::fabs(b) * tolerance_pct / 100.0,
                                        noise_floor(name, cls));
      regressed = c - b > allowance;
    }
    const std::string line =
        name + ": " + format_metric(b) + " -> " + format_metric(c) + " (" +
        format_delta_pct(b, c) + ", tol " + format_metric(tolerance_pct) +
        "%)";
    result.report += std::string(regressed ? "  [REGRESSION] " : "  [ok] ") +
                     line + "\n";
    if (regressed) {
      result.ok = false;
      result.regressions.push_back(line);
    }
  }
  return result;
}

}  // namespace elmo::obs
