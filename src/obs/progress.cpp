#include "obs/progress.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace elmo::obs {

namespace {

// Rates and ETAs divide by elapsed time; a subset can finish within one
// clock tick, so every division guards against (near-)zero denominators
// instead of trusting `elapsed > 0`.
constexpr double kMinElapsedSeconds = 1e-9;

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

std::string format_count(std::uint64_t value) {
  char buffer[32];
  if (value >= 1'000'000'000ull) {
    std::snprintf(buffer, sizeof buffer, "%.1fG",
                  static_cast<double>(value) / 1e9);
  } else if (value >= 1'000'000ull) {
    std::snprintf(buffer, sizeof buffer, "%.1fM",
                  static_cast<double>(value) / 1e6);
  } else if (value >= 10'000ull) {
    std::snprintf(buffer, sizeof buffer, "%.1fk",
                  static_cast<double>(value) / 1e3);
  } else {
    std::snprintf(buffer, sizeof buffer, "%llu",
                  static_cast<unsigned long long>(value));
  }
  return buffer;
}

std::string format_duration(double seconds) {
  char buffer[32];
  if (seconds < 0.0) seconds = 0.0;
  if (seconds < 100.0) {
    std::snprintf(buffer, sizeof buffer, "%.1fs", seconds);
  } else if (seconds < 3600.0) {
    const int minutes = static_cast<int>(seconds) / 60;
    const int rest = static_cast<int>(seconds) % 60;
    std::snprintf(buffer, sizeof buffer, "%dm%02ds", minutes, rest);
  } else {
    const int hours = static_cast<int>(seconds) / 3600;
    const int minutes = (static_cast<int>(seconds) % 3600) / 60;
    std::snprintf(buffer, sizeof buffer, "%dh%02dm", hours, minutes);
  }
  return buffer;
}

ProgressReporter::ProgressReporter(ProgressOptions options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now()),
      last_emit_(start_) {
  if (!options_.heartbeat_path.empty()) {
    heartbeat_ = std::fopen(options_.heartbeat_path.c_str(), "wb");
    if (heartbeat_ == nullptr) {
      throw std::runtime_error("cannot open heartbeat file: " +
                               options_.heartbeat_path);
    }
  }
}

ProgressReporter::~ProgressReporter() {
  // A solve that finished inside one heartbeat interval never tripped the
  // throttle, and a caller that aborted may never call finish(); either
  // way the stream still gets its terminal `done` record.
  {
    std::lock_guard lock(mutex_);
    if (!finished_) {
      finished_ = true;
      emit_locked(/*final_line=*/true, /*num_efms=*/0);
    }
  }
  if (heartbeat_ != nullptr) std::fclose(heartbeat_);
}

std::uint64_t ProgressReporter::pairs_so_far() const {
  std::lock_guard lock(mutex_);
  return cumulative_pairs_;
}

void ProgressReporter::on_iteration(const ProgressSample& sample) {
  std::lock_guard lock(mutex_);
  if (finished_) return;
  // Callers either number their iterations (sample.iteration > 0) or let
  // the reporter count calls (sample.iteration == 0).
  iterations_seen_ = sample.iteration > 0
                         ? std::max(iterations_seen_, sample.iteration)
                         : iterations_seen_ + 1;
  cumulative_pairs_ += sample.pairs_probed;
  columns_ = sample.columns;
  const auto now = std::chrono::steady_clock::now();
  if (seconds_between(last_emit_, now) < options_.interval_seconds) return;
  last_emit_ = now;
  emit_locked(/*final_line=*/false, /*num_efms=*/0);
}

void ProgressReporter::on_subset(const std::string& label,
                                 std::uint64_t num_efms, double seconds) {
  std::lock_guard lock(mutex_);
  if (finished_) return;
  const double elapsed =
      seconds_between(start_, std::chrono::steady_clock::now());
  if (options_.print) {
    std::string line = "[elmo]";
    if (!options_.label.empty()) line += " " + options_.label;
    line += " subset " + label + " done: " + format_count(num_efms) +
            " EFMs in " + format_duration(seconds);
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  if (heartbeat_ == nullptr) return;
  JsonValue record = JsonValue::object();
  record.set("kind", JsonValue(std::string("subset")));
  record.set("t_seconds", JsonValue(elapsed));
  record.set("subset", JsonValue(label));
  record.set("num_efms", JsonValue(num_efms));
  record.set("seconds", JsonValue(seconds));
  if (!options_.label.empty()) record.set("label", JsonValue(options_.label));
  write_heartbeat_locked(record);
}

void ProgressReporter::finish(std::uint64_t num_efms) {
  std::lock_guard lock(mutex_);
  if (finished_) return;
  finished_ = true;
  emit_locked(/*final_line=*/true, num_efms);
  if (heartbeat_ != nullptr) std::fflush(heartbeat_);
}

void ProgressReporter::emit_locked(bool final_line, std::uint64_t num_efms) {
  const double elapsed =
      seconds_between(start_, std::chrono::steady_clock::now());
  const double pairs_per_sec =
      elapsed > kMinElapsedSeconds
          ? static_cast<double>(cumulative_pairs_) / elapsed
          : 0.0;

  // Fraction complete: iterations against the announced row count, which
  // is exact for a single solve.  Clamped, so a caller whose count runs
  // past the total never reports more than 100%.
  double fraction = -1.0;
  if (options_.total_iterations > 0) {
    fraction = std::min(
        1.0, static_cast<double>(iterations_seen_) /
                 static_cast<double>(options_.total_iterations));
  }
  double eta_seconds = -1.0;
  if (!final_line && fraction > 0.0 && elapsed > kMinElapsedSeconds) {
    eta_seconds = elapsed * (1.0 - fraction) / fraction;
  }

  if (options_.print) {
    std::string line = "[elmo]";
    if (!options_.label.empty()) line.append(" ").append(options_.label);
    line.append(" iter ").append(std::to_string(iterations_seen_));
    if (options_.total_iterations > 0)
      line.append("/").append(std::to_string(options_.total_iterations));
    line.append(" | cols ").append(format_count(columns_));
    line.append(" | ").append(format_count(cumulative_pairs_)).append(" pairs");
    if (fraction >= 0.0) {
      char pct[16];
      std::snprintf(pct, sizeof pct, " (%.1f%%)", fraction * 100.0);
      line += pct;
    }
    line.append(" | ")
        .append(format_count(static_cast<std::uint64_t>(pairs_per_sec)))
        .append(" pairs/s");
    if (final_line) {
      line.append(" | done: ")
          .append(format_count(num_efms))
          .append(" EFMs in ")
          .append(format_duration(elapsed));
    } else if (eta_seconds >= 0.0) {
      line.append(" | ETA ").append(format_duration(eta_seconds));
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }

  if (heartbeat_ != nullptr) {
    JsonValue record = JsonValue::object();
    record.set("t_seconds", JsonValue(elapsed));
    record.set("iteration", JsonValue(iterations_seen_));
    if (options_.total_iterations > 0)
      record.set("total_iterations", JsonValue(options_.total_iterations));
    record.set("columns", JsonValue(columns_));
    record.set("pairs_probed", JsonValue(cumulative_pairs_));
    record.set("pairs_per_sec", JsonValue(pairs_per_sec));
    if (eta_seconds >= 0.0)
      record.set("eta_seconds", JsonValue(eta_seconds));
    if (!options_.label.empty())
      record.set("label", JsonValue(options_.label));
    // Resource gauges: current/peak RSS straight from /proc, governor
    // usage and spill volume from the injected sources (when wired).
    record.set("rss_bytes", JsonValue(process_current_rss_bytes()));
    record.set("peak_rss_bytes", JsonValue(process_peak_rss_bytes()));
    if (options_.mem_usage_source)
      record.set("mem_usage_bytes", JsonValue(options_.mem_usage_source()));
    if (options_.spill_bytes_source)
      record.set("spill_bytes", JsonValue(options_.spill_bytes_source()));
    record.set("done", JsonValue(final_line));
    if (final_line) record.set("num_efms", JsonValue(num_efms));
    write_heartbeat_locked(record);
  }
}

void ProgressReporter::write_heartbeat_locked(const JsonValue& record) {
  const std::string json = record.dump();
  std::fwrite(json.data(), 1, json.size(), heartbeat_);
  std::fputc('\n', heartbeat_);
  std::fflush(heartbeat_);
}

}  // namespace elmo::obs
