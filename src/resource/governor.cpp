#include "resource/governor.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace elmo::resource {

const char* subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::kMatrix:
      return "matrix";
    case Subsystem::kCandidates:
      return "candidates";
    case Subsystem::kCheckpoint:
      return "checkpoint";
    case Subsystem::kOutput:
      return "output";
    default:
      return "unknown";
  }
}

MemoryGovernor& MemoryGovernor::global() {
  static MemoryGovernor instance;
  return instance;
}

void MemoryGovernor::set_limit(std::size_t bytes) {
  limit_.store(bytes, std::memory_order_relaxed);
  if constexpr (obs::kObsCompiledIn) {
    obs::Registry::global().gauge("resource.mem_limit_bytes").set(bytes);
  }
}

std::size_t MemoryGovernor::usage() const {
  std::size_t total = 0;
  for (const auto& u : usage_) total += u.load(std::memory_order_relaxed);
  return total;
}

void MemoryGovernor::enforce_resident(const std::string& context) const {
  const std::size_t lim = limit();
  if (lim == 0) return;
  const std::size_t resident = usage();
  if (resident > lim) {
    throw ResourceError(context + ": resident memory charge " +
                            std::to_string(resident) +
                            " B exceeds --mem-limit " + std::to_string(lim) +
                            " B (matrix " +
                            std::to_string(usage(Subsystem::kMatrix)) +
                            " B cannot spill; re-split the subset)",
                        resident, lim);
  }
}

void MemoryGovernor::note_spill(std::uint64_t bytes) {
  spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  spill_blocks_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kObsCompiledIn) {
    static const obs::Counter spilled =
        obs::Registry::global().counter("resource.spill_bytes");
    static const obs::Counter blocks =
        obs::Registry::global().counter("resource.spill_blocks");
    spilled.add(bytes);
    blocks.add(1);
  }
}

void MemoryGovernor::adjust(Subsystem s, std::ptrdiff_t delta) {
  auto& slot = usage_[static_cast<int>(s)];
  if (delta >= 0) {
    slot.fetch_add(static_cast<std::size_t>(delta),
                   std::memory_order_relaxed);
  } else {
    slot.fetch_sub(static_cast<std::size_t>(-delta),
                   std::memory_order_relaxed);
  }
  const std::size_t total = usage();
  std::size_t prev = peak_.load(std::memory_order_relaxed);
  while (total > prev &&
         !peak_.compare_exchange_weak(prev, total, std::memory_order_relaxed))
    ;
  publish_gauges();
}

void MemoryGovernor::publish_gauges() const {
  if constexpr (obs::kObsCompiledIn) {
    auto& registry = obs::Registry::global();
    static const obs::Gauge total = registry.gauge("resource.mem_usage_bytes");
    static const obs::Gauge peak = registry.gauge("resource.mem_peak_bytes");
    static const obs::Gauge matrix =
        registry.gauge("resource.mem_matrix_bytes");
    static const obs::Gauge candidates =
        registry.gauge("resource.mem_candidate_bytes");
    total.set(usage());
    peak.set(peak_usage());
    matrix.set(usage(Subsystem::kMatrix));
    candidates.set(usage(Subsystem::kCandidates));
  }
}

void MemoryGovernor::reset() {
  limit_.store(0, std::memory_order_relaxed);
  for (auto& u : usage_) u.store(0, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
  spill_bytes_.store(0, std::memory_order_relaxed);
  spill_blocks_.store(0, std::memory_order_relaxed);
}

}  // namespace elmo::resource
