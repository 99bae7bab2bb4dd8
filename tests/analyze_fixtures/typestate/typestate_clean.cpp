// Clean counterpart for the typestate pass.  Every machine driven
// through its legal protocol — including a vector of tracked objects
// (range-for alias use, subscripted release) — plus one deliberate
// lint:allow escape.  Must stay silent.
// Never compiled — only analyzed.
#include <vector>

namespace fixture_ts_clean {

struct SpillFile {
  explicit SpillFile(const char* directory);
  void append_block(int block);
  void for_each_block(int sink);
};

struct MemoryLease {
  void set(unsigned long bytes);
  unsigned long charged() const;
  void release();
};

struct Token {};
struct Watchdog {
  static Watchdog& global();
  Token arm(const char* what, int budget_ms);
};

int load_checkpoint(const char* path);
void repair_checkpoint(const char* path);

// Writes staged before the read-back starts.
inline void staged_spill(int block) {
  SpillFile spill("/tmp/elmo-fixture");
  spill.append_block(block);
  spill.append_block(block);
  spill.for_each_block(block);
}

// Charged while active on every path; released exactly once at the end.
inline void balanced_lease(unsigned long bytes) {
  MemoryLease lease;
  lease.set(bytes);
  if (lease.charged() > 0) lease.set(bytes + 1);
  lease.release();
}

// A vector of leases charged through a range-for alias, then released
// through a subscripted receiver.
inline void lane_leases(unsigned long bytes) {
  std::vector<MemoryLease> leases;
  for (auto& lease : leases) lease.set(bytes);
  leases[0].release();
}

// The Token is bound, so the watchdog stays armed for the span.
inline void supervised() {
  auto token = Watchdog::global().arm("merge", 500);
  (void)token;
}

// A deliberate fire-and-forget probe arm, reviewed and escaped.
inline void probe_arm() {
  // lint:allow(discarded-token)
  Watchdog::global().arm("probe", 10);
}

// Repair trims the damaged tail before the resume set is read.
inline int resume_repaired(const char* path) {
  repair_checkpoint(path);
  return load_checkpoint(path);
}

}  // namespace fixture_ts_clean
