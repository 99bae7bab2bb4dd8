#include "analyze/findings.hpp"

#include <cstdio>
#include <fstream>
#include <tuple>

namespace elmo_analyze {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// SARIF rule metadata: every pass:rule id ships a fullDescription (the
// one-line contract from DESIGN.md §12) and a stable helpUri under the
// reserved-by-construction host elmo-analyze.invalid, path /rules/<pass>,
// fragment <rule> — viewers get a deterministic deep link, and the rule
// table in DESIGN.md is the document the link names.  Unknown ids (new
// rules not yet documented) fall back to the short description.
struct RuleDoc {
  const char* id;
  const char* full;
};

const RuleDoc kRuleDocs[] = {
    {"include:layering",
     "a module includes only its own layer or below in the support -> "
     "linalg/network/io/parallel -> compress/models/nullspace/mpsim/core/"
     "analysis -> elmo DAG"},
    {"include:facade",
     "obs/check are reachable from any layer but only via their facade "
     "headers"},
    {"include:cycle", "no include cycles at file or module granularity"},
    {"include:pragma-once", "every header carries #pragma once"},
    {"include:unused-include",
     "a direct include whose transitive provides-closure contributes no "
     "identifier used in the file"},
    {"include:missing-include",
     "an identifier whose unique provider arrives only transitively"},
    {"include:self-contained",
     "a header uses an identifier no include path reaches"},
    {"lock:lock-cycle", "the static mutex acquisition graph has a cycle"},
    {"lock:lock-unexercised",
     "a statically-possible lock order a runtime lockdep dump never saw"},
    {"lock:lock-blocking",
     "a guard held across a blocking call (mpsim recv/barrier/collectives, "
     "join, sleeps)"},
    {"overflow:unchecked-arith",
     "raw * / + / << on int64_t expressions bypassing bigint/checked.hpp"},
    {"lint:naked-new", "bare new outside an owning smart pointer"},
    {"lint:no-rand", "rand()/srand() breaks deterministic runs"},
    {"lint:catch-all", "catch (...) swallows typed failure signals"},
    {"lint:reinterpret-cast", "reinterpret_cast bypasses the type system"},
    {"shared:shared-mutation",
     "shared state mutated inside a concurrent body without a guard, an "
     "atomic type, or an analyze:shared-ok annotation"},
    {"shared:shared-unseen",
     "a ThreadSanitizer report with no static finding or annotation within "
     "3 lines — a hole in the static model"},
    {"errpath:raii-pair",
     "manual acquires of a non-RAII idiom pair outnumber releases across "
     "one call level — an early return or throw leaks the resource"},
    {"errpath:unhandled-throw",
     "a typed error throw no reverse-call-graph path brings to a matching "
     "catch"},
    {"determinism:unordered-iter",
     "iteration over an unordered container in a solver-output module"},
    {"determinism:pointer-key",
     "a container keyed on a raw pointer — ASLR makes ordering differ "
     "between runs"},
    {"determinism:wall-clock",
     "wall-clock or thread-id reads in solver-output modules"},
    {"protocol:tag-mismatch",
     "a send whose constant tag no receive in the communication skeleton "
     "accepts"},
    {"protocol:orphan-recv",
     "a receive whose constant tag no send in the communication skeleton "
     "produces"},
    {"protocol:peer-mismatch",
     "a constant peer expression every tag-compatible counterpart pins to "
     "a different rank"},
    {"protocol:collective-divergence",
     "a barrier/all_gather/all_reduce reached only under a rank-dependent "
     "branch — ranks that skip it deadlock the collective"},
    {"protocol:recv-before-send",
     "an unguarded receive ordered before every matching send in the same "
     "function — a static send-before-recv cycle candidate"},
    {"protocol:flow-unseen",
     "a runtime message flow (from --flow-log) that no send site in the "
     "static skeleton explains"},
    {"typestate:spill-write-after-read",
     "SpillFile append_block after for_each_block started streaming — the "
     "protocol is open, write*, read*, close"},
    {"typestate:use-after-release",
     "MemoryLease set/charged on a path where release() already ran"},
    {"typestate:discarded-token",
     "Watchdog::arm result discarded — the temporary Token disarms "
     "immediately"},
    {"typestate:repair-before-resume",
     "load_checkpoint for a resume without repair_checkpoint first — a "
     "damaged tail silently truncates the resume set"},
    {"baseline:stale",
     "a baseline entry that no longer fires — prune it so it cannot mask a "
     "regression at the same key"},
};

const char* rule_full_description(const std::string& id) {
  for (const RuleDoc& doc : kRuleDocs) {
    if (id == doc.id) return doc.full;
  }
  return nullptr;
}

std::string rule_help_uri(const std::string& id) {
  const std::size_t colon = id.find(':');
  const std::string pass = colon == std::string::npos ? id : id.substr(0, colon);
  const std::string rule =
      colon == std::string::npos ? id : id.substr(colon + 1);
  return "https://elmo-analyze.invalid/rules/" + pass + "#" + rule;
}

}  // namespace

std::string Finding::key() const {
  return pass + ":" + rule + ":" + file + ":" + std::to_string(line);
}

bool finding_less(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.pass, a.rule, a.message) <
         std::tie(b.file, b.line, b.pass, b.rule, b.message);
}

bool Baseline::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    // Trim trailing whitespace/CR.
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.pop_back();
    }
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    if (line[start] == '#') continue;
    keys.insert(line.substr(start));
  }
  return true;
}

void apply_baseline(const Baseline& baseline, std::vector<Finding>& findings) {
  for (Finding& f : findings) {
    if (baseline.keys.count(f.key()) != 0) f.baselined = true;
  }
}

void write_text(const std::vector<Finding>& findings, const std::string& tool,
                bool lint_compat) {
  std::size_t active = 0;
  std::size_t baselined = 0;
  for (const Finding& f : findings) {
    if (f.baselined) {
      ++baselined;
      continue;
    }
    ++active;
    const std::string rule =
        lint_compat ? f.rule : (f.pass + ":" + f.rule);
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 rule.c_str(), f.message.c_str());
  }
  if (active != 0 || baselined != 0) {
    if (baselined != 0) {
      std::fprintf(stderr, "%s: %zu finding(s), %zu baselined\n", tool.c_str(),
                   active, baselined);
    } else {
      std::fprintf(stderr, "%s: %zu finding(s)\n", tool.c_str(), active);
    }
  }
}

bool write_json(const std::string& path,
                const std::vector<Finding>& findings) {
  std::ofstream out(path);
  if (!out) return false;
  std::size_t active = 0;
  std::size_t baselined = 0;
  out << "{\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    if (f.baselined) {
      ++baselined;
    } else {
      ++active;
    }
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"key\": \"" << json_escape(f.key()) << "\", \"pass\": \""
        << json_escape(f.pass) << "\", \"rule\": \"" << json_escape(f.rule)
        << "\", \"file\": \"" << json_escape(f.file) << "\", \"line\": "
        << f.line << ", \"baselined\": " << (f.baselined ? "true" : "false")
        << ", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  out << (first ? "" : "\n  ") << "],\n";
  out << "  \"summary\": {\"total\": " << findings.size()
      << ", \"active\": " << active << ", \"baselined\": " << baselined
      << "}\n}\n";
  return static_cast<bool>(out);
}

void write_sarif(std::ostream& out, const std::vector<Finding>& findings) {
  // Rule table: unique pass:rule ids in first-appearance order.
  std::vector<std::string> rule_ids;
  std::set<std::string> seen_rules;
  for (const Finding& f : findings) {
    const std::string id = f.pass + ":" + f.rule;
    if (seen_rules.insert(id).second) rule_ids.push_back(id);
  }
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"elmo_analyze\",\n"
      << "          \"rules\": [";
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    const char* full = rule_full_description(rule_ids[i]);
    out << "            {\"id\": \"" << json_escape(rule_ids[i])
        << "\", \"shortDescription\": {\"text\": \""
        << json_escape(rule_ids[i]) << "\"}, \"fullDescription\": {\"text\": \""
        << json_escape(full != nullptr ? full : rule_ids[i].c_str())
        << "\"}, \"helpUri\": \"" << json_escape(rule_help_uri(rule_ids[i]))
        << "\"}";
  }
  out << (rule_ids.empty() ? "" : "\n          ") << "]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  bool first = true;
  for (const Finding& f : findings) {
    out << (first ? "\n" : ",\n");
    first = false;
    const std::size_t line = f.line == 0 ? 1 : f.line;  // SARIF wants >= 1
    out << "        {\"ruleId\": \"" << json_escape(f.pass + ":" + f.rule)
        << "\", \"level\": \"" << (f.baselined ? "note" : "error")
        << "\", \"message\": {\"text\": \"" << json_escape(f.message)
        << "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << json_escape(f.file) << "\"}, \"region\": {\"startLine\": " << line
        << "}}}]";
    if (f.baselined) {
      out << ", \"suppressions\": [{\"kind\": \"external\"}]";
    }
    out << "}";
  }
  out << (first ? "" : "\n      ") << "]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
}

bool write_baseline(const std::string& path,
                    const std::vector<Finding>& findings) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# elmo_analyze baseline — one tolerated finding key per line.\n"
      << "# Regenerate with: elmo_analyze --write-baseline=" << path << "\n"
      << "# Keep this near-empty: fix true positives, annotate intentional\n"
      << "# sites with lint:allow(<rule>) instead of baselining them.\n";
  for (const Finding& f : findings) out << f.key() << "\n";
  return static_cast<bool>(out);
}

std::size_t count_active(const std::vector<Finding>& findings) {
  std::size_t active = 0;
  for (const Finding& f : findings) {
    if (!f.baselined) ++active;
  }
  return active;
}

}  // namespace elmo_analyze
