// Differential / metamorphic fuzzer for the bddfc engines.
//
// Usage:
//   bddfc_fuzz [--runs=N] [--seed=S] [--time-budget=120s]
//              [--oracle=NAME]
//              [--inject-bug=chase-dedup|torn-exhaust|sink-drop-dup]
//              [--inject-fault=deadline|oom|cancel]
//              [--chaos=N] [--chaos-seed=S] [--paranoia=off|cheap|full]
//              [--corpus-out=DIR] [--no-shrink] [--max-failures=K]
//              [--replay=FILE-or-DIR] [--list-oracles] [-v]
//              [--trace-out=FILE] [--metrics-out=FILE]
//
// Default mode generates N seeded scenarios and cross-checks each against
// every registered oracle (see testing/oracles.h). Failures are shrunk to
// 1-minimal reproducers and printed as replayable corpus entries; with
// --corpus-out they are also written as .dlg files. --replay loads one
// corpus file (or every .dlg in a directory) and re-runs the oracle named
// in its header.
//
// --inject-fault=deadline|oom|cancel arms the governor-prefix oracle: on
// each scenario it deterministically interrupts the chase after K
// cooperative checks and asserts the interrupted run is prefix-consistent
// with the uninterrupted one. --inject-bug deliberately breaks an engine
// invariant — the fuzzer's own self-test: the campaign must then fail and
// minimize. chase-dedup breaks trigger dedup in the production chase;
// torn-exhaust makes a governed exhaustion apply a torn half-round, which
// governor-prefix (run with --inject-fault) must catch. sink-drop-dup
// makes the vectorized sink drop every duplicate-derived tuple group
// entirely, which chase-agreement must catch.
//
// --chaos=N arms the chaos-recovery oracle: per scenario, N random seeded
// fault plans (base/faults.h RandomFaultPlan) run under the retrying
// supervisor and must end byte-identical to the fault-free run; failing
// plans are ddmin-minimized. --paranoia promotes the chase's test-only
// invariants to runtime checks on the production runs (never on the
// kNaive reference).
//
// Exit status: 0 = clean, 1 = oracle failures, 2 = usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"
#include "bddfc/testing/corpus.h"
#include "bddfc/testing/fuzzer.h"

namespace {

using namespace bddfc;

int Usage() {
  std::fprintf(
      stderr,
      "usage: bddfc_fuzz [--runs=N] [--seed=S] [--time-budget=SECS[s]]\n"
      "                  [--oracle=NAME]\n"
      "                  [--inject-bug=chase-dedup|torn-exhaust|"
      "sink-drop-dup]\n"
      "                  [--inject-fault=deadline|oom|cancel]\n"
      "                  [--chaos=N] [--chaos-seed=S]\n"
      "                  [--paranoia=off|cheap|full]\n"
      "                  [--corpus-out=DIR] [--no-shrink]\n"
      "                  [--max-failures=K] [--replay=FILE-or-DIR]\n"
      "                  [--list-oracles] [-v]\n"
      "                  [--trace-out=FILE] [--metrics-out=FILE]\n");
  return 2;
}

bool verbose = false;

void LogLine(const std::string& line) {
  if (verbose) std::fprintf(stderr, "[fuzz] %s\n", line.c_str());
}

/// Parses "120", "120s" or "2.5" (seconds). Returns false on junk.
bool ParseSeconds(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || v < 0) return false;
  if (*end == 's') ++end;
  if (*end != '\0') return false;
  *out = v;
  return true;
}

int Replay(const std::string& path, const OracleConfig& config) {
  std::vector<std::string> files;
  if (std::filesystem::is_directory(path)) {
    files = ListCorpusFiles(path);
    if (files.empty()) {
      std::fprintf(stderr, "no .dlg files under '%s'\n", path.c_str());
      return 2;
    }
  } else {
    files.push_back(path);
  }
  size_t failures = 0;
  for (const std::string& file : files) {
    Result<CorpusEntry> entry = LoadCorpusFile(file);
    if (!entry.ok()) {
      std::printf("%-50s LOAD-ERROR %s\n", file.c_str(),
                  entry.status().ToString().c_str());
      ++failures;
      continue;
    }
    OracleOutcome outcome = ReplayCorpusEntry(entry.value(), config);
    const char* verdict =
        outcome.kind == OracleOutcome::Kind::kPass   ? "PASS"
        : outcome.kind == OracleOutcome::Kind::kSkip ? "SKIP"
                                                     : "FAIL";
    std::printf("%-50s %s %s%s\n", file.c_str(), verdict,
                entry.value().oracle.c_str(),
                outcome.detail.empty() ? ""
                                       : ("  (" + outcome.detail + ")").c_str());
    if (outcome.failed()) ++failures;
  }
  std::printf("replayed %zu file(s), %zu failure(s)\n", files.size(),
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  options.max_failures = 1;
  std::string corpus_out;
  std::string replay_path;
  std::string trace_out;
  std::string metrics_out;
  bool list_oracles = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--runs=")) {
      options.runs = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--time-budget=")) {
      if (!ParseSeconds(v, &options.time_budget_s)) return Usage();
    } else if (const char* v = value("--oracle=")) {
      options.oracle = v;
    } else if (const char* v = value("--inject-bug=")) {
      if (std::strcmp(v, "chase-dedup") == 0) {
        options.config.chase_fault = ChaseFault::kSkipTriggerDedup;
      } else if (std::strcmp(v, "torn-exhaust") == 0) {
        options.config.chase_fault = ChaseFault::kTornExhaust;
      } else if (std::strcmp(v, "sink-drop-dup") == 0) {
        options.config.chase_fault = ChaseFault::kSinkDropDup;
      } else {
        std::fprintf(stderr,
                     "unknown bug '%s' (have: chase-dedup, torn-exhaust, "
                     "sink-drop-dup)\n",
                     v);
        return 2;
      }
    } else if (const char* v = value("--inject-fault=")) {
      if (std::strcmp(v, "deadline") == 0) {
        options.config.inject_fault = InjectedFault::kDeadline;
      } else if (std::strcmp(v, "oom") == 0) {
        options.config.inject_fault = InjectedFault::kOom;
      } else if (std::strcmp(v, "cancel") == 0) {
        options.config.inject_fault = InjectedFault::kCancel;
      } else {
        std::fprintf(stderr,
                     "unknown fault '%s' (have: deadline, oom, cancel)\n", v);
        return 2;
      }
    } else if (const char* v = value("--chaos=")) {
      options.config.chaos_plans = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--chaos-seed=")) {
      options.config.chaos_seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--paranoia=")) {
      if (!ParanoiaLevelFromName(v, &options.config.paranoia)) {
        std::fprintf(stderr, "unknown paranoia level '%s' (off, cheap, full)\n",
                     v);
        return 2;
      }
    } else if (const char* v = value("--corpus-out=")) {
      corpus_out = v;
    } else if (const char* v = value("--trace-out=")) {
      if (*v == '\0') return Usage();
      trace_out = v;
    } else if (const char* v = value("--metrics-out=")) {
      if (*v == '\0') return Usage();
      metrics_out = v;
    } else if (const char* v = value("--max-failures=")) {
      options.max_failures = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--replay=")) {
      replay_path = v;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--list-oracles") {
      list_oracles = true;
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else {
      return Usage();
    }
  }

  if (list_oracles) {
    for (const Oracle* oracle : AllOracles()) {
      std::printf("%s\n", std::string(oracle->name()).c_str());
    }
    return 0;
  }
  // Observability is off by default; enabling costs a ring allocation
  // (trace) and per-run publication (metrics).
  if (!trace_out.empty()) obs::Tracer::Global().Enable();
  if (!metrics_out.empty()) obs::MetricsRegistry::Global().set_enabled(true);
  auto write_observability = [&] {
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << obs::Tracer::Global().ExportChromeJson() << '\n';
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      out << obs::MetricsRegistry::Global().Snapshot().ToJson() << '\n';
    }
  };

  if (!replay_path.empty()) {
    int rc = Replay(replay_path, options.config);
    write_observability();
    return rc;
  }
  if (!options.oracle.empty() && FindOracle(options.oracle) == nullptr) {
    std::fprintf(stderr, "unknown oracle '%s' (--list-oracles)\n",
                 options.oracle.c_str());
    return 2;
  }

  options.log = LogLine;
  FuzzReport report = RunFuzzer(options);

  std::printf("runs=%zu passed=%zu skipped=%zu failures=%zu%s\n",
              report.runs_executed, report.checks_passed,
              report.checks_skipped, report.failures.size(),
              report.time_budget_hit ? " (time budget hit)" : "");
  for (const auto& [name, passes] : report.passes_by_oracle) {
    size_t skips = 0;
    if (auto it = report.skips_by_oracle.find(name);
        it != report.skips_by_oracle.end()) {
      skips = it->second;
    }
    std::printf("  %-20s pass=%zu skip=%zu\n", name.c_str(), passes, skips);
  }
  for (const auto& [family, n] : report.runs_by_family) {
    std::printf("  family %-18s runs=%zu\n", family.c_str(), n);
  }

  if (!corpus_out.empty() && !report.failures.empty()) {
    std::filesystem::create_directories(corpus_out);
  }
  size_t file_idx = 0;
  for (const FuzzFailure& failure : report.failures) {
    std::printf("\nFAIL oracle=%s seed=%llu family=%s\n  %s\n",
                failure.oracle.c_str(),
                static_cast<unsigned long long>(failure.scenario_seed),
                failure.family.c_str(), failure.detail.c_str());
    std::printf("--- minimized reproducer ---\n%s----------------------------\n",
                failure.corpus_text.c_str());
    if (!corpus_out.empty()) {
      std::string path = corpus_out + "/" + failure.oracle + "-" +
                         std::to_string(failure.scenario_seed) + "-" +
                         std::to_string(file_idx++) + ".dlg";
      std::ofstream out(path);
      out << failure.corpus_text;
      std::printf("wrote %s\n", path.c_str());
    }
  }
  write_observability();
  return report.ok() ? 0 : 1;
}
