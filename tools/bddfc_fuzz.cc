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
// Faults reach the runs under test only as FaultRegistry specs
// (base/faults.h). --inject-fault=deadline|oom|cancel arms the
// governor-prefix oracle: a governor.check spec with that action
// interrupts each chase after K cooperative checks, and the interrupted
// run must be prefix-consistent with the uninterrupted one.
// --inject-bug=B arms a chase.bug spec with action B on every run under
// test, deliberately breaking an engine invariant — the fuzzer's own
// self-test: the campaign must then fail and minimize.
// chase-dedup breaks trigger dedup in the production chase; torn-exhaust
// makes a governed exhaustion apply a torn half-round, which
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
// Flags are strict (base/flags.h). The report counts passes, skips (per
// reason) and failures per oracle; reproducers and artifacts are written
// after it, and an unwritable path is named on stderr.
//
// Exit status: 0 = clean, 1 = oracle failures, 2 = usage error or an
// unwritable output path on an otherwise clean run.

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bddfc/base/flags.h"
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

/// Writes each failure's reproducer under `dir`, printing "wrote <path>"
/// once a file is written; false after naming any path it cannot write.
bool WriteCorpus(const std::string& dir, const FuzzReport& report) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // a failure shows below
  bool ok = true;
  size_t file_idx = 0;
  for (const FuzzFailure& failure : report.failures) {
    const std::string path = dir + "/" + failure.oracle + "-" +
                             std::to_string(failure.scenario_seed) + "-" +
                             std::to_string(file_idx++) + ".dlg";
    if (obs::WriteArtifact(path, failure.corpus_text)) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  std::string inject_bug;
  std::string paranoia = "off";
  std::string corpus_out;
  std::string replay_path;
  std::string trace_out;
  std::string metrics_out;
  bool no_shrink = false;
  bool list_oracles = false;
  std::vector<std::string> oracle_names;
  for (const Oracle* oracle : AllOracles()) {
    oracle_names.emplace_back(oracle->name());
  }
  FlagSet flags("bddfc_fuzz");
  flags.Count("--runs", &options.runs);
  flags.Count("--seed", &options.seed);
  flags.Seconds("--time-budget", &options.time_budget_s);
  flags.Choice("--oracle", &options.oracle, oracle_names);
  flags.Choice("--inject-bug", &inject_bug,
               {faults::kBugChaseDedup, faults::kBugTornExhaust,
                faults::kBugSinkDropDup});
  flags.Choice("--inject-fault", &options.config.interruption,
               {faults::kTripDeadline, faults::kTripOom, faults::kTripCancel});
  flags.Count("--chaos", &options.config.chaos_plans);
  flags.Count("--chaos-seed", &options.config.chaos_seed);
  flags.Choice("--paranoia", &paranoia, {"off", "cheap", "full"});
  flags.String("--corpus-out", &corpus_out);
  flags.String("--trace-out", &trace_out);
  flags.String("--metrics-out", &metrics_out);
  flags.Count("--max-failures", &options.max_failures);
  flags.String("--replay", &replay_path);
  flags.Bool("--no-shrink", &no_shrink);
  flags.Bool("--list-oracles", &list_oracles);
  flags.Bool("-v", &verbose);
  flags.Bool("--verbose", &verbose);
  if (!flags.Parse(argc, argv)) return Usage();
  options.shrink = !no_shrink;
  ParanoiaLevelFromName(paranoia, &options.config.paranoia);
  // The self-test bug rides on every run under test as a chase.bug spec
  // whose action names it (fires at every RunChase entry).
  if (!inject_bug.empty()) {
    options.config.faults.faults.push_back(
        {.site = faults::kChaseBug, .action = inject_bug});
  }

  if (list_oracles) {
    for (const std::string& name : oracle_names) std::puts(name.c_str());
    return 0;
  }
  // Observability is off by default; enabling costs a ring allocation
  // (trace) and per-run publication (metrics).
  if (!trace_out.empty()) obs::Tracer::Global().Enable();
  if (!metrics_out.empty()) obs::MetricsRegistry::Global().set_enabled(true);
  // An unwritable output path turns a clean exit into a usage error; a
  // failing campaign keeps its exit 1.
  auto finish = [&](int rc, bool wrote) {
    wrote = obs::WriteProcessExports(trace_out, metrics_out) && wrote;
    return !wrote && rc == 0 ? 2 : rc;
  };

  if (!replay_path.empty()) {
    return finish(Replay(replay_path, options.config), true);
  }
  options.log = LogLine;
  FuzzReport report = RunFuzzer(options);

  std::printf("runs=%zu passed=%zu skipped=%zu failures=%zu%s\n",
              report.runs_executed, report.checks_passed,
              report.checks_skipped, report.failures.size(),
              report.time_budget_hit ? " (time budget hit)" : "");
  for (const auto& [name, tally] : report.by_oracle) {
    std::printf("  %-20s pass=%zu skip=%zu fail=%zu\n", name.c_str(),
                tally.passed, tally.skipped, tally.failed);
    for (const auto& [reason, n] : tally.skip_reasons) {
      std::printf("    skip %zu: %s\n", n, reason.c_str());
    }
  }
  for (const auto& [family, n] : report.runs_by_family) {
    std::printf("  family %-18s runs=%zu\n", family.c_str(), n);
  }
  for (const FuzzFailure& failure : report.failures) {
    std::printf("\nFAIL oracle=%s seed=%llu family=%s\n  %s\n",
                failure.oracle.c_str(),
                static_cast<unsigned long long>(failure.scenario_seed),
                failure.family.c_str(), failure.detail.c_str());
    std::printf("--- minimized reproducer ---\n%s----------------------------\n",
                failure.corpus_text.c_str());
  }
  std::fflush(stdout);

  const bool wrote = corpus_out.empty() || report.failures.empty() ||
                     WriteCorpus(corpus_out, report);
  return finish(report.ok() ? 0 : 1, wrote);
}
