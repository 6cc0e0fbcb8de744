// Fuzzing driver (DESIGN.md §2.8).
//
// RunFuzzer generates `runs` scenarios from a base seed, checks each
// against every registered oracle (or one selected oracle), shrinks every
// failure to a 1-minimal reproducer and renders it as a replayable corpus
// entry. Per-scenario seeds derive from the base seed via Rng::Mix, so
// `--seed=S --runs=N` is a stable, platform-independent test suite and any
// single failure replays as `--seed=<scenario_seed> --runs=1`.

#ifndef BDDFC_TESTING_FUZZER_H_
#define BDDFC_TESTING_FUZZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bddfc/testing/corpus.h"
#include "bddfc/testing/oracles.h"
#include "bddfc/testing/scenario.h"
#include "bddfc/testing/shrinker.h"

namespace bddfc {

/// Knobs of one fuzzing campaign.
struct FuzzOptions {
  uint64_t seed = 1;       ///< base seed; scenario i uses Mix(seed, i)
  size_t runs = 100;       ///< scenarios to generate
  double time_budget_s = 0;  ///< wall-clock cap; 0 = unlimited
  /// Restrict to one oracle by name; empty = all oracles.
  std::string oracle;
  /// Shrink failures to 1-minimal reproducers (disable for triage speed).
  bool shrink = true;
  size_t shrink_max_attempts = 4000;
  /// Stop after this many distinct failures (0 = never stop early).
  size_t max_failures = 1;
  /// Budgets handed to every oracle (including the faults the self-tests
  /// arm on the runs under test).
  OracleConfig config;
  /// Progress callback sink: one line per event, empty = silent.
  void (*log)(const std::string& line) = nullptr;
};

/// One oracle failure, minimized and ready to file.
struct FuzzFailure {
  uint64_t scenario_seed = 0;  ///< replay with --seed=<this> --runs=1
  std::string oracle;          ///< which oracle disagreed
  std::string family;          ///< generator family of the scenario
  std::string detail;          ///< the oracle's failure diagnosis
  Scenario minimized;          ///< shrunken reproducer
  std::string corpus_text;     ///< CorpusEntryToText of the reproducer
  ShrinkStats shrink_stats;
};

/// One oracle's outcomes over a campaign.
struct OracleTally {
  size_t passed = 0;
  size_t skipped = 0;
  size_t failed = 0;
  /// Skips per reason: the skip detail up to its first ':'.
  std::map<std::string, size_t> skip_reasons;
};

/// Aggregate result of a campaign.
struct FuzzReport {
  size_t runs_executed = 0;
  size_t checks_passed = 0;
  size_t checks_skipped = 0;
  bool time_budget_hit = false;
  /// Tallies of every oracle that ran (diagnosing one that only skips).
  std::map<std::string, OracleTally> by_oracle;
  std::map<std::string, size_t> runs_by_family;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// Runs one campaign. Deterministic given (seed, runs, oracle selection)
/// except for the time budget cutoff.
FuzzReport RunFuzzer(const FuzzOptions& options);

}  // namespace bddfc

#endif  // BDDFC_TESTING_FUZZER_H_
