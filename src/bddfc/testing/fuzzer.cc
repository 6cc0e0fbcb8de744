#include "bddfc/testing/fuzzer.h"

#include <chrono>
#include <utility>

#include "bddfc/workload/generators.h"

namespace bddfc {

namespace {

void Log(const FuzzOptions& options, const std::string& line) {
  if (options.log != nullptr) options.log(line);
}

}  // namespace

FuzzReport RunFuzzer(const FuzzOptions& options) {
  FuzzReport report;

  std::vector<const Oracle*> oracles;
  if (options.oracle.empty()) {
    oracles = AllOracles();
  } else {
    const Oracle* oracle = FindOracle(options.oracle);
    if (oracle == nullptr) {
      FuzzFailure failure;
      failure.oracle = options.oracle;
      failure.detail = "unknown oracle '" + options.oracle + "'";
      report.failures.push_back(std::move(failure));
      return report;
    }
    oracles.push_back(oracle);
  }

  const auto start = std::chrono::steady_clock::now();
  auto out_of_time = [&] {
    if (options.time_budget_s <= 0) return false;
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= options.time_budget_s;
  };

  for (size_t i = 0; i < options.runs; ++i) {
    if (out_of_time()) {
      report.time_budget_hit = true;
      Log(options, "time budget hit after " + std::to_string(i) + " runs");
      break;
    }
    const uint64_t scenario_seed = Rng::Mix(options.seed, i);
    Scenario scenario = GenerateScenario(scenario_seed);
    ++report.runs_executed;
    ++report.runs_by_family[scenario.family];

    for (const Oracle* oracle : oracles) {
      OracleOutcome outcome = oracle->Check(scenario, options.config);
      const std::string name(oracle->name());
      OracleTally& tally = report.by_oracle[name];
      switch (outcome.kind) {
        case OracleOutcome::Kind::kPass:
          ++report.checks_passed;
          ++tally.passed;
          break;
        case OracleOutcome::Kind::kSkip:
          ++report.checks_skipped;
          ++tally.skipped;
          ++tally.skip_reasons[outcome.detail.substr(
              0, outcome.detail.find(':'))];
          break;
        case OracleOutcome::Kind::kFail: {
          ++tally.failed;
          Log(options, "FAIL " + name + " seed=" +
                           std::to_string(scenario_seed) + " family=" +
                           scenario.family + ": " + outcome.detail);
          FuzzFailure failure;
          failure.scenario_seed = scenario_seed;
          failure.oracle = name;
          failure.family = scenario.family;
          failure.detail = outcome.detail;
          failure.minimized =
              options.shrink
                  ? ShrinkScenario(scenario, *oracle, options.config,
                                   options.shrink_max_attempts,
                                   &failure.shrink_stats)
                  : scenario;
          if (options.shrink) {
            Log(options,
                "shrunk to " +
                    std::to_string(failure.minimized.theory.rules().size()) +
                    " rules, " +
                    std::to_string(failure.minimized.instance.NumFacts()) +
                    " facts (" + std::to_string(failure.shrink_stats.attempts) +
                    " attempts)");
          }
          CorpusEntry entry;
          entry.oracle = name;
          entry.family = scenario.family;
          entry.seed = scenario_seed;
          entry.fault = options.config.interruption;
          if (options.config.chaos_plans != 0) {
            entry.chaos = options.config.chaos_plans;
            entry.chaos_seed = options.config.chaos_seed;
          }
          entry.note = outcome.detail;
          entry.program = ScenarioToText(failure.minimized);
          failure.corpus_text = CorpusEntryToText(entry);
          report.failures.push_back(std::move(failure));
          if (options.max_failures != 0 &&
              report.failures.size() >= options.max_failures) {
            return report;
          }
          break;
        }
      }
    }
  }
  return report;
}

}  // namespace bddfc
