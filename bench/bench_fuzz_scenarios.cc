// E12 — throughput of the differential-testing subsystem: scenario
// generation rate, per-oracle check cost over a seeded batch, and the
// shrinker on an injected chase-dedup fault. Expected shape: generation is
// microseconds; parser-roundtrip and chase-agreement dominate the oracle
// mix at small scenario sizes; pipeline-certify is the long tail (it runs
// the full Theorem-2 pipeline); shrinking costs tens of oracle replays.

#include "bench_common.h"

#include "bddfc/testing/fuzzer.h"
#include "bddfc/testing/oracles.h"
#include "bddfc/testing/scenario.h"
#include "bddfc/testing/shrinker.h"
#include "bddfc/workload/generators.h"

namespace {

using namespace bddfc;

void PrintTable() {
  bddfc_bench::Banner("E12", "differential-oracle fuzzing throughput");
  const OracleConfig config;
  std::printf("%-20s %-7s %-7s %-7s\n", "oracle", "pass", "skip", "fail");
  constexpr size_t kRuns = 40;
  for (const Oracle* oracle : AllOracles()) {
    size_t pass = 0, skip = 0, fail = 0;
    for (size_t i = 0; i < kRuns; ++i) {
      Scenario s = GenerateScenario(Rng::Mix(11, i));
      switch (oracle->Check(s, config).kind) {
        case OracleOutcome::Kind::kPass: ++pass; break;
        case OracleOutcome::Kind::kSkip: ++skip; break;
        case OracleOutcome::Kind::kFail: ++fail; break;
      }
    }
    std::printf("%-20s %-7zu %-7zu %-7zu\n",
                std::string(oracle->name()).c_str(), pass, skip, fail);
  }

  // Shrinker on the fuzzer's self-test fault: report the reduction.
  FuzzOptions opts;
  opts.seed = 1;
  opts.runs = 50;
  opts.config.faults.faults.push_back(
      {.site = faults::kChaseBug, .action = faults::kBugChaseDedup});
  opts.oracle = "chase-agreement";
  FuzzReport report = RunFuzzer(opts);
  if (!report.failures.empty()) {
    const FuzzFailure& f = report.failures[0];
    std::printf("shrink: seed=%llu  ->  %zu rules + %zu facts "
                "(%zu attempts, %zu removals)\n",
                static_cast<unsigned long long>(f.scenario_seed),
                f.minimized.theory.rules().size(),
                f.minimized.instance.NumFacts(), f.shrink_stats.attempts,
                f.shrink_stats.removals);
  } else {
    std::printf("shrink: no failure within %zu runs (unexpected)\n",
                report.runs_executed);
  }
}

void BM_GenerateScenario(benchmark::State& state) {
  uint64_t i = 0;
  for (auto _ : state) {
    Scenario s = GenerateScenario(Rng::Mix(3, i++));
    benchmark::DoNotOptimize(s.instance.NumFacts());
  }
}
BENCHMARK(BM_GenerateScenario);

void BM_OracleCheck(benchmark::State& state) {
  const Oracle* oracle = AllOracles()[static_cast<size_t>(state.range(0))];
  const OracleConfig config;
  std::vector<Scenario> batch;
  for (size_t i = 0; i < 16; ++i) {
    batch.push_back(GenerateScenario(Rng::Mix(5, i)));
  }
  size_t i = 0;
  for (auto _ : state) {
    const OracleOutcome out = oracle->Check(batch[i++ % batch.size()], config);
    benchmark::DoNotOptimize(out.kind);
  }
  state.SetLabel(std::string(oracle->name()));
}
BENCHMARK(BM_OracleCheck)->DenseRange(0, 4);

void BM_ShrinkInjectedFault(benchmark::State& state) {
  // The first seed-1 scenario the injected chase-dedup fault fails on.
  OracleConfig config;
  config.faults.faults.push_back(
      {.site = faults::kChaseBug, .action = faults::kBugChaseDedup});
  const Oracle* oracle = FindOracle("chase-agreement");
  Scenario failing;
  bool found = false;
  for (size_t i = 0; i < 50 && !found; ++i) {
    Scenario s = GenerateScenario(Rng::Mix(1, i));
    if (oracle->Check(s, config).failed()) {
      failing = s;
      found = true;
    }
  }
  for (auto _ : state) {
    if (!found) break;
    Scenario min = ShrinkScenario(failing, *oracle, config);
    benchmark::DoNotOptimize(min.instance.NumFacts());
  }
}
BENCHMARK(BM_ShrinkInjectedFault);

}  // namespace

BDDFC_BENCH_MAIN(PrintTable)
