// Tests for the differential-testing subsystem (DESIGN.md §2.8): scenario
// generation determinism and stratification, oracle agreement on seeded
// batches, fault-injection self-test (the fuzzer must catch a deliberately
// broken delta chase and shrink it to a handful of components), shrinker
// determinism, and corpus round-trips. Plus the chaos harness (§2.14):
// hundreds of random seeded fault plans must recover byte-identically
// under the supervisor, every recoverable fault site must actually fire
// and recover, and paranoia checks must turn silent sink corruption into
// a structured kInternal error.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bddfc/base/faults.h"
#include "bddfc/base/governor.h"
#include "bddfc/chase/chase.h"
#include "bddfc/chase/supervisor.h"
#include "bddfc/parser/parser.h"
#include "bddfc/testing/corpus.h"
#include "bddfc/testing/fuzzer.h"
#include "bddfc/testing/oracles.h"
#include "bddfc/testing/scenario.h"
#include "bddfc/testing/shrinker.h"
#include "bddfc/workload/generators.h"

namespace bddfc {
namespace {

/// The fuzzer's --inject-bug self-test as oracle faults: one chase.bug spec
/// whose action names the bug, firing on every run under test.
FaultPlan ChaseBug(const char* action) {
  return FaultPlan{{FaultSpec{.site = faults::kChaseBug, .action = action}}};
}

TEST(ScenarioTest, GenerationIsDeterministic) {
  for (uint64_t seed : {1ull, 42ull, 987654321ull}) {
    Scenario a = GenerateScenario(seed);
    Scenario b = GenerateScenario(seed);
    EXPECT_EQ(ScenarioToText(a), ScenarioToText(b)) << "seed " << seed;
  }
}

TEST(ScenarioTest, FamiliesAreAllHit) {
  std::set<std::string> hit;
  for (uint64_t i = 0; i < 40; ++i) {
    hit.insert(GenerateScenario(Rng::Mix(7, i)).family);
  }
  for (const std::string& family : ScenarioFamilies()) {
    EXPECT_TRUE(hit.count(family)) << "family " << family
                                   << " never generated in 40 scenarios";
  }
}

TEST(ScenarioTest, TextRoundTripIsLossless) {
  for (uint64_t i = 0; i < 10; ++i) {
    Scenario s = GenerateScenario(Rng::Mix(13, i));
    std::string text = ScenarioToText(s);
    Result<Scenario> back = ParseScenario(text);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(ScenarioToText(back.value()), text);
  }
}

TEST(OracleTest, RegistryIsConsistent) {
  ASSERT_GE(AllOracles().size(), 5u);
  for (const Oracle* oracle : AllOracles()) {
    EXPECT_EQ(FindOracle(oracle->name()), oracle);
  }
  EXPECT_EQ(FindOracle("no-such-oracle"), nullptr);
}

TEST(OracleTest, AllOraclesPassOnSeededBatch) {
  const OracleConfig config;
  for (uint64_t i = 0; i < 40; ++i) {
    Scenario s = GenerateScenario(Rng::Mix(1, i));
    for (const Oracle* oracle : AllOracles()) {
      OracleOutcome out = oracle->Check(s, config);
      EXPECT_FALSE(out.failed())
          << oracle->name() << " failed on seed " << s.seed << " ("
          << s.family << "): " << out.detail << "\n"
          << ScenarioToText(s);
    }
  }
}

TEST(FuzzerTest, InjectedChaseDedupBugIsCaughtAndShrinks) {
  FuzzOptions options;
  options.seed = 1;
  options.runs = 50;
  options.oracle = "chase-agreement";
  options.config.faults = ChaseBug(faults::kBugChaseDedup);
  FuzzReport report = RunFuzzer(options);
  ASSERT_FALSE(report.ok()) << "the injected bug went undetected over "
                            << report.runs_executed << " runs";
  const FuzzFailure& f = report.failures[0];
  EXPECT_EQ(f.oracle, "chase-agreement");
  // The acceptance bar: a minimized reproducer of at most 5 components.
  size_t components =
      f.minimized.theory.rules().size() + f.minimized.instance.NumFacts();
  EXPECT_LE(components, 5u) << f.corpus_text;
  EXPECT_GE(f.minimized.theory.rules().size(), 1u);

  // The reproducer replays as a failing corpus entry under the fault...
  Result<CorpusEntry> entry = ParseCorpusText(f.corpus_text);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  OracleConfig faulty;
  faulty.faults = ChaseBug(faults::kBugChaseDedup);
  EXPECT_TRUE(ReplayCorpusEntry(entry.value(), faulty).failed());
  // ...and passes once the fault is gone (the bug is in the engine knob,
  // not the scenario).
  OracleOutcome healthy = ReplayCorpusEntry(entry.value(), OracleConfig{});
  EXPECT_FALSE(healthy.failed()) << healthy.detail;
}

TEST(FuzzerTest, InjectedSinkDropDupBugIsCaughtAndShrinks) {
  // kSinkDropDup makes the vectorized sink drop every duplicate-derived
  // tuple group. The kNaive reference uses the hash sink (immune by
  // construction), so chase-agreement must flag the divergence — proof
  // that a silently broken sort-dedup sink cannot survive the oracles.
  FuzzOptions options;
  options.seed = 1;
  options.runs = 80;
  options.oracle = "chase-agreement";
  options.config.faults = ChaseBug(faults::kBugSinkDropDup);
  FuzzReport report = RunFuzzer(options);
  ASSERT_FALSE(report.ok()) << "the injected sink bug went undetected over "
                            << report.runs_executed << " runs";
  const FuzzFailure& f = report.failures[0];
  EXPECT_EQ(f.oracle, "chase-agreement");
  EXPECT_GE(f.minimized.theory.rules().size(), 1u);

  // The reproducer replays as a failing corpus entry under the fault and
  // passes without it (the bug is in the sink knob, not the scenario).
  Result<CorpusEntry> entry = ParseCorpusText(f.corpus_text);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  OracleConfig faulty;
  faulty.faults = ChaseBug(faults::kBugSinkDropDup);
  EXPECT_TRUE(ReplayCorpusEntry(entry.value(), faulty).failed());
  OracleOutcome healthy = ReplayCorpusEntry(entry.value(), OracleConfig{});
  EXPECT_FALSE(healthy.failed()) << healthy.detail;
}

TEST(FuzzerTest, ShrinkingIsDeterministic) {
  FuzzOptions options;
  options.seed = 1;
  options.runs = 50;
  options.oracle = "chase-agreement";
  options.config.faults = ChaseBug(faults::kBugChaseDedup);
  FuzzReport a = RunFuzzer(options);
  FuzzReport b = RunFuzzer(options);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.failures[0].corpus_text, b.failures[0].corpus_text);
  EXPECT_EQ(a.failures[0].shrink_stats.attempts,
            b.failures[0].shrink_stats.attempts);
}

TEST(FuzzerTest, MaxFailuresZeroCollectsEverything) {
  FuzzOptions options;
  options.seed = 1;
  options.runs = 12;
  options.oracle = "chase-agreement";
  options.config.faults = ChaseBug(faults::kBugChaseDedup);
  options.max_failures = 0;
  options.shrink = false;
  FuzzReport report = RunFuzzer(options);
  EXPECT_EQ(report.runs_executed, 12u);
  EXPECT_GE(report.failures.size(), 2u);
}

TEST(FuzzerTest, SkipReasonsAccountForEverySkip) {
  FuzzOptions options;
  options.seed = 7;
  options.runs = 10;
  FuzzReport report = RunFuzzer(options);
  ASSERT_TRUE(report.ok());
  size_t skipped = 0;
  for (const auto& [name, tally] : report.by_oracle) {
    size_t by_reason = 0;
    for (const auto& [reason, n] : tally.skip_reasons) by_reason += n;
    EXPECT_EQ(by_reason, tally.skipped) << name;
    EXPECT_EQ(tally.passed + tally.skipped + tally.failed, options.runs)
        << name;
    skipped += tally.skipped;
  }
  EXPECT_EQ(skipped, report.checks_skipped);
  // Without --inject-fault, governor-prefix skips every run for one reason.
  const OracleTally& governor = report.by_oracle.at("governor-prefix");
  EXPECT_EQ(governor.skipped, options.runs);
  ASSERT_EQ(governor.skip_reasons.size(), 1u);
  EXPECT_EQ(governor.skip_reasons.begin()->first,
            "no fault injected (--inject-fault)");
}

TEST(FuzzerTest, UnknownOracleReportsFailure) {
  FuzzOptions options;
  options.oracle = "no-such-oracle";
  FuzzReport report = RunFuzzer(options);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.runs_executed, 0u);
}

TEST(ShrinkerTest, PassingScenarioIsReturnedUnchanged) {
  Scenario s = GenerateScenario(Rng::Mix(1, 0));
  const Oracle* oracle = FindOracle("chase-agreement");
  ASSERT_NE(oracle, nullptr);
  ShrinkStats stats;
  Scenario out = ShrinkScenario(s, *oracle, OracleConfig{}, 100, &stats);
  EXPECT_EQ(ScenarioToText(out), ScenarioToText(s));
  EXPECT_EQ(stats.removals, 0u);
}

TEST(CorpusTest, EntryTextRoundTrips) {
  CorpusEntry entry;
  entry.oracle = "parser-roundtrip";
  entry.family = "guarded";
  entry.seed = 99;
  entry.note = "two\nlines";
  entry.program = "p(a).\n?- p(V0).\n";
  std::string text = CorpusEntryToText(entry);
  Result<CorpusEntry> back = ParseCorpusText(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().oracle, "parser-roundtrip");
  EXPECT_EQ(back.value().family, "guarded");
  EXPECT_EQ(back.value().seed, 99u);
  EXPECT_EQ(back.value().note, "two; lines");
  // The program keeps the header comments (they are comments to the
  // parser), so replay sees the full file.
  EXPECT_EQ(back.value().program, text);
}

TEST(CorpusTest, MissingOracleHeaderIsRejected) {
  EXPECT_FALSE(ParseCorpusText("p(a).\n").ok());
  CorpusEntry entry;
  entry.oracle = "no-such-oracle";
  entry.program = "p(a).\n";
  EXPECT_TRUE(ReplayCorpusEntry(entry).failed());
}

// ---------------------------------------------------------------------------
// Chaos harness (DESIGN.md §2.14).
// ---------------------------------------------------------------------------

/// Chases a fresh clone of `s` (print+parse clones intern identically, so
/// dumps are byte-comparable) under the supervisor, with an optional
/// single armed fault. Reports whether the fault actually fired and how
/// the supervisor fared.
std::string SupervisedDump(const Scenario& s, const FaultSpec* spec,
                           bool* fired, bool* recovered, size_t* attempts) {
  Result<Scenario> clone = CloneScenario(s);
  EXPECT_TRUE(clone.ok()) << clone.status().ToString();
  ChaseOptions opts;
  opts.max_rounds = 24;
  opts.max_facts = 20000;
  opts.threads = 4;  // sharded: reaches every recoverable fault site
  ExecutionContext ctx;
  FaultRegistry reg;
  if (spec != nullptr) {
    reg.Arm(*spec);
    ctx.SetFaultRegistry(&reg);
  }
  SupervisorOptions sup;
  sup.context = &ctx;
  SupervisedChase got = RunChaseSupervised(clone.value().theory,
                                           clone.value().instance, opts, sup);
  if (fired != nullptr) {
    *fired = spec != nullptr && reg.FireCount(spec->site) > 0;
  }
  if (recovered != nullptr) *recovered = got.recovered;
  if (attempts != nullptr) *attempts = got.attempts;
  return ExactChaseDump(got.result);
}

// The acceptance bar for the chaos harness: >= 200 random seeded fault
// plans across seeded scenarios, every one of which must end
// byte-identical to the fault-free run (nightly CI runs the same sweep
// through bddfc_fuzz --chaos).
TEST(ChaosTest, TwoHundredRandomFaultPlansRecoverByteIdentically) {
  const Oracle* oracle = FindOracle("chaos-recovery");
  ASSERT_NE(oracle, nullptr);
  OracleConfig config;
  config.chaos_plans = 8;
  config.chaos_seed = 7;
  config.paranoia = ParanoiaLevel::kCheap;
  size_t plans = 0;
  for (uint64_t i = 0; plans < 200; ++i) {
    ASSERT_LT(i, 100u) << "scenario generator starved the plan budget";
    Scenario s = GenerateScenario(Rng::Mix(31, i));
    OracleOutcome out = oracle->Check(s, config);
    ASSERT_FALSE(out.failed())
        << "chaos plan diverged on seed " << s.seed << " (" << s.family
        << "): " << out.detail;
    if (out.kind == OracleOutcome::Kind::kPass) plans += config.chaos_plans;
  }
  EXPECT_GE(plans, 200u);
}

// Coverage half of the chaos contract: every recoverable fault site must
// actually fire at least once over the scenario sweep, and each fire must
// recover to the fault-free bytes. A site that never fires is dead
// instrumentation the random plans only *appear* to exercise.
TEST(ChaosTest, EveryRecoverableSiteFiresAndRecovers) {
  std::set<std::string> uncovered(RecoverableFaultSites().begin(),
                                  RecoverableFaultSites().end());
  ASSERT_EQ(uncovered.size(), 7u);
  for (uint64_t i = 0; i < 40 && !uncovered.empty(); ++i) {
    Scenario s = GenerateScenario(Rng::Mix(53, i));
    std::string reference =
        SupervisedDump(s, nullptr, nullptr, nullptr, nullptr);
    for (auto it = uncovered.begin(); it != uncovered.end();) {
      FaultSpec spec{.site = *it,
                     .schedule = FaultSchedule::kAfterN,
                     .n = 0,
                     .max_fires = 1,
                     .action = ""};
      bool fired = false;
      bool recovered = false;
      size_t attempts = 0;
      std::string dump = SupervisedDump(s, &spec, &fired, &recovered, &attempts);
      EXPECT_EQ(dump, reference)
          << "site " << *it << " diverged on seed " << s.seed;
      if (fired) {
        EXPECT_TRUE(recovered) << *it;
        EXPECT_GE(attempts, 2u) << *it;
        it = uncovered.erase(it);
      } else {
        ++it;
      }
    }
  }
  EXPECT_TRUE(uncovered.empty())
      << "site never fired over 40 scenarios: " << *uncovered.begin();
}

TEST(ParanoiaTest, CheapChecksTurnSinkCorruptionIntoInternalError) {
  // t(b) is derived twice in round 1; kSinkDropDup drops the whole
  // duplicate group, which breaks the sink counter identity. With
  // paranoia off the corruption is silent (only cross-engine agreement
  // would notice); at kCheap the run itself fails with a structured
  // kInternal naming the violated invariant.
  constexpr char kDup[] = "e(a, b). e(c, b). e(X, Y) -> t(Y).";
  auto silent = ParseProgram(kDup);
  ASSERT_TRUE(silent.ok());
  FaultRegistry reg;
  reg.ArmPlan(ChaseBug(faults::kBugSinkDropDup));
  ExecutionContext off_ctx;
  off_ctx.SetFaultRegistry(&reg);
  ChaseOptions opts;
  opts.context = &off_ctx;
  ChaseResult off =
      RunChase(silent.value().theory, silent.value().instance, opts);
  EXPECT_TRUE(off.status.ok()) << off.status.ToString();

  auto caught = ParseProgram(kDup);
  ASSERT_TRUE(caught.ok());
  ExecutionContext on_ctx;
  on_ctx.SetFaultRegistry(&reg);
  opts.context = &on_ctx;
  opts.paranoia = ParanoiaLevel::kCheap;
  ChaseResult on =
      RunChase(caught.value().theory, caught.value().instance, opts);
  EXPECT_EQ(on.status.code(), StatusCode::kInternal);
  EXPECT_NE(on.status.ToString().find("paranoia"), std::string::npos)
      << on.status.ToString();
}

}  // namespace
}  // namespace bddfc
