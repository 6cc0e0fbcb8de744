// Tests for the retrying pipeline supervisor (DESIGN.md §2.14): recovery
// from injected fail-stop faults must be byte-identical to the fault-free
// run (including invented null TermIds, via signature rollback), the one
// degradation must move the retries to the kNaive reference, an exhausted
// retry budget must still return a complete Chase^L prefix under
// kInternal, retries must stop at the parent deadline, and recovered
// runs must report clean metrics / phase notes (no double-counted
// publications from failed attempts).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "bddfc/base/faults.h"
#include "bddfc/base/governor.h"
#include "bddfc/base/timescale.h"
#include "bddfc/chase/chase.h"
#include "bddfc/chase/supervisor.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/parser/parser.h"
#include "bddfc/testing/oracles.h"

namespace bddfc {
namespace {

// Terminates in 3 rounds with 3 invented nulls — enough structure that a
// fault after round 1 aborts *after* nulls were interned, so recovery
// byte-identity genuinely exercises the signature rollback.
constexpr char kProgram[] = R"(
  s(X) -> exists Y: e(X, Y).
  e(X, Y) -> r(Y, X).
  s(a). s(b). s(c).
)";

Program Parse() {
  auto parsed = ParseProgram(kProgram);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed.value());
}

/// The sharded production engine: the reference rung below it shares none
/// of its pool, plans, sink or sorted indexes.
ChaseOptions RichOptions() {
  ChaseOptions o;
  o.threads = 4;
  return o;
}

TEST(SupervisorTest, FaultFreeRunIsOneAttemptAndMatchesPlainChase) {
  Program a = Parse();
  ChaseResult plain = RunChase(a.theory, a.instance, RichOptions());
  ASSERT_TRUE(plain.status.ok());
  ASSERT_TRUE(plain.fixpoint_reached);
  ASSERT_EQ(plain.nulls_created, 3u);

  Program b = Parse();
  SupervisedChase s =
      RunChaseSupervised(b.theory, b.instance, RichOptions(), {});
  EXPECT_EQ(s.attempts, 1u);
  EXPECT_FALSE(s.recovered);
  EXPECT_TRUE(s.degradations.empty());
  EXPECT_EQ(ExactChaseDump(s.result), ExactChaseDump(plain));
}

TEST(SupervisorTest, RecoversByteIdenticallyIncludingNullTermIds) {
  Program a = Parse();
  ChaseResult plain = RunChase(a.theory, a.instance, RichOptions());
  ASSERT_TRUE(plain.status.ok());

  // after-n=1 fires at the round-2 boundary: round 1 has already interned
  // 3 nulls, so the retry must roll the signature back or every null in
  // the recovered run would shift by 3.
  Program b = Parse();
  ExecutionContext ctx;
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound,
           .schedule = FaultSchedule::kAfterN,
           .n = 1,
           .max_fires = 1,
           .action = ""});
  ctx.SetFaultRegistry(&reg);
  SupervisorOptions sup;
  sup.context = &ctx;
  SupervisedChase s = RunChaseSupervised(b.theory, b.instance, RichOptions(), sup);

  EXPECT_EQ(reg.FireCount(faults::kChaseRound), 1u);
  EXPECT_EQ(s.attempts, 2u);
  EXPECT_TRUE(s.recovered);
  EXPECT_EQ(s.degradations, std::vector<std::string>{"reference"});
  EXPECT_TRUE(s.result.status.ok());
  EXPECT_EQ(ExactChaseDump(s.result), ExactChaseDump(plain));
  // The parent context stays clean: the fault tripped only child attempts.
  EXPECT_EQ(ctx.report().exhausted, ResourceKind::kNone);
  EXPECT_TRUE(ctx.report().open_phases.empty());
}

TEST(SupervisorTest, RecoveredRunLeavesOnlyTheResultCharged) {
  // Each attempt charges its structure through its child context to the
  // caller's. Dropping the failed attempt must hand its bytes back, so a
  // recovered run leaves the caller's context charged for the returned
  // structure alone.
  Program p = Parse();
  ExecutionContext ctx;
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound,
           .schedule = FaultSchedule::kAfterN,
           .n = 1,
           .max_fires = 1,
           .action = ""});
  ctx.SetFaultRegistry(&reg);
  SupervisorOptions sup;
  sup.context = &ctx;
  SupervisedChase s =
      RunChaseSupervised(p.theory, p.instance, RichOptions(), sup);

  ASSERT_TRUE(s.recovered);
  ASSERT_TRUE(s.result.status.ok());
  EXPECT_GT(s.result.structure.ApproxAccountedBytes(), 0u);
  EXPECT_EQ(ctx.memory().used(), s.result.structure.ApproxAccountedBytes());
}

TEST(SupervisorTest, DegradationLadderWalksEveryRungInOrder) {
  Program a = Parse();
  ChaseResult plain = RunChase(a.theory, a.instance, RichOptions());

  // Three fires: attempts 1-3 each trip at the first round boundary (the
  // chase.round site is shared by both engines), so attempts 2-4 all run
  // on the reference — recorded once — and attempt 4 must still be
  // byte-identical.
  Program b = Parse();
  ExecutionContext ctx;
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound,
           .schedule = FaultSchedule::kAfterN,
           .n = 0,
           .max_fires = 3,
           .action = ""});
  ctx.SetFaultRegistry(&reg);
  SupervisorOptions sup;
  sup.context = &ctx;
  SupervisedChase s = RunChaseSupervised(b.theory, b.instance, RichOptions(), sup);

  EXPECT_EQ(s.attempts, 4u);
  EXPECT_TRUE(s.recovered);
  EXPECT_EQ(s.degradations, std::vector<std::string>{"reference"});
  EXPECT_TRUE(s.result.status.ok());
  EXPECT_EQ(ExactChaseDump(s.result), ExactChaseDump(plain));

  // A run that starts on the reference has nowhere further to degrade.
  Program c = Parse();
  FaultRegistry again;
  again.Arm({.site = faults::kChaseRound,
             .schedule = FaultSchedule::kAfterN,
             .n = 0,
             .max_fires = 1,
             .action = ""});
  ExecutionContext ctx2;
  ctx2.SetFaultRegistry(&again);
  sup.context = &ctx2;
  ChaseOptions naive;
  naive.engine = ChaseEngine::kNaive;
  SupervisedChase n = RunChaseSupervised(c.theory, c.instance, naive, sup);
  EXPECT_TRUE(n.recovered);
  EXPECT_TRUE(n.degradations.empty());
  EXPECT_EQ(ExactChaseDump(n.result), ExactChaseDump(plain));
}

TEST(SupervisorTest, ReferenceRungHitsNoProductionFaultSite) {
  // One rung suffices: the reference never reaches a fault site of the
  // production machinery, so a fault armed there without a fire bound
  // cannot recur after the first retry.
  Program a = Parse();
  ChaseResult plain = RunChase(a.theory, a.instance, RichOptions());
  for (const char* site : {faults::kIndexRefresh, faults::kPlanCompile,
                           faults::kSinkMerge, faults::kPoolTask}) {
    Program b = Parse();
    ExecutionContext ctx;
    FaultRegistry reg;
    reg.Arm({.site = site,
             .schedule = FaultSchedule::kAfterN,
             .n = 0,
             .max_fires = 0,
             .action = ""});
    ctx.SetFaultRegistry(&reg);
    SupervisorOptions sup;
    sup.context = &ctx;
      SupervisedChase s =
        RunChaseSupervised(b.theory, b.instance, RichOptions(), sup);
    // Concurrent shard tasks may each fire before the first latch lands;
    // what matters is that the one retry recovers.
    EXPECT_GE(reg.FireCount(site), 1u) << site;
    EXPECT_EQ(s.attempts, 2u) << site;
    EXPECT_EQ(s.degradations, std::vector<std::string>{"reference"}) << site;
    EXPECT_EQ(ExactChaseDump(s.result), ExactChaseDump(plain)) << site;
  }
}

TEST(SupervisorTest, ExhaustedRetryBudgetReturnsCompletePrefix) {
  // Unlimited fires past hit 2 of the (cross-attempt) chase.round hit
  // counter: attempt 1 completes rounds 1-2 and trips at the round-3
  // boundary; every retry's first round boundary is already past n, so no
  // attempt can recover. The supervisor gives up after max_retries and
  // must hand back the last attempt's complete prefix (here: just the
  // instance facts) under kInternal — never a torn half-round.
  Program p = Parse();
  ExecutionContext ctx;
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound,
           .schedule = FaultSchedule::kAfterN,
           .n = 2,
           .max_fires = 0,
           .action = ""});
  ctx.SetFaultRegistry(&reg);
  SupervisorOptions sup;
  sup.context = &ctx;
  sup.max_retries = 2;
  SupervisedChase s = RunChaseSupervised(p.theory, p.instance, RichOptions(), sup);

  EXPECT_EQ(s.attempts, 3u);
  EXPECT_FALSE(s.recovered);
  EXPECT_EQ(s.result.status.code(), StatusCode::kInternal);
  EXPECT_EQ(s.result.report.exhausted, ResourceKind::kFault);
  EXPECT_TRUE(s.result.report.partial_result);
  EXPECT_EQ(s.result.rounds_run, 0u);
  ASSERT_EQ(s.result.facts_per_round.size(), 1u);
  EXPECT_EQ(s.result.structure.NumFacts(), s.result.facts_per_round.back());
  EXPECT_EQ(s.result.structure.NumFacts(), 3u);
}

TEST(SupervisorTest, RetriesStopAtTheParentDeadline) {
  // A fault that fires at every round boundary forever and a huge retry
  // budget: the only thing that may stop the loop is the deadline, so the
  // whole supervised run must end within a small multiple of it instead
  // of retrying past it.
  const int deadline_ms = ScaledMs(300);
  Program p = Parse();
  ExecutionContext ctx;
  ctx.SetDeadlineAfterMs(deadline_ms);
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound,
           .schedule = FaultSchedule::kAfterN,
           .n = 0,
           .max_fires = 0,
           .action = ""});
  ctx.SetFaultRegistry(&reg);
  SupervisorOptions sup;
  sup.context = &ctx;
  sup.max_retries = 1000000;

  auto t0 = std::chrono::steady_clock::now();
  SupervisedChase s = RunChaseSupervised(p.theory, p.instance, RichOptions(), sup);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  EXPECT_GT(s.attempts, 1u);
  EXPECT_FALSE(s.result.status.ok());
  EXPECT_LT(elapsed_ms, 3.0 * deadline_ms)
      << "supervisor retried past the deadline";
}

TEST(SupervisorTest, RecoveredRunPublishesCleanMetricsAndPhases) {
  // Regression test: the failed attempt publishes chase counters before
  // its trip surfaces; the per-retry metrics reset must wipe them so a
  // recovered run reports exactly one chase, and the supervisor's own
  // counters must be published after the loop (a reset inside the loop
  // must not eat them).
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.set_enabled(true);
  metrics.Reset();

  Program p = Parse();
  ExecutionContext ctx;
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound,
           .schedule = FaultSchedule::kAfterN,
           .n = 1,
           .max_fires = 1,
           .action = ""});
  ctx.SetFaultRegistry(&reg);
  SupervisorOptions sup;
  sup.context = &ctx;
  SupervisedChase s = RunChaseSupervised(p.theory, p.instance, RichOptions(), sup);
  ASSERT_TRUE(s.recovered);
  ASSERT_EQ(s.attempts, 2u);

  EXPECT_EQ(metrics.GetCounter("bddfc.chase.runs")->Value(), 1u)
      << "failed attempt's publication leaked through the retry reset";
  EXPECT_EQ(metrics.GetCounter("bddfc.supervisor.retries")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bddfc.supervisor.recoveries")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bddfc.supervisor.degradations")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bddfc.supervisor.gave_up")->Value(), 0u);

  metrics.set_enabled(false);
  metrics.Reset();

  // The parent report carries one retry note and no dangling open phase —
  // a recovered run must not read as a half-finished one.
  ResourceReport report = ctx.report();
  EXPECT_TRUE(report.open_phases.empty());
  size_t retry_notes = 0;
  for (const PhaseProgress& phase : report.phases) {
    if (phase.phase == "supervisor.retry") ++retry_notes;
  }
  EXPECT_EQ(retry_notes, 1u);
}

TEST(SupervisorTest, RetryResetIsScopedToTheRunsRegistry) {
  // Serving regression (DESIGN.md §2.15): the per-retry metrics reset
  // wipes the RUN's registry, resolved through the context's RunContext —
  // never the process-wide one. A retry storm in one session must not
  // erase counters a concurrent session is accumulating. (With the old
  // Global()-based reset this test races: the supervised thread's resets
  // interleave with the plain thread's publications.)
  constexpr int kPlainRuns = 8;

  // Serial baseline for what one clean chase publishes.
  obs::MetricsRegistry baseline;
  baseline.set_enabled(true);
  {
    Program p = Parse();
    ExecutionContext ctx;
    RunContext rc;
    rc.metrics = &baseline;
    ctx.SetRunContext(&rc);
    ChaseOptions o = RichOptions();
    o.context = &ctx;
    RunChase(p.theory, p.instance, o);
  }
  const uint64_t runs_per_chase = baseline.GetCounter("bddfc.chase.runs")->Value();
  const uint64_t rounds_per_chase =
      baseline.GetCounter("bddfc.chase.rounds")->Value();
  ASSERT_EQ(runs_per_chase, 1u);

  obs::MetricsRegistry session_a, session_b;
  session_a.set_enabled(true);
  session_b.set_enabled(true);

  std::thread supervised([&] {
    // Session A: every chase attempt fails round 2 once, so the
    // supervisor retries (and resets session A's registry) repeatedly.
    for (int i = 0; i < 4; ++i) {
      Program p = Parse();
      ExecutionContext ctx;
      FaultRegistry faults;
      faults.Arm({.site = faults::kChaseRound,
                  .schedule = FaultSchedule::kAfterN,
                  .n = 1,
                  .max_fires = 1,
                  .action = ""});
      RunContext rc;
      rc.metrics = &session_a;
      ctx.SetRunContext(&rc);
      ctx.SetFaultRegistry(&faults);
      SupervisorOptions sup;
      sup.context = &ctx;
          SupervisedChase s =
          RunChaseSupervised(p.theory, p.instance, RichOptions(), sup);
      EXPECT_TRUE(s.recovered);
    }
  });
  std::thread plain([&] {
    // Session B: clean chases publishing into its own registry.
    for (int i = 0; i < kPlainRuns; ++i) {
      Program p = Parse();
      ExecutionContext ctx;
      RunContext rc;
      rc.metrics = &session_b;
      ctx.SetRunContext(&rc);
      ChaseOptions o = RichOptions();
      o.context = &ctx;
      RunChase(p.theory, p.instance, o);
    }
  });
  supervised.join();
  plain.join();

  // Session B kept every publication: nothing was reset out from under it.
  EXPECT_EQ(session_b.GetCounter("bddfc.chase.runs")->Value(),
            kPlainRuns * runs_per_chase);
  EXPECT_EQ(session_b.GetCounter("bddfc.chase.rounds")->Value(),
            kPlainRuns * rounds_per_chase);
  // Session A's last supervised run left exactly one clean chase (the
  // reset wiped the failed attempt, then the recovery published once).
  EXPECT_EQ(session_a.GetCounter("bddfc.chase.runs")->Value(), 1u);
}

TEST(SupervisorTest, GivingUpIsCountedOnce) {
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.set_enabled(true);
  metrics.Reset();

  Program p = Parse();
  ExecutionContext ctx;
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound,
           .schedule = FaultSchedule::kAfterN,
           .n = 0,
           .max_fires = 0,
           .action = ""});
  ctx.SetFaultRegistry(&reg);
  SupervisorOptions sup;
  sup.context = &ctx;
  sup.max_retries = 3;
  SupervisedChase s = RunChaseSupervised(p.theory, p.instance, RichOptions(), sup);

  EXPECT_EQ(s.result.status.code(), StatusCode::kInternal);
  EXPECT_EQ(metrics.GetCounter("bddfc.supervisor.gave_up")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bddfc.supervisor.retries")->Value(), 3u);
  EXPECT_EQ(metrics.GetCounter("bddfc.supervisor.recoveries")->Value(), 0u);

  metrics.set_enabled(false);
  metrics.Reset();
}

}  // namespace
}  // namespace bddfc
