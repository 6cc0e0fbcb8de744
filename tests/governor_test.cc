// Tests for the unified resource governor (base/governor.h) and its
// integration across the engines: deadlines, memory accounting,
// cooperative cancellation, deterministic fault injection, and the
// prefix-consistency contract of interrupted runs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/parallel.h"
#include "bddfc/base/timescale.h"
#include "bddfc/chase/chase.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/parser/parser.h"
#include "bddfc/rewrite/rewriter.h"
#include "bddfc/types/ptype.h"

namespace bddfc {
namespace {

Program MustParse(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Arms `action` (a faults::kGovernorCheck action) after `after` checks on
/// `reg` and attaches `reg` to `ctx`, which then trips that resource.
void InterruptAfter(ExecutionContext& ctx, FaultRegistry& reg,
                    const char* action, uint64_t after) {
  reg.Arm({.site = faults::kGovernorCheck, .n = after, .action = action});
  ctx.SetFaultRegistry(&reg);
}

// A theory whose chase never terminates: transitive closure plus an
// existential successor rule growing an infinite e-chain.
constexpr const char* kInfiniteTc = R"(
  e(X, Y), e(Y, Z) -> e(X, Z).
  e(X, Y) -> exists W: e(Y, W).
  e(a, b).
  ?- e(X, X).
)";

// A datalog theory whose UCQ rewriting diverges (recursive reachability):
// the rewriter only ever stops on a budget.
constexpr const char* kDivergingRewrite = R"(
  e(X, Y), p(Y) -> p(X).
  e(a, b).
  p(b).
  ?- p(X).
)";

// ---------------------------------------------------------------------------
// MemoryAccountant
// ---------------------------------------------------------------------------

TEST(MemoryAccountantTest, ChargeReleaseTracksUsedAndPeak) {
  MemoryAccountant acc(1000);
  acc.Charge(400);
  acc.Charge(300);
  EXPECT_EQ(acc.used(), 700u);
  EXPECT_EQ(acc.peak(), 700u);
  acc.Release(500);
  EXPECT_EQ(acc.used(), 200u);
  EXPECT_EQ(acc.peak(), 700u);
  EXPECT_FALSE(acc.OverBudget());
  acc.Charge(900);
  EXPECT_TRUE(acc.OverBudget());
}

TEST(MemoryAccountantTest, ChildChargesPropagateToAncestors) {
  MemoryAccountant root(1000);
  MemoryAccountant child(0, &root);  // unlimited child, capped root
  child.Charge(600);
  EXPECT_EQ(child.used(), 600u);
  EXPECT_EQ(root.used(), 600u);
  EXPECT_FALSE(child.OverBudget());
  child.Charge(600);
  // The child has no limit of its own but the root is over: OverBudget
  // walks ancestors.
  EXPECT_TRUE(child.OverBudget());
  EXPECT_TRUE(root.OverBudget());
}

TEST(MemoryAccountantTest, ChildLimitIsAPhaseCarveOut) {
  MemoryAccountant root(0);  // unlimited root
  MemoryAccountant child(100, &root);
  child.Charge(150);
  EXPECT_TRUE(child.OverBudget());
  EXPECT_FALSE(root.OverBudget());
  EXPECT_EQ(root.used(), 150u);
}

// ---------------------------------------------------------------------------
// CancelToken / ExecutionContext basics
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, CopiesAliasTheSameFlagAcrossThreads) {
  CancelToken token;
  CancelToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  std::thread flipper([&token] { token.Cancel(); });
  flipper.join();
  EXPECT_TRUE(copy.cancelled());
}

TEST(ExecutionContextTest, ExpiredDeadlineTripsAndLatches) {
  ExecutionContext ctx;
  ctx.SetDeadlineAfterMs(0);
  Status s = ctx.CheckPoint("test");
  ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_EQ(ctx.report().exhausted, ResourceKind::kDeadline);
  EXPECT_TRUE(ctx.Exhausted());
  // Latched: the second check fails without re-evaluating anything.
  EXPECT_EQ(ctx.CheckPoint("again").code(), StatusCode::kResourceExhausted);
}

TEST(ExecutionContextTest, MemoryWatermarkTrips) {
  ExecutionContext ctx;
  ctx.SetMemoryLimitBytes(100);
  ctx.memory().Charge(200);
  EXPECT_EQ(ctx.CheckPoint("test").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.report().exhausted, ResourceKind::kMemory);
}

TEST(ExecutionContextTest, CancellationTrips) {
  ExecutionContext ctx;
  CancelToken token = ctx.cancel_token();
  token.Cancel();  // e.g. from a SIGINT handler
  EXPECT_EQ(ctx.CheckPoint("test").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.report().exhausted, ResourceKind::kCancelled);
}

TEST(ExecutionContextTest, InjectedFaultFiresAfterExactCheckCount) {
  FaultRegistry reg;
  ExecutionContext ctx;
  InterruptAfter(ctx, reg, faults::kTripOom, 2);
  EXPECT_TRUE(ctx.CheckPoint("1").ok());
  EXPECT_TRUE(ctx.CheckPoint("2").ok());
  EXPECT_EQ(ctx.CheckPoint("3").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.report().exhausted, ResourceKind::kMemory);
}

TEST(ExecutionContextTest, ChildSeesParentTripButNotViceVersa) {
  ExecutionContext parent;
  std::unique_ptr<ExecutionContext> child = parent.CreateChild(0);

  // A count-budget trip recorded on the child stays local: the parent can
  // retry the phase (the pipeline's depth-doubling loop depends on this).
  child->RecordExhaustion(ResourceKind::kRounds, "child max_rounds");
  EXPECT_TRUE(child->Exhausted());
  EXPECT_FALSE(parent.Exhausted());
  EXPECT_TRUE(parent.CheckPoint("after child").ok());

  // A governed trip on the parent is visible to (new) children.
  parent.RequestCancel();
  EXPECT_EQ(parent.CheckPoint("cancel").code(),
            StatusCode::kResourceExhausted);
  std::unique_ptr<ExecutionContext> child2 = parent.CreateChild(0);
  EXPECT_TRUE(child2->Exhausted());
  EXPECT_EQ(child2->CheckPoint("child2").code(),
            StatusCode::kResourceExhausted);
}

TEST(ExecutionContextTest, LateChildDeadlineCountsFromWhenItIsSet) {
  // A request context is a child of a long-lived server root. Its
  // deadline must run from the moment it is set, not from the root's
  // creation: a root older than the child's allowance must not leave the
  // child born expired.
  ExecutionContext parent;
  std::this_thread::sleep_for(std::chrono::milliseconds(ScaledMs(60)));
  std::unique_ptr<ExecutionContext> child = parent.CreateChild(0);
  child->SetDeadlineAfterMs(ScaledMs(30));
  EXPECT_GT(child->RemainingMs(), 0.0);
  EXPECT_TRUE(child->CheckPoint("fresh request").ok());
}

TEST(ExecutionContextTest, ChildReportInheritsParentTrip) {
  ExecutionContext parent;
  std::unique_ptr<ExecutionContext> child = parent.CreateChild(0);
  parent.RequestCancel();
  (void)parent.CheckPoint("latch");
  ResourceReport report = child->report();
  EXPECT_EQ(report.exhausted, ResourceKind::kCancelled);
}

// ---------------------------------------------------------------------------
// ParallelFor governance
// ---------------------------------------------------------------------------

TEST(ParallelForGovernorTest, ParallelForSkipsWorkOnTrippedContext) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecutionContext ctx;
    ctx.RequestCancel();
    (void)ctx.CheckPoint("latch");  // latch the trip before the fan-out
    const size_t checks_before = ctx.cancel_checks();
    std::atomic<int> executed{0};
    Status s = ParallelFor(
        16, threads,
        [&executed](size_t, size_t) {
          ++executed;
          return Status::OK();
        },
        &ctx);
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
        << "threads=" << threads;
    EXPECT_EQ(executed.load(), 0) << "threads=" << threads;
    // One thread: one CheckPoint, then stop.
    if (threads == 1) {
      EXPECT_EQ(ctx.cancel_checks(), checks_before + 1);
    }
  }
}

TEST(ParallelForGovernorTest, ATrippedCallRecordsOneCheck) {
  // Every worker finds the context tripped at its first index; only one
  // of them may record a check, so cancel_checks does not depend on the
  // thread count.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ExecutionContext ctx;
    ctx.RequestCancel();
    const Status trip = ctx.CheckPoint("latch");
    ASSERT_FALSE(trip.ok());
    const size_t checks_before = ctx.cancel_checks();
    Status s = ParallelFor(
        64, threads, [](size_t, size_t) { return Status::OK(); }, &ctx);
    EXPECT_EQ(s.ToString(), trip.ToString()) << "threads=" << threads;
    EXPECT_EQ(ctx.cancel_checks(), checks_before + 1)
        << "threads=" << threads;
  }
}

TEST(ParallelForGovernorTest, ATripMidFanOutStopsLaterIndexes) {
  // Index 5 trips the context while it runs, as a shard task's ShouldStop
  // does when the deadline passes: the fan-out must report the trip (so
  // the chase discards the round) and start no index once the trip is
  // latched. A later index taken before the trip holds its thread until
  // the trip, so each other thread runs at most one index past it.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ExecutionContext ctx;
    constexpr size_t kN = 256;
    constexpr size_t kTrip = 5;
    std::vector<std::atomic<int>> ran(kN);
    Status s = ParallelFor(
        kN, threads,
        [&](size_t i, size_t) {
          ++ran[i];
          if (i == kTrip) {
            ctx.RequestCancel();
            (void)ctx.CheckPoint("task");
          }
          while (i > kTrip && !ctx.Exhausted()) std::this_thread::yield();
          return Status::OK();
        },
        &ctx);
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
        << "threads=" << threads;
    EXPECT_EQ(ran[kTrip].load(), 1);
    size_t after = 0;
    for (size_t i = kTrip + 1; i < kN; ++i) after += ran[i].load();
    EXPECT_LT(after, threads) << "threads=" << threads;
    if (threads == 1) {
      for (size_t i = 0; i < kTrip; ++i) EXPECT_EQ(ran[i].load(), 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Chase under injected faults: clean ResourceExhausted, non-torn prefix.
// ---------------------------------------------------------------------------

struct FaultCase {
  const char* action;  ///< a faults::kGovernorCheck action
  ResourceKind kind;
};
const FaultCase kFaults[] = {
    {faults::kTripDeadline, ResourceKind::kDeadline},
    {faults::kTripOom, ResourceKind::kMemory},
    {faults::kTripCancel, ResourceKind::kCancelled},
};

TEST(GovernedChaseTest, InjectedFaultsCutAtLastCompleteRound) {
  for (const FaultCase& fc : kFaults) {
    Program p = MustParse(kInfiniteTc);
    FaultRegistry reg;
    ExecutionContext ctx;
    InterruptAfter(ctx, reg, fc.action, 3);
    ChaseOptions opts;
    opts.max_rounds = 64;
    opts.context = &ctx;
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted)
        << ResourceKindName(fc.kind);
    EXPECT_EQ(r.report.exhausted, fc.kind);
    EXPECT_FALSE(r.fixpoint_reached);
    // Non-torn: every stored fact belongs to a completed round.
    ASSERT_FALSE(r.facts_per_round.empty());
    EXPECT_EQ(r.structure.NumFacts(), r.facts_per_round.back());
    EXPECT_EQ(r.facts_per_round.size(), r.rounds_run + 1);
    EXPECT_TRUE(r.report.partial_result);
    EXPECT_GT(r.report.cancel_checks, 0u);
  }
}

TEST(GovernedChaseTest, ImmediateCancelStopsBeforeRoundOne) {
  Program p = MustParse(kInfiniteTc);
  ExecutionContext ctx;
  ctx.RequestCancel();
  ChaseOptions opts;
  opts.context = &ctx;
  ChaseResult r = RunChase(p.theory, p.instance, opts);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.report.exhausted, ResourceKind::kCancelled);
  EXPECT_EQ(r.rounds_run, 0u);
}

TEST(GovernedChaseTest, InterruptedPrefixIsByteIdenticalToUnbudgetedRun) {
  // Run governed with an injected trip, then re-run an *ungoverned* chase
  // (fresh parse, fresh signature → same deterministic null names) bounded
  // to the interrupted run's completed rounds: the structures must print
  // byte-identically.
  Program governed_p = MustParse(kInfiniteTc);
  FaultRegistry reg;
  ExecutionContext ctx;
  InterruptAfter(ctx, reg, faults::kTripDeadline, 5);
  ChaseOptions gopts;
  gopts.max_rounds = 64;
  gopts.context = &ctx;
  ChaseResult interrupted = RunChase(governed_p.theory, governed_p.instance,
                                     gopts);
  ASSERT_EQ(interrupted.status.code(), StatusCode::kResourceExhausted);
  ASSERT_GT(interrupted.rounds_run, 0u);

  Program plain_p = MustParse(kInfiniteTc);
  ChaseOptions popts;
  popts.max_rounds = interrupted.rounds_run;
  ChaseResult baseline = RunChase(plain_p.theory, plain_p.instance, popts);
  EXPECT_EQ(baseline.rounds_run, interrupted.rounds_run);
  EXPECT_EQ(baseline.structure.NumFacts(), interrupted.structure.NumFacts());
  EXPECT_EQ(baseline.structure.ToString(), interrupted.structure.ToString());
  EXPECT_EQ(baseline.facts_per_round, interrupted.facts_per_round);
}

TEST(GovernedChaseTest, NaiveEngineHonorsTheSameContract) {
  for (const FaultCase& fc : kFaults) {
    Program p = MustParse(kInfiniteTc);
    FaultRegistry reg;
    ExecutionContext ctx;
    InterruptAfter(ctx, reg, fc.action, 3);
    ChaseOptions opts;
    opts.engine = ChaseEngine::kNaive;
    opts.max_rounds = 64;
    opts.context = &ctx;
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(r.report.exhausted, fc.kind);
    ASSERT_FALSE(r.facts_per_round.empty());
    EXPECT_EQ(r.structure.NumFacts(), r.facts_per_round.back());
  }
}

TEST(GovernedChaseTest, MemoryBudgetTripsOnAccountedFacts) {
  Program p = MustParse(kInfiniteTc);
  ExecutionContext ctx;
  ctx.SetMemoryLimitBytes(16 * 1024);
  ChaseOptions opts;
  opts.max_rounds = 10000;
  opts.max_facts = 10000000;
  opts.context = &ctx;
  ChaseResult r = RunChase(p.theory, p.instance, opts);
  ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.report.exhausted, ResourceKind::kMemory);
  EXPECT_GT(r.report.peak_bytes, 16u * 1024);
  EXPECT_EQ(r.report.limit_bytes, 16u * 1024);
  EXPECT_EQ(r.structure.NumFacts(), r.facts_per_round.back());
}

TEST(GovernedChaseTest, CountBudgetsReportThroughTheGovernor) {
  Program p = MustParse(kInfiniteTc);
  ExecutionContext ctx;
  ChaseOptions opts;
  opts.max_rounds = 3;
  opts.context = &ctx;
  ChaseResult r = RunChase(p.theory, p.instance, opts);
  ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.report.exhausted, ResourceKind::kRounds);
}

TEST(GovernedSaturateTest, InjectedFaultCutsClosureAtCompleteRound) {
  Program p = MustParse(R"(
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(a1, a2). e(a2, a3). e(a3, a4). e(a4, a5). e(a5, a6). e(a6, a7).
  )");
  FaultRegistry reg;
  ExecutionContext ctx;
  InterruptAfter(ctx, reg, faults::kTripCancel, 1);
  ChaseOptions opts;
  opts.datalog_only = true;
  opts.context = &ctx;
  ChaseResult r = RunChase(p.theory, p.instance, opts);
  ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.report.exhausted, ResourceKind::kCancelled);
  EXPECT_EQ(r.structure.NumFacts(), r.facts_per_round.back());
  // The closure prefix is still closed under "no torn rounds": re-running
  // saturation with the same round budget reproduces it.
  ChaseOptions replay;
  replay.datalog_only = true;
  replay.max_rounds = r.rounds_run;
  ChaseResult again = RunChase(p.theory, p.instance, replay);
  EXPECT_EQ(again.structure.NumFacts(), r.structure.NumFacts());
}

// ---------------------------------------------------------------------------
// Rewriter under injected faults: truncation at the last complete level.
// ---------------------------------------------------------------------------

TEST(GovernedRewriteTest, InjectedFaultsTruncateAtLastCompleteLevel) {
  for (const FaultCase& fc : kFaults) {
    Program p = MustParse(kDivergingRewrite);
    ASSERT_FALSE(p.queries.empty());
    FaultRegistry reg;
    ExecutionContext ctx;
    InterruptAfter(ctx, reg, fc.action, 3);
    RewriteOptions opts;
    opts.max_depth = 64;
    opts.max_queries = 100000;
    opts.context = &ctx;
    RewriteResult r = RewriteQuery(p.theory, p.queries[0], opts);
    ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted)
        << ResourceKindName(fc.kind);
    EXPECT_EQ(r.report.exhausted, fc.kind);
    // The partial union holds complete levels only, and always includes
    // the original query (level 0).
    EXPECT_GE(r.rewriting.size(), 1u);
    EXPECT_TRUE(r.report.partial_result);
  }
}

TEST(GovernedRewriteTest, CountBudgetsStayRunLocalUnknown) {
  // max_queries trips must stay Unknown and must NOT latch a shared
  // context: a sibling query in a fan-out would otherwise be cancelled.
  Program p = MustParse(kDivergingRewrite);
  ExecutionContext ctx;
  RewriteOptions opts;
  opts.max_queries = 5;
  opts.context = &ctx;
  RewriteResult r = RewriteQuery(p.theory, p.queries[0], opts);
  EXPECT_EQ(r.status.code(), StatusCode::kUnknown) << r.status.ToString();
  EXPECT_FALSE(ctx.Exhausted());
  EXPECT_TRUE(ctx.CheckPoint("sibling").ok());
}

// ---------------------------------------------------------------------------
// Type oracle under a tripped governor.
// ---------------------------------------------------------------------------

TEST(GovernedPtypeTest, TrippedContextMakesPartitionInconclusive) {
  Program p = MustParse(kInfiniteTc);
  ChaseOptions copts;
  copts.max_rounds = 4;
  ChaseResult chase = RunChase(p.theory, p.instance, copts);
  ASSERT_GT(chase.structure.NumFacts(), 0u);

  ExecutionContext ctx;
  ctx.RequestCancel();
  (void)ctx.CheckPoint("latch");
  Result<TypePartition> partition =
      ExactPtpPartition(chase.structure, 2, {}, 5000000, &ctx);
  ASSERT_FALSE(partition.ok());
  EXPECT_EQ(partition.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.report().exhausted, ResourceKind::kCancelled);
}

TEST(GovernedPtypeTest, OracleReportsGovernorTripAsBudgetExhausted) {
  Program p = MustParse(kInfiniteTc);
  ChaseOptions copts;
  copts.max_rounds = 4;
  ChaseResult chase = RunChase(p.theory, p.instance, copts);

  ExecutionContext ctx;
  ctx.RequestCancel();
  (void)ctx.CheckPoint("latch");
  TypeOracleOptions topts;
  topts.num_variables = 2;
  topts.context = &ctx;
  TypeOracle oracle(chase.structure, chase.structure, topts);
  std::vector<TermId> domain = chase.structure.Domain();
  ASSERT_GE(domain.size(), 2u);
  // Self-containment of an element must evaluate at least one pattern
  // (distinct named constants short-circuit without probing anything), so
  // it is guaranteed to hit the tripped ShouldStop and turn inconclusive.
  (void)oracle.TypeContained(domain[0], domain[0]);
  EXPECT_TRUE(oracle.budget_exhausted());
}

// ---------------------------------------------------------------------------
// PhaseScope: RAII phase bookkeeping.
// ---------------------------------------------------------------------------

TEST(PhaseScopeTest, ClosesOnEveryExitAndTracksOpenStack) {
  ExecutionContext ctx;
  {
    PhaseScope outer(&ctx, "outer");
    {
      PhaseScope inner(&ctx, "inner");
      inner.set_progress("halfway");
      ResourceReport mid = ctx.report();
      ASSERT_EQ(mid.open_phases.size(), 2u);
      EXPECT_EQ(mid.open_phases[0], "outer");  // outermost first
      EXPECT_EQ(mid.open_phases[1], "inner");
      EXPECT_TRUE(mid.phases.empty());
    }
    ResourceReport after_inner = ctx.report();
    ASSERT_EQ(after_inner.open_phases.size(), 1u);
    EXPECT_EQ(after_inner.open_phases[0], "outer");
    ASSERT_EQ(after_inner.phases.size(), 1u);
    EXPECT_EQ(after_inner.phases[0].phase, "inner");
    EXPECT_EQ(after_inner.phases[0].progress, "halfway");
  }
  ResourceReport done = ctx.report();
  EXPECT_TRUE(done.open_phases.empty());
  ASSERT_EQ(done.phases.size(), 2u);
  EXPECT_EQ(done.phases[1].phase, "outer");
  EXPECT_EQ(done.phases[1].progress, "done");  // default note
}

TEST(PhaseScopeTest, MidPhaseTripShowsOpenThenNotesAborted) {
  // A report taken while a tripped phase is still unwinding must list the
  // phase as open; once the scope closes the note says "aborted" — the
  // stale/missing-entry failure mode of the old NotePhase-at-end pattern.
  FaultRegistry reg;
  ExecutionContext ctx;
  InterruptAfter(ctx, reg, faults::kTripCancel, 0);
  {
    PhaseScope scope(&ctx, "doomed");
    EXPECT_FALSE(ctx.CheckPoint("test").ok());
    ResourceReport mid = ctx.report();
    ASSERT_EQ(mid.open_phases.size(), 1u);
    EXPECT_EQ(mid.open_phases[0], "doomed");
  }
  ResourceReport r = ctx.report();
  EXPECT_TRUE(r.open_phases.empty());
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_EQ(r.phases[0].phase, "doomed");
  EXPECT_EQ(r.phases[0].progress, "aborted");
}

TEST(PhaseScopeTest, NullContextIsSafe) {
  PhaseScope scope(nullptr, "untracked");  // must not crash
  scope.set_progress("ignored");
}

// ---------------------------------------------------------------------------
// Pipeline under injected faults and a real deadline.
// ---------------------------------------------------------------------------

TEST(GovernedPipelineTest, InjectedFaultsAbortWithPartialChasePrefix) {
  for (const FaultCase& fc : kFaults) {
    Program p = MustParse(kInfiniteTc);
    ASSERT_FALSE(p.queries.empty());
    FaultRegistry reg;
    ExecutionContext ctx;
    InterruptAfter(ctx, reg, fc.action, 4);
    PipelineOptions opts;
    opts.m_override = 2;  // skip the kappa rewriting: reach the chase phase
    opts.context = &ctx;
    FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance,
                                                      p.queries[0], opts);
    ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted)
        << ResourceKindName(fc.kind) << ": " << r.status.ToString();
    EXPECT_EQ(r.report.exhausted, fc.kind);
    EXPECT_FALSE(r.query_certainly_true);
    // The best partial result: the chase prefix computed before the trip.
    EXPECT_TRUE(r.report.partial_result);
    EXPECT_GT(r.partial_chase.NumFacts(), 0u);
  }
}

TEST(GovernedPipelineTest, FiftyMsDeadlineOnNonTerminatingChase) {
  // The acceptance scenario: a 50 ms deadline on a theory whose chase
  // diverges must return ResourceExhausted with a populated report and a
  // usable partial chase prefix — and must not hang. The constants scale
  // under sanitizers (see timescale.h) where every check is 2-20x slower.
  Program p = MustParse(kInfiniteTc);
  ExecutionContext ctx;
  ctx.SetDeadlineAfterMs(ScaledMs(50));
  PipelineOptions opts;
  opts.m_override = 2;
  opts.max_chase_depth = size_t{1} << 40;  // effectively unbounded rounds
  opts.max_chase_facts = size_t{1} << 40;  // effectively unbounded facts
  opts.context = &ctx;
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance,
                                                    p.queries[0], opts);
  ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted)
      << r.status.ToString();
  EXPECT_EQ(r.report.exhausted, ResourceKind::kDeadline);
  EXPECT_GT(r.report.cancel_checks, 0u);
  EXPECT_LE(r.report.deadline_slack_ms, 1.0 * TimeScale());
  EXPECT_TRUE(r.report.partial_result);
  EXPECT_GT(r.partial_chase.NumFacts(), 0u);
  EXPECT_FALSE(r.report.phases.empty());
}

TEST(GovernedPipelineTest, UngovernedRunsAreUnaffected) {
  // A terminating scenario without a context behaves exactly as before:
  // the single internal code path must not change results.
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
    ?- e(X, X).
  )");
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance,
                                                    p.queries[0]);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.report.exhausted, ResourceKind::kNone);
  EXPECT_FALSE(r.report.partial_result);
}

TEST(GovernedPipelineTest, EveryExitHandsBackTheBytesItCharged) {
  // One governed context serves run after run: each returns the accounted
  // bytes of every chase and saturation it drops, so used() ends where it
  // started, whether the run certifies (Example 7, three times), finds
  // the query certainly true, certifies a terminating chase directly or
  // ends Unknown once every saturation ran out of rounds.
  ExecutionContext ctx;
  auto run = [&ctx](const char* text, StatusCode want,
                    PipelineOptions opts = {}) {
    Program p = MustParse(text);
    ASSERT_FALSE(p.queries.empty());
    const size_t before = ctx.memory().used();
    opts.context = &ctx;
    FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance,
                                                      p.queries[0], opts);
    EXPECT_EQ(r.status.code(), want) << r.status.ToString();
    EXPECT_EQ(ctx.memory().used(), before) << text;
  };
  constexpr const char* kExample7 = R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(X, Y), e(X1, Y) -> r(X, X1).
    e(a, b).
    ?- e(X, X).
  )";
  for (int i = 0; i < 3; ++i) run(kExample7, StatusCode::kOk);
  run(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
    ?- e(X, Y).
  )", StatusCode::kFailedPrecondition);
  run(R"(
    e(X, Y) -> exists Z: r(Y, Z).
    e(a, b).
    ?- r(X, X).
  )", StatusCode::kOk);
  PipelineOptions one_round;
  one_round.max_saturation_rounds = 1;
  run(kExample7, StatusCode::kUnknown, one_round);
  EXPECT_GT(ctx.memory().peak(), 0u);
}

TEST(RunContextTest, ResolutionIsNearestAncestorWins) {
  // The serving layer hangs every request off one shared server root,
  // each request child carrying its own RunContext and fault registry.
  // Resolution must pick the nearest attachment up the parent chain —
  // siblings never clobber each other, and an unattached child falls
  // through to its ancestor's.
  obs::MetricsRegistry root_reg, child_reg;
  obs::Tracer root_tracer, child_tracer;
  FaultRegistry root_faults, child_faults;
  RunContext root_rc{&root_reg, &root_tracer};
  RunContext child_rc{&child_reg, &child_tracer};

  ExecutionContext root;
  root.SetRunContext(&root_rc);
  root.SetFaultRegistry(&root_faults);
  std::unique_ptr<ExecutionContext> with_own = root.CreateChild(0);
  with_own->SetRunContext(&child_rc);
  with_own->SetFaultRegistry(&child_faults);
  std::unique_ptr<ExecutionContext> plain = root.CreateChild(0);
  std::unique_ptr<ExecutionContext> grandchild = with_own->CreateChild(0);

  EXPECT_EQ(&root.metrics_registry(), &root_reg);
  EXPECT_EQ(&with_own->metrics_registry(), &child_reg);
  EXPECT_EQ(&with_own->tracer(), &child_tracer);
  EXPECT_EQ(with_own->fault_registry(), &child_faults);
  // A sibling without its own RunContext resolves the root's, unaffected
  // by the other child's attachment.
  EXPECT_EQ(&plain->metrics_registry(), &root_reg);
  EXPECT_EQ(&plain->tracer(), &root_tracer);
  EXPECT_EQ(plain->fault_registry(), &root_faults);
  // Depth-2: the nearest attachment is the parent's, not the root's.
  EXPECT_EQ(&grandchild->metrics_registry(), &child_reg);
  EXPECT_EQ(grandchild->fault_registry(), &child_faults);

  // Detaching one child must not disturb the others.
  with_own->SetRunContext(nullptr);
  EXPECT_EQ(&with_own->metrics_registry(), &root_reg);
  EXPECT_EQ(&plain->metrics_registry(), &root_reg);
}

TEST(RunContextTest, UnattachedContextFallsBackToGlobals) {
  ExecutionContext ctx;
  EXPECT_EQ(&ctx.metrics_registry(), &obs::MetricsRegistry::Global());
  EXPECT_EQ(&ctx.tracer(), &obs::Tracer::Global());
  EXPECT_EQ(ctx.fault_registry(), nullptr);
  // A RunContext with null members also resolves to the globals.
  RunContext empty;
  ctx.SetRunContext(&empty);
  EXPECT_EQ(&ctx.metrics_registry(), &obs::MetricsRegistry::Global());
  EXPECT_EQ(&ctx.tracer(), &obs::Tracer::Global());
}

}  // namespace
}  // namespace bddfc
