// Unit tests of the chaos substrate (base/faults.h): schedule semantics,
// fire bounds, hit/fire accounting, random-plan determinism and the
// governor's registry integration (CheckFault, the governor.check trip
// actions, RecordInvariantViolation).

#include "bddfc/base/faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bddfc/base/governor.h"

namespace bddfc {
namespace {

TEST(FaultRegistryTest, DisarmedIsInertAndCountsNothing) {
  FaultRegistry reg;
  EXPECT_FALSE(reg.enabled());
  FaultFire fire = reg.Hit(faults::kChaseRound);
  EXPECT_FALSE(fire.fired);
  // A disarmed registry skips even hit accounting (the zero-cost path).
  EXPECT_EQ(reg.HitCount(faults::kChaseRound), 0u);
  EXPECT_TRUE(reg.ArmedSites().empty());
}

TEST(FaultRegistryTest, AfterNFiresOnEveryHitPastN) {
  FaultRegistry reg;
  reg.Arm({.site = faults::kSinkMerge, .schedule = FaultSchedule::kAfterN,
           .n = 2, .action = ""});
  EXPECT_TRUE(reg.enabled());
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) fired.push_back(reg.Hit(faults::kSinkMerge).fired);
  // 1-based hits: 1, 2 pass; 3, 4, 5 fire (legacy "after N checks" shape).
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true}));
  EXPECT_EQ(reg.HitCount(faults::kSinkMerge), 5u);
  EXPECT_EQ(reg.FireCount(faults::kSinkMerge), 3u);
}

TEST(FaultRegistryTest, EveryNFiresOnMultiples) {
  FaultRegistry reg;
  reg.Arm({.site = faults::kPoolTask, .schedule = FaultSchedule::kEveryN,
           .n = 3, .action = ""});
  std::vector<bool> fired;
  for (int i = 0; i < 7; ++i) fired.push_back(reg.Hit(faults::kPoolTask).fired);
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false}));
}

TEST(FaultRegistryTest, MaxFiresBoundsTheBlastRadius) {
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound, .schedule = FaultSchedule::kAfterN,
           .n = 0, .max_fires = 2, .action = ""});
  int fires = 0;
  for (int i = 0; i < 10; ++i) fires += reg.Hit(faults::kChaseRound).fired;
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(reg.FireCount(faults::kChaseRound), 2u);
  EXPECT_EQ(reg.HitCount(faults::kChaseRound), 10u);
}

TEST(FaultRegistryTest, ProbabilityScheduleIsDeterministicAndSeeded) {
  auto run = [](uint64_t seed) {
    FaultRegistry reg;
    reg.Arm({.site = faults::kIndexRefresh,
             .schedule = FaultSchedule::kProbability, .p = 0.5, .seed = seed,
             .action = ""});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(reg.Hit(faults::kIndexRefresh).fired);
    }
    return fired;
  };
  // Same seed => same firing pattern; different seed => (almost surely)
  // different; p=0.5 over 64 draws fires at least once and spares at
  // least once.
  std::vector<bool> a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultRegistryTest, HitsAreCountedForUnarmedSitesWhenEnabled) {
  // Coverage accounting: once any fault is armed, every instrumented site
  // that executes records its hits — tests assert site coverage this way.
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound, .schedule = FaultSchedule::kAfterN,
           .n = 1000, .action = ""});
  (void)reg.Hit(faults::kSinkMerge);
  (void)reg.Hit(faults::kSinkMerge);
  EXPECT_EQ(reg.HitCount(faults::kSinkMerge), 2u);
  EXPECT_EQ(reg.FireCount(faults::kSinkMerge), 0u);
  EXPECT_EQ(reg.ArmedSites(), std::vector<std::string>{faults::kChaseRound});
}

TEST(FaultRegistryTest, DisarmClearsEverything) {
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound, .schedule = FaultSchedule::kAfterN,
           .action = ""});
  (void)reg.Hit(faults::kChaseRound);
  reg.Disarm();
  EXPECT_FALSE(reg.enabled());
  EXPECT_EQ(reg.HitCount(faults::kChaseRound), 0u);
  EXPECT_EQ(reg.FireCount(faults::kChaseRound), 0u);
  EXPECT_TRUE(reg.ArmedSites().empty());
}

TEST(FaultRegistryTest, HitIsThreadSafe) {
  FaultRegistry reg;
  reg.Arm({.site = faults::kPoolTask, .schedule = FaultSchedule::kEveryN,
           .n = 2, .max_fires = 100, .action = ""});
  constexpr int kThreads = 8, kHitsEach = 250;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < kHitsEach; ++i) (void)reg.Hit(faults::kPoolTask);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(reg.HitCount(faults::kPoolTask), uint64_t{kThreads * kHitsEach});
  // every-2 over 2000 hits capped at 100 fires.
  EXPECT_EQ(reg.FireCount(faults::kPoolTask), 100u);
}

TEST(FaultRegistryTest, SiteListsAreConsistent) {
  const std::vector<std::string>& all = AllFaultSites();
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(), all.size());
  // Recoverable = all minus the parser (no retry loop) and the behavioral
  // chase.bug site.
  std::set<std::string> recoverable(RecoverableFaultSites().begin(),
                                    RecoverableFaultSites().end());
  EXPECT_EQ(recoverable.size(), all.size() - 2);
  for (const std::string& s : recoverable) {
    EXPECT_NE(std::find(all.begin(), all.end(), s), all.end()) << s;
  }
  EXPECT_EQ(recoverable.count(faults::kParserParse), 0u);
  EXPECT_EQ(recoverable.count(faults::kChaseBug), 0u);
}

TEST(RandomFaultPlanTest, DeterministicBoundedAndRecoverable) {
  std::set<std::string> plans_seen;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    FaultPlan a = RandomFaultPlan(seed);
    FaultPlan b = RandomFaultPlan(seed);
    EXPECT_EQ(a.ToString(), b.ToString()) << "seed " << seed;
    ASSERT_FALSE(a.empty());
    ASSERT_LE(a.faults.size(), 3u);
    for (const FaultSpec& spec : a.faults) {
      // Always bounded fail-stop: that is what guarantees a supervised run
      // recovers (the retry budget covers 3 specs x 2 fires).
      EXPECT_TRUE(spec.action.empty()) << spec.ToString();
      EXPECT_GE(spec.max_fires, 1u);
      EXPECT_LE(spec.max_fires, 2u);
      EXPECT_NE(std::find(RecoverableFaultSites().begin(),
                          RecoverableFaultSites().end(), spec.site),
                RecoverableFaultSites().end())
          << spec.ToString();
      if (spec.schedule == FaultSchedule::kProbability) {
        EXPECT_GE(spec.p, 0.3);
        EXPECT_LE(spec.p, 0.9);
      }
    }
    plans_seen.insert(a.ToString());
  }
  // The stream actually varies across seeds.
  EXPECT_GT(plans_seen.size(), 100u);
}

TEST(RandomFaultPlanTest, SiteRestrictionIsHonored) {
  std::vector<std::string> only = {faults::kSinkMerge};
  for (uint64_t seed = 0; seed < 20; ++seed) {
    for (const FaultSpec& spec : RandomFaultPlan(seed, only).faults) {
      EXPECT_EQ(spec.site, faults::kSinkMerge);
    }
  }
}

TEST(ParanoiaLevelTest, NamesRoundTrip) {
  const std::pair<const char*, ParanoiaLevel> levels[] = {
      {"off", ParanoiaLevel::kOff},
      {"cheap", ParanoiaLevel::kCheap},
      {"full", ParanoiaLevel::kFull}};
  for (const auto& [name, level] : levels) {
    ParanoiaLevel parsed = ParanoiaLevel::kOff;
    EXPECT_TRUE(ParanoiaLevelFromName(name, &parsed)) << name;
    EXPECT_EQ(parsed, level);
  }
  ParanoiaLevel out = ParanoiaLevel::kFull;
  EXPECT_FALSE(ParanoiaLevelFromName("paranoid", &out));
  EXPECT_EQ(out, ParanoiaLevel::kFull);  // left alone on failure
}

TEST(GovernorFaultTest, CheckFaultTripsOnlyTheCheckingContext) {
  FaultRegistry reg;
  reg.Arm({.site = faults::kChaseRound, .schedule = FaultSchedule::kAfterN,
           .n = 0, .max_fires = 1, .action = ""});
  ExecutionContext parent;
  parent.SetFaultRegistry(&reg);
  std::unique_ptr<ExecutionContext> child = parent.CreateChild(0);
  Status st = child->CheckFault(faults::kChaseRound);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_TRUE(child->Exhausted());
  // The parent stays clean — the supervisor's isolation contract.
  EXPECT_FALSE(parent.Exhausted());
  EXPECT_TRUE(parent.CheckPoint("after child trip").ok());
  // A fresh child starts clean too (and the fault's budget is spent).
  std::unique_ptr<ExecutionContext> retry = parent.CreateChild(0);
  EXPECT_TRUE(retry->CheckFault(faults::kChaseRound).ok());
}

TEST(GovernorFaultTest, GovernorCheckActionsTripTheNamedResource) {
  // Each governor.check action fakes its resource's exhaustion after N
  // checks, naming the check where it fired.
  const struct {
    const char* action;
    ResourceKind kind;
  } cases[] = {{faults::kTripDeadline, ResourceKind::kDeadline},
               {faults::kTripOom, ResourceKind::kMemory},
               {faults::kTripCancel, ResourceKind::kCancelled}};
  for (const auto& c : cases) {
    FaultRegistry reg;
    reg.Arm({.site = faults::kGovernorCheck, .n = 2, .action = c.action});
    ExecutionContext ctx;
    ctx.SetFaultRegistry(&reg);
    EXPECT_TRUE(ctx.CheckPoint("one").ok()) << c.action;
    EXPECT_TRUE(ctx.CheckPoint("two").ok()) << c.action;
    Status st = ctx.CheckPoint("three");
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << c.action;
    EXPECT_NE(st.message().find("injected fault at three"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(ctx.report().exhausted, c.kind);
    EXPECT_EQ(GovernorCheckTrip(c.action), c.kind);
  }
  // Any other action is a fail-stop, like the empty one.
  EXPECT_EQ(GovernorCheckTrip("no-such-action"), ResourceKind::kFault);
}

TEST(GovernorFaultTest, EmptyActionAtGovernorCheckIsFailStop) {
  FaultRegistry reg;
  reg.Arm({.site = faults::kGovernorCheck, .schedule = FaultSchedule::kAfterN,
           .n = 0, .max_fires = 1, .action = ""});
  ExecutionContext ctx;
  ctx.SetFaultRegistry(&reg);
  Status st = ctx.CheckPoint("somewhere");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(ctx.report().exhausted, ResourceKind::kFault);
}

TEST(GovernorFaultTest, InvariantViolationIsNeverMasked) {
  FaultRegistry reg;
  reg.Arm({.site = faults::kGovernorCheck, .action = faults::kTripCancel});
  ExecutionContext ctx;
  ctx.SetFaultRegistry(&reg);
  // An earlier governed trip latches first...
  EXPECT_EQ(ctx.CheckPoint("warmup").code(), StatusCode::kResourceExhausted);
  // ...but a corruption found while unwinding still reports as kInternal
  // with its own detail: data corruption must outrank budget exhaustion.
  Status st = ctx.RecordInvariantViolation("paranoia: rows vanished");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("rows vanished"), std::string::npos);
}

}  // namespace
}  // namespace bddfc
