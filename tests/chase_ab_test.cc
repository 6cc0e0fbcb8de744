// A/B suite: the production chase engine must reproduce the independent
// kNaive reference (interpretive Matcher, per-binding hash sink, full
// re-enumeration) byte for byte — rows in append order with raw TermIds,
// null provenance, birth rounds, facts_per_round, both dedup counters and
// the status — on every workload generator family and every paper-example
// program, restricted and oblivious, including budget-cut runs. The
// production runs at 1, 2, 4 and 8 threads must additionally agree with
// each other on bindings_tried, which the reference (re-enumerating old
// bindings) does not share.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bddfc/chase/chase.h"
#include "bddfc/parser/parser.h"
#include "bddfc/testing/oracles.h"
#include "bddfc/workload/generators.h"
#include "bddfc/workload/paper_examples.h"

namespace bddfc {
namespace {

/// Runs kNaive and the production engine at 1/2/4/8 threads with
/// otherwise identical options and asserts byte identity on the shared
/// dump, plus one bindings_tried across the production runs, and that
/// every null's provenance names a head atom that contains it. The
/// signature is rolled back after every run, so each run invents its
/// nulls on the same raw TermIds.
void ExpectMatchesReference(const Theory& theory, const Structure& instance,
                            ChaseOptions options) {
  const Signature::Mark mark = instance.signature_ptr()->TakeMark();
  auto run = [&](const ChaseOptions& o, size_t* bindings) {
    std::string dump;
    {
      ChaseResult r = RunChase(theory, instance, o);
      dump = ExactChaseDump(r);
      if (bindings != nullptr) *bindings = r.stats.match.bindings_tried;
      for (const auto& [null_id, prov] : r.null_provenance) {
        const std::vector<TermId>& args = prov.head_atom.args;
        EXPECT_NE(std::find(args.begin(), args.end(), null_id), args.end())
            << "null " << null_id << " is not in its provenance head atom";
      }
    }
    instance.signature_ptr()->RollbackTo(mark);
    return dump;
  };
  options.engine = ChaseEngine::kNaive;
  const std::string ref = run(options, nullptr);
  options.engine = ChaseEngine::kParallel;
  size_t t1_bindings = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    options.threads = threads;
    size_t bindings = 0;
    EXPECT_EQ(run(options, &bindings), ref) << "threads=" << threads;
    if (threads == 1) t1_bindings = bindings;
    EXPECT_EQ(bindings, t1_bindings) << "threads=" << threads;
  }
}

ChaseOptions Depth(size_t rounds) {
  ChaseOptions o;
  o.max_rounds = rounds;
  return o;
}

Program MustParse(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

// ---------------------------------------------------------------------------
// Paper-example programs (workload/paper_examples.cc).
// ---------------------------------------------------------------------------

TEST(ChaseAbTest, Example1) {
  Program p = Example1();  // diverges: compare bounded prefixes
  ExpectMatchesReference(p.theory, p.instance, Depth(6));
}

TEST(ChaseAbTest, RemarkThreeTheory) {
  Program p = RemarkThreeTheory();
  ExpectMatchesReference(p.theory, p.instance, Depth(6));
}

TEST(ChaseAbTest, Example7) {
  Program p = Example7();
  ExpectMatchesReference(p.theory, p.instance, Depth(6));
}

TEST(ChaseAbTest, Example9) {
  Program p = Example9();  // binary tree growth
  ExpectMatchesReference(p.theory, p.instance, Depth(5));
}

TEST(ChaseAbTest, Section54) {
  Program p = Section54();
  ExpectMatchesReference(p.theory, p.instance, Depth(5));
}

TEST(ChaseAbTest, Section55) {
  Program p = Section55();
  ExpectMatchesReference(p.theory, p.instance, Depth(5));
}

TEST(ChaseAbTest, GuardedSample) {
  Program p = GuardedSample();
  ExpectMatchesReference(p.theory, p.instance, Depth(8));
}

TEST(ChaseAbTest, PaperExamplesOblivious) {
  for (Program p : {Example1(), Example7(), Example9(), Section55()}) {
    ChaseOptions o = Depth(4);
    o.oblivious = true;
    ExpectMatchesReference(p.theory, p.instance, o);
  }
}

TEST(ChaseAbTest, CyclicWitnessReuse) {
  // Witnesses pre-exist: the restricted chase must stop immediately under
  // both engines.
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b). e(b, a).
  )");
  ExpectMatchesReference(p.theory, p.instance, Depth(8));
}

TEST(ChaseAbTest, WitnessPlansOnEveryHeadShape) {
  // The production round checks a restricted TGD's head on a compiled
  // plan with the body's slots prebound; the reference asks the Matcher.
  // The heads cover a repeated existential, a constant, a repeated
  // frontier variable, two atoms sharing an existential, a predicate (q)
  // with no rows in round 1, and a head that lists the frontier out of
  // body order. The instance pre-seeds some witnesses, so round 1 has both
  // hits and misses; later rounds probe null frontiers.
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: r(Y, Z, Z).
    e(X, Y) -> exists Z: r(Y, c, Z).
    e(X, Y) -> exists Z: r(Y, Y, Z).
    e(X, Y) -> exists Z: s(Y, Z), s(Z, Y).
    r(X, Y, W) -> exists Z: q(X, Z).
    e(X, Y) -> exists Z: t(Y, X, Z).
    s(X, Y) -> e(X, Y).
    e(a, b). e(b, c). e(c, a). e(d, d).
    r(b, k, k). r(c, c, m). r(a, a, a).
    s(b, k). s(k, b). s(c, m). t(b, a, k).
  )");
  ExpectMatchesReference(p.theory, p.instance, Depth(4));

  // Round 1 by hand. Over e's Y in {a, b, c, d}, witnessed are Y = a, b
  // for the first rule, c for the second, a, c for the third, b for the
  // fourth and e(a, b) for the sixth; the fifth misses on every r row.
  // Each of the other 16 body matches invents one null.
  ChaseResult r = RunChase(p.theory, p.instance, Depth(1));
  EXPECT_EQ(r.nulls_created, 16u);
  EXPECT_EQ(r.stats.triggers_deduped, 0u);
}

TEST(ChaseAbTest, TwoRulesDemandOneTiedMultiAtomPattern) {
  // Both TGDs demand the same three-atom chain from Y, listed in different
  // atom orders under different existential names. Two of its atoms tie on
  // their local keys, so the canonical key must try both arrangements to
  // see one pattern; the third rule feeds the chains back as new demands.
  Program p = MustParse(R"(
    e(X, Y) -> exists U, V, W: r(Y, U), r(U, V), r(V, W).
    f(X, Y) -> exists A, B, C: r(B, C), r(Y, A), r(A, B).
    r(X, Y), r(Y, Z) -> e(X, Z).
    e(a, b). f(a, b). f(b, c). e(c, a).
  )");
  ExpectMatchesReference(p.theory, p.instance, Depth(5));
  ChaseOptions oblivious = Depth(4);
  oblivious.oblivious = true;
  ExpectMatchesReference(p.theory, p.instance, oblivious);

  // e(a, b) and f(a, b) demand one chain from b: one witness chain, and
  // rule 0's trigger is the one that fires.
  ChaseOptions one_round = Depth(1);
  ChaseResult r = RunChase(p.theory, p.instance, one_round);
  EXPECT_EQ(r.stats.triggers_deduped, 1u);
  EXPECT_EQ(r.nulls_created, 9u);
  size_t from_rule_1 = 0;
  for (const auto& [null_id, prov] : r.null_provenance) {
    from_rule_1 += prov.rule_index == 1;
  }
  EXPECT_EQ(from_rule_1, 3u);  // f(b, c) alone demands a chain from c
}

TEST(ChaseAbTest, WideTiedHeadFinishes) {
  // 68 head atoms share one local key. Their arrangement count must stop
  // at the 5,040 cap: 68! wraps to 0 in 64 bits, which would pass the cap
  // and send the key search through about 68! arrangements.
  std::string text = "a(X) -> ";
  for (int i = 0; i < 68; ++i) {
    text += (i > 0 ? ", p(X, Z" : "p(X, Z") + std::to_string(i) + ")";
  }
  text += ".\na(c).\n";
  Program p = MustParse(text);
  ExpectMatchesReference(p.theory, p.instance, Depth(4));
}

// ---------------------------------------------------------------------------
// Generator families (workload/generators.cc), swept over seeds.
// ---------------------------------------------------------------------------

/// One generated chase input with the options its A/B test runs it under.
struct Workload {
  Theory theory;
  Structure instance;
  ChaseOptions options;
};

/// Transitive closure over a random 14-node, 30-edge graph.
Workload TcGraph(uint64_t seed) {
  auto sig = std::make_shared<Signature>();
  Structure d = RandomGraph(sig, /*nodes=*/14, /*edges=*/30, seed);
  PredId e0 = std::move(sig->FindPredicate("e0")).ValueOrDie();
  Theory t(sig);
  TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2);
  EXPECT_TRUE(t.AddRule(Rule({Atom(e0, {x, y}), Atom(e0, {y, z})},
                             {Atom(e0, {x, z})}))
                  .ok());
  return {std::move(t), std::move(d), Depth(64)};
}

Workload LinearTheory(uint64_t seed) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomLinearTheory(sig, /*preds=*/4, /*rules=*/6, seed);
  Structure d(sig);
  PredId p0 = std::move(sig->FindPredicate("p0")).ValueOrDie();
  PredId p1 = std::move(sig->FindPredicate("p1")).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b"),
         c = sig->AddConstant("c");
  d.AddFact(p0, {a, b});
  d.AddFact(p1, {b, c});
  return {std::move(t), std::move(d), Depth(6)};
}

Workload GuardedTheory(uint64_t seed) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomGuardedTheory(sig, /*max_arity=*/3, /*rules=*/5, seed);
  Structure d(sig);
  PredId g2 = std::move(sig->FindPredicate("g2_0")).ValueOrDie();
  PredId g3 = std::move(sig->FindPredicate("g3_0")).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b");
  d.AddFact(g2, {a, b});
  d.AddFact(g3, {b, a, a});
  return {std::move(t), std::move(d), Depth(5)};
}

/// Weakly acyclic: both engines must reach the same fixpoint.
Workload AcyclicBinaryTheory(uint64_t seed) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, /*preds=*/5, /*tgds=*/5,
                                       /*datalog_rules=*/4, seed);
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  Rng rng(seed * 31 + 5);
  std::vector<TermId> consts;
  for (int i = 0; i < 4; ++i) {
    consts.push_back(sig->AddConstant('k' + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    d.AddFact(b0, {consts[rng.Uniform(4)], consts[rng.Uniform(4)]});
  }
  return {std::move(t), std::move(d), Depth(128)};
}

Workload AcyclicBinaryTheoryDatalogOnly(uint64_t seed) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, /*preds=*/5, /*tgds=*/3,
                                       /*datalog_rules=*/6, seed);
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b");
  d.AddFact(b0, {a, b});
  d.AddFact(b0, {b, a});
  ChaseOptions o = Depth(128);
  o.datalog_only = true;
  return {std::move(t), std::move(d), o};
}

class ChaseAbGenerators : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseAbGenerators, RandomGraphTransitiveClosure) {
  Workload w = TcGraph(GetParam());
  ExpectMatchesReference(w.theory, w.instance, w.options);
}

TEST_P(ChaseAbGenerators, RandomLinearTheory) {
  Workload w = LinearTheory(GetParam());
  ExpectMatchesReference(w.theory, w.instance, w.options);
}

TEST_P(ChaseAbGenerators, RandomGuardedTheory) {
  Workload w = GuardedTheory(GetParam());
  ExpectMatchesReference(w.theory, w.instance, w.options);
}

TEST_P(ChaseAbGenerators, RandomAcyclicBinaryTheory) {
  Workload w = AcyclicBinaryTheory(GetParam());
  ExpectMatchesReference(w.theory, w.instance, w.options);
}

TEST_P(ChaseAbGenerators, RandomAcyclicBinaryTheoryDatalogOnly) {
  Workload w = AcyclicBinaryTheoryDatalogOnly(GetParam());
  ExpectMatchesReference(w.theory, w.instance, w.options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseAbGenerators,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Workloads that stress the sharded round: many rounds, heavy dedup, and
// budget-cut prefixes (the round barrier makes a cut prefix deterministic).
// ---------------------------------------------------------------------------

TEST(ChaseParallelIdentity, PaperExamples) {
  for (const auto& [p, depth] :
       {std::pair{Example1(), 6}, std::pair{Example9(), 5},
        std::pair{GuardedSample(), 8}, std::pair{Section54(), 5}}) {
    ExpectMatchesReference(p.theory, p.instance, Depth(depth));
  }
}

TEST(ChaseParallelIdentity, ObliviousMode) {
  ChaseOptions o = Depth(4);
  o.oblivious = true;
  for (Program p : {Example7(), Example1()}) {
    ExpectMatchesReference(p.theory, p.instance, o);
  }
}

TEST(ChaseParallelIdentity, DatalogTransitiveClosure) {
  // Many rounds and heavy dedup on one relation.
  std::string text = "e(X, Y), e(Y, Z) -> e(X, Z).\n";
  for (int i = 0; i < 24; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
            ").\n";
  }
  Program p = MustParse(text);
  ExpectMatchesReference(p.theory, p.instance, Depth(64));
}

TEST(ChaseParallelIdentity, GeneratorWorkloads) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    for (Workload w : {TcGraph(seed), GuardedTheory(seed)}) {
      ExpectMatchesReference(w.theory, w.instance, w.options);
    }
  }
}

TEST(ChaseParallelIdentity, DivergentRunCutByRoundBudget) {
  // A budget-cut (non-fixpoint) run must be byte-identical too.
  Program ex1 = Example1();
  ExpectMatchesReference(ex1.theory, ex1.instance, Depth(8));
  ChaseOptions facts = Depth(64);
  facts.max_facts = 100;
  Program ex9 = Example9();
  ExpectMatchesReference(ex9.theory, ex9.instance, facts);
}

// ---------------------------------------------------------------------------
// Full paranoia (VerifyRoundBuffer after every round) must flag nothing on
// a healthy build: each engine's run at kFull is byte-identical to its run
// with paranoia off.
// ---------------------------------------------------------------------------

void ExpectFullParanoiaIsSilent(const Theory& theory,
                                const Structure& instance,
                                ChaseOptions options) {
  const Signature::Mark mark = instance.signature_ptr()->TakeMark();
  auto run = [&](const ChaseOptions& o) {
    std::string dump;
    {
      ChaseResult r = RunChase(theory, instance, o);
      EXPECT_NE(r.status.code(), StatusCode::kInternal) << r.status.ToString();
      dump = ExactChaseDump(r);
    }
    instance.signature_ptr()->RollbackTo(mark);
    return dump;
  };
  for (const auto& [engine, threads] :
       {std::pair{ChaseEngine::kNaive, 1u},
        std::pair{ChaseEngine::kParallel, 1u},
        std::pair{ChaseEngine::kParallel, 4u}}) {
    options.engine = engine;
    options.threads = threads;
    options.paranoia = ParanoiaLevel::kOff;
    const std::string want = run(options);
    options.paranoia = ParanoiaLevel::kFull;
    EXPECT_EQ(run(options), want) << "threads=" << threads;
  }
}

TEST(ChaseFullParanoia, PaperExamples) {
  for (const auto& [p, depth] :
       {std::pair{Example1(), 6}, std::pair{RemarkThreeTheory(), 6},
        std::pair{Example7(), 6}, std::pair{Example9(), 5},
        std::pair{Section54(), 5}, std::pair{Section55(), 5},
        std::pair{GuardedSample(), 8}}) {
    ExpectFullParanoiaIsSilent(p.theory, p.instance, Depth(depth));
  }
}

TEST(ChaseFullParanoia, GeneratorWorkloads) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (Workload w :
         {TcGraph(seed), LinearTheory(seed), GuardedTheory(seed),
          AcyclicBinaryTheory(seed), AcyclicBinaryTheoryDatalogOnly(seed)}) {
      ExpectFullParanoiaIsSilent(w.theory, w.instance, w.options);
    }
  }
}

// ---------------------------------------------------------------------------
// Stats-merge regression (the sharded ChaseStats bugfix): per-round times
// must merge max across shards, so the reported round times can never
// exceed the measured wall clock of the whole run.
// ---------------------------------------------------------------------------

TEST(ChaseParallelStats, ReportedRoundTimesStayUnderMeasuredWallClock) {
  for (size_t threads : {1u, 4u, 8u}) {
    auto sig = std::make_shared<Signature>();
    Structure d = RandomGraph(sig, /*nodes=*/18, /*edges=*/48, /*seed=*/5);
    PredId e0 = std::move(sig->FindPredicate("e0")).ValueOrDie();
    Theory t(sig);
    TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2);
    ASSERT_TRUE(t.AddRule(Rule({Atom(e0, {x, y}), Atom(e0, {y, z})},
                               {Atom(e0, {x, z})}))
                    .ok());
    ChaseOptions o;
    o.max_rounds = 64;
    o.threads = threads;

    const auto wall_start = std::chrono::steady_clock::now();
    ChaseResult r = RunChase(t, d, o);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();

    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.fixpoint_reached);
    // One entry per executed round plus the final (empty) fixpoint round.
    EXPECT_EQ(r.stats.round_ms.size(), r.rounds_run + 1)
        << "threads=" << threads;
    // Rounds are disjoint sub-intervals of the run, so their sum is
    // bounded by the wall clock. Small slack for clock granularity.
    const double reported = std::accumulate(r.stats.round_ms.begin(),
                                            r.stats.round_ms.end(), 0.0);
    EXPECT_LE(reported, wall_ms + 0.5) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Vectorized-sink counter parity: the deterministic sink counters
// (candidates buffered, occurrences dropped by bulk containment) must be
// identical at every thread count — only sink_probes may vary (compaction
// boundaries move with sharding). The reference's hash sink leaves them
// all zero but agrees on the dedup counter.
// ---------------------------------------------------------------------------

TEST(ChaseSinkStats, SinkCountersAreEngineAndThreadInvariant) {
  auto sig = std::make_shared<Signature>();
  Structure d = RandomGraph(sig, /*nodes=*/16, /*edges=*/40, /*seed=*/11);
  PredId e0 = std::move(sig->FindPredicate("e0")).ValueOrDie();
  Theory t(sig);
  TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2);
  ASSERT_TRUE(t.AddRule(Rule({Atom(e0, {x, y}), Atom(e0, {y, z})},
                             {Atom(e0, {x, z})}))
                  .ok());
  ChaseOptions base;
  base.max_rounds = 64;

  ChaseResult ref = RunChase(t, d, base);  // production, one thread
  ASSERT_TRUE(ref.status.ok());
  EXPECT_GT(ref.stats.sink_candidates, 0u);
  // Conservation: every candidate is contained, deduped, or a new fact.
  EXPECT_EQ(ref.stats.sink_candidates - ref.stats.sink_contained -
                ref.stats.datalog_deduped,
            ref.structure.NumFacts() - d.NumFacts());

  for (size_t threads : {2u, 4u, 8u}) {
    ChaseOptions o = base;
    o.threads = threads;
    ChaseResult r = RunChase(t, d, o);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.stats.sink_candidates, ref.stats.sink_candidates)
        << "threads=" << threads;
    EXPECT_EQ(r.stats.sink_contained, ref.stats.sink_contained)
        << "threads=" << threads;
    EXPECT_EQ(r.stats.datalog_deduped, ref.stats.datalog_deduped)
        << "threads=" << threads;
  }

  ChaseOptions naive = base;
  naive.engine = ChaseEngine::kNaive;
  ChaseResult r = RunChase(t, d, naive);
  EXPECT_EQ(r.stats.sink_candidates, 0u);
  EXPECT_EQ(r.stats.sink_contained, 0u);
  EXPECT_EQ(r.stats.sink_probes, 0u);
  EXPECT_EQ(r.stats.datalog_deduped, ref.stats.datalog_deduped);
}

}  // namespace
}  // namespace bddfc
