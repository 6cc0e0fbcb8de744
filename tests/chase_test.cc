// Tests for the chase engine, model checking and skeleton extraction.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>

#include "bddfc/chase/chase.h"
#include "bddfc/chase/skeleton.h"
#include "bddfc/eval/match.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/parser/parser.h"
#include "bddfc/testing/oracles.h"
#include "bddfc/workload/generators.h"
#include "bddfc/workload/paper_examples.h"

namespace bddfc {
namespace {

Program MustParse(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Datalog-only saturation (Lemma 5's mode of the chase).
ChaseOptions Saturate() {
  ChaseOptions o;
  o.datalog_only = true;
  return o;
}

TEST(ChaseTest, TerminatingChaseReachesFixpoint) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: r(Y, Z).
    e(a, b).
  )");
  ChaseResult res = RunChase(p.theory, p.instance);
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  EXPECT_TRUE(res.fixpoint_reached);
  EXPECT_EQ(res.nulls_created, 1u);
  EXPECT_EQ(res.structure.NumFacts(), 2u);
  EXPECT_EQ(CheckModel(res.structure, p.theory), std::nullopt);
}

TEST(ChaseTest, NonObliviousChaseReusesWitnesses) {
  // r(a, b) already provides the witness: the TGD must not fire.
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: r(Y, Z).
    e(a, b).
    r(b, c).
  )");
  ChaseResult res = RunChase(p.theory, p.instance);
  EXPECT_TRUE(res.fixpoint_reached);
  EXPECT_EQ(res.nulls_created, 0u);
}

TEST(ChaseTest, ObliviousChaseAlwaysInvents) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: r(Y, Z).
    e(a, b).
    r(b, c).
  )");
  ChaseOptions opts;
  opts.oblivious = true;
  ChaseResult res = RunChase(p.theory, p.instance, opts);
  EXPECT_EQ(res.nulls_created, 1u);
}

TEST(ChaseTest, InfiniteChaseHitsRoundBudget) {
  Program p = Example1();  // infinite E-chain
  ChaseOptions opts;
  opts.max_rounds = 10;
  ChaseResult res = RunChase(p.theory, p.instance, opts);
  EXPECT_FALSE(res.fixpoint_reached);
  EXPECT_EQ(res.status.code(), StatusCode::kResourceExhausted);
  // One new chain element per round.
  EXPECT_EQ(res.nulls_created, 10u);
  EXPECT_EQ(res.rounds_run, 10u);
}

TEST(ChaseTest, FactBudgetStopsRun) {
  Program p = Example9();  // binary tree: 2^i growth
  ChaseOptions opts;
  opts.max_rounds = 64;
  opts.max_facts = 100;
  ChaseResult res = RunChase(p.theory, p.instance, opts);
  EXPECT_EQ(res.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(res.structure.NumFacts(), 100u);
  EXPECT_LT(res.structure.NumFacts(), 400u);  // stops shortly after
}

TEST(ChaseTest, DatalogSaturationTerminates) {
  Program p = MustParse(R"(
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(a, b).
    e(b, c).
    e(c, d).
  )");
  ChaseResult res = RunChase(p.theory, p.instance);
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(res.fixpoint_reached);
  // Transitive closure of a 3-edge path: 3+2+1 = 6 facts.
  EXPECT_EQ(res.structure.NumFacts(), 6u);
}

TEST(ChaseTest, ChaseLevelsAreRecorded) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  ChaseOptions opts;
  opts.max_rounds = 5;
  ChaseResult res = RunChase(p.theory, p.instance, opts);
  // facts_per_round: 1, 2, 3, 4, 5, 6.
  ASSERT_EQ(res.facts_per_round.size(), 6u);
  for (size_t i = 0; i < res.facts_per_round.size(); ++i) {
    EXPECT_EQ(res.facts_per_round[i], i + 1);
  }
  // Null provenance carries creating rounds 1..5.
  std::vector<int> rounds;
  for (auto& [null_id, prov] : res.null_provenance) {
    (void)null_id;
    rounds.push_back(prov.birth_round);
  }
  std::sort(rounds.begin(), rounds.end());
  EXPECT_EQ(rounds, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ChaseTest, NullProvenanceNamesTheHeadAtomHoldingTheNull) {
  // Y first occurs in r(X, Y) and Z only in s(Z): each null's provenance
  // must name the first head atom that contains it, not the first head
  // atom of its trigger.
  for (ChaseEngine engine : {ChaseEngine::kParallel, ChaseEngine::kNaive}) {
    Program p = MustParse(R"(
      a(X) -> exists Y, Z: r(X, Y), s(Z).
      a(c).
    )");
    ChaseOptions opts;
    opts.engine = engine;
    ChaseResult res = RunChase(p.theory, p.instance, opts);
    ASSERT_TRUE(res.fixpoint_reached);
    const Signature& sig = *p.theory.signature_ptr();
    std::map<std::string, std::string> head_of;  // null name -> head atom
    for (const auto& [null_id, prov] : res.null_provenance) {
      head_of[TermToString(sig, null_id)] = prov.head_atom.ToString(sig);
    }
    EXPECT_EQ(head_of, (std::map<std::string, std::string>{
                           {"_n0", "r(c, _n0)"}, {"_n1", "s(_n1)"}}));
  }
}

/// FactsByRound must partition the structure, and entry r must hold
/// exactly the facts whose derived birth round (FactRound) is r.
void ExpectFactsByRoundPartitions(const ChaseResult& res) {
  std::vector<std::vector<Atom>> by_round = res.FactsByRound();
  size_t total = 0;
  for (size_t r = 0; r < by_round.size(); ++r) {
    total += by_round[r].size();
    for (const Atom& a : by_round[r]) {
      const uint32_t row = res.structure.FindRow(a.pred, a.args);
      ASSERT_NE(row, Structure::kNoRow);
      EXPECT_EQ(res.FactRound({a.pred, row}), static_cast<int>(r));
    }
  }
  EXPECT_EQ(total, res.structure.NumFacts());
}

/// Nonlinear transitive closure over the path c0 -> c1 -> ... -> c{n-1}.
Program TcPath(int n) {
  std::string text = "e(X, Y), e(Y, Z) -> e(X, Z).\n";
  for (int i = 0; i + 1 < n; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
            ").\n";
  }
  return MustParse(text.c_str());
}

/// The distance law of TcPath: e(ci, cj) is born in round ceil(log2(j-i)),
/// since round r joins two facts of distance at most 2^(r-1) each.
int TcBirthRound(const Signature& sig, TupleRef row) {
  const int d = std::stoi(sig.ConstantName(row[1]).substr(1)) -
                std::stoi(sig.ConstantName(row[0]).substr(1));
  int r = 0;
  while ((1 << r) < d) ++r;
  return r;
}

/// Facts of TcPath(n) at a distance in [lo, hi]: n - d per distance d.
size_t TcPairs(size_t n, size_t lo, size_t hi) {
  size_t pairs = 0;
  for (size_t d = lo; d <= hi && d < n; ++d) pairs += n - d;
  return pairs;
}

/// Number of facts whose FactRound is `round`; expects every fact of the
/// TcPath run `res` to follow the distance law.
size_t ExpectDistanceLaw(const ChaseResult& res, PredId e, int round) {
  size_t at_round = 0;
  const RowsView rows = res.structure.Rows(e);
  for (uint32_t r = 0; r < rows.size(); ++r) {
    const int born = res.FactRound({e, r});
    EXPECT_EQ(born, TcBirthRound(res.structure.sig(), rows[r])) << "row " << r;
    if (born == round) ++at_round;
  }
  return at_round;
}

TEST(ChaseTest, FactsByRoundPartitionsAllFacts) {
  // Alternating e/u derivations: e facts land in even rounds, u facts in
  // odd ones, and the per-round groups must partition the final structure
  // (round 0 = the input instance).
  Program p = MustParse(R"(
    u(X) -> exists Z: e(X, Z).
    e(X, Y) -> u(Y).
    u(a).
  )");
  ChaseOptions opts;
  opts.max_rounds = 4;
  ChaseResult res = RunChase(p.theory, p.instance, opts);
  ExpectFactsByRoundPartitions(res);
  std::vector<std::vector<Atom>> by_round = res.FactsByRound();
  ASSERT_EQ(by_round.size(), 5u);

  PredId e = std::move(p.theory.sig().FindPredicate("e")).ValueOrDie();
  PredId u = std::move(p.theory.sig().FindPredicate("u")).ValueOrDie();
  ASSERT_EQ(by_round[0].size(), 1u);
  EXPECT_EQ(by_round[0][0].pred, u);
  for (size_t r = 1; r < by_round.size(); ++r) {
    ASSERT_EQ(by_round[r].size(), 1u) << "round " << r;
    EXPECT_EQ(by_round[r][0].pred, r % 2 == 1 ? e : u) << "round " << r;
  }

  // The transitive-closure runs of DerivedBirthRoundsFollowTheDistanceLaw:
  // to a fixpoint, cut by max_rounds, and torn mid-round.
  for (size_t max_rounds : {size_t{100}, size_t{3}}) {
    Program tc = TcPath(40);
    ChaseOptions o;
    o.max_rounds = max_rounds;
    ExpectFactsByRoundPartitions(RunChase(tc.theory, tc.instance, o));
  }
}

TEST(ChaseTest, DerivedBirthRoundsFollowTheDistanceLaw) {
  // Read straight from FactRound, not through ExactChaseDump (which now
  // renders the same derivation).
  {
    Program p = TcPath(40);
    PredId e = std::move(p.theory.sig().FindPredicate("e")).ValueOrDie();
    ChaseResult res = RunChase(p.theory, p.instance);
    ASSERT_TRUE(res.fixpoint_reached);
    EXPECT_EQ(res.rounds_run, 6u);  // ceil(log2(39))
    EXPECT_EQ(res.structure.NumFacts(), 39u * 40u / 2u);
    EXPECT_EQ(ExpectDistanceLaw(res, e, 6), TcPairs(40, 33, 39));
    EXPECT_EQ(res.round_rows.size(), res.rounds_run + 1);
  }
  {
    // Cut by max_rounds: only distances up to 2^3 exist, each in its round.
    Program p = TcPath(40);
    PredId e = std::move(p.theory.sig().FindPredicate("e")).ValueOrDie();
    ChaseOptions opts;
    opts.max_rounds = 3;
    ChaseResult res = RunChase(p.theory, p.instance, opts);
    ASSERT_FALSE(res.status.ok());
    ASSERT_EQ(res.rounds_run, 3u);
    EXPECT_EQ(ExpectDistanceLaw(res, e, 3), TcPairs(40, 5, 8));
    EXPECT_EQ(ExpectDistanceLaw(res, e, 4), 0u);
  }
  // kTornExhaust applies a tripped round's partial buffer: its rows lie
  // past the last round record and report rounds_run + 1 — still their
  // distance-law round. Scan trip points until one lands mid-round (the
  // reference engine probes the governor per binding, so most do).
  bool torn = false;
  for (size_t after = 1; after <= 64 && !torn; ++after) {
    Program p = TcPath(40);
    PredId e = std::move(p.theory.sig().FindPredicate("e")).ValueOrDie();
    FaultRegistry reg;
    reg.Arm({.site = faults::kChaseBug, .action = faults::kBugTornExhaust});
    reg.Arm({.site = faults::kGovernorCheck,
             .n = after,
             .action = faults::kTripCancel});
    ExecutionContext ctx;
    ctx.SetFaultRegistry(&reg);
    ChaseOptions opts;
    opts.context = &ctx;
    opts.engine = ChaseEngine::kNaive;
    ChaseResult res = RunChase(p.theory, p.instance, opts);
    if (res.structure.NumFacts() == res.facts_per_round.back()) continue;
    torn = true;
    const int torn_round = static_cast<int>(res.rounds_run) + 1;
    EXPECT_EQ(ExpectDistanceLaw(res, e, torn_round),
              res.structure.NumFacts() - res.facts_per_round.back())
        << "trip after " << after << " checks";
    ExpectFactsByRoundPartitions(res);
  }
  EXPECT_TRUE(torn) << "no trip point landed mid-round";
}

TEST(ChaseTest, WithinRoundTriggersAreDeduplicated) {
  // Two body matches demanding the same head pattern must create one
  // witness (the non-oblivious chase invariant behind Lemma 3(iv)).
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: r(Y, Z).
    e(a, b).
    e(c, b).
  )");
  ChaseResult res = RunChase(p.theory, p.instance);
  EXPECT_TRUE(res.fixpoint_reached);
  EXPECT_EQ(res.nulls_created, 1u);
}

TEST(ChaseTest, HeadPatternDedupIsAtomOrderInvariant) {
  // Two rules demand the same two-atom head pattern with the atoms listed
  // in opposite orders. The seed PatternKey renumbered existential
  // variables by first occurrence *before* sorting atoms, so the two
  // arrivals hashed apart and spawned duplicate witnesses; the canonical
  // key must merge them into one trigger (two nulls, not four).
  const char* orders[] = {R"(
    e(X, Y) -> exists U, V: p(Y, U), q(Y, V).
    f(X, Y) -> exists U, V: q(Y, V), p(Y, U).
    e(a, b).
    f(a, b).
  )",
                          R"(
    f(X, Y) -> exists U, V: q(Y, V), p(Y, U).
    e(X, Y) -> exists U, V: p(Y, U), q(Y, V).
    e(a, b).
    f(a, b).
  )"};
  for (const char* text : orders) {
    Program p = MustParse(text);
    ChaseResult res = RunChase(p.theory, p.instance);
    EXPECT_TRUE(res.fixpoint_reached);
    EXPECT_EQ(res.nulls_created, 2u);
    EXPECT_EQ(res.stats.triggers_deduped, 1u);
  }
}

TEST(ChaseTest, StatsRecordBindingsAndRoundTimes) {
  Program p = MustParse(R"(
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(a, b). e(b, c). e(c, d).
  )");
  ChaseResult res = RunChase(p.theory, p.instance);
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(res.fixpoint_reached);
  EXPECT_GT(res.stats.match.bindings_tried, 0u);
  // One timing entry per executed round plus the final fixpoint round.
  EXPECT_EQ(res.stats.round_ms.size(), res.rounds_run + 1);
}

TEST(ChaseTest, DeltaEngineEnumeratesFewerBindings) {
  // Transitive closure of an 8-path: the naive reference re-enumerates
  // every body binding each round, the production engine only
  // delta-anchored ones.
  std::string text = "e(X, Y), e(Y, Z) -> e(X, Z).\n";
  for (int i = 0; i < 8; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
            ").\n";
  }
  Program p = MustParse(text.c_str());
  ChaseOptions naive;
  naive.engine = ChaseEngine::kNaive;
  ChaseResult rn = RunChase(p.theory, p.instance, naive);
  ChaseResult rd = RunChase(p.theory, p.instance);
  EXPECT_EQ(rd.structure.NumFacts(), rn.structure.NumFacts());
  EXPECT_EQ(rd.facts_per_round, rn.facts_per_round);
  EXPECT_LT(rd.stats.match.bindings_tried, rn.stats.match.bindings_tried);
}

TEST(ChaseTest, DatalogAdditionsAreDedupedWithinARound) {
  // Two distinct bindings derive the same head fact in round 1; the
  // addition buffer must keep one copy and count the duplicate.
  Program p = MustParse(R"(
    e(X, Y) -> t(Y, Y).
    e(a, b). e(c, b).
  )");
  ChaseResult res = RunChase(p.theory, p.instance);
  EXPECT_TRUE(res.fixpoint_reached);
  EXPECT_EQ(res.stats.datalog_deduped, 1u);
  PredId t = std::move(res.structure.sig().FindPredicate("t")).ValueOrDie();
  EXPECT_EQ(res.structure.Rows(t).size(), 1u);
}

TEST(SeminaiveTest, DeltaBindingsAreNotDoubleCounted) {
  // Both body atoms of the single derivation lie in the round-1 delta; the
  // old/new split must enumerate the binding once, not once per anchor.
  Program p = MustParse(R"(
    e(X, Y), e(Y, Z) -> t(X, Z).
    e(a, b). e(b, c).
  )");
  ChaseResult r = RunChase(p.theory, p.instance, Saturate());
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.structure.NumFacts() - p.instance.NumFacts(), 1u);  // t(a, c)
  EXPECT_EQ(r.stats.match.bindings_tried, 1u);  // the seed engine counted 2
}

TEST(ChaseStatsTest, MergeSumsCounters) {
  // A round folds its shard tasks' stats, and the run its rounds', by
  // adding counters.
  ChaseStats a;
  a.match.bindings_tried = 10;
  a.match.postings_hits = 100;
  a.match.postings_misses = 7;
  a.triggers_deduped = 1;
  a.datalog_deduped = 3;

  ChaseStats b;
  b.match.bindings_tried = 5;
  b.match.postings_hits = 50;
  b.match.postings_misses = 2;
  b.triggers_deduped = 2;
  b.datalog_deduped = 4;

  a += b;
  EXPECT_EQ(a.match.bindings_tried, 15u);
  EXPECT_EQ(a.match.postings_hits, 150u);
  EXPECT_EQ(a.match.postings_misses, 9u);
  EXPECT_EQ(a.triggers_deduped, 3u);
  EXPECT_EQ(a.datalog_deduped, 7u);
}

TEST(ChaseTest, ParallelEngineDedupsTriggersAndHonorsFaultInjection) {
  // The sharded round's barrier merge must preserve the head-pattern
  // dedup invariant, and the kSkipTriggerDedup fault must still break it
  // (the fuzzer self-test depends on the fault reaching the sharded path).
  const char* text = R"(
    e(X, Y) -> exists U, V: p(Y, U), q(Y, V).
    f(X, Y) -> exists U, V: q(Y, V), p(Y, U).
    e(a, b).
    f(a, b).
  )";
  ChaseOptions opts;
  opts.engine = ChaseEngine::kParallel;
  opts.threads = 4;
  {
    Program p = MustParse(text);
    ChaseResult res = RunChase(p.theory, p.instance, opts);
    EXPECT_TRUE(res.fixpoint_reached);
    EXPECT_EQ(res.nulls_created, 2u);
    EXPECT_EQ(res.stats.triggers_deduped, 1u);
  }
  {
    Program p = MustParse(text);
    FaultRegistry reg;
    reg.Arm({.site = faults::kChaseBug, .action = faults::kBugChaseDedup});
    ExecutionContext ctx;
    ctx.SetFaultRegistry(&reg);
    ChaseOptions faulty = opts;
    faulty.context = &ctx;
    ChaseResult res = RunChase(p.theory, p.instance, faulty);
    EXPECT_EQ(res.nulls_created, 4u);  // one witness pair per trigger
  }
}

TEST(SeminaiveTest, ClosureMatchesNaiveChase) {
  std::string text = "e(X, Y), e(Y, Z) -> e(X, Z).\n";
  for (int i = 0; i < 6; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
            ").\n";
  }
  Program p = MustParse(text.c_str());
  ChaseResult sn = RunChase(p.theory, p.instance, Saturate());
  ChaseOptions naive = Saturate();
  naive.engine = ChaseEngine::kNaive;
  ChaseResult nr = RunChase(p.theory, p.instance, naive);
  ASSERT_TRUE(sn.status.ok());
  EXPECT_EQ(ExactChaseDump(sn), ExactChaseDump(nr));
}

TEST(SeminaiveTest, ShardedSaturationMatchesSerialByteForByte) {
  // The round merges its workers' sorted runs and applies in sorted
  // order — the closure must match the one-worker round row-for-row (same
  // append order, same counters) at every thread count.
  std::string text = "e(X, Y), e(Y, Z) -> e(X, Z).\ne(h, c0).\n";
  for (int i = 0; i < 10; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
            ").\n";
  }
  Program p = MustParse(text.c_str());
  ChaseResult serial = RunChase(p.theory, p.instance, Saturate());
  ASSERT_TRUE(serial.status.ok());

  for (size_t threads : {2u, 4u, 8u}) {
    ChaseOptions opts = Saturate();
    opts.threads = threads;
    ChaseResult sharded = RunChase(p.theory, p.instance, opts);
    ASSERT_TRUE(sharded.status.ok()) << "threads " << threads;
    EXPECT_EQ(ExactChaseDump(sharded), ExactChaseDump(serial)) << threads;
    EXPECT_EQ(sharded.stats.match.bindings_tried,
              serial.stats.match.bindings_tried)
        << threads;
  }
}

TEST(ChaseTest, Example7DerivesReflexiveRAtoms) {
  Program p = Example7();
  ChaseOptions opts;
  opts.max_rounds = 6;
  ChaseResult res = RunChase(p.theory, p.instance, opts);
  // Every element with an e-successor gets r(e, e)... more precisely every
  // x with e(x, y) pairs only with itself, so only r(x, x) atoms exist.
  const Signature& sig = res.structure.sig();
  PredId r = std::move(sig.FindPredicate("r")).ValueOrDie();
  for (const auto& row : res.structure.Rows(r)) {
    EXPECT_EQ(row[0], row[1]);
  }
  EXPECT_GT(res.structure.Rows(r).size(), 0u);
}

TEST(ChaseTest, CertainAnswerViaChase) {
  // Transitivity theory: certain answer e(a, d) holds.
  Program p = MustParse(R"(
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(a, b). e(b, c). e(c, d).
    ?- e(a, d).
  )");
  ChaseResult res = RunChase(p.theory, p.instance);
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(Satisfies(res.structure, p.queries[0]));
}

TEST(CheckModelTest, DetectsDatalogViolation) {
  Program p = MustParse(R"(
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(a, b). e(b, c).
  )");
  auto violation = CheckModel(p.instance, p.theory);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule_index, 0);
  EXPECT_EQ(violation->grounded_body.size(), 2u);
}

TEST(CheckModelTest, DetectsMissingWitness) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  EXPECT_TRUE(CheckModel(p.instance, p.theory).has_value());
  // A loop at b provides all witnesses.
  Program q = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b). e(b, b).
  )");
  EXPECT_EQ(CheckModel(q.instance, q.theory), std::nullopt);
}

TEST(CheckModelTest, RepeatedVariableInHeadNeedsTheDiagonal) {
  // p(X) -> q(X, X): only the diagonal fact q(a, a) satisfies the head;
  // q(a, b) does not, even though it mentions a.
  Program bad = MustParse(R"(
    p(X) -> q(X, X).
    p(a). q(a, b).
  )");
  auto violation = CheckModel(bad.instance, bad.theory);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule_index, 0);

  Program good = MustParse(R"(
    p(X) -> q(X, X).
    p(a). q(a, a).
  )");
  EXPECT_EQ(CheckModel(good.instance, good.theory), std::nullopt);
}

TEST(CheckModelTest, RepeatedVariableInExistentialHead) {
  // p(X) -> exists Z: r(X, Z, Z): the witness must repeat; r(a, b, c)
  // is not one, r(a, b, b) is.
  Program bad = MustParse(R"(
    p(X) -> r(X, Z, Z).
    p(a). r(a, b, c).
  )");
  EXPECT_TRUE(CheckModel(bad.instance, bad.theory).has_value());

  Program good = MustParse(R"(
    p(X) -> r(X, Z, Z).
    p(a). r(a, b, b).
  )");
  EXPECT_EQ(CheckModel(good.instance, good.theory), std::nullopt);
}

TEST(CheckModelTest, ConstantInHeadMustAppearLiterally) {
  // p(X) -> q(X, c): the head grounds to q(a, c) exactly; q(a, d) does
  // not satisfy it.
  Program bad = MustParse(R"(
    p(X) -> q(X, c).
    p(a). q(a, d).
  )");
  auto violation = CheckModel(bad.instance, bad.theory);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule_index, 0);

  Program good = MustParse(R"(
    p(X) -> q(X, c).
    p(a). q(a, c).
  )");
  EXPECT_EQ(CheckModel(good.instance, good.theory), std::nullopt);

  // And the chase itself produces the constant-carrying fact.
  Program chased = MustParse(R"(
    p(X) -> q(X, c).
    p(a).
  )");
  ChaseResult res = RunChase(chased.theory, chased.instance);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(CheckModel(res.structure, chased.theory), std::nullopt);
}

TEST(CheckModelTest, Example1QuotientIsNotAModel) {
  // The 3-cycle M' of Example 1 triggers the triangle rule.
  Program p = Example1();
  auto sig = p.theory.signature_ptr();
  PredId e = std::move(sig->FindPredicate("e")).ValueOrDie();
  TermId a = sig->AddConstant("a");
  TermId b = sig->AddConstant("b");
  TermId c = sig->AddConstant("c");
  Structure m_prime(sig);
  m_prime.AddFact(e, {a, b});
  m_prime.AddFact(e, {b, c});
  m_prime.AddFact(e, {c, a});
  auto violation = CheckModel(m_prime, p.theory);
  ASSERT_TRUE(violation.has_value());
  // The violated rule is the triangle rule (index 1).
  EXPECT_EQ(violation->rule_index, 1);
  // And chasing M' diverges (paper: Chase(M', T) is infinite): the u-chain.
  ChaseOptions opts;
  opts.max_rounds = 8;
  ChaseResult res = RunChase(p.theory, m_prime, opts);
  EXPECT_FALSE(res.fixpoint_reached);
}

/// The Matcher-only certifier that CheckModel's exact-tuple head probes
/// replaced, kept verbatim as the reference: per match it grounds a copy
/// of the head and asks Matcher::Exists, datalog heads included.
std::optional<RuleViolation> ReferenceCheckModel(const Structure& m,
                                                 const Theory& theory) {
  Matcher matcher(m);
  std::optional<RuleViolation> violation;
  for (size_t ri = 0; ri < theory.rules().size() && !violation; ++ri) {
    const Rule& rule = theory.rules()[ri];
    matcher.Enumerate(rule.body, {}, [&](const Binding& b) {
      // Check head satisfaction: grounded atoms for bound variables,
      // existential variables free for the matcher.
      std::vector<Atom> head = rule.head;
      for (Atom& a : head) {
        for (TermId& t : a.args) {
          if (IsVar(t)) {
            auto it = b.find(t);
            if (it != b.end()) t = it->second;
          }
        }
      }
      if (!matcher.Exists(head, {})) {
        RuleViolation v;
        v.rule_index = static_cast<int>(ri);
        for (const Atom& a : rule.body) {
          Atom g = a;
          for (TermId& t : g.args) {
            auto it = b.find(t);
            if (it != b.end()) t = it->second;
          }
          v.grounded_body.push_back(std::move(g));
        }
        violation = std::move(v);
        return false;
      }
      return true;
    });
  }
  return violation;
}

/// A verdict as text: the violation (rule index and grounded body) or
/// "model".
std::string Verdict(const std::optional<RuleViolation>& v,
                    const Signature& sig) {
  return v ? v->ToString(sig) : "model";
}

/// A random program over constants k0..k3: facts of the nullary g, a/1,
/// b/2, c/2 and d/3 first, so z/2, which only rule heads use, is interned
/// last and has no stored relation; then 1-4 rules whose heads mix body
/// variables, repeated variables, constants, several atoms, g, z and
/// existential variables, repeated ones included. Drawn from raw
/// mt19937_64 output, so the text is the same everywhere.
std::string RandomCertifierProgram(std::mt19937_64& rng) {
  struct Pred {
    const char* name;
    int arity;
  };
  const Pred kStored[] = {{"g", 0}, {"a", 1}, {"b", 2}, {"c", 2}, {"d", 3}};
  const Pred kZ = {"z", 2};
  const char* const kConsts[] = {"k0", "k1", "k2", "k3"};
  const char* const kVars[] = {"X", "Y", "W"};
  const char* const kExists[] = {"E", "F"};
  auto pick = [&rng](uint64_t n) { return static_cast<size_t>(rng() % n); };
  auto atom = [](const Pred& p, const std::vector<std::string>& args) {
    std::string s = p.name;
    for (size_t i = 0; i < args.size(); ++i) {
      s += (i == 0 ? "(" : ", ") + args[i];
    }
    return args.empty() ? s : s + ")";
  };
  std::string text;
  for (const Pred& p : kStored) {
    const size_t facts = p.arity == 0 ? pick(2) : pick(8);
    for (size_t i = 0; i < facts; ++i) {
      std::vector<std::string> args;
      for (int j = 0; j < p.arity; ++j) args.push_back(kConsts[pick(4)]);
      text += atom(p, args) + ".\n";
    }
  }
  const size_t rules = 1 + pick(4);
  for (size_t r = 0; r < rules; ++r) {
    std::set<std::string> body_vars;
    std::string body;
    const size_t body_atoms = 1 + pick(3);
    for (size_t i = 0; i < body_atoms; ++i) {
      const Pred& p = kStored[pick(5)];
      std::vector<std::string> args;
      for (int j = 0; j < p.arity; ++j) {
        args.push_back(pick(6) == 0 ? kConsts[pick(4)] : kVars[pick(3)]);
        if (args.back()[0] != 'k') body_vars.insert(args.back());
      }
      body += (i == 0 ? "" : ", ") + atom(p, args);
    }
    const bool tgd = pick(3) == 0;
    std::string head;
    const size_t head_atoms = 1 + pick(3);
    for (size_t i = 0; i < head_atoms; ++i) {
      const Pred& p = pick(6) == 0 ? kZ : kStored[pick(5)];
      std::vector<std::string> args;
      for (int j = 0; j < p.arity; ++j) {
        const size_t kind = pick(6);
        if (tgd && kind < 2) {
          args.push_back(kExists[pick(2)]);
        } else if (kind == 2 || body_vars.empty()) {
          args.push_back(kConsts[pick(4)]);
        } else {
          args.push_back(*std::next(body_vars.begin(),
                                    static_cast<long>(pick(body_vars.size()))));
        }
      }
      head += (i == 0 ? "" : ", ") + atom(p, args);
    }
    text += body + " -> " + head + ".\n";
  }
  return text;
}

TEST(CheckModelTest, AgreesWithTheMatcherOnlyReferenceOnRandomPrograms) {
  // Same first violation (rule index and grounded body) or the same
  // "model" verdict on random instances and on their chase prefixes, which
  // are closer to models. Both outcomes, violations of datalog and of
  // existential rules, and violated heads with the nullary g and with z
  // must occur, or the comparison would show little.
  std::mt19937_64 rng(20261019);
  size_t models = 0, datalog_violations = 0, tgd_violations = 0;
  size_t nullary_heads = 0, unstored_heads = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string text = RandomCertifierProgram(rng);
    Result<Program> parsed = ParseProgram(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    const Program& p = parsed.value();
    ChaseOptions opts;
    opts.max_rounds = 3;
    const ChaseResult chased = RunChase(p.theory, p.instance, opts);
    for (const Structure* m : {&p.instance, &chased.structure}) {
      const std::optional<RuleViolation> got = CheckModel(*m, p.theory);
      const std::optional<RuleViolation> want =
          ReferenceCheckModel(*m, p.theory);
      ASSERT_EQ(Verdict(got, p.theory.sig()), Verdict(want, p.theory.sig()))
          << text;
      if (!got) {
        ++models;
        continue;
      }
      const Rule& rule = p.theory.rules()[got->rule_index];
      ++(rule.IsDatalog() ? datalog_violations : tgd_violations);
      for (const Atom& a : rule.head) {
        const std::string& name = p.theory.sig().PredicateName(a.pred);
        if (name == "g") ++nullary_heads;
        if (name == "z") ++unstored_heads;
      }
    }
  }
  EXPECT_GE(models, 50u);
  EXPECT_GE(datalog_violations, 50u);
  EXPECT_GE(tgd_violations, 50u);
  EXPECT_GE(nullary_heads, 10u);
  EXPECT_GE(unstored_heads, 10u);
}

TEST(CheckModelTest, CertifiedExample7ModelMinusOneFactIsNoModel) {
  // The certifier still says no. From the certified counter-model of
  // Example 7 over a 16-edge path, delete every fifth fact of each
  // relation, one at a time: the verdict is the reference's, and it is a
  // violation for every r fact, each of which is the co-child rule's head
  // for a match of its body. An e fact can be redundant (its source keeps
  // another successor), but some e deletions must still break the TGD.
  std::string text =
      "e(X, Y) -> exists Z: e(Y, Z).\n"
      "e(X, Y), e(X1, Y) -> r(X, X1).\n";
  for (int i = 0; i < 16; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
            ").\n";
  }
  Program p = MustParse(text.c_str());
  Result<ConjunctiveQuery> q =
      ParseQuery("e(X, X)", p.theory.signature_ptr().get());
  ASSERT_TRUE(q.ok());
  const FiniteModelResult r =
      ConstructFiniteCounterModel(p.theory, p.instance, q.value());
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(CheckModel(r.model, p.theory), std::nullopt);
  const Signature& sig = p.theory.sig();
  const PredId r_pred = std::move(sig.FindPredicate("r")).ValueOrDie();
  size_t sampled_r = 0, e_violations = 0;
  for (PredId pred = 0; pred < r.model.NumStoredPredicates(); ++pred) {
    for (uint32_t gone = 0; gone < r.model.NumFacts(pred); gone += 5) {
      Structure m(r.model.signature_ptr());
      for (PredId kept = 0; kept < r.model.NumStoredPredicates(); ++kept) {
        const RowsView rows = r.model.Rows(kept);
        for (uint32_t row = 0; row < rows.size(); ++row) {
          if (kept != pred || row != gone) m.AddFact(kept, rows[row]);
        }
      }
      const std::optional<RuleViolation> got = CheckModel(m, p.theory);
      const std::string without =
          Atom(pred, r.model.Rows(pred)[gone]).ToString(sig);
      EXPECT_EQ(Verdict(got, sig),
                Verdict(ReferenceCheckModel(m, p.theory), sig))
          << "without " << without;
      if (pred == r_pred) {
        EXPECT_TRUE(got.has_value()) << "without " << without;
        ++sampled_r;
      } else if (got.has_value()) {
        ++e_violations;
      }
    }
  }
  EXPECT_GE(sampled_r, 50u);
  EXPECT_GE(e_violations, 1u);
}

TEST(SkeletonTest, SkeletonKeepsTgpAtomsAndDAtoms) {
  Program p = Example7();
  ChaseOptions opts;
  opts.max_rounds = 6;
  ChaseResult res = RunChase(p.theory, p.instance, opts);
  Skeleton s = SkeletonOf(p.theory, p.instance, res);
  const Signature& sig = s.structure.sig();
  PredId e = std::move(sig.FindPredicate("e")).ValueOrDie();
  PredId r = std::move(sig.FindPredicate("r")).ValueOrDie();
  EXPECT_TRUE(s.tgps.count(e));
  EXPECT_FALSE(s.tgps.count(r));
  // No r (flesh) atoms in the skeleton.
  EXPECT_EQ(s.structure.Rows(r).size(), 0u);
  // All chase elements present.
  EXPECT_EQ(s.structure.Domain().size(), res.structure.Domain().size());
  // e-atoms: the D atom plus one per new null.
  EXPECT_EQ(s.structure.Rows(e).size(), 1u + res.nulls_created);
}

TEST(SkeletonTest, Lemma3ForestProperties) {
  Program p = Example9();
  ChaseOptions opts;
  opts.max_rounds = 5;
  ChaseResult res = RunChase(p.theory, p.instance, opts);
  Skeleton s = SkeletonOf(p.theory, p.instance, res);
  SkeletonAnalysis a = AnalyzeSkeleton(s.structure);
  EXPECT_TRUE(a.acyclic);
  EXPECT_TRUE(a.indegree_at_most_one);
  EXPECT_TRUE(a.is_forest);
  // Lemma 3(iv): degree bounded by |Σ| + 1.
  EXPECT_LE(a.max_degree, s.structure.sig().num_predicates() + 1);
  // Depths are assigned to every null.
  size_t nulls = 0;
  for (TermId t : s.structure.Domain()) {
    if (s.structure.sig().IsNull(t)) ++nulls;
  }
  EXPECT_EQ(a.depth.size(), nulls);
}

TEST(SkeletonTest, RootsAreRoundOneNulls) {
  Program p = Example1();
  ChaseOptions opts;
  opts.max_rounds = 6;
  ChaseResult res = RunChase(p.theory, p.instance, opts);
  Skeleton s = SkeletonOf(p.theory, p.instance, res);
  SkeletonAnalysis a = AnalyzeSkeleton(s.structure);
  ASSERT_EQ(a.roots.size(), 1u);  // the single chain grows from b
  EXPECT_EQ(res.ElementBirthRound(a.roots[0]), 1);
}

}  // namespace
}  // namespace bddfc
