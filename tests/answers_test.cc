// Tests for datalog saturation (the chase's datalog_only mode), certain
// answers and program printing.

#include <gtest/gtest.h>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/answers.h"
#include "bddfc/parser/parser.h"
#include "bddfc/parser/printer.h"
#include "bddfc/workload/generators.h"

namespace bddfc {
namespace {

Program MustParse(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Lemma 5's saturation: the chase firing only the datalog rules.
ChaseResult Saturate(const Theory& theory, const Structure& instance) {
  ChaseOptions opts;
  opts.datalog_only = true;
  return RunChase(theory, instance, opts);
}

TEST(SeminaiveTest, TransitiveClosureMatchesNaiveChase) {
  Program p = MustParse(R"(
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(a, b). e(b, c). e(c, d). e(d, e1).
  )");
  ChaseResult sn = Saturate(p.theory, p.instance);
  ASSERT_TRUE(sn.status.ok()) << sn.status.ToString();
  ChaseOptions naive_opts;
  naive_opts.engine = ChaseEngine::kNaive;
  ChaseResult naive = RunChase(p.theory, p.instance, naive_opts);
  EXPECT_EQ(sn.structure.NumFacts(), naive.structure.NumFacts());
  EXPECT_TRUE(sn.structure.ContainsAllFactsOf(naive.structure));
  EXPECT_TRUE(naive.structure.ContainsAllFactsOf(sn.structure));
  // 4-path closure: 4+3+2+1 = 10 facts.
  EXPECT_EQ(sn.structure.NumFacts(), 10u);
}

TEST(SeminaiveTest, IgnoresExistentialRules) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(X, Y), e(Y, Z) -> t(X, Z).
    e(a, b). e(b, c).
  )");
  ChaseResult sn = Saturate(p.theory, p.instance);
  ASSERT_TRUE(sn.status.ok());
  // Only the datalog rule fires: t(a, c), nothing invented.
  EXPECT_EQ(sn.structure.NumFacts(), 3u);
  EXPECT_EQ(sn.nulls_created, 0u);
}

TEST(SeminaiveTest, MultiHeadAndZeroRounds) {
  Program p = MustParse(R"(
    e(X, Y) -> s(X), s(Y).
    e(a, b).
  )");
  ChaseResult sn = Saturate(p.theory, p.instance);
  EXPECT_EQ(sn.structure.NumFacts() - p.instance.NumFacts(), 2u);
  // Empty rule set: zero derivations, input preserved.
  Program q = MustParse("e(a, b).");
  ChaseResult none = Saturate(q.theory, q.instance);
  EXPECT_TRUE(none.fixpoint_reached);
  EXPECT_EQ(none.rounds_run, 0u);
  EXPECT_EQ(none.structure.NumFacts(), 1u);
}

TEST(SeminaiveTest, AgreesWithNaiveOnRandomTheories) {
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    auto sig = std::make_shared<Signature>();
    Theory t = RandomAcyclicBinaryTheory(sig, 4, 0, 5, seed);
    Structure d(sig);
    Rng rng(seed);
    PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
    PredId b1 = std::move(sig->FindPredicate("b1")).ValueOrDie();
    std::vector<TermId> consts;
    for (int i = 0; i < 4; ++i) {
      consts.push_back(sig->AddConstant('k' + std::to_string(i)));
    }
    for (int i = 0; i < 6; ++i) {
      d.AddFact(i % 2 ? b0 : b1,
                {consts[rng.Uniform(4)], consts[rng.Uniform(4)]});
    }
    ChaseResult sn = Saturate(t, d);
    ChaseOptions naive_opts;
    naive_opts.engine = ChaseEngine::kNaive;
    ChaseResult naive = RunChase(t, d, naive_opts);
    EXPECT_EQ(sn.structure.NumFacts(), naive.structure.NumFacts())
        << "seed " << seed;
  }
}

TEST(CertainAnswersTest, ChaseRouteFiltersNulls) {
  Program p = MustParse(R"(
    emp(X) -> exists Y: boss(X, Y).
    boss(X, Y) -> senior(Y).
    emp(ann). boss(bo, cy).
  )");
  const Signature& sig = p.theory.sig();
  // Q(x) = senior(x): cy is certain; ann's invented boss is a null and must
  // not be reported.
  ConjunctiveQuery q;
  q.answer_vars.push_back(MakeVar(0));
  PredId senior = std::move(sig.FindPredicate("senior")).ValueOrDie();
  q.atoms.push_back(Atom(senior, {MakeVar(0)}));
  CertainAnswersResult r = CertainAnswers(p.theory, p.instance, q);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  TermId cy = std::move(sig.FindConstant("cy")).ValueOrDie();
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0], std::vector<TermId>{cy});
}

TEST(CertainAnswersTest, RewritingRouteAgreesWithChase) {
  Program p = MustParse(R"(
    mgr(X) -> emp(X).
    emp(X) -> exists D: works_in(X, D).
    emp(ann). mgr(bo).
  )");
  const Signature& sig = p.theory.sig();
  ConjunctiveQuery q;
  q.answer_vars.push_back(MakeVar(0));
  PredId emp = std::move(sig.FindPredicate("emp")).ValueOrDie();
  q.atoms.push_back(Atom(emp, {MakeVar(0)}));
  CertainAnswersResult via_chase = CertainAnswers(p.theory, p.instance, q);
  CertainAnswersResult via_rw =
      CertainAnswersViaRewriting(p.theory, p.instance, q);
  ASSERT_TRUE(via_chase.complete);
  ASSERT_TRUE(via_rw.complete);
  EXPECT_EQ(via_chase.answers, via_rw.answers);
  EXPECT_EQ(via_chase.answers.size(), 2u);  // ann and bo
}

TEST(CertainAnswersTest, BinaryAnswerTuples) {
  Program p = MustParse(R"(
    boss(X, Y), boss(Y, Z) -> skip(X, Z).
    boss(a, b). boss(b, c). boss(c, d).
  )");
  const Signature& sig = p.theory.sig();
  ConjunctiveQuery q;
  q.answer_vars = {MakeVar(0), MakeVar(1)};
  PredId skip = std::move(sig.FindPredicate("skip")).ValueOrDie();
  q.atoms.push_back(Atom(skip, {MakeVar(0), MakeVar(1)}));
  CertainAnswersResult r = CertainAnswers(p.theory, p.instance, q);
  EXPECT_EQ(r.answers.size(), 2u);  // (a,c) and (b,d)
}

TEST(PrinterTest, ProgramRoundTripsThroughParser) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(X, Y), e(Y, Z) -> t(X, Z).
    e(a, b).
    ?- t(X, Y).
  )");
  std::string text = ToProgramText(p.theory, &p.instance, &p.queries);
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(reparsed.value().theory.size(), p.theory.size());
  EXPECT_EQ(reparsed.value().instance.NumFacts(), p.instance.NumFacts());
  EXPECT_EQ(reparsed.value().queries.size(), p.queries.size());
  // Second print is identical (stable output).
  Program& p2 = reparsed.value();
  EXPECT_EQ(ToProgramText(p2.theory, &p2.instance, &p2.queries), text);
}

TEST(PrinterTest, ExistentialClauseIsPrinted) {
  Program p = MustParse("u(X) -> exists Z1, Z2: t(X, Z1, Z2).");
  std::string text = RuleToProgramText(p.theory.rules()[0], p.theory.sig());
  EXPECT_NE(text.find("exists"), std::string::npos);
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().theory.rules()[0].ExistentialVariables().size(),
            2u);
}

TEST(PrinterTest, NullNamesReparseAsConstants) {
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  Structure s(sig);
  s.AddFact(e, {sig->AddNull(), sig->AddNull()});
  Theory t(sig);
  std::string text = ToProgramText(t, &s, nullptr);
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(reparsed.value().instance.NumFacts(), 1u);
}

}  // namespace
}  // namespace bddfc
