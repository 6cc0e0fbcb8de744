// End-to-end tests for the Theorem 2 pipeline and the brute-force model
// finder — the headline constructions of the paper.

#include <gtest/gtest.h>

#include <string>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/finitemodel/model_search.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/parser/parser.h"
#include "bddfc/workload/paper_examples.h"

namespace bddfc {
namespace {

Program MustParse(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

ConjunctiveQuery MustQuery(const char* text, Program* p) {
  auto q = ParseQuery(text, p->theory.signature_ptr().get());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

/// Certifies a pipeline result independently.
void ExpectCertifiedCounterModel(const FiniteModelResult& r,
                                 const Program& p,
                                 const ConjunctiveQuery& q) {
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.model.ContainsAllFactsOf(p.instance));
  EXPECT_EQ(CheckModel(r.model, p.theory), std::nullopt);
  EXPECT_FALSE(Satisfies(r.model, q));
  EXPECT_GT(r.model.Domain().size(), 0u);
}

TEST(PipelineTest, Example7SelfLoopQuery) {
  Program p = Example7();
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, Example7OffDiagonalRQuery) {
  // r holds only reflexively in the chase; in the finite model off-diagonal
  // r atoms appear (Example 8's phenomenon) — but r(x, x) ∧ e(x, x) stays
  // avoidable.
  Program p = Example7();
  ConjunctiveQuery q = MustQuery("r(X, Y), e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, SaturationIgnoresTheChaseFactBudget) {
  // Lemma 5's saturation is datalog over the quotient's finite domain, so
  // max_chase_facts bounds the chase phase only: Example 7 over a 16-edge
  // path certifies the same 70-element model under a 400-fact chase
  // budget, which its saturations outgrow, as under the default options.
  auto certify = [](size_t max_chase_facts) {
    std::string text = R"(
      e(X, Y) -> exists Z: e(Y, Z).
      e(X, Y), e(X1, Y) -> r(X, X1).
    )";
    for (int i = 0; i < 16; ++i) {
      text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
              ").\n";
    }
    Program p = MustParse(text.c_str());
    ConjunctiveQuery q = MustQuery("e(X, X)", &p);
    PipelineOptions opts;
    opts.max_chase_facts = max_chase_facts;
    FiniteModelResult r =
        ConstructFiniteCounterModel(p.theory, p.instance, q, opts);
    ExpectCertifiedCounterModel(r, p, q);
    return r;
  };
  const FiniteModelResult capped = certify(400);
  const FiniteModelResult uncapped = certify(PipelineOptions{}.max_chase_facts);
  EXPECT_EQ(capped.model.Domain().size(), 70u);
  EXPECT_EQ(uncapped.model.Domain().size(), 70u);
  EXPECT_EQ(capped.model.NumFacts(), uncapped.model.NumFacts());
  EXPECT_EQ(capped.chase_depth_used, uncapped.chase_depth_used);
  EXPECT_EQ(capped.n_used, uncapped.n_used);
}

TEST(PipelineTest, SuccessorTheoryAvoidsLongOddCycleQuery) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, CertainQueryIsReported) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  // ∃x, y e(x, y) is certainly true.
  ConjunctiveQuery q = MustQuery("e(X, Y)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.query_certainly_true);
}

TEST(PipelineTest, TerminatingChaseShortCircuits) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: r(Y, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("r(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
  // The chase terminates, so the model is the chase itself: 3 elements.
  EXPECT_EQ(r.model.Domain().size(), 3u);
  EXPECT_EQ(r.n_used, 0);
}

TEST(PipelineTest, Example1TriangleQueryAvoided) {
  // Example 1's theory: the chase is an infinite E-chain with no triangle,
  // so a finite model avoiding the triangle (and hence never triggering the
  // u-rules) must exist.
  Program p = Example1();
  ConjunctiveQuery q = MustQuery("u(X, Y)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
  // In particular the model contains no E-triangle (it would derive u).
  const Signature& sig = p.theory.sig();
  PredId e = std::move(sig.FindPredicate("e")).ValueOrDie();
  ConjunctiveQuery triangle;
  triangle.atoms.push_back(Atom(e, {MakeVar(0), MakeVar(1)}));
  triangle.atoms.push_back(Atom(e, {MakeVar(1), MakeVar(2)}));
  triangle.atoms.push_back(Atom(e, {MakeVar(2), MakeVar(0)}));
  EXPECT_FALSE(Satisfies(r.model, triangle));
}

TEST(PipelineTest, RemarkThreeTheoryLoopInstance) {
  // Remark 3: D = {e(a,a), e(b,c)} under successor+transitivity. The query
  // "some element reaches itself in two hops" is true (a loops), so pick a
  // falsifiable one instead: e(c, X) — c never gains an e-successor? It
  // does (successor rule). Use u-less theory with query e(X, X), which IS
  // certain here (e(a, a) ∈ D). Check certain-query reporting.
  Program p = RemarkThreeTheory();
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_TRUE(r.query_certainly_true);
}

TEST(PipelineTest, TransitivityWithFalsifiableQuery) {
  // Successor + transitivity from a loop-free instance: e(X, X) is false in
  // the chase; the quotient must avoid self-loops... but transitive closure
  // over a finite cycle derives them. The pipeline is expected to report
  // Unknown here at small budgets (Remark 3 shows the chase of this theory
  // is NOT ptp-conservative; the conjecture does not promise a model via
  // THIS construction because the theory is not BDD).
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  PipelineOptions opts;
  opts.max_chase_depth = 16;
  FiniteModelResult r =
      ConstructFiniteCounterModel(p.theory, p.instance, q, opts);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kUnknown);
  EXPECT_FALSE(r.query_certainly_true);
}

TEST(PipelineTest, Example9BranchingTheory) {
  Program p = Example9();
  ConjunctiveQuery q = MustQuery("f(X, X)", &p);
  PipelineOptions opts;
  opts.initial_chase_depth = 8;
  opts.max_chase_depth = 16;  // 2^16 facts would explode; tree is 2^d
  opts.max_chase_facts = 100000;
  FiniteModelResult r =
      ConstructFiniteCounterModel(p.theory, p.instance, q, opts);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, ConservativityDiagnosticsAreRecorded) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  PipelineOptions opts;
  opts.check_conservativity = true;
  FiniteModelResult r =
      ConstructFiniteCounterModel(p.theory, p.instance, q, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_FALSE(r.attempts.empty());
  // Diagnostics are recorded. Note the check runs against the chase
  // *prefix*: merging the frontier with interior elements grows the
  // frontier elements' prefix-types (their infinite-chase types are what
  // is preserved), so `conservative` is typically false here even for
  // certified attempts — certification, not this diagnostic, is the
  // soundness gate.
  EXPECT_TRUE(r.attempts.back().certified);
}

TEST(PipelineTest, TheoremThreeTernaryHeads) {
  // Theorem 3 scope: a non-binary theory whose TGD heads mention one body
  // variable. The pipeline binarizes the heads (§5.1) internally and still
  // certifies against the ORIGINAL ternary theory.
  Program p = MustParse(R"(
    u(X) -> exists Z1, Z2: t(X, Z1, Z2).
    t(X, Y, Z) -> u(Y).
    u(a).
  )");
  ConjunctiveQuery q = MustQuery("t(X, Y, Y)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, MultiHeadBinaryTgd) {
  Program p = MustParse(R"(
    u(X) -> e(X, Z), u(Z).
    u(a).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, TwoFrontierHeadRejectedWithGuidance) {
  Program p = MustParse("e(X, Y) -> exists Z: t(X, Y, Z).");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("5.2"), std::string::npos);
}

TEST(PipelineTest, NonBinaryTheoryRejected) {
  Program p = Section54();
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(ModelSearchTest, FindsExample1Cycle) {
  // Example 1: M' = 3-cycle is a homomorphic image but NOT a model; the
  // search must find a genuine model avoiding u — and no E-triangle.
  Program p = Example1();
  ConjunctiveQuery q = MustQuery("u(X, Y)", &p);
  ModelSearchOptions opts;
  opts.max_extra_elements = 2;  // a, b + 2 fresh
  ModelSearchResult r = FindFiniteModel(p.theory, p.instance, &q, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(CheckModel(*r.model, p.theory), std::nullopt);
  EXPECT_FALSE(Satisfies(*r.model, q));
}

TEST(ModelSearchTest, Section55EveryFiniteModelSatisfiesPhi) {
  // §5.5: the theory is not FC — Φ = e(x, y) ∧ r(y, y) is false in the
  // chase but true in EVERY finite model. Verified exhaustively for
  // domains up to |D| + 1 (two binary predicates over four elements
  // already exceed the enumeration budget).
  Program p = Section55();
  ASSERT_EQ(p.queries.size(), 1u);
  ModelSearchOptions opts;
  opts.max_extra_elements = 1;
  ModelSearchResult r =
      FindFiniteModel(p.theory, p.instance, &p.queries[0], opts);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_FALSE(r.found);
  // Sanity: dropping the avoidance constraint, finite models DO exist.
  ModelSearchResult any = FindFiniteModel(p.theory, p.instance, nullptr, opts);
  ASSERT_TRUE(any.status.ok());
  EXPECT_TRUE(any.found);
}

TEST(ModelSearchTest, Section55ChaseAvoidsPhi) {
  // The complementary half of the §5.5 argument: the chase never satisfies
  // Φ (checked on a deep prefix).
  Program p = Section55();
  ChaseOptions opts;
  opts.max_rounds = 12;
  ChaseResult chase = RunChase(p.theory, p.instance, opts);
  EXPECT_FALSE(Satisfies(chase.structure, p.queries[0]));
}

TEST(ModelSearchTest, AgreesWithPipelineOnTinyInput) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  ModelSearchResult search = FindFiniteModel(p.theory, p.instance, &q);
  ASSERT_TRUE(search.status.ok());
  EXPECT_TRUE(search.found);
  // Pipeline agrees that a counter-model exists.
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_TRUE(r.status.ok());
  // The brute-force model is no larger than the pipeline's.
  EXPECT_LE(search.model->Domain().size(), r.model.Domain().size());
}

}  // namespace
}  // namespace bddfc
