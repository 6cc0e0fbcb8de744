// Parameterized property suites: invariants checked across seeds and sizes
// (TEST_P / INSTANTIATE_TEST_SUITE_P sweeps).

#include <gtest/gtest.h>

#include "bddfc/chase/chase.h"
#include "bddfc/chase/skeleton.h"
#include "bddfc/classes/recognizers.h"
#include "bddfc/classes/vtdag.h"
#include "bddfc/eval/containment.h"
#include "bddfc/eval/match.h"
#include "bddfc/finitemodel/model_search.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/parser/parser.h"
#include "bddfc/reductions/reductions.h"
#include "bddfc/rewrite/rewriter.h"
#include "bddfc/types/coloring.h"
#include "bddfc/types/ptype.h"
#include "bddfc/types/quotient.h"
#include "bddfc/workload/generators.h"
#include "bddfc/workload/paper_examples.h"

namespace bddfc {
namespace {

// ---------------------------------------------------------------------------
// Chase invariants over random weakly-acyclic binary theories.
// ---------------------------------------------------------------------------

class ChaseProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseProperty, FixpointImpliesModel) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, 4, 4, 2, GetParam());
  ASSERT_TRUE(IsWeaklyAcyclic(t));  // generator guarantees it
  // Instance: a small random graph over named constants.
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  Rng rng(GetParam() * 7 + 1);
  std::vector<TermId> consts;
  for (int i = 0; i < 4; ++i) {
    consts.push_back(sig->AddConstant('k' + std::to_string(i)));
  }
  for (int i = 0; i < 5; ++i) {
    d.AddFact(b0, {consts[rng.Uniform(4)], consts[rng.Uniform(4)]});
  }
  ChaseOptions opts;
  opts.max_rounds = 128;
  ChaseResult r = RunChase(t, d, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_TRUE(r.fixpoint_reached);
  EXPECT_EQ(CheckModel(r.structure, t), std::nullopt);
  EXPECT_TRUE(r.structure.ContainsAllFactsOf(d));
}

TEST_P(ChaseProperty, FactsPerRoundMonotone) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, 4, 5, 3, GetParam());
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b");
  d.AddFact(b0, {a, b});
  ChaseResult r = RunChase(t, d);
  for (size_t i = 1; i < r.facts_per_round.size(); ++i) {
    EXPECT_GE(r.facts_per_round[i], r.facts_per_round[i - 1]);
  }
  // Null birth rounds are within the executed rounds.
  for (auto& [null_id, prov] : r.null_provenance) {
    (void)null_id;
    EXPECT_GE(prov.birth_round, 1);
    EXPECT_LE(static_cast<size_t>(prov.birth_round),
              std::max<size_t>(r.rounds_run, 1));
  }
}

TEST_P(ChaseProperty, RestrictedChaseNeverExceedsOblivious) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, 4, 4, 2, GetParam());
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b");
  d.AddFact(b0, {a, b});
  d.AddFact(b0, {b, a});
  ChaseOptions restricted;
  restricted.max_rounds = 32;
  ChaseOptions oblivious = restricted;
  oblivious.oblivious = true;
  ChaseResult r1 = RunChase(t, d, restricted);
  ChaseResult r2 = RunChase(t, d, oblivious);
  EXPECT_LE(r1.nulls_created, r2.nulls_created);
  // Both derive the same certain atoms over the original signature: the
  // restricted chase result maps homomorphically into the oblivious one
  // and vice versa.
  EXPECT_TRUE(HasHomomorphism(r1.structure, r2.structure));
  EXPECT_TRUE(HasHomomorphism(r2.structure, r1.structure));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Rewriting ≡ chase on terminating theories.
// ---------------------------------------------------------------------------

class RewriteEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriteEquivalence, CertainAnswersMatchRewriting) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, 4, 4, 0, GetParam());
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  Rng rng(GetParam() + 100);
  std::vector<TermId> consts;
  for (int i = 0; i < 3; ++i) {
    consts.push_back(sig->AddConstant('k' + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    d.AddFact(b0, {consts[rng.Uniform(3)], consts[rng.Uniform(3)]});
  }
  ChaseResult chase = RunChase(t, d);
  ASSERT_TRUE(chase.fixpoint_reached);

  // Probe every predicate with a fresh-variable atom query.
  for (PredId p = 0; p < sig->num_predicates(); ++p) {
    if (sig->arity(p) != 2) continue;
    ConjunctiveQuery q;
    q.atoms.push_back(Atom(p, {MakeVar(0), MakeVar(1)}));
    RewriteResult rw = RewriteQuery(t, q);
    if (!rw.status.ok()) continue;  // budget: skip, soundness-only
    EXPECT_EQ(Satisfies(chase.structure, q), SatisfiesUcq(d, rw.rewriting))
        << "pred " << sig->PredicateName(p) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteEquivalence,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

// ---------------------------------------------------------------------------
// Containment algebra on generated queries.
// ---------------------------------------------------------------------------

class ContainmentProperty : public ::testing::TestWithParam<int> {};

TEST_P(ContainmentProperty, ContainmentIsReflexiveAndTransitiveOnPaths) {
  Signature sig;
  PredId e = std::move(sig.AddPredicate("e", 2)).ValueOrDie();
  int k = GetParam();
  ConjunctiveQuery a = PathQuery(e, k);
  ConjunctiveQuery b = PathQuery(e, k + 1);
  ConjunctiveQuery c = PathQuery(e, k + 2);
  EXPECT_TRUE(IsContainedIn(a, a));
  EXPECT_TRUE(IsContainedIn(b, a));
  EXPECT_TRUE(IsContainedIn(c, b));
  EXPECT_TRUE(IsContainedIn(c, a));  // transitivity instance
}

TEST_P(ContainmentProperty, CoreIsIdempotentAndEquivalent) {
  Signature sig;
  PredId e = std::move(sig.AddPredicate("e", 2)).ValueOrDie();
  int k = GetParam();
  // A path with a redundant duplicated edge block.
  ConjunctiveQuery q = PathQuery(e, k);
  for (int i = 0; i < k; ++i) {
    q.atoms.push_back(Atom(e, {MakeVar(10 + i), MakeVar(i + 1)}));
  }
  ConjunctiveQuery core = CoreOf(q);
  EXPECT_TRUE(AreHomEquivalent(q, core));
  ConjunctiveQuery core2 = CoreOf(core);
  EXPECT_EQ(core.Normalized().NormalizedKey(sig),
            core2.Normalized().NormalizedKey(sig));
  // The duplicated block folds away entirely.
  EXPECT_EQ(core.atoms.size(), static_cast<size_t>(k));
}

TEST_P(ContainmentProperty, CycleQueriesFoldByDivisibility) {
  Signature sig;
  PredId e = std::move(sig.AddPredicate("e", 2)).ValueOrDie();
  int k = GetParam();
  // C_{2k} maps onto C_k (wrap twice): C_2k ⊇ ... containment holds one way.
  EXPECT_TRUE(IsContainedIn(CycleQuery(e, k), CycleQuery(e, 2 * k)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ContainmentProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Quotients: Lemma 1 across sizes and n.
// ---------------------------------------------------------------------------

struct QuotientCase {
  int chain;
  int n;
};

class QuotientProperty : public ::testing::TestWithParam<QuotientCase> {};

TEST_P(QuotientProperty, ProjectionIsHomomorphismAndLemma1Holds) {
  auto [len, n] = GetParam();
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, len);
  auto pn = ExactPtpPartition(chain, n);
  auto pn1 = ExactPtpPartition(chain, n - 1);
  ASSERT_TRUE(pn.ok() && pn1.ok());
  // Lemma 1: ≡_n refines ≡_{n-1}.
  EXPECT_TRUE(IsRefinementOf(pn.value(), pn1.value()));
  // The projection is a homomorphism; M_{n-1} is a homomorphic image of M_n.
  Quotient qn = BuildQuotient(chain, pn.value());
  Quotient qn1 = BuildQuotient(chain, pn1.value());
  EXPECT_TRUE(HasHomomorphism(qn.structure, qn1.structure));
  // And C maps onto both.
  EXPECT_TRUE(HasHomomorphism(chain, qn.structure));
}

TEST_P(QuotientProperty, BallRefinesExactAndAncestorIsCoarser) {
  auto [len, n] = GetParam();
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, len);
  auto exact = ExactPtpPartition(chain, n);
  ASSERT_TRUE(exact.ok());
  TypePartition ball = BallPartition(chain, n);
  EXPECT_TRUE(IsRefinementOf(ball, exact.value()));
  TypePartition anc = AncestorPathPartition(chain, n);
  // The ancestor partition ignores the downward direction, so the exact
  // partition refines it on chains.
  EXPECT_TRUE(IsRefinementOf(exact.value(), anc));
}

INSTANTIATE_TEST_SUITE_P(Cases, QuotientProperty,
                         ::testing::Values(QuotientCase{8, 2},
                                           QuotientCase{12, 2},
                                           QuotientCase{8, 3},
                                           QuotientCase{12, 3}),
                         [](const auto& info) {
                           return "chain" + std::to_string(info.param.chain) +
                                  "_n" + std::to_string(info.param.n);
                         });

// ---------------------------------------------------------------------------
// Skeletons of normalized theories are forests (Lemma 3) across seeds.
// ---------------------------------------------------------------------------

class SkeletonProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkeletonProperty, NormalizedSkeletonsAreForests) {
  auto sig = std::make_shared<Signature>();
  Theory raw = RandomAcyclicBinaryTheory(sig, 4, 5, 2, GetParam());
  auto norm = NormalizeSpade5(raw);
  ASSERT_TRUE(norm.ok()) << norm.status().ToString();
  ASSERT_TRUE(norm.value().IsSpade5Normal());
  Structure d(norm.value().signature_ptr());
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b");
  d.AddFact(b0, {a, b});
  ChaseOptions opts;
  opts.max_rounds = 16;
  ChaseResult chase = RunChase(norm.value(), d, opts);
  Skeleton s = SkeletonOf(norm.value(), d, chase);
  SkeletonAnalysis analysis = AnalyzeSkeleton(s.structure);
  EXPECT_TRUE(analysis.is_forest) << "seed " << GetParam();
  EXPECT_LE(analysis.max_degree, sig->num_predicates() + 1);  // Lemma 3(iv)
  // Colored skeletons admit natural colorings.
  EXPECT_TRUE(NaturalColoring(s.structure, 2).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkeletonProperty,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

// ---------------------------------------------------------------------------
// Pipeline vs brute force on tiny falsifiable queries.
// ---------------------------------------------------------------------------

class PipelineAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineAgreement, PipelineModelAlsoFoundByBruteForce) {
  auto parsed = ParseProgram(GetParam());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program& p = parsed.value();
  auto q = ParseQuery("e(X, X)", p.theory.signature_ptr().get());
  ASSERT_TRUE(q.ok());
  const ConjunctiveQuery& query = q.value();
  FiniteModelResult pipeline =
      ConstructFiniteCounterModel(p.theory, p.instance, query);
  ModelSearchResult brute = FindFiniteModel(p.theory, p.instance, &query);
  // On these inputs both approaches must find a counter-model.
  EXPECT_TRUE(pipeline.status.ok()) << pipeline.status.ToString();
  EXPECT_TRUE(brute.found);
}

INSTANTIATE_TEST_SUITE_P(
    Theories, PipelineAgreement,
    ::testing::Values(
        "e(X, Y) -> exists Z: e(Y, Z). e(a, b).",
        "e(X, Y) -> exists Z: e(Y, Z). e(X, Y) -> u(Y). e(a, b).",
        "u(X) -> exists Z: e(X, Z). e(X, Y) -> u(Y). u(a)."));

// ---------------------------------------------------------------------------
// VTDAG invariants across structure families.
// ---------------------------------------------------------------------------

class VtdagProperty : public ::testing::TestWithParam<int> {};

TEST_P(VtdagProperty, ChainsAndTreesAreVtdagsOfAnySize) {
  int size = GetParam();
  auto sig1 = std::make_shared<Signature>();
  EXPECT_TRUE(CheckVtdag(MakeChain(sig1, size)).is_vtdag);
  auto sig2 = std::make_shared<Signature>();
  EXPECT_TRUE(CheckVtdag(MakeBinaryTree(sig2, std::min(size, 6))).is_vtdag);
  auto sig3 = std::make_shared<Signature>();
  EXPECT_FALSE(CheckVtdag(MakeCycle(sig3, size + 2)).is_vtdag);
}

TEST_P(VtdagProperty, PkSetsAreMonotoneInK) {
  int size = GetParam();
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure chain = MakeChain(sig, size, &elems);
  TermId deep = elems.back();
  size_t prev = 0;
  for (int k = 0; k <= size + 1; ++k) {
    auto pk = PkSet(chain, deep, k);
    EXPECT_GE(pk.size(), prev);
    prev = pk.size();
  }
  EXPECT_EQ(prev, static_cast<size_t>(size + 1));  // saturates at the root
}

INSTANTIATE_TEST_SUITE_P(Sizes, VtdagProperty,
                         ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace bddfc
