// Tests for positive types (pebble games), quotients, colorings and
// conservativity — the machinery of §2 and §4, validated against the
// paper's Examples 2–6.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bddfc/chase/chase.h"
#include "bddfc/chase/skeleton.h"
#include "bddfc/eval/match.h"
#include "bddfc/reductions/reductions.h"
#include "bddfc/types/coloring.h"
#include "bddfc/types/conservativity.h"
#include "bddfc/types/ptype.h"
#include "bddfc/types/quotient.h"
#include "bddfc/workload/paper_examples.h"

namespace bddfc {
namespace {

TypePartition MustPartition(const Structure& c, int n) {
  auto r = ExactPtpPartition(c, n);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(PtypeTest, Section22ExamplePositiveTypesCoincide) {
  // §2.2: C = {R(a,b), R(a,c), E(a,c), E(d,e), R(d,e)}. The positive
  // 2-types of a and d coincide although their FO 2-types differ (positive
  // queries cannot express y ≠ z).
  auto sig = std::make_shared<Signature>();
  PredId r = std::move(sig->AddPredicate("r", 2)).ValueOrDie();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  TermId a = sig->AddNull(), b = sig->AddNull(), c = sig->AddNull();
  TermId d = sig->AddNull(), e5 = sig->AddNull();
  Structure s(sig);
  s.AddFact(r, {a, b});
  s.AddFact(r, {a, c});
  s.AddFact(e, {a, c});
  s.AddFact(e, {d, e5});
  s.AddFact(r, {d, e5});

  for (int n = 2; n <= 3; ++n) {
    TypeOracleOptions opts;
    opts.num_variables = n;
    TypeOracle oracle(s, s, opts);
    EXPECT_TRUE(oracle.TypeContained(a, d)) << "n=" << n;
    EXPECT_TRUE(oracle.TypeContained(d, a)) << "n=" << n;
    // But b (a sink with an R-predecessor only) differs from a.
    EXPECT_FALSE(oracle.TypeContained(a, b)) << "n=" << n;
  }
}

TEST(PtypeTest, ChainTypeClassesMatchExample3) {
  // On a finite E-chain, ≡_n distinguishes elements by their distance to
  // either endpoint up to n-1: 2(n-1) + 1 classes (chain long enough).
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 10);
  EXPECT_EQ(MustPartition(chain, 1).num_classes, 1);
  EXPECT_EQ(MustPartition(chain, 2).num_classes, 3);
  EXPECT_EQ(MustPartition(chain, 3).num_classes, 5);
}

TEST(PtypeTest, NamedConstantsAreSingletons) {
  // Remark 1: a constant's positive 1-type contains y = c.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  TermId a = sig->AddConstant("a");
  TermId n1 = sig->AddNull(), n2 = sig->AddNull();
  Structure s(sig);
  s.AddFact(e, {a, n1});
  s.AddFact(e, {a, n2});
  TypePartition p = MustPartition(s, 2);
  // a alone; n1 and n2 equivalent.
  EXPECT_EQ(p.num_classes, 2);
  EXPECT_NE(p.ClassOf(a), p.ClassOf(n1));
  EXPECT_EQ(p.ClassOf(n1), p.ClassOf(n2));
}

TEST(PtypeTest, ConstantsInAtomsConstrainTypes) {
  // e(c, x) acts like a unary predicate on x: nulls with and without the
  // c-edge have different 1-types... detected at n >= 1.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  TermId c = sig->AddConstant("c");
  TermId x = sig->AddNull(), y = sig->AddNull(), z = sig->AddNull();
  Structure s(sig);
  s.AddFact(e, {c, x});
  s.AddFact(e, {x, y});
  s.AddFact(e, {z, y});
  // x has an edge from the constant; z does not.
  TypePartition p = MustPartition(s, 1);
  EXPECT_NE(p.ClassOf(x), p.ClassOf(z));
}

TEST(PtypeTest, TypeContainmentIsDirectional) {
  // In a chain, an interior element's type strictly contains an endpoint's.
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure chain = MakeChain(sig, 6, &elems);
  TypeOracleOptions opts;
  opts.num_variables = 2;
  TypeOracle oracle(chain, chain, opts);
  // Everything true at the start (only "has successor") holds at interior
  // elements; the converse fails ("has predecessor").
  EXPECT_TRUE(oracle.TypeContained(elems[0], elems[3]));
  EXPECT_FALSE(oracle.TypeContained(elems[3], elems[0]));
}

TEST(PtypeTest, SignatureRestrictionChangesTypes) {
  // Over Θ = {e} two elements agree; over Θ = {e, u} they differ.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  PredId u = std::move(sig->AddPredicate("u", 1)).ValueOrDie();
  TermId a = sig->AddNull(), b = sig->AddNull();
  TermId c = sig->AddNull(), d = sig->AddNull();
  Structure s(sig);
  s.AddFact(e, {a, b});
  s.AddFact(e, {c, d});
  s.AddFact(u, {a});
  TypeOracleOptions over_e;
  over_e.num_variables = 2;
  over_e.predicates = {e};
  TypeOracle oracle_e(s, s, over_e);
  EXPECT_TRUE(oracle_e.TypeContained(a, c));
  TypeOracleOptions all;
  all.num_variables = 2;
  TypeOracle oracle_all(s, s, all);
  EXPECT_FALSE(oracle_all.TypeContained(a, c));
  EXPECT_TRUE(oracle_all.TypeContained(c, a));
}

TEST(PtypeTest, BallPartitionRefinesExactOnChains) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 8);
  for (int n = 2; n <= 3; ++n) {
    TypePartition exact = MustPartition(chain, n);
    TypePartition ball = BallPartition(chain, n);
    EXPECT_TRUE(IsRefinementOf(ball, exact)) << "n=" << n;
    // On chains the two coincide.
    EXPECT_EQ(ball.num_classes, exact.num_classes) << "n=" << n;
  }
}

TEST(PtypeTest, BallPartitionRefinesExactOnTrees) {
  auto sig = std::make_shared<Signature>();
  Structure tree = MakeBinaryTree(sig, 3);
  TypePartition exact = MustPartition(tree, 2);
  TypePartition ball = BallPartition(tree, 2);
  EXPECT_TRUE(IsRefinementOf(ball, exact));
}

TEST(QuotientTest, Lemma1PartitionsRefineDownward) {
  // q_n(d) = q_n(e) implies q_{n-1}(d) = q_{n-1}(e): ≡_n refines ≡_{n-1}.
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 9);
  TypePartition p3 = MustPartition(chain, 3);
  TypePartition p2 = MustPartition(chain, 2);
  TypePartition p1 = MustPartition(chain, 1);
  EXPECT_TRUE(IsRefinementOf(p3, p2));
  EXPECT_TRUE(IsRefinementOf(p2, p1));
  EXPECT_FALSE(IsRefinementOf(p1, p3));  // strictly coarser here
}

TEST(QuotientTest, ProjectionIsHomomorphism) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 10);
  Quotient q = BuildQuotient(chain, MustPartition(chain, 2));
  // Every fact of C projects to a fact of M (q_n is a homomorphism).
  bool all_mapped = true;
  chain.ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    std::vector<TermId> image;
    for (TermId t : row) image.push_back(q.Project(t));
    if (!q.structure.Contains(p, image)) all_mapped = false;
  });
  EXPECT_TRUE(all_mapped);
}

TEST(QuotientTest, ChainQuotientHasExample3Shape) {
  // The finite analogue of Example 3: M_2(chain) is start -> middle(loop)
  // -> end.
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure chain = MakeChain(sig, 10, &elems);
  Quotient q = BuildQuotient(chain, MustPartition(chain, 2));
  PredId e = std::move(sig->FindPredicate("e")).ValueOrDie();
  EXPECT_EQ(q.structure.Domain().size(), 3u);
  EXPECT_EQ(q.structure.Rows(e).size(), 3u);
  // Self-loop on the middle class — the new positive-type of Example 3.
  TermId mid = q.Project(elems[5]);
  EXPECT_TRUE(q.structure.Contains(e, {mid, mid}));
  ConjunctiveQuery loop;
  loop.atoms.push_back(Atom(e, {MakeVar(0), MakeVar(0)}));
  EXPECT_FALSE(Satisfies(chain, loop));
  EXPECT_TRUE(Satisfies(q.structure, loop));
}

// NaturalColoring's lightness ids must be exactly the brute-force
// reference numbering (first appearance over Domain()), and its hues
// 0 for constants, 1 + depth mod (m+2) for nulls.
void ExpectColoringMatchesReference(const Structure& c, int m) {
  auto col = NaturalColoring(c, m);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  const Signature& sig = col.value().colored.sig();
  const SkeletonAnalysis forest = AnalyzeSkeleton(c);
  const std::vector<int> expected = ReferenceLightnesses(c);
  ASSERT_EQ(expected.size(), c.Domain().size());
  int num_lightnesses = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const TermId e = c.Domain()[i];
    const PredicateInfo& color = sig.predicate(col.value().color_of.at(e));
    EXPECT_EQ(color.lightness, expected[i]) << "element " << e;
    const int hue = sig.IsNull(e) ? 1 + forest.depth.at(e) % (m + 2) : 0;
    EXPECT_EQ(color.hue, hue) << "element " << e;
    num_lightnesses = std::max(num_lightnesses, expected[i] + 1);
  }
  EXPECT_EQ(col.value().num_lightnesses, num_lightnesses);
  EXPECT_TRUE(IsNaturalColoring(col.value(), c, m));
}

TEST(ColoringTest, NaturalColoringExistsForForests) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 12);
  auto col = NaturalColoring(chain, 2);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  // Every element got exactly one color.
  EXPECT_EQ(col.value().color_of.size(), chain.Domain().size());
  EXPECT_TRUE(IsNaturalColoring(col.value(), chain, 2));
  // Hues cycle with period m+2 = 4 (plus reserve hue 0 for constants).
  EXPECT_LE(col.value().num_hues, 5);
  ExpectColoringMatchesReference(chain, 2);
}

TEST(ColoringTest, NaturalColoringRejectsNonForest) {
  // Example 6's obstruction: a (finite prefix of a) total order is not a
  // forest — in-degrees exceed 1.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  std::vector<TermId> v;
  for (int i = 0; i < 5; ++i) v.push_back(sig->AddNull());
  Structure order(sig);
  for (size_t i = 0; i < v.size(); ++i) {
    for (size_t j = i + 1; j < v.size(); ++j) order.AddFact(e, {v[i], v[j]});
  }
  auto col = NaturalColoring(order, 1);
  EXPECT_FALSE(col.ok());
  EXPECT_EQ(col.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ColoringTest, TreeColoringSeparatesAncestors) {
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure tree = MakeBinaryTree(sig, 4, &elems);
  auto col = NaturalColoring(tree, 2);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE(IsNaturalColoring(col.value(), tree, 2));
  ExpectColoringMatchesReference(tree, 2);
}

TEST(ColoringTest, LightnessesMatchReferenceWithConstantContext) {
  // A forest whose nulls carry atoms to named constants, next to
  // constant-only facts (the context every key shares), a ternary atom
  // over e, its parent and a constant, and one that reaches the
  // grandparent and so leaves the restriction.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  PredId r = std::move(sig->AddPredicate("r", 2)).ValueOrDie();
  PredId u = std::move(sig->AddPredicate("u", 1)).ValueOrDie();
  PredId t = std::move(sig->AddPredicate("t", 3)).ValueOrDie();
  PredId z = std::move(sig->AddPredicate("z", 0)).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b");
  std::vector<TermId> n;
  for (int i = 0; i < 9; ++i) n.push_back(sig->AddNull());
  Structure s(sig);
  s.AddFact(e, {a, b});
  s.AddFact(u, {a});
  s.AddFact(z, {});
  // Tree 1: a -> n0 -> n1 -> n2, n1 -> n3.
  s.AddFact(e, {a, n[0]});
  s.AddFact(e, {n[0], n[1]});
  s.AddFact(e, {n[1], n[2]});
  s.AddFact(e, {n[1], n[3]});
  s.AddFact(r, {n[1], b});
  s.AddFact(r, {n[2], a});
  s.AddFact(r, {n[3], a});
  s.AddFact(t, {n[1], n[2], a});
  s.AddFact(t, {n[0], n[1], n[2]});
  s.AddFact(u, {n[2]});
  // Tree 2 repeats tree 1's first levels under b, so lightnesses repeat.
  s.AddFact(e, {b, n[4]});
  s.AddFact(e, {n[4], n[5]});
  s.AddFact(e, {n[5], n[6]});
  s.AddFact(r, {n[5], b});
  s.AddFact(r, {n[6], a});
  // A root with no parent and an isolated null known only as an element.
  s.AddFact(r, {n[7], a});
  s.AddDomainElement(n[8]);
  ExpectColoringMatchesReference(s, 1);
  ExpectColoringMatchesReference(s, 3);
}

TEST(ColoringTest, LightnessesMatchReferenceWithSelfLoopAndParentEdges) {
  // x has a self-loop, two parallel edges from its parent p, and atoms
  // back to p. Binary null-to-null atoms back to p would close a cycle,
  // so the reverse direction is carried by ternary atoms; they mention x
  // and p (one of them x twice) and must each count once. Sibling y
  // repeats x's shape; w differs only in the direction of one atom.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  PredId r = std::move(sig->AddPredicate("r", 2)).ValueOrDie();
  PredId t = std::move(sig->AddPredicate("t", 3)).ValueOrDie();
  TermId c = sig->AddConstant("c");
  TermId p = sig->AddNull(), x = sig->AddNull();
  TermId y = sig->AddNull(), w = sig->AddNull();
  Structure s(sig);
  s.AddFact(e, {c, p});
  for (TermId k : {x, y, w}) {
    s.AddFact(e, {p, k});
    s.AddFact(r, {p, k});
    s.AddFact(e, {k, k});
  }
  for (TermId k : {x, y}) {
    s.AddFact(t, {k, p, k});
    s.AddFact(t, {p, k, c});
  }
  s.AddFact(t, {w, p, w});
  s.AddFact(t, {w, p, c});
  ExpectColoringMatchesReference(s, 1);
  auto col = NaturalColoring(s, 1);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.value().color_of.at(x), col.value().color_of.at(y));
  EXPECT_NE(col.value().color_of.at(x), col.value().color_of.at(w));
}

TEST(ColoringTest, LightnessesMatchReferenceOnExample7Skeletons) {
  // The skeletons the Theorem 2 pipeline colors on Example 7 over a path
  // of named constants, at the depths its doubling schedule visits.
  std::string text =
      "e(X, Y) -> exists Z: e(Y, Z).\n"
      "e(X, Y), e(X1, Y) -> r(X, X1).\n";
  for (int i = 0; i < 32; ++i) {
    text += "e(d" + std::to_string(i) + ", d" + std::to_string(i + 1) + ").\n";
  }
  Program p = std::move(ParseProgram(text)).ValueOrDie();
  ConjunctiveQuery q =
      std::move(ParseQuery("e(X, X)", p.theory.signature_ptr().get()))
          .ValueOrDie();
  auto hidden = HideQuery(p.theory, q);
  ASSERT_TRUE(hidden.ok());
  auto single = SingleHeadify(hidden.value().theory);
  ASSERT_TRUE(single.ok());
  auto normal = NormalizeSpade5(single.value());
  ASSERT_TRUE(normal.ok());
  for (size_t depth : {8, 16, 32}) {
    ChaseOptions opts;
    opts.max_rounds = depth;
    ChaseResult chase = RunChase(normal.value(), p.instance, opts);
    Skeleton skeleton = SkeletonOf(normal.value(), p.instance, chase);
    SCOPED_TRACE("depth " + std::to_string(depth));
    ExpectColoringMatchesReference(skeleton.structure, 2);
  }
}

TEST(ColoringTest, CheckerRejectsOneColorForDifferentReferenceTypes) {
  // Not vacuous: recoloring an element with the color of one whose
  // reference lightness differs (a chain's start vs. its interior, same
  // hue) breaks condition 2.
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure chain = MakeChain(sig, 12, &elems);
  auto col = NaturalColoring(chain, 2);
  ASSERT_TRUE(col.ok());
  Coloring bad = std::move(col).value();
  const std::vector<int> reference = ReferenceLightnesses(chain);
  const auto index = [&](TermId t) {
    return std::find(chain.Domain().begin(), chain.Domain().end(), t) -
           chain.Domain().begin();
  };
  // elems[0] and elems[4] share depth mod 4, so only the lightness differs.
  ASSERT_NE(reference[index(elems[0])], reference[index(elems[4])]);
  ASSERT_TRUE(IsNaturalColoring(bad, chain, 2));
  bad.color_of[elems[0]] = bad.color_of.at(elems[4]);
  EXPECT_FALSE(IsNaturalColoring(bad, chain, 2));
}

TEST(ConservativityTest, UncoloredChainQuotientIsNotConservative) {
  // Example 3: without colors, M_n(C) invents the self-loop query, so even
  // size-1 types are not preserved.
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 10);
  Quotient q = BuildQuotient(chain, MustPartition(chain, 2));
  std::vector<PredId> sigma = {
      std::move(sig->FindPredicate("e")).ValueOrDie()};
  ConservativityReport rep = CheckConservativeUpTo(chain, q, 1, sigma);
  ASSERT_TRUE(rep.status.ok()) << rep.status.ToString();
  EXPECT_FALSE(rep.conservative);
  EXPECT_NE(rep.failing_element, -1);
}

TEST(ConservativityTest, ColoredChainIsConservativePerExample5) {
  // Example 5: coloring with hue window m and n = m + 2 makes the chain
  // n-conservative up to size m.
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 12);
  ConservativityProbe probe = ProbeConservativity(chain, /*m=*/1, /*n=*/3);
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_TRUE(probe.conservative);
  // The quotient is a bounded-size structure even though chains grow.
  EXPECT_LT(probe.quotient_size, 13);
}

TEST(ConservativityTest, TooSmallNFailsPerExample4) {
  // Example 4 (end of §2.4): with n < m the element a_n is identified with
  // too-shallow elements and long-path queries appear. m = 3, n = 2: not
  // conservative up to size 3.
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 12);
  ConservativityProbe probe = ProbeConservativity(chain, /*m=*/3, /*n=*/2);
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_FALSE(probe.conservative);
}

TEST(ConservativityTest, BinaryTreeIsPtpConservative) {
  // Lemma 2 instance: trees are ptp-conservative; probe (m=1, n=3).
  auto sig = std::make_shared<Signature>();
  Structure tree = MakeBinaryTree(sig, 3);
  ConservativityProbe probe = ProbeConservativity(tree, 1, 3);
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_TRUE(probe.conservative);
}

TEST(ConservativityTest, Lemma12SuccessorTypesPropagate) {
  // Lemma 12: in a VTDAG, R(a, b), R(c, d) and b ≡_n d imply a ≡_{n-1} c.
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure chain = MakeChain(sig, 8, &elems);
  PredId e = std::move(sig->FindPredicate("e")).ValueOrDie();
  (void)e;
  for (int n = 2; n <= 3; ++n) {
    TypePartition pn = MustPartition(chain, n);
    TypePartition pn1 = MustPartition(chain, n - 1);
    for (size_t b = 1; b < elems.size(); ++b) {
      for (size_t d = 1; d < elems.size(); ++d) {
        if (pn.ClassOf(elems[b]) == pn.ClassOf(elems[d])) {
          EXPECT_EQ(pn1.ClassOf(elems[b - 1]), pn1.ClassOf(elems[d - 1]))
              << "n=" << n << " b=" << b << " d=" << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bddfc
