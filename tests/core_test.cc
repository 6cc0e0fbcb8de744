// Unit tests for the core data model: terms, signatures, atoms, structures,
// substitutions, queries, rules and theories.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "bddfc/core/query.h"
#include "bddfc/core/rule.h"
#include "bddfc/core/signature.h"
#include "bddfc/core/structure.h"
#include "bddfc/core/substitution.h"
#include "bddfc/core/theory.h"

namespace bddfc {
namespace {

TEST(TermTest, VariableEncodingRoundTrips) {
  for (int k = 0; k < 100; ++k) {
    TermId v = MakeVar(k);
    EXPECT_TRUE(IsVar(v));
    EXPECT_FALSE(IsConst(v));
    EXPECT_EQ(DecodeVar(v), k);
  }
}

TEST(TermTest, ConstantsAreNonNegative) {
  EXPECT_TRUE(IsConst(0));
  EXPECT_TRUE(IsConst(42));
  EXPECT_FALSE(IsVar(0));
}

TEST(SignatureTest, AddAndFindPredicate) {
  Signature sig;
  PredId e = std::move(sig.AddPredicate("e", 2)).ValueOrDie();
  EXPECT_EQ(sig.arity(e), 2);
  EXPECT_EQ(sig.PredicateName(e), "e");
  EXPECT_EQ(std::move(sig.FindPredicate("e")).ValueOrDie(), e);
  EXPECT_FALSE(sig.FindPredicate("missing").ok());
}

TEST(SignatureTest, RedeclareSameArityIsIdempotent) {
  Signature sig;
  PredId e1 = std::move(sig.AddPredicate("e", 2)).ValueOrDie();
  PredId e2 = std::move(sig.AddPredicate("e", 2)).ValueOrDie();
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(sig.num_predicates(), 1);
}

TEST(SignatureTest, RedeclareDifferentArityFails) {
  Signature sig;
  ASSERT_TRUE(sig.AddPredicate("e", 2).ok());
  Result<PredId> bad = sig.AddPredicate("e", 3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kAlreadyExists);
}

TEST(SignatureTest, ConstantsAndNullsAreDistinguished) {
  Signature sig;
  TermId a = sig.AddConstant("a");
  TermId n = sig.AddNull();
  EXPECT_FALSE(sig.IsNull(a));
  EXPECT_TRUE(sig.IsNull(n));
  EXPECT_NE(a, n);
  // Re-adding a constant is idempotent.
  EXPECT_EQ(sig.AddConstant("a"), a);
  // Nulls are always fresh.
  EXPECT_NE(sig.AddNull(), n);
}

TEST(SignatureTest, NullNamesSkipDeclaredConstants) {
  Signature sig;
  const TermId declared = sig.AddConstant("_n0");
  const TermId first = sig.AddNull();
  EXPECT_EQ(sig.ConstantName(first), "_n1");
  EXPECT_EQ(sig.ConstantName(sig.AddNull()), "_n2");
  EXPECT_EQ(sig.ConstantName(sig.AddNull("q")), "_q3");
  EXPECT_FALSE(sig.IsNull(declared));
  EXPECT_TRUE(sig.IsNull(first));
  EXPECT_EQ(sig.num_constants(), 4);
}

TEST(SignatureTest, RollbackAcrossTableGrowthRestoresIdsAndNames) {
  Signature sig;
  const TermId a = sig.AddConstant("a");
  ASSERT_TRUE(sig.AddPredicate("e", 2).ok());
  const Signature::Mark mark = sig.TakeMark();
  // Enough names to double the name tables several times past the mark.
  std::vector<std::string> names;
  std::vector<TermId> ids;
  for (int i = 0; i < 600; ++i) {
    names.push_back('c' + std::to_string(i));
    ids.push_back(sig.AddConstant(names.back()));
    ids.push_back(sig.AddNull());
    names.push_back(sig.ConstantName(ids.back()));
    ASSERT_TRUE(sig.AddPredicate('p' + std::to_string(i), 1).ok());
  }
  sig.RollbackTo(mark);
  EXPECT_EQ(sig.num_constants(), 1);
  EXPECT_EQ(sig.num_predicates(), 1);
  for (const std::string& name : names) {
    EXPECT_FALSE(sig.FindConstant(name).ok()) << name;
  }
  EXPECT_FALSE(sig.FindPredicate("p0").ok());
  EXPECT_EQ(sig.FindConstant("a").value(), a);
  // A rerun interns the same names under the same ids.
  for (size_t i = 0; i < names.size(); i += 2) {
    EXPECT_EQ(sig.AddConstant(names[i]), ids[i]);
    const TermId null = sig.AddNull();
    EXPECT_EQ(null, ids[i + 1]);
    EXPECT_EQ(sig.ConstantName(null), names[i + 1]);
  }
  EXPECT_EQ(sig.FindConstant("c599").value(), ids[1198]);
}

TEST(SignatureTest, ColorPredicatesCarryHueAndLightness) {
  Signature sig;
  PredId k = sig.AddColorPredicate(3, 7);
  EXPECT_TRUE(sig.IsColor(k));
  EXPECT_EQ(sig.predicate(k).hue, 3);
  EXPECT_EQ(sig.predicate(k).lightness, 7);
  EXPECT_EQ(sig.arity(k), 1);
}

TEST(SignatureTest, IsBinaryRespectsMaxArity) {
  Signature sig;
  ASSERT_TRUE(sig.AddPredicate("u", 1).ok());
  ASSERT_TRUE(sig.AddPredicate("e", 2).ok());
  EXPECT_TRUE(sig.IsBinary());
  ASSERT_TRUE(sig.AddPredicate("t", 3).ok());
  EXPECT_FALSE(sig.IsBinary());
  EXPECT_EQ(sig.MaxArity(), 3);
}

TEST(SignatureTest, FreshPredicateNameAvoidsCollision) {
  Signature sig;
  ASSERT_TRUE(sig.AddPredicate("f", 2).ok());
  std::string fresh = sig.FreshPredicateName("f");
  EXPECT_NE(fresh, "f");
  EXPECT_FALSE(sig.FindPredicate(fresh).ok());
}

class StructureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sig_ = std::make_shared<Signature>();
    e_ = std::move(sig_->AddPredicate("e", 2)).ValueOrDie();
    u_ = std::move(sig_->AddPredicate("u", 1)).ValueOrDie();
    a_ = sig_->AddConstant("a");
    b_ = sig_->AddConstant("b");
    c_ = sig_->AddConstant("c");
  }

  SignaturePtr sig_;
  PredId e_ = -1, u_ = -1;
  TermId a_ = -1, b_ = -1, c_ = -1;
};

TEST_F(StructureTest, AddFactDeduplicates) {
  Structure s(sig_);
  EXPECT_TRUE(s.AddFact(e_, {a_, b_}));
  EXPECT_FALSE(s.AddFact(e_, {a_, b_}));
  EXPECT_EQ(s.NumFacts(), 1u);
  EXPECT_TRUE(s.Contains(e_, {a_, b_}));
  EXPECT_FALSE(s.Contains(e_, {b_, a_}));
}

TEST_F(StructureTest, DomainTracksFirstAppearance) {
  Structure s(sig_);
  s.AddFact(e_, {a_, b_});
  s.AddFact(u_, {c_});
  ASSERT_EQ(s.Domain().size(), 3u);
  EXPECT_EQ(s.Domain()[0], a_);
  EXPECT_EQ(s.Domain()[1], b_);
  EXPECT_EQ(s.Domain()[2], c_);
  EXPECT_TRUE(s.InDomain(a_));
}

TEST_F(StructureTest, ExplicitDomainElementWithoutFacts) {
  Structure s(sig_);
  s.AddDomainElement(c_);
  EXPECT_TRUE(s.InDomain(c_));
  EXPECT_EQ(s.NumFacts(), 0u);
}

TEST_F(StructureTest, PostingsIndexFindsRows) {
  Structure s(sig_);
  s.AddFact(e_, {a_, b_});
  s.AddFact(e_, {a_, c_});
  s.AddFact(e_, {b_, c_});
  const std::vector<uint32_t>* from_a = s.Postings(e_, 0, a_);
  ASSERT_NE(from_a, nullptr);
  EXPECT_EQ(from_a->size(), 2u);
  const std::vector<uint32_t>* to_c = s.Postings(e_, 1, c_);
  ASSERT_NE(to_c, nullptr);
  EXPECT_EQ(to_c->size(), 2u);
  EXPECT_EQ(s.Postings(e_, 0, c_), nullptr);
}

TEST_F(StructureTest, RestrictToPredicates) {
  Structure s(sig_);
  s.AddFact(e_, {a_, b_});
  s.AddFact(u_, {a_});
  Structure only_e = s.RestrictToPredicates({e_});
  EXPECT_EQ(only_e.NumFacts(), 1u);
  EXPECT_TRUE(only_e.Contains(e_, {a_, b_}));
  EXPECT_FALSE(only_e.Contains(u_, {a_}));
}

TEST_F(StructureTest, RestrictToElements) {
  Structure s(sig_);
  s.AddFact(e_, {a_, b_});
  s.AddFact(e_, {b_, c_});
  Structure sub = s.RestrictToElements({a_, b_});
  EXPECT_EQ(sub.NumFacts(), 1u);
  EXPECT_TRUE(sub.Contains(e_, {a_, b_}));
}

TEST_F(StructureTest, ContainsAllFactsOf) {
  Structure big(sig_), small(sig_);
  big.AddFact(e_, {a_, b_});
  big.AddFact(u_, {a_});
  small.AddFact(e_, {a_, b_});
  EXPECT_TRUE(big.ContainsAllFactsOf(small));
  EXPECT_FALSE(small.ContainsAllFactsOf(big));
}

TEST_F(StructureTest, WatermarkTracksRoundBoundaries) {
  Structure s(sig_);
  // Before any mark, every watermark is 0: everything is "delta".
  EXPECT_EQ(s.WatermarkRows(e_), 0u);
  EXPECT_EQ(s.NumFactsAtWatermark(), 0u);

  s.AddFact(e_, {a_, b_});
  s.AddFact(u_, {c_});
  s.MarkRoundBoundary();
  EXPECT_EQ(s.WatermarkRows(e_), 1u);
  EXPECT_EQ(s.WatermarkRows(u_), 1u);
  EXPECT_EQ(s.NumFactsAtWatermark(), 2u);

  // New rows land above the watermark; old ones stay below.
  s.AddFact(e_, {b_, c_});
  EXPECT_EQ(s.WatermarkRows(e_), 1u);
  EXPECT_EQ(s.NumFacts(e_), 2u);
  EXPECT_EQ(s.Rows(e_)[s.WatermarkRows(e_)], (std::vector<TermId>{b_, c_}));

  // Re-marking advances; predicates unseen at the mark report 0.
  s.MarkRoundBoundary();
  EXPECT_EQ(s.WatermarkRows(e_), 2u);
  EXPECT_EQ(s.NumFactsAtWatermark(), 3u);
  EXPECT_EQ(s.WatermarkRows(static_cast<PredId>(99)), 0u);
}

TEST_F(StructureTest, PostingsRejectNegativePosition) {
  Structure s(sig_);
  s.AddFact(e_, {a_, b_});
  EXPECT_EQ(s.Postings(e_, -1, a_), nullptr);
  EXPECT_EQ(s.Postings(e_, 2, a_), nullptr);
  EXPECT_EQ(s.DistinctValues(e_, -1), 0u);
}

// Store differential suite: random AddFact sequences over arities 0 to 4
// against a std::map/std::set reference model. Value pools are small
// enough that most draws repeat a stored tuple, and large enough that the
// exact-tuple table and every value index double several times.
class StructureDifferentialTest : public ::testing::Test {
 protected:
  /// Append-ordered rows, their ids, and the postings and domain they
  /// imply — what the store must answer, computed the obvious way.
  struct Model {
    std::map<PredId, std::vector<std::vector<TermId>>> rows;
    std::map<std::pair<PredId, std::vector<TermId>>, uint32_t> row_of;
    std::map<std::tuple<PredId, int, TermId>, std::vector<uint32_t>> postings;
    std::vector<TermId> domain;
    std::set<TermId> in_domain;

    bool Add(PredId p, const std::vector<TermId>& t) {
      std::vector<std::vector<TermId>>& rel = rows[p];
      const uint32_t row = static_cast<uint32_t>(rel.size());
      if (!row_of.emplace(std::make_pair(p, t), row).second) return false;
      rel.push_back(t);
      for (size_t pos = 0; pos < t.size(); ++pos) {
        postings[{p, static_cast<int>(pos), t[pos]}].push_back(row);
        if (in_domain.insert(t[pos]).second) domain.push_back(t[pos]);
      }
      return true;
    }
  };

  void SetUp() override {
    sig_ = std::make_shared<Signature>();
    for (int k = 0; k <= 4; ++k) {
      preds_.push_back(
          std::move(sig_->AddPredicate('p' + std::to_string(k), k))
              .ValueOrDie());
    }
    for (int i = 0; i < 240; ++i) {
      consts_.push_back(sig_->AddConstant('c' + std::to_string(i)));
    }
  }

  /// A random tuple of arity k over the first `pool` constants.
  std::vector<TermId> Draw(int k, size_t pool) {
    std::vector<TermId> t(static_cast<size_t>(k));
    for (TermId& v : t) v = consts_[rng_() % pool];
    return t;
  }

  /// Pool per arity: every value of arity 1, about 3.6k tuples of arity
  /// 2, more distinct tuples than draws for arities 3 and 4.
  static size_t Pool(int k) {
    static constexpr size_t kPools[] = {1, 240, 60, 24, 12};
    return kPools[k];
  }

  void ExpectMatches(const Structure& s, const Model& m) {
    for (int k = 0; k <= 4; ++k) {
      const PredId p = preds_[k];
      const auto it = m.rows.find(p);
      const std::vector<std::vector<TermId>> none;
      const std::vector<std::vector<TermId>>& want =
          it == m.rows.end() ? none : it->second;
      ASSERT_EQ(s.NumFacts(p), want.size()) << "arity " << k;
      const RowsView rows = s.Rows(p);
      ASSERT_EQ(rows.size(), want.size());
      uint32_t r = 0;
      for (TupleRef row : rows) {
        ASSERT_EQ(row, want[r]) << "arity " << k << " row " << r;
        ASSERT_EQ(s.Tuple({p, r}), want[r]);
        ASSERT_EQ(s.FindRow(p, want[r]), r);
        ASSERT_TRUE(s.Contains(p, want[r]));
        ++r;
      }
      // Absent keys (random draws the model lacks) and keys of the wrong
      // length, which must never be compared past their end.
      for (int i = 0; i < 200; ++i) {
        const std::vector<TermId> t = Draw(k, consts_.size());
        const auto found = m.row_of.find({p, t});
        const uint32_t expect =
            found == m.row_of.end() ? Structure::kNoRow : found->second;
        ASSERT_EQ(s.FindRow(p, t), expect);
        ASSERT_EQ(s.Contains(p, t), expect != Structure::kNoRow);
      }
      std::vector<TermId> longer = Draw(k, Pool(k));
      longer.push_back(consts_[0]);
      EXPECT_EQ(s.FindRow(p, longer), Structure::kNoRow);
      EXPECT_FALSE(s.Contains(p, longer));
      if (k > 0 && !want.empty()) {
        const std::vector<TermId> shorter(want[0].begin(), want[0].end() - 1);
        EXPECT_EQ(s.FindRow(p, shorter), Structure::kNoRow);
        EXPECT_FALSE(s.Contains(p, shorter));
      }
      EXPECT_EQ(s.Postings(p, -1, consts_[0]), nullptr);
      EXPECT_EQ(s.Postings(p, k, consts_[0]), nullptr);
    }
    // Postings: exact and ascending for every stored (pred, pos, value),
    // absent for every other value; DistinctValues counts them.
    std::map<std::pair<PredId, int>, size_t> distinct;
    for (const auto& [key, list] : m.postings) {
      const auto& [p, pos, v] = key;
      ++distinct[{p, pos}];
      const std::vector<uint32_t>* got = s.Postings(p, pos, v);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, list);
      EXPECT_TRUE(std::is_sorted(got->begin(), got->end()));
    }
    for (int k = 1; k <= 4; ++k) {
      for (int pos = 0; pos < k; ++pos) {
        EXPECT_EQ(s.DistinctValues(preds_[k], pos), (distinct[{preds_[k], pos}]));
        for (TermId v : consts_) {
          if (m.postings.count({preds_[k], pos, v}) == 0) {
            ASSERT_EQ(s.Postings(preds_[k], pos, v), nullptr);
          }
        }
      }
    }
    size_t total = 0;
    for (const auto& [p, rows] : m.rows) total += rows.size();
    EXPECT_EQ(s.NumFacts(), total);
    EXPECT_EQ(s.Domain(), m.domain);
  }

  SignaturePtr sig_;
  std::vector<PredId> preds_;  // preds_[k] has arity k
  std::vector<TermId> consts_;
  std::mt19937 rng_{20260417};
};

TEST_F(StructureDifferentialTest, RandomAddFactsMatchTheReferenceModel) {
  Structure s(sig_);
  MemoryAccountant accountant;
  s.SetAccountant(&accountant);
  Model m;
  // 60000 draws: single AddFact calls mixed with AppendRows batches of
  // 0-24 tuples, which repeat stored tuples and each other.
  std::vector<std::vector<TermId>> tuples;
  std::vector<TermId> batch;
  size_t draws = 0;
  size_t next_check = 10000;
  while (draws < 60000) {
    const int k = static_cast<int>(rng_() % 5);
    if (rng_() % 8 != 0) {
      const std::vector<TermId> t = Draw(k, Pool(k));
      ASSERT_EQ(s.AddFact(preds_[k], t), m.Add(preds_[k], t))
          << "draw " << draws;
      ++draws;
    } else {
      const size_t n = rng_() % 25;
      tuples.clear();
      batch.clear();
      size_t fresh = 0;
      for (size_t j = 0; j < n; ++j) {
        tuples.push_back(j > 0 && rng_() % 4 == 0 ? tuples[rng_() % j]
                                                  : Draw(k, Pool(k)));
        batch.insert(batch.end(), tuples.back().begin(), tuples.back().end());
        if (m.Add(preds_[k], tuples.back())) ++fresh;
      }
      ASSERT_EQ(s.AppendRows(preds_[k], batch.data(), n), fresh)
          << "batch at draw " << draws;
      draws += n;
    }
    if (draws >= next_check) {
      next_check += 10000;
      ExpectMatches(s, m);
      if (HasFatalFailure()) return;
      // One charge per new fact, whichever call added it.
      size_t bytes = 0;
      for (const auto& [p, rows] : m.rows) {
        bytes += rows.size() * Structure::ApproxFactBytes(
                                   static_cast<size_t>(sig_->arity(p)));
      }
      EXPECT_EQ(accountant.used(), bytes);
      EXPECT_EQ(accountant.peak(), bytes);
    }
  }
  s.SetAccountant(nullptr);
  EXPECT_GT(s.NumFacts(), 15000u);
  EXPECT_LT(s.NumFacts(), 60000u / 2);  // most draws repeated a tuple

  // Views of every relation survive facts added to a new predicate whose
  // id forces the relation table to reallocate.
  std::vector<RowsView> views;
  std::vector<TupleRef> firsts;
  for (PredId p : preds_) {
    views.push_back(s.Rows(p));
    firsts.push_back(s.Tuple({p, 0}));
  }
  PredId late = -1;
  for (int i = 0; i < 100; ++i) {
    late = std::move(sig_->AddPredicate('q' + std::to_string(i), 2))
               .ValueOrDie();
  }
  ASSERT_TRUE(s.AddFact(late, {consts_[1], consts_[2]}));
  ASSERT_TRUE(m.Add(late, {consts_[1], consts_[2]}));
  for (size_t k = 0; k < preds_.size(); ++k) {
    const std::vector<std::vector<TermId>>& want = m.rows[preds_[k]];
    ASSERT_EQ(views[k].size(), want.size());
    EXPECT_TRUE(std::equal(views[k].begin(), views[k].end(), want.begin()));
    EXPECT_EQ(firsts[k], want[0]);
    EXPECT_TRUE(views[k] == s.Rows(preds_[k]));
  }
  ExpectMatches(s, m);
  EXPECT_EQ(s.NumFacts(late), 1u);
}

TEST_F(StructureDifferentialTest, ConcurrentConstReadersAgreeWithOneThread) {
  // One refreshed structure with a few rows past its sorted index (so
  // ContainsSorted takes both its merge and its hash paths), then frozen:
  // const methods must share no hidden mutable state.
  Structure s(sig_);
  for (int i = 0; i < 6000; ++i) {
    const int k = 2 + static_cast<int>(rng_() % 2);
    s.AddFact(preds_[k], Draw(k, Pool(k)));
  }
  s.RefreshIndexes();
  for (int i = 0; i < 50; ++i) s.AddFact(preds_[3], Draw(3, Pool(3)));

  std::vector<std::vector<TermId>> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(Draw(2, Pool(2)));
  std::vector<TermId> batch;  // sorted arity-3 tuples, flat
  std::vector<std::vector<TermId>> batch_tuples;
  for (int i = 0; i < 400; ++i) batch_tuples.push_back(Draw(3, Pool(3)));
  std::sort(batch_tuples.begin(), batch_tuples.end());
  for (const auto& t : batch_tuples) batch.insert(batch.end(), t.begin(), t.end());

  struct Answers {
    std::vector<uint32_t> rows_found;
    std::vector<std::vector<uint32_t>> postings;
    std::vector<char> contained;
    std::vector<TermId> flat_rows;
    bool operator==(const Answers&) const = default;
  };
  auto answer = [&] {
    Answers a;
    for (const auto& k : keys) a.rows_found.push_back(s.FindRow(preds_[2], k));
    for (int pos = 0; pos < 3; ++pos) {
      for (size_t c = 0; c < Pool(3); ++c) {
        const std::vector<uint32_t>* p = s.Postings(preds_[3], pos, consts_[c]);
        a.postings.push_back(p == nullptr ? std::vector<uint32_t>{} : *p);
      }
    }
    s.ContainsSorted(preds_[3], 3, batch.data(), batch_tuples.size(),
                     &a.contained);
    for (int k = 2; k <= 3; ++k) {
      for (TupleRef row : s.Rows(preds_[k])) {
        a.flat_rows.insert(a.flat_rows.end(), row.begin(), row.end());
      }
    }
    return a;
  };
  const Answers single = answer();
  ASSERT_EQ(single.rows_found.size(), keys.size());
  ASSERT_GT(std::count(single.contained.begin(), single.contained.end(), 1), 0);

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        if (!(answer() == single)) ++mismatches[t];
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

TEST(SubstitutionTest, BindAndResolveChains) {
  Substitution s;
  TermId x = MakeVar(0), y = MakeVar(1);
  EXPECT_TRUE(s.Bind(x, y));
  EXPECT_TRUE(s.Bind(y, 7));
  EXPECT_EQ(s.Resolve(x), 7);
  EXPECT_EQ(s.Resolve(y), 7);
}

TEST(SubstitutionTest, ConflictingConstantBindFails) {
  Substitution s;
  TermId x = MakeVar(0);
  EXPECT_TRUE(s.Bind(x, 3));
  EXPECT_FALSE(s.Bind(x, 4));
  EXPECT_TRUE(s.Bind(x, 3));  // same constant is fine
}

TEST(SubstitutionTest, ApplyToAtom) {
  Substitution s;
  s.Bind(MakeVar(0), 5);
  Atom a(0, {MakeVar(0), MakeVar(1)});
  Atom out = s.Apply(a);
  EXPECT_EQ(out.args[0], 5);
  EXPECT_EQ(out.args[1], MakeVar(1));
}

TEST(UnifyTest, UnifiesVariablesAndConstants) {
  // e(x, b) with e(a, y) should unify with x=a, y=b.
  Substitution mgu;
  Atom lhs(0, {MakeVar(0), 1});
  Atom rhs(0, {0, MakeVar(1)});
  ASSERT_TRUE(UnifyAtoms(lhs, rhs, &mgu));
  EXPECT_EQ(mgu.Resolve(MakeVar(0)), 0);
  EXPECT_EQ(mgu.Resolve(MakeVar(1)), 1);
}

TEST(UnifyTest, FailsOnDistinctConstants) {
  Substitution mgu;
  Atom lhs(0, {3, MakeVar(0)});
  Atom rhs(0, {4, MakeVar(1)});
  EXPECT_FALSE(UnifyAtoms(lhs, rhs, &mgu));
}

TEST(UnifyTest, FailsOnDifferentPredicates) {
  Substitution mgu;
  EXPECT_FALSE(UnifyAtoms(Atom(0, {MakeVar(0)}), Atom(1, {MakeVar(0)}), &mgu));
}

TEST(QueryTest, VariablesInFirstOccurrenceOrder) {
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(0, {MakeVar(2), MakeVar(0)}));
  q.atoms.push_back(Atom(0, {MakeVar(0), MakeVar(1)}));
  std::vector<TermId> vars = q.Variables();
  ASSERT_EQ(vars.size(), 3u);
  EXPECT_EQ(vars[0], MakeVar(2));
  EXPECT_EQ(vars[1], MakeVar(0));
  EXPECT_EQ(vars[2], MakeVar(1));
}

TEST(QueryTest, NormalizedIsRenamingInvariant) {
  Signature sig;
  ASSERT_TRUE(sig.AddPredicate("e", 2).ok());
  ConjunctiveQuery q1, q2;
  q1.atoms.push_back(Atom(0, {MakeVar(5), MakeVar(9)}));
  q1.atoms.push_back(Atom(0, {MakeVar(9), MakeVar(5)}));
  q2.atoms.push_back(Atom(0, {MakeVar(1), MakeVar(0)}));
  q2.atoms.push_back(Atom(0, {MakeVar(0), MakeVar(1)}));
  EXPECT_EQ(q1.NormalizedKey(sig), q2.NormalizedKey(sig));
}

TEST(QueryTest, NormalizedDropsDuplicateAtoms) {
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(0, {MakeVar(0), MakeVar(1)}));
  q.atoms.push_back(Atom(0, {MakeVar(0), MakeVar(1)}));
  EXPECT_EQ(q.Normalized().atoms.size(), 1u);
}

TEST(QueryTest, RenamedApartUsesFreshVariables) {
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(0, {MakeVar(0), MakeVar(1)}));
  int32_t next = 10;
  ConjunctiveQuery r = q.RenamedApart(&next);
  EXPECT_EQ(r.atoms[0].args[0], MakeVar(10));
  EXPECT_EQ(r.atoms[0].args[1], MakeVar(11));
  EXPECT_EQ(next, 12);
}

TEST(RuleTest, ExistentialAndFrontierVariables) {
  // e(x, y) -> ∃z e(y, z)
  Rule r;
  r.body.push_back(Atom(0, {MakeVar(0), MakeVar(1)}));
  r.head.push_back(Atom(0, {MakeVar(1), MakeVar(2)}));
  EXPECT_TRUE(r.IsExistential());
  EXPECT_FALSE(r.IsDatalog());
  ASSERT_EQ(r.ExistentialVariables().size(), 1u);
  EXPECT_EQ(r.ExistentialVariables()[0], MakeVar(2));
  ASSERT_EQ(r.FrontierVariables().size(), 1u);
  EXPECT_EQ(r.FrontierVariables()[0], MakeVar(1));
}

TEST(RuleTest, DatalogRuleHasNoExistentials) {
  Rule r;
  r.body.push_back(Atom(0, {MakeVar(0), MakeVar(1)}));
  r.body.push_back(Atom(0, {MakeVar(1), MakeVar(2)}));
  r.head.push_back(Atom(0, {MakeVar(0), MakeVar(2)}));
  EXPECT_TRUE(r.IsDatalog());
}

TEST(RuleTest, ValidateRejectsWrongArity) {
  Signature sig;
  ASSERT_TRUE(sig.AddPredicate("e", 2).ok());
  Rule r;
  r.body.push_back(Atom(0, {MakeVar(0)}));  // e with arity 1: invalid
  r.head.push_back(Atom(0, {MakeVar(0), MakeVar(1)}));
  EXPECT_FALSE(r.Validate(sig).ok());
}

TEST(RuleTest, ValidateRejectsEmptyHead) {
  Signature sig;
  Rule r;
  r.body.push_back(Atom(0, {MakeVar(0)}));
  EXPECT_FALSE(r.Validate(sig).ok());
}

TEST(TheoryTest, TgpCandidatesAreTgdHeadPredicates) {
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  PredId r = std::move(sig->AddPredicate("r", 2)).ValueOrDie();
  Theory t(sig);
  {
    Rule rule;
    rule.body.push_back(Atom(e, {MakeVar(0), MakeVar(1)}));
    rule.head.push_back(Atom(e, {MakeVar(1), MakeVar(2)}));
    ASSERT_TRUE(t.AddRule(rule).ok());
  }
  {
    Rule rule;  // datalog
    rule.body.push_back(Atom(e, {MakeVar(0), MakeVar(1)}));
    rule.head.push_back(Atom(r, {MakeVar(0), MakeVar(1)}));
    ASSERT_TRUE(t.AddRule(rule).ok());
  }
  auto tgps = t.TgpCandidates();
  EXPECT_EQ(tgps.size(), 1u);
  EXPECT_TRUE(tgps.count(e));
  EXPECT_FALSE(tgps.count(r));
}

TEST(TheoryTest, Spade5NormalFormDetection) {
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  PredId r = std::move(sig->AddPredicate("r", 2)).ValueOrDie();
  Theory good(sig);
  {
    Rule rule;  // e(x,y) -> ∃z r(y,z): head witness second => fine
    rule.body.push_back(Atom(e, {MakeVar(0), MakeVar(1)}));
    rule.head.push_back(Atom(r, {MakeVar(1), MakeVar(2)}));
    ASSERT_TRUE(good.AddRule(rule).ok());
  }
  EXPECT_TRUE(good.IsSpade5Normal());

  Theory bad(sig);
  {
    Rule rule;  // witness in first position => violates (♠5)
    rule.body.push_back(Atom(e, {MakeVar(0), MakeVar(1)}));
    rule.head.push_back(Atom(r, {MakeVar(2), MakeVar(1)}));
    ASSERT_TRUE(bad.AddRule(rule).ok());
  }
  EXPECT_FALSE(bad.IsSpade5Normal());

  Theory mixed(sig);
  {
    Rule rule;  // TGP r also in a datalog head => violates (♠5)
    rule.body.push_back(Atom(e, {MakeVar(0), MakeVar(1)}));
    rule.head.push_back(Atom(r, {MakeVar(1), MakeVar(2)}));
    ASSERT_TRUE(mixed.AddRule(rule).ok());
  }
  {
    Rule rule;
    rule.body.push_back(Atom(e, {MakeVar(0), MakeVar(1)}));
    rule.head.push_back(Atom(r, {MakeVar(0), MakeVar(1)}));
    ASSERT_TRUE(mixed.AddRule(rule).ok());
  }
  EXPECT_FALSE(mixed.IsSpade5Normal());
}

TEST(TheoryTest, MaxBodyVariablesCountsDistinctVars) {
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  Theory t(sig);
  Rule rule;
  rule.body.push_back(Atom(e, {MakeVar(0), MakeVar(1)}));
  rule.body.push_back(Atom(e, {MakeVar(1), MakeVar(2)}));
  rule.head.push_back(Atom(e, {MakeVar(0), MakeVar(2)}));
  ASSERT_TRUE(t.AddRule(rule).ok());
  EXPECT_EQ(t.MaxBodyVariables(), 3);
}

}  // namespace
}  // namespace bddfc
