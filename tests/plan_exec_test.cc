// Tests for the compiled join backend: plan compilation (eval/plan.h) and
// the vectorized block executor and its probe (eval/exec.h). The A/B
// agreement tests here pin the core contract — the executor's slot rows,
// turned into flat bindings, and the interpretive Matcher's bindings form
// the same *set* (order may differ), a probe answers as Matcher::Exists
// does, and both backends account work under the same MatchStats counting
// contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "bddfc/eval/exec.h"
#include "bddfc/eval/match.h"
#include "bddfc/eval/plan.h"

namespace bddfc {
namespace {

/// A binding flattened to a sorted (var, value) list; a sorted list of
/// those compares binding sets across backends with different enumeration
/// orders.
using FlatBinding = std::vector<std::pair<TermId, TermId>>;

FlatBinding Flatten(const Binding& b) {
  FlatBinding flat(b.begin(), b.end());
  std::sort(flat.begin(), flat.end());
  return flat;
}

std::vector<FlatBinding> MatcherSet(const Structure& s,
                                    const std::vector<Atom>& atoms,
                                    const Binding& partial = {}) {
  std::vector<FlatBinding> out;
  Matcher(s).Enumerate(atoms, partial, [&](const Binding& b) {
    out.push_back(Flatten(b));
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `atoms` through the block executor with `partial`'s variables
/// prebound (sorted, as PlanExists seeds them), handing each block to
/// `on_block`.
void PlanBlocks(const Structure& s, const std::vector<Atom>& atoms,
                const Binding& partial,
                const std::function<bool(const SlotBlock&)>& on_block,
                MatchStats* stats = nullptr) {
  std::vector<TermId> prebound;
  for (const auto& [v, c] : partial) prebound.push_back(v);
  std::sort(prebound.begin(), prebound.end());
  std::vector<TermId> seed;
  for (TermId v : prebound) seed.push_back(partial.at(v));
  const QueryPlan plan = CompilePlan(s, atoms, kNoAnchor, prebound);
  ExecutePlan(s, plan, nullptr, seed, on_block, stats);
}

/// Turns every slot row of `blk` into a flat binding.
void AppendSlotRows(const SlotBlock& blk, std::vector<FlatBinding>* out) {
  for (size_t r = 0; r < blk.num_rows; ++r) {
    FlatBinding flat;
    for (size_t i = 0; i < blk.width; ++i) {
      flat.emplace_back(blk.slot_vars[i], blk.rows[r * blk.width + i]);
    }
    std::sort(flat.begin(), flat.end());
    out->push_back(std::move(flat));
  }
}

std::vector<FlatBinding> PlanSet(const Structure& s,
                                 const std::vector<Atom>& atoms,
                                 const Binding& partial = {},
                                 MatchStats* stats = nullptr) {
  std::vector<FlatBinding> out;
  PlanBlocks(
      s, atoms, partial,
      [&](const SlotBlock& blk) {
        AppendSlotRows(blk, &out);
        return true;
      },
      stats);
  std::sort(out.begin(), out.end());
  return out;
}

/// Plan matches counted by summing block rows.
size_t PlanCount(const Structure& s, const std::vector<Atom>& atoms,
                 const Binding& partial = {}) {
  size_t n = 0;
  PlanBlocks(s, atoms, partial, [&n](const SlotBlock& blk) {
    n += blk.num_rows;
    return true;
  });
  return n;
}

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sig_ = std::make_shared<Signature>();
    e_ = std::move(sig_->AddPredicate("e", 2)).ValueOrDie();
    p_ = std::move(sig_->AddPredicate("p", 2)).ValueOrDie();
    u_ = std::move(sig_->AddPredicate("u", 1)).ValueOrDie();
    for (int i = 0; i < 8; ++i) {
      std::string name = "c";
      name += std::to_string(i);
      c_[i] = sig_->AddConstant(name);
    }
  }

  SignaturePtr sig_;
  PredId e_ = -1, p_ = -1, u_ = -1;
  TermId c_[8] = {};
};

TEST_F(PlanTest, AnchorIsPinnedToTheFrontOfTheJoinOrder) {
  Structure s(sig_);
  s.AddFact(e_, {c_[0], c_[1]});
  std::vector<Atom> body = {Atom(e_, {MakeVar(0), MakeVar(1)}),
                            Atom(e_, {MakeVar(1), MakeVar(2)})};
  QueryPlan plan = CompilePlan(s, body, /*anchor=*/1);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].atom_index, 1u);
  EXPECT_EQ(plan.steps[1].atom_index, 0u);
}

TEST_F(PlanTest, SelectivityOrdersSmallRelationFirst) {
  Structure s(sig_);
  for (int i = 0; i < 6; ++i) s.AddFact(e_, {c_[i], c_[(i + 1) % 8]});
  s.AddFact(u_, {c_[2]});
  // With no anchor both atoms start with zero known positions; the
  // cardinality estimate breaks the tie toward the 1-row u relation, after
  // which e is probed with its first position bound.
  std::vector<Atom> body = {Atom(e_, {MakeVar(0), MakeVar(1)}),
                            Atom(u_, {MakeVar(0)})};
  QueryPlan plan = CompilePlan(s, body);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].atom_index, 1u);
  ASSERT_EQ(plan.steps[1].probe_positions.size(), 1u);
  EXPECT_EQ(plan.steps[1].probe_positions[0], 0);
}

TEST_F(PlanTest, ExecAgreesWithMatcherOnRandomWorkloads) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 6; ++trial) {
    Structure s(sig_);
    std::uniform_int_distribution<int> pick(0, 7);
    for (int i = 0; i < 40; ++i) {
      s.AddFact(e_, {c_[pick(rng)], c_[pick(rng)]});
      if (i % 2 == 0) s.AddFact(p_, {c_[pick(rng)], c_[pick(rng)]});
      if (i % 5 == 0) s.AddFact(u_, {c_[pick(rng)]});
    }
    const TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2),
                 w = MakeVar(3);
    const std::vector<std::vector<Atom>> bodies = {
        {Atom(e_, {x, y})},
        {Atom(e_, {x, y}), Atom(e_, {y, z})},
        {Atom(e_, {x, y}), Atom(e_, {y, x})},
        {Atom(e_, {x, x})},
        {Atom(e_, {x, y}), Atom(p_, {y, z}), Atom(u_, {z})},
        {Atom(u_, {x}), Atom(e_, {x, y}), Atom(e_, {y, z}),
         Atom(p_, {z, w})},
        {Atom(e_, {c_[2], x}), Atom(p_, {x, y})},
        {Atom(e_, {x, c_[3]}), Atom(e_, {x, y}), Atom(u_, {x})},
    };
    const std::vector<TermId>& domain = s.Domain();
    std::uniform_int_distribution<size_t> value(0, domain.size() - 1);
    for (const std::vector<Atom>& body : bodies) {
      EXPECT_EQ(MatcherSet(s, body), PlanSet(s, body));
      EXPECT_EQ(Matcher(s).Exists(body), PlanExists(s, body));
      EXPECT_EQ(Matcher(s).CountMatches(body), PlanCount(s, body));
      // The probe agrees with Matcher::Exists on every subset of the body's
      // variables prebound (the chase seeds a head plan's frontier so),
      // under several draws of values from the structure.
      std::vector<TermId> vars;
      for (const Atom& a : body) {
        for (TermId t : a.args) {
          if (IsVar(t) &&
              std::find(vars.begin(), vars.end(), t) == vars.end()) {
            vars.push_back(t);
          }
        }
      }
      for (uint32_t mask = 0; mask < (1u << vars.size()); ++mask) {
        std::vector<TermId> prebound;
        for (size_t i = 0; i < vars.size(); ++i) {
          if (mask & (1u << i)) prebound.push_back(vars[i]);
        }
        PlanProbe probe(s, CompilePlan(s, body, kNoAnchor, prebound));
        for (int draw = 0; draw < 4; ++draw) {
          std::vector<TermId> seed;
          Binding partial;
          for (TermId v : prebound) {
            seed.push_back(domain[value(rng)]);
            partial.emplace(v, seed.back());
          }
          EXPECT_EQ(probe.Exists(seed.data(), seed.size()),
                    Matcher(s).Exists(body, partial))
              << "trial " << trial << " mask " << mask << " draw " << draw;
        }
      }
    }
  }
}

TEST_F(PlanTest, BandedExecutionAgreesWithMatcher) {
  Structure s(sig_);
  s.AddFact(e_, {c_[0], c_[1]});
  s.AddFact(e_, {c_[1], c_[2]});
  s.MarkRoundBoundary();
  s.AddFact(e_, {c_[2], c_[3]});
  s.AddFact(e_, {c_[2], c_[4]});

  const uint32_t wm = s.WatermarkRows(e_);
  std::vector<Atom> body = {Atom(e_, {MakeVar(0), MakeVar(1)}),
                            Atom(e_, {MakeVar(1), MakeVar(2)})};
  // Old ⋈ delta: the standard semi-naive split with anchor 1.
  const std::vector<RowBand> bands = {{0, wm}, {wm, UINT32_MAX}};

  std::vector<FlatBinding> reference;
  Matcher(s).EnumerateBanded(body, bands, {}, [&](const Binding& b) {
    reference.push_back(Flatten(b));
    return true;
  });
  std::sort(reference.begin(), reference.end());

  std::vector<FlatBinding> compiled;
  EXPECT_TRUE(ExecutePlan(s, CompilePlan(s, body, /*anchor=*/1), &bands, {},
                          [&](const SlotBlock& blk) {
                            AppendSlotRows(blk, &compiled);
                            return true;
                          }));
  std::sort(compiled.begin(), compiled.end());
  EXPECT_EQ(reference, compiled);
  EXPECT_FALSE(reference.empty());
}

// Regression (matcher bugfix sweep): an atom with a repeated variable
// whose second occurrence mismatches must roll back the partial fill —
// p(X, X) over row (c0, c1) binds X=c0 at position 0, fails at position 1,
// and X must come free again so the later row (c2, c2) can bind it. Both
// backends are pinned here.
TEST_F(PlanTest, RepeatedVariableMismatchRollsBackPartialFill) {
  Structure s(sig_);
  s.AddFact(p_, {c_[0], c_[1]});  // partial fill fails at position 1
  s.AddFact(p_, {c_[2], c_[2]});
  s.AddFact(u_, {c_[2]});
  const TermId x = MakeVar(0);
  for (const std::vector<Atom>& body :
       {std::vector<Atom>{Atom(p_, {x, x})},
        std::vector<Atom>{Atom(p_, {x, x}), Atom(u_, {x})}}) {
    const std::vector<FlatBinding> want = {{{x, c_[2]}}};
    EXPECT_EQ(MatcherSet(s, body), want);
    EXPECT_EQ(PlanSet(s, body), want);
  }
}

// Pins the reconciled MatchStats contract on a known join (see MatchStats):
// body e(X,Y), e(Y,Z) over e = {(c0,c1), (c1,c2)}. The first atom scans
// both rows (no probe, no hit/miss); the second is instantiated twice —
// once proceeding through a probe on Y=c1 (one hit, one candidate row) and
// once pruned on Y=c2 (one miss). One complete binding. Before the
// counter fix the interpreter charged a hit per *position lookup*, so the
// two backends disagreed.
TEST_F(PlanTest, CountersMatchAcrossBackendsOnKnownJoin) {
  Structure s(sig_);
  s.AddFact(e_, {c_[0], c_[1]});
  s.AddFact(e_, {c_[1], c_[2]});
  std::vector<Atom> body = {Atom(e_, {MakeVar(0), MakeVar(1)}),
                            Atom(e_, {MakeVar(1), MakeVar(2)})};

  MatchStats interp;
  Matcher(s, &interp).Enumerate(body, {}, [](const Binding&) { return true; });
  EXPECT_EQ(interp.postings_hits, 1u);
  EXPECT_EQ(interp.postings_misses, 1u);
  EXPECT_EQ(interp.rows_scanned, 3u);
  EXPECT_EQ(interp.bindings_tried, 1u);

  MatchStats exec;
  PlanSet(s, body, {}, &exec);
  EXPECT_EQ(exec.postings_hits, interp.postings_hits);
  EXPECT_EQ(exec.postings_misses, interp.postings_misses);
  EXPECT_EQ(exec.rows_scanned, interp.rows_scanned);
  EXPECT_EQ(exec.bindings_tried, interp.bindings_tried);
}

TEST_F(PlanTest, StaleSortedIndexFallsBackToPostings) {
  Structure s(sig_);
  s.AddFact(e_, {c_[0], c_[1]});
  s.AddFact(e_, {c_[1], c_[2]});
  std::vector<Atom> body = {Atom(e_, {MakeVar(0), MakeVar(1)}),
                            Atom(e_, {MakeVar(1), MakeVar(2)})};
  // No RefreshIndexes yet: IndexedRows is 0, every probe takes the
  // always-current hash postings.
  EXPECT_EQ(s.IndexedRows(e_), 0u);
  EXPECT_EQ(PlanCount(s, body), 1u);

  // Fresh sorted indexes cover the relation: same answers.
  s.RefreshIndexes();
  EXPECT_EQ(s.IndexedRows(e_), 2u);
  EXPECT_EQ(PlanCount(s, body), 1u);

  // Rows added after the refresh make the sorted index stale (IndexedRows
  // < relation size); the executor must fall back to postings and see
  // them.
  s.AddFact(e_, {c_[2], c_[3]});
  EXPECT_EQ(s.IndexedRows(e_), 2u);
  EXPECT_EQ(PlanCount(s, body), 2u);
  EXPECT_EQ(MatcherSet(s, body), PlanSet(s, body));
}

TEST_F(PlanTest, PartialBindingsSeedTheExecutor) {
  Structure s(sig_);
  s.AddFact(e_, {c_[0], c_[1]});
  s.AddFact(e_, {c_[1], c_[2]});
  const TermId x = MakeVar(0), y = MakeVar(1);
  std::vector<Atom> body = {Atom(e_, {x, y})};
  EXPECT_TRUE(PlanExists(s, body, {{x, c_[0]}}));
  EXPECT_FALSE(PlanExists(s, body, {{x, c_[2]}}));
  EXPECT_EQ(MatcherSet(s, body, {{x, c_[1]}}), PlanSet(s, body, {{x, c_[1]}}));
  // Multi-variable seed over a join.
  std::vector<Atom> join = {Atom(e_, {x, y}), Atom(e_, {y, MakeVar(2)})};
  EXPECT_EQ(MatcherSet(s, join, {{x, c_[0]}}), PlanSet(s, join, {{x, c_[0]}}));
  EXPECT_EQ(PlanCount(s, join, {{x, c_[1]}}), 0u);

  // SatisfiesAt funnels through the plan backend with the first answer
  // variable pinned.
  ConjunctiveQuery q;
  q.answer_vars.push_back(x);
  q.atoms = body;
  EXPECT_TRUE(SatisfiesAt(s, q, c_[0]));
  EXPECT_FALSE(SatisfiesAt(s, q, c_[2]));
}

TEST_F(PlanTest, AbortHookStopsExecutionAtBlockBoundary) {
  Structure s(sig_);
  for (int i = 0; i < 6; ++i) s.AddFact(e_, {c_[i], c_[(i + 1) % 8]});
  std::vector<Atom> body = {Atom(e_, {MakeVar(0), MakeVar(1)})};
  QueryPlan plan = CompilePlan(s, body);
  size_t n = 0;
  const std::function<bool(const SlotBlock&)> count =
      [&n](const SlotBlock& blk) {
        n += blk.num_rows;
        return true;
      };
  const std::function<bool()> abort_now = [] { return true; };
  EXPECT_FALSE(ExecutePlan(s, plan, nullptr, {}, count, nullptr, &abort_now));
  EXPECT_EQ(n, 0u);  // tripped before the first block was emitted

  const std::function<bool()> never = [] { return false; };
  EXPECT_TRUE(ExecutePlan(s, plan, nullptr, {}, count, nullptr, &never));
  EXPECT_EQ(n, 6u);
}

TEST_F(PlanTest, EmptyBodyYieldsOneEmptyBinding) {
  Structure s(sig_);
  EXPECT_EQ(PlanCount(s, {}), 1u);
  EXPECT_TRUE(PlanExists(s, {}));
}

}  // namespace
}  // namespace bddfc
