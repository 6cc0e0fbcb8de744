// Sink-level differential suite for the vectorized round sink
// (DESIGN §2.13): the sort-dedup buffers and the bulk containment probe
// must agree — on emitted tuples AND on every counter — with the
// per-occurrence hash reference, on random candidate runs, at every
// compaction threshold, split across any number of simulated shard
// tasks, and at any index staleness. The end-to-end half locks the
// keep-min winner of colliding derivations (null provenance, dedup
// counters) to the kNaive reference's hash sink, byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bddfc/chase/chase.h"
#include "bddfc/chase/round.h"
#include "bddfc/core/structure.h"
#include "bddfc/parser/parser.h"
#include "bddfc/testing/oracles.h"

namespace bddfc {
namespace {

using chase_internal::DatalogRun;
using chase_internal::DatalogSinkBuffers;
using chase_internal::DedupTriggers;
using chase_internal::MergeDatalogRuns;
using chase_internal::TriggerTable;

Program MustParse(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Appends one occurrence of ground atom `g` to `sink`.
void AppendAtom(DatalogSinkBuffers* sink, const Atom& g) {
  TermId* dst = sink->Append(g.pred, g.args.size());
  if (dst != nullptr) std::copy(g.args.begin(), g.args.end(), dst);
}

/// Expands runs into Atoms, in run order.
std::vector<Atom> RunAtoms(const std::vector<DatalogRun>& runs) {
  std::vector<Atom> out;
  for (const DatalogRun& run : runs) {
    for (size_t t = 0; t < run.tuples; ++t) {
      out.emplace_back(run.pred, std::vector<TermId>(run.tuple(t),
                                                     run.tuple(t) + run.arity));
    }
  }
  return out;
}

/// Merges `runs` the way the round barrier does and expands the result.
std::vector<Atom> Merge(std::vector<DatalogRun> runs, bool drop_dup_groups,
                        size_t* deduped) {
  std::vector<DatalogRun> merged;
  MergeDatalogRuns(std::move(runs), drop_dup_groups, &merged, deduped);
  return RunAtoms(merged);
}

/// Final-compacts one sink and emits its surviving tuples as sorted
/// Atoms — the round barrier's path for a single task.
std::vector<Atom> Emit(DatalogSinkBuffers* sink, bool drop_dup_groups) {
  size_t merge_deduped = 0;
  std::vector<Atom> out = Merge(sink->TakeRuns(), drop_dup_groups,
                                &merge_deduped);
  EXPECT_EQ(merge_deduped, 0u) << "one sink's runs are already distinct";
  return out;
}

// ---------------------------------------------------------------------------
// Structure::ContainsSorted vs per-row Contains.
// ---------------------------------------------------------------------------

/// A structure with `facts` random tuples of `arity` over a domain of
/// `domain` constants, plus a sorted candidate batch of `queries` tuples
/// (roughly half of them present). Returns the flat sorted batch.
struct ProbeCase {
  SignaturePtr sig;
  Structure s;
  PredId pred;
  size_t arity;
  std::vector<TermId> batch;  // flat, sorted, `count` tuples
  size_t count;

  ProbeCase(size_t arity_in, size_t facts, size_t domain, size_t queries,
            uint32_t seed)
      : sig(std::make_shared<Signature>()), s(sig), arity(arity_in) {
    pred = std::move(sig->AddPredicate("p", static_cast<int>(arity)))
               .ValueOrDie();
    std::vector<TermId> consts;
    for (size_t i = 0; i < domain; ++i) {
      consts.push_back(sig->AddConstant('c' + std::to_string(i)));
    }
    std::mt19937 rng(seed);
    auto random_tuple = [&] {
      std::vector<TermId> t(arity);
      for (TermId& v : t) v = consts[rng() % consts.size()];
      return t;
    };
    std::vector<std::vector<TermId>> stored;
    for (size_t i = 0; i < facts; ++i) {
      std::vector<TermId> t = random_tuple();
      if (s.AddFact(pred, t)) stored.push_back(std::move(t));
    }
    std::vector<std::vector<TermId>> qs;
    for (size_t i = 0; i < queries; ++i) {
      if (!stored.empty() && rng() % 2 == 0) {
        qs.push_back(stored[rng() % stored.size()]);  // a present tuple
      } else {
        qs.push_back(random_tuple());  // usually absent
      }
    }
    std::sort(qs.begin(), qs.end());
    count = qs.size();
    for (const auto& t : qs) batch.insert(batch.end(), t.begin(), t.end());
  }

  /// Asserts ContainsSorted against per-tuple Contains on the batch.
  void ExpectAgree(const char* label) const {
    std::vector<char> got;
    size_t hits = s.ContainsSorted(pred, arity, batch.data(), count, &got);
    ASSERT_EQ(got.size(), count) << label;
    size_t expected_hits = 0;
    for (size_t i = 0; i < count; ++i) {
      std::vector<TermId> t(batch.begin() + i * arity,
                            batch.begin() + (i + 1) * arity);
      bool want = s.Contains(pred, t);
      EXPECT_EQ(got[i] != 0, want) << label << " tuple " << i;
      expected_hits += want;
    }
    EXPECT_EQ(hits, expected_hits) << label;
  }
};

TEST(ContainsSortedTest, AgreesWithPerRowContainsOnRandomStructures) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    for (size_t arity : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      ProbeCase pc(arity, /*facts=*/120, /*domain=*/12, /*queries=*/150,
                   seed * 17 + static_cast<uint32_t>(arity));
      pc.ExpectAgree("never-refreshed");  // all-hash fallback path
      pc.s.RefreshIndexes();
      pc.ExpectAgree("fresh indexes");  // the gallop path proper
    }
  }
}

TEST(ContainsSortedTest, StaysCorrectOnStaleIndexes) {
  // The round-boundary case: indexes refreshed, then facts added — the
  // gallop covers the indexed prefix, the tail must fall back to hash.
  ProbeCase pc(/*arity=*/2, /*facts=*/80, /*domain=*/10, /*queries=*/0, 7);
  pc.s.RefreshIndexes();
  std::mt19937 rng(99);
  std::vector<std::vector<TermId>> late;
  for (size_t i = 0; i < 40; ++i) {
    std::vector<TermId> t = {pc.sig->AddConstant('d' + std::to_string(i)),
                             pc.sig->AddConstant('d' + std::to_string(i))};
    if (pc.s.AddFact(pc.pred, t)) late.push_back(t);
  }
  ASSERT_LT(pc.s.IndexedRows(pc.pred), pc.s.NumFacts(pc.pred));
  std::vector<std::vector<TermId>> qs = late;  // all past the watermark
  qs.push_back({pc.sig->AddConstant("nowhere"), pc.sig->AddConstant("d0")});
  std::sort(qs.begin(), qs.end());
  std::vector<TermId> flat;
  for (const auto& t : qs) flat.insert(flat.end(), t.begin(), t.end());
  std::vector<char> got;
  size_t hits =
      pc.s.ContainsSorted(pc.pred, 2, flat.data(), qs.size(), &got);
  EXPECT_EQ(hits, late.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(got[i] != 0, pc.s.Contains(pc.pred, qs[i])) << i;
  }
}

TEST(ContainsSortedTest, WideEqualValueSlicesAnswerExactly) {
  // 100 rows share one first-column value: the tuple-ordered index must
  // answer every probe into the wide slice exactly.
  auto sig = std::make_shared<Signature>();
  Structure s(sig);
  PredId p = std::move(sig->AddPredicate("p", 2)).ValueOrDie();
  TermId hub = sig->AddConstant("hub");
  std::vector<TermId> spokes;
  for (int i = 0; i < 100; ++i) {
    spokes.push_back(sig->AddConstant('s' + std::to_string(i)));
    s.AddFact(p, {hub, spokes.back()});
  }
  s.RefreshIndexes();
  TermId absent = sig->AddConstant("absent");
  std::vector<std::vector<TermId>> qs;
  for (int i = 0; i < 100; i += 3) qs.push_back({hub, spokes[i]});
  qs.push_back({hub, absent});
  std::sort(qs.begin(), qs.end());
  std::vector<TermId> flat;
  for (const auto& t : qs) flat.insert(flat.end(), t.begin(), t.end());
  std::vector<char> got;
  size_t hits = s.ContainsSorted(p, 2, flat.data(), qs.size(), &got);
  EXPECT_EQ(hits, qs.size() - 1);
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(got[i] != 0, s.Contains(p, qs[i])) << i;
  }
}

TEST(ContainsSortedTest, EmptyBatchAndArityZeroAndMissingRelation) {
  auto sig = std::make_shared<Signature>();
  Structure s(sig);
  PredId yes = std::move(sig->AddPredicate("yes", 0)).ValueOrDie();
  PredId no = std::move(sig->AddPredicate("no", 0)).ValueOrDie();
  PredId never = std::move(sig->AddPredicate("never", 2)).ValueOrDie();
  s.AddFact(yes, {});
  std::vector<char> got;
  EXPECT_EQ(s.ContainsSorted(yes, 0, nullptr, 0, &got), 0u);  // empty batch
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(s.ContainsSorted(yes, 0, nullptr, 3, &got), 3u);
  EXPECT_EQ(got, (std::vector<char>{1, 1, 1}));
  EXPECT_EQ(s.ContainsSorted(no, 0, nullptr, 2, &got), 0u);
  EXPECT_EQ(got, (std::vector<char>{0, 0}));
  TermId c = sig->AddConstant("c");
  std::vector<TermId> one = {c, c};
  EXPECT_EQ(s.ContainsSorted(never, 2, one.data(), 1, &got), 0u);
  EXPECT_EQ(got, (std::vector<char>{0}));
}

// ---------------------------------------------------------------------------
// DatalogSinkBuffers (sort-dedup + bulk containment) vs a hash reference.
// ---------------------------------------------------------------------------

/// What the reference's hash sink would compute for a run of occurrences
/// against `frozen`: the emitted set plus the contained / deduped
/// occurrence counts (the order-independent contract the counters must
/// meet).
struct HashReference {
  std::vector<Atom> emitted;  // sorted distinct, not in frozen
  size_t candidates = 0;
  size_t contained = 0;  // occurrences of frozen-contained tuples
  size_t deduped = 0;    // extra occurrences of emitted tuples

  HashReference(const Structure& frozen, const std::vector<Atom>& occs) {
    candidates = occs.size();
    std::map<Atom, size_t> groups;
    for (const Atom& g : occs) ++groups[g];
    for (const auto& [g, k] : groups) {
      if (frozen.Contains(g)) {
        contained += k;
      } else {
        emitted.push_back(g);
        deduped += k - 1;
      }
    }
  }
};

/// Predicates p1..p4 of arities 1 to 4, the ones RandomOccurrences draws
/// from.
std::vector<PredId> SinkPredicates(Signature* sig) {
  std::vector<PredId> preds;
  for (int arity = 1; arity <= 4; ++arity) {
    preds.push_back(
        std::move(sig->AddPredicate('p' + std::to_string(arity), arity))
            .ValueOrDie());
  }
  return preds;
}

/// Random occurrence run over `preds`, drawn from a small tuple pool so
/// duplicate groups are common. Positions 0-1 of arity-3+ tuples draw
/// from two constants, so those tuples tie on the leading positions and
/// differ only later.
std::vector<Atom> RandomOccurrences(Structure* frozen, SignaturePtr sig,
                                    const std::vector<PredId>& preds,
                                    size_t n, size_t pool, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<TermId> consts;
  for (size_t i = 0; i < 10; ++i) {
    consts.push_back(sig->AddConstant('k' + std::to_string(i)));
  }
  std::vector<Atom> pool_atoms;
  for (size_t i = 0; i < pool; ++i) {
    const PredId pred = preds[rng() % preds.size()];
    const size_t arity = static_cast<size_t>(sig->arity(pred));
    std::vector<TermId> args(arity);
    for (size_t pos = 0; pos < arity; ++pos) {
      args[pos] = consts[rng() % (arity >= 3 && pos < 2 ? 2 : consts.size())];
    }
    pool_atoms.emplace_back(pred, std::move(args));
    // A third of the pool pre-exists in the frozen structure.
    if (rng() % 3 == 0) frozen->AddFact(pool_atoms.back());
  }
  std::vector<Atom> occs;
  for (size_t i = 0; i < n; ++i) {
    occs.push_back(pool_atoms[rng() % pool_atoms.size()]);
  }
  return occs;
}

TEST(SinkBuffersTest, SortDedupMatchesHashDedupOnRandomRuns) {
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    // Thresholds down to 1 force a compaction per append — the telescoping
    // dedup count must still come out exactly right.
    for (size_t threshold : {size_t{1}, size_t{2}, size_t{7}, size_t{1024}}) {
      auto sig = std::make_shared<Signature>();
      Structure frozen(sig);
      std::vector<Atom> occs =
          RandomOccurrences(&frozen, sig, SinkPredicates(sig.get()),
                            /*n=*/300, /*pool=*/60, seed * 31);
      frozen.RefreshIndexes();
      HashReference want(frozen, occs);

      DatalogSinkBuffers sink(frozen, threshold, /*drop_dup_groups=*/false);
      for (const Atom& g : occs) AppendAtom(&sink, g);
      std::vector<Atom> got = Emit(&sink, false);

      std::string label = "seed " + std::to_string(seed) + " threshold " +
                          std::to_string(threshold);
      EXPECT_EQ(got, want.emitted) << label;
      EXPECT_EQ(sink.candidates(), want.candidates) << label;
      EXPECT_EQ(sink.contained(), want.contained) << label;
      EXPECT_EQ(sink.deduped(), want.deduped) << label;
    }
  }
}

TEST(SinkBuffersTest, AllDistinctAndAllDuplicateExtremes) {
  auto sig = std::make_shared<Signature>();
  Structure frozen(sig);
  PredId p = std::move(sig->AddPredicate("p", 1)).ValueOrDie();
  std::vector<TermId> consts;
  for (int i = 0; i < 50; ++i) {
    consts.push_back(sig->AddConstant('c' + std::to_string(i)));
  }
  frozen.RefreshIndexes();

  {  // All distinct: nothing deduped, nothing contained.
    DatalogSinkBuffers sink(frozen, 8, false);
    for (TermId c : consts) AppendAtom(&sink, Atom(p, {c}));
    std::vector<Atom> got = Emit(&sink, false);
    EXPECT_EQ(got.size(), consts.size());
    EXPECT_EQ(sink.deduped(), 0u);
    EXPECT_EQ(sink.contained(), 0u);
    EXPECT_EQ(sink.candidates(), consts.size());
  }
  {  // One tuple 50 times: one survivor, 49 deduped.
    DatalogSinkBuffers sink(frozen, 8, false);
    for (int i = 0; i < 50; ++i) AppendAtom(&sink, Atom(p, {consts[0]}));
    std::vector<Atom> got = Emit(&sink, false);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], Atom(p, {consts[0]}));
    EXPECT_EQ(sink.deduped(), 49u);
  }
  {  // Empty round and a single tuple.
    DatalogSinkBuffers sink(frozen, 8, false);
    EXPECT_TRUE(Emit(&sink, false).empty());
    EXPECT_EQ(sink.candidates(), 0u);
    DatalogSinkBuffers one(frozen, 8, false);
    AppendAtom(&one, Atom(p, {consts[1]}));
    EXPECT_EQ(Emit(&one, false).size(), 1u);
    EXPECT_EQ(one.deduped() + one.contained(), 0u);
  }
}

TEST(SinkBuffersTest, ShardedMergeMatchesSingleSinkExactly) {
  // Split the same occurrence run across 1, 2, 3 and 5 simulated shard
  // tasks: merged output and the *total* dedup count (per-task + merge)
  // must be independent of the split.
  auto sig = std::make_shared<Signature>();
  Structure frozen(sig);
  std::vector<Atom> occs = RandomOccurrences(
      &frozen, sig, SinkPredicates(sig.get()), 360, 45, 12345);
  // A nullary head derived in every task: its one empty tuple goes through
  // the cross-task merge as well.
  const PredId flag = std::move(sig->AddPredicate("flag", 0)).ValueOrDie();
  for (int i = 0; i < 7; ++i) occs.emplace_back(flag, std::vector<TermId>{});
  frozen.RefreshIndexes();
  HashReference want(frozen, occs);

  for (size_t tasks : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    std::vector<DatalogRun> runs;
    size_t task_deduped = 0, task_contained = 0, task_candidates = 0;
    for (size_t t = 0; t < tasks; ++t) {
      DatalogSinkBuffers sink(frozen, 16, false);
      for (size_t i = t; i < occs.size(); i += tasks) {
        AppendAtom(&sink, occs[i]);
      }
      auto part = sink.TakeRuns();
      for (auto& run : part) runs.push_back(std::move(run));
      task_deduped += sink.deduped();
      task_contained += sink.contained();
      task_candidates += sink.candidates();
    }
    size_t merge_deduped = 0;
    std::vector<Atom> got = Merge(std::move(runs), false, &merge_deduped);

    std::string label = std::to_string(tasks) + " tasks";
    EXPECT_EQ(got, want.emitted) << label;
    EXPECT_EQ(task_candidates, want.candidates) << label;
    EXPECT_EQ(task_contained, want.contained) << label;
    EXPECT_EQ(task_deduped + merge_deduped, want.deduped) << label;
  }
}

TEST(SinkBuffersTest, SortsRawTermIdsOnEveryDigitBoundary) {
  // Raw TermIds on every 8-bit digit boundary of the 31-bit range, each
  // tuple twice in a shuffled run, over an empty frozen structure. Inline
  // (one task) and through the barrier's merge (three tasks), the output
  // must be std::sort's order and the dedup count the hash reference's.
  const std::vector<TermId> values = {0,       255,     256,      65535,
                                      65536,   1 << 24, INT32_MAX};
  auto sig = std::make_shared<Signature>();
  Structure frozen(sig);
  PredId q2 = std::move(sig->AddPredicate("q2", 2)).ValueOrDie();
  PredId q3 = std::move(sig->AddPredicate("q3", 3)).ValueOrDie();
  std::vector<Atom> occs;
  for (TermId a : values) {
    for (TermId b : values) {
      occs.emplace_back(q2, std::vector<TermId>{b, a});
      for (TermId c : values) occs.emplace_back(q3, std::vector<TermId>{c, b, a});
    }
  }
  std::vector<Atom> want = occs;
  std::sort(want.begin(), want.end());
  occs.insert(occs.end(), want.begin(), want.end());
  std::shuffle(occs.begin(), occs.end(), std::mt19937(5));
  HashReference ref(frozen, occs);
  ASSERT_EQ(ref.emitted, want);

  for (size_t tasks : {size_t{1}, size_t{3}}) {
    for (size_t threshold : {size_t{1}, size_t{7}, size_t{1024}}) {
      std::vector<DatalogRun> runs;
      size_t deduped = 0;
      for (size_t t = 0; t < tasks; ++t) {
        DatalogSinkBuffers sink(frozen, threshold, false);
        for (size_t i = t; i < occs.size(); i += tasks) {
          AppendAtom(&sink, occs[i]);
        }
        for (auto& run : sink.TakeRuns()) runs.push_back(std::move(run));
        deduped += sink.deduped();
        EXPECT_EQ(sink.contained(), 0u);
      }
      std::vector<Atom> got = Merge(std::move(runs), false, &deduped);
      const std::string label = std::to_string(tasks) + " tasks threshold " +
                                std::to_string(threshold);
      EXPECT_EQ(got, want) << label;
      EXPECT_EQ(deduped, ref.deduped) << label;
    }
  }
}

TEST(SinkBuffersTest, DropDupGroupsFaultDropsExactlyTheDuplicatedTuples) {
  // The kSinkDropDup self-test hook: duplicated tuples vanish entirely,
  // singletons survive — both within one sink and across a merge.
  auto sig = std::make_shared<Signature>();
  Structure frozen(sig);
  PredId p = std::move(sig->AddPredicate("p", 1)).ValueOrDie();
  TermId once = sig->AddConstant("once");
  TermId twice = sig->AddConstant("twice");
  frozen.RefreshIndexes();

  DatalogSinkBuffers sink(frozen, 2, /*drop_dup_groups=*/true);
  AppendAtom(&sink, Atom(p, {once}));
  AppendAtom(&sink, Atom(p, {twice}));
  AppendAtom(&sink, Atom(p, {twice}));
  std::vector<Atom> got = Emit(&sink, true);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Atom(p, {once}));

  // Cross-run duplicates: one occurrence in each of two tasks.
  std::vector<DatalogRun> runs;
  for (int t = 0; t < 2; ++t) {
    DatalogSinkBuffers task(frozen, 16, true);
    AppendAtom(&task, Atom(p, {twice}));
    if (t == 0) AppendAtom(&task, Atom(p, {once}));
    for (auto& run : task.TakeRuns()) runs.push_back(std::move(run));
  }
  size_t scratch = 0;
  got = Merge(std::move(runs), true, &scratch);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Atom(p, {once}));
}

// ---------------------------------------------------------------------------
// VerifyRoundBuffer (full paranoia) on crafted buffers.
// ---------------------------------------------------------------------------

TEST(VerifyRoundBufferTest, AcceptsACleanBufferAndNamesEachViolation) {
  auto sig = std::make_shared<Signature>();
  Structure frozen(sig);
  PredId p = std::move(sig->AddPredicate("p", 2)).ValueOrDie();
  PredId q = std::move(sig->AddPredicate("q", 1)).ValueOrDie();
  const TermId a = sig->AddConstant("a");
  const TermId b = sig->AddConstant("b");
  const TermId lo = std::min(a, b), hi = std::max(a, b);
  frozen.AddFact(p, {lo, lo});
  auto run = [](PredId pred, size_t arity,
                const std::vector<std::vector<TermId>>& tuples) {
    DatalogRun r;
    r.pred = pred;
    r.arity = arity;
    r.tuples = tuples.size();
    for (const auto& t : tuples) {
      r.data.insert(r.data.end(), t.begin(), t.end());
    }
    return r;
  };
  auto verify = [&](std::vector<DatalogRun> runs) {
    chase_internal::RoundBuffer buf;
    buf.datalog = std::move(runs);
    return chase_internal::VerifyRoundBuffer(buf, frozen);
  };

  EXPECT_TRUE(
      verify({run(p, 2, {{lo, hi}, {hi, lo}}), run(q, 1, {{lo}, {hi}})}).ok());
  const Status dup = verify({run(p, 2, {{lo, hi}, {lo, hi}})});
  EXPECT_NE(dup.message().find("duplicate tuple"), std::string::npos)
      << dup.ToString();
  const Status desc = verify({run(q, 1, {{hi}, {lo}})});
  EXPECT_NE(desc.message().find("descending pair"), std::string::npos)
      << desc.ToString();
  const Status stale = verify({run(p, 2, {{lo, lo}, {lo, hi}})});
  EXPECT_NE(stale.message().find("re-derives a frozen fact"),
            std::string::npos)
      << stale.ToString();
  for (const Status& st : {dup, desc, stale}) {
    EXPECT_EQ(st.code(), StatusCode::kInternal);
  }
}

// ---------------------------------------------------------------------------
// Trigger keys: the flat canonical key renders to the PatternKey strings.
// ---------------------------------------------------------------------------

TermId V(int32_t k) { return MakeVar(k); }

/// `n` atoms of predicate `pred` forming a variable cycle
/// pred(?0, ?1), pred(?1, ?2), ..., pred(?n-1, ?0), optionally listed in
/// reverse: every atom has the same local key, so all n tie.
std::vector<Atom> TiedCycle(PredId pred, int32_t n, bool reverse) {
  std::vector<Atom> out;
  for (int32_t i = 0; i < n; ++i) {
    out.emplace_back(pred, std::vector<TermId>{V(i), V((i + 1) % n)});
  }
  if (reverse) std::reverse(out.begin(), out.end());
  return out;
}

TEST(PatternKeyTest, RenderOfCanonicalizeMatchesTheGoldenStrings) {
  // Golden PatternKey strings: the winners' application order, and with it
  // every null's TermId, follows them, so they must not move.
  const std::vector<std::tuple<const char*, std::vector<Atom>, const char*>>
      cases = {
          {"one existential", {Atom(0, {5, V(0)})}, "0,5,-1|"},
          {"repeated existential", {Atom(3, {V(3), 4, V(3)})}, "3,-1,4,-1|"},
          {"two existentials renamed",
           {Atom(2, {V(7), V(2), V(7), V(2)})},
           "2,-1,-2,-1,-2|"},
          {"ground atom", {Atom(1, {1, 2})}, "1,1,2|"},
          {"nullary atom", {Atom(4, {})}, "4|"},
          {"two-digit ids", {Atom(12, {10, V(0)})}, "12,10,-1|"},
          {"largest constant",
           {Atom(3, {2147483647, V(0)})},
           "3,2147483647,-1|"},
          {"eleven existentials",
           {Atom(8, {V(0), V(1), V(2), V(3), V(4), V(5), V(6), V(7), V(8),
                     V(9), V(10)})},
           "8,-1,-2,-3,-4,-5,-6,-7,-8,-9,-10,-11|"},
          {"constants 9 and 10",
           {Atom(0, {9, V(0)}), Atom(0, {10, V(0)})},
           "0,10,-1|0,9,-1|"},
          {"predicates 9 and 10",
           {Atom(9, {V(0)}), Atom(10, {V(0)})},
           "10,-1|9,-1|"},
          {"shared existential, constants",
           {Atom(1, {V(0), 3}), Atom(2, {3, V(0)})},
           "1,-1,3|2,3,-1|"},
          {"different variable shapes",
           {Atom(5, {V(1), V(2)}), Atom(5, {V(0), V(0)})},
           "5,-1,-1|5,-2,-3|"},
          // Tied local keys: the least *rendered* arrangement wins, which
          // is not the numerically least ("-2" < "-3" as text).
          {"tied chain",
           {Atom(5, {V(0), V(1)}), Atom(5, {V(1), V(2)})},
           "5,-1,-2|5,-2,-3|"},
          {"tied chain reversed",
           {Atom(5, {V(1), V(2)}), Atom(5, {V(0), V(1)})},
           "5,-1,-2|5,-2,-3|"},
          {"tied two-cycle",
           {Atom(5, {V(4), V(9)}), Atom(5, {V(9), V(4)})},
           "5,-1,-2|5,-2,-1|"},
          {"tied three-cycle", TiedCycle(5, 3, false),
           "5,-1,-2|5,-2,-3|5,-3,-1|"},
          {"tied with constants",
           {Atom(6, {3, V(0)}), Atom(7, {V(0), V(1)}), Atom(6, {3, V(1)})},
           "6,3,-1|6,3,-2|7,-1,-2|"},
          {"tied pairs with 9 and 10",
           {Atom(4, {10, V(0), V(2)}), Atom(4, {9, V(0), V(1)}),
            Atom(4, {9, V(1), V(0)})},
           "4,10,-1,-2|4,9,-1,-3|4,9,-3,-1|"},
          {"two tied groups",
           {Atom(9, {V(0), V(5)}), Atom(10, {V(0), V(1)}),
            Atom(10, {V(1), V(2)}), Atom(9, {V(5), V(6)}),
            Atom(10, {V(2), V(3)}), Atom(9, {V(6), V(0)}),
            Atom(10, {V(3), V(4)}), Atom(10, {V(4), V(0)})},
           "10,-1,-2|10,-2,-3|10,-3,-4|10,-4,-5|10,-5,-1|9,-1,-6|9,-6,-7|"
           "9,-7,-1|"},
          {"seven tied atoms (at the cap)", TiedCycle(5, 7, false),
           "5,-1,-2|5,-2,-3|5,-3,-4|5,-4,-5|5,-5,-6|5,-6,-7|5,-7,-1|"},
          // Past the cap (8! = 40,320 > 5,040 arrangements) the local-key
          // sorted order stands, so the listed order shows through.
          {"eight tied atoms (past the cap)", TiedCycle(5, 8, false),
           "5,-1,-2|5,-2,-3|5,-3,-4|5,-4,-5|5,-5,-6|5,-6,-7|5,-7,-8|"
           "5,-8,-1|"},
          {"eight tied atoms reversed", TiedCycle(5, 8, true),
           "5,-1,-2|5,-3,-1|5,-4,-3|5,-5,-4|5,-6,-5|5,-7,-6|5,-8,-7|"
           "5,-2,-8|"},
          {"twenty tied atoms", TiedCycle(11, 20, true),
           "11,-1,-2|11,-3,-4|11,-4,-5|11,-5,-6|11,-6,-7|11,-7,-8|11,-8,-9|"
           "11,-9,-10|11,-10,-11|11,-11,-1|11,-12,-3|11,-2,-13|11,-13,-14|"
           "11,-14,-15|11,-15,-16|11,-16,-17|11,-17,-18|11,-18,-19|"
           "11,-19,-20|11,-20,-12|"},
          {"empty pattern", {}, ""},
      };
  for (const auto& [name, pattern, golden] : cases) {
    const std::vector<TermId> key = chase_internal::Canonicalize(pattern);
    EXPECT_EQ(chase_internal::Render(key.data(), key.size()), golden)
        << name;
    EXPECT_EQ(chase_internal::PatternKey(pattern), golden) << name;
  }
}

TEST(PatternKeyTest, EqualFlatKeysAreEqualStrings) {
  // Renaming the existentials or reordering the atoms keeps the flat key;
  // a changed constant changes both the flat key and the string.
  const std::vector<Atom> p = {Atom(5, {V(0), V(1)}), Atom(6, {9, V(1)})};
  const std::vector<Atom> renamed = {Atom(6, {9, V(4)}),
                                     Atom(5, {V(7), V(4)})};
  const std::vector<Atom> other = {Atom(5, {V(0), V(1)}),
                                   Atom(6, {10, V(1)})};
  using chase_internal::Canonicalize;
  EXPECT_EQ(Canonicalize(p), Canonicalize(renamed));
  EXPECT_NE(Canonicalize(p), Canonicalize(other));
  EXPECT_NE(chase_internal::PatternKey(p), chase_internal::PatternKey(other));
}

// ---------------------------------------------------------------------------
// DedupTriggers: keep-min winner, order independence.
// ---------------------------------------------------------------------------

TEST(DedupTriggersTest, KeepsTheTriggerLessLeastWinnerAtAnyArrivalOrder) {
  // Three rules demand the same head shape w(X, Z); a record is the rule
  // index plus its grounded head cells, the existential still symbolic.
  Program prog = MustParse(R"(
    q0(X) -> exists Z: w(X, Z).
    q1(X) -> exists Z: w(X, Z).
    q2(X) -> exists Z: w(X, Z).
  )");
  const Theory& theory = prog.theory;
  Signature& sig = *theory.signature_ptr();
  const PredId w = std::move(sig.FindPredicate("w")).ValueOrDie();
  // Ten constants, so a is 9 and b is 10: their decimal order differs
  // from their numeric order.
  for (int i = 0; i < 9; ++i) sig.AddConstant('k' + std::to_string(i));
  const TermId a = sig.AddConstant("a");
  const TermId b = sig.AddConstant("b");
  ASSERT_EQ(a, 9);
  ASSERT_EQ(b, 10);
  const TermId z = theory.rules()[0].head[0].args[1];
  ASSERT_TRUE(IsVar(z));

  auto record = [z](TriggerTable* t, int32_t rule, TermId arg) {
    TermId* cells = t->Append(rule, 2);
    cells[0] = arg;
    cells[1] = z;
  };
  // Keys: w(a, Z) is "<w>,9,-1|" and w(b, Z) is "<w>,10,-1|".
  const std::string key_a = std::to_string(w) + ",9,-1|";
  const std::string key_b = std::to_string(w) + ",10,-1|";
  TriggerTable first, second;
  record(&first, 2, a);
  record(&first, 1, b);
  record(&second, 0, a);  // the key_a winner
  record(&second, 1, a);

  // Both arrival orders, as one task or as two.
  const std::vector<std::vector<TriggerTable>> inputs = {
      {first, second}, {second, first}};
  for (const std::vector<TriggerTable>& tasks : inputs) {
    for (bool merged : {false, true}) {
      std::vector<TriggerTable> in = tasks;
      if (merged) {
        TriggerTable one;
        for (const TriggerTable& t : tasks) {
          for (const TriggerTable::Trigger& tr : t.triggers) {
            record(&one, tr.rule_index, t.cells[tr.cells]);
          }
        }
        in = {one};
      }
      TriggerTable out;
      size_t tdedup = 0;
      DedupTriggers(theory, /*oblivious=*/false, /*unique_keys=*/false, in,
                    &out, &tdedup);
      ASSERT_EQ(out.triggers.size(), 2u);
      EXPECT_EQ(tdedup, 2u);
      EXPECT_EQ(out.triggers[0].key, key_b);  // rendered-key order
      EXPECT_EQ(out.triggers[1].key, key_a);
      EXPECT_EQ(out.triggers[0].rule_index, 1);
      EXPECT_EQ(out.triggers[1].rule_index, 0);  // TriggerLess-least, not first
      EXPECT_EQ(out.cells[out.triggers[0].cells], b);
      EXPECT_EQ(out.cells[out.triggers[1].cells], a);
    }
  }

  // The kSkipTriggerDedup fault keeps every record.
  TriggerTable out;
  size_t tdedup = 0;
  DedupTriggers(theory, false, /*unique_keys=*/true, {first, second}, &out,
                &tdedup);
  EXPECT_EQ(out.triggers.size(), 4u);
  EXPECT_EQ(tdedup, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: colliding derivations, byte identity, counter parity.
// ---------------------------------------------------------------------------

/// The engine configurations the end-to-end tests sweep: the production
/// engine on one worker and on four, and the kNaive reference with its
/// hash sink.
struct EngineCase {
  ChaseEngine engine;
  size_t threads;
  const char* label;
};
constexpr EngineCase kEngineCases[] = {
    {ChaseEngine::kParallel, 1, "production t1"},
    {ChaseEngine::kParallel, 4, "production t4"},
    {ChaseEngine::kNaive, 1, "naive"},
};

TEST(SinkEndToEndTest, CollidingExistentialsKeepTheSameWinnerEitherSink) {
  // Two rules demand the same head pattern in the same round; the keep-min
  // contract says rule 0 wins regardless of enumeration order — and the
  // sort-merge sink must reproduce exactly the hash sink's winner.
  for (const EngineCase& ec : kEngineCases) {
    Program q = MustParse(R"(
      a(X) -> exists Z: w(X, Z).
      b(X) -> exists Z: w(X, Z).
      a(c).
      b(c).
    )");
    ChaseOptions opts;
    opts.engine = ec.engine;
    opts.threads = ec.threads;
    ChaseResult r = RunChase(q.theory, q.instance, opts);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.nulls_created, 1u);
    EXPECT_EQ(r.stats.triggers_deduped, 1u);
    ASSERT_EQ(r.null_provenance.size(), 1u);
    EXPECT_EQ(r.null_provenance.begin()->second.rule_index, 0) << ec.label;
  }
}

TEST(SinkEndToEndTest, CollidingDatalogHeadsCountOneDedupEitherSink) {
  Program p = MustParse(R"(
    a(X) -> d(X).
    b(X) -> d(X).
    a(c).
    b(c).
  )");
  for (const EngineCase& ec : kEngineCases) {
    ChaseOptions opts;
    opts.engine = ec.engine;
    opts.threads = ec.threads;
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.stats.datalog_deduped, 1u) << ec.label;
    PredId d = std::move(p.theory.sig().FindPredicate("d")).ValueOrDie();
    TermId c = std::move(p.theory.sig().FindConstant("c")).ValueOrDie();
    EXPECT_TRUE(r.structure.Contains(Atom(d, {c})));
  }
}

TEST(SinkEndToEndTest, ByteIdenticalAcrossSinksOnMixedWorkload) {
  // A fresh Program per run: runs share a Signature otherwise, and the
  // nulls the first run interns would shift the TermIds of the second.
  auto make = [] {
    return MustParse(R"(
      e(X, Y), e(Y, Z) -> e(X, Z).
      e(X, Y) -> exists W: f(Y, W).
      f(X, Y), e(Z, X) -> g(Z, Y).
      e(c0, c1).
      e(c1, c2).
      e(c2, c3).
      e(c3, c0).
      e(c1, c0).
    )");
  };
  Program ref_p = make();
  ChaseOptions base;
  base.engine = ChaseEngine::kNaive;
  ChaseResult ref = RunChase(ref_p.theory, ref_p.instance, base);
  ASSERT_TRUE(ref.status.ok());
  const std::string want = ExactChaseDump(ref);
  for (const EngineCase& ec : kEngineCases) {
    Program p = make();
    ChaseOptions opts;
    opts.engine = ec.engine;
    opts.threads = ec.threads;
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    EXPECT_EQ(ExactChaseDump(r), want) << ec.label;
  }
}

TEST(SinkEndToEndTest, SinkCountersAccountForEveryCandidate) {
  // Conservation law on a duplicate-heavy workload: every buffered
  // candidate is either contained in the frozen prefix, deduped, or a new
  // fact. (Only the production engine's vectorized sink populates sink_*.)
  Program p = MustParse(R"(
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(c0, c1).
    e(c1, c2).
    e(c2, c3).
    e(c3, c4).
    e(c4, c0).
  )");
  ChaseOptions opts;
  ChaseResult r = RunChase(p.theory, p.instance, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.stats.sink_candidates, 0u);
  EXPECT_EQ(r.stats.sink_candidates -
                r.stats.sink_contained - r.stats.datalog_deduped,
            r.structure.NumFacts() - p.instance.NumFacts());

  opts.engine = ChaseEngine::kNaive;
  ChaseResult naive = RunChase(p.theory, p.instance, opts);
  EXPECT_EQ(naive.stats.sink_candidates, 0u);
  EXPECT_EQ(naive.stats.sink_contained, 0u);
  EXPECT_EQ(naive.stats.sink_probes, 0u);
  // The dedup counter is sink-independent.
  EXPECT_EQ(naive.stats.datalog_deduped, r.stats.datalog_deduped);
  EXPECT_EQ(naive.structure.NumFacts(), r.structure.NumFacts());
}

TEST(SinkEndToEndTest, SaturateClosureIsSinkAndThreadIndependent) {
  // Datalog-only saturation (Lemma 5's mode): the production closure at
  // every thread count is the reference's byte for byte, with one
  // bindings_tried across thread counts.
  auto make = [] {
    return MustParse(R"(
      e(X, Y), e(Y, Z) -> e(X, Z).
      e(X, Y) -> u(X).
      e(X, Y) -> exists Z: e(Y, Z).
      e(c0, c1).
      e(c1, c2).
      e(c2, c0).
      e(c2, c3).
    )");
  };
  ChaseOptions opts;
  opts.datalog_only = true;
  opts.engine = ChaseEngine::kNaive;
  Program ref_p = make();
  ChaseResult ref = RunChase(ref_p.theory, ref_p.instance, opts);
  ASSERT_TRUE(ref.status.ok());
  ASSERT_EQ(ref.nulls_created, 0u);
  const std::string want = ExactChaseDump(ref);
  opts.engine = ChaseEngine::kParallel;
  size_t t1_bindings = 0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Program p = make();
    opts.threads = threads;
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    EXPECT_EQ(ExactChaseDump(r), want) << "t" << threads;
    if (threads == 1) t1_bindings = r.stats.match.bindings_tried;
    EXPECT_EQ(r.stats.match.bindings_tried, t1_bindings) << "t" << threads;
  }
}

}  // namespace
}  // namespace bddfc
