#include "bddfc/chase/round.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <utility>

#include "bddfc/base/parallel.h"
#include "bddfc/eval/exec.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/trace.h"

namespace bddfc {
namespace chase_internal {

namespace {

/// Appends `v` in decimal, as std::to_string spells it, to `s`.
void AppendNumber(int64_t v, std::string* s) {
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
  s->append(digits, end - digits);
}

/// Copies the `n` cells at `src` to `dst`, renumbering the variables by
/// first occurrence: the first distinct variable becomes MakeVar(0), the
/// next MakeVar(1), and so on. Other cells (constants, and a flat key's
/// predicate and arity cells) are copied as they are. Quadratic in the
/// number of cells, which is a head's size, and allocation-free.
void Renumber(const TermId* src, size_t n, TermId* dst) {
  int32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    dst[i] = src[i];
    if (!IsVar(src[i])) continue;
    size_t j = 0;
    while (src[j] != src[i]) ++j;
    dst[i] = j < i ? dst[j] : MakeVar(next++);
  }
}

/// Past this many atom arrangements the canonical key stops searching and
/// takes the local-key sorted order.
constexpr size_t kMaxArrangements = 5040;

/// Appends the canonical key (Canonicalize's layout) of the pattern whose
/// atoms have `shape`'s predicates and arities and whose arguments are
/// `cells`, atom after atom in `shape` order.
///
/// A single atom is its own arrangement: its key is the atom renumbered.
/// Several atoms are sorted under a name-independent local key (predicate
/// plus per-position constant/within-atom variable shape); among atoms
/// whose local keys tie, every arrangement is tried and the one whose
/// rendered key is lexicographically least wins. Renumbering variables
/// before sorting (the seed behavior) bakes the incoming atom order into
/// the variable names, so logically identical patterns keyed apart and
/// spawned duplicate witnesses. Ties are rare (heads are small), but past
/// kMaxArrangements the sorted order stands — still deterministic and
/// never merging inequivalent patterns, as the key is the renumbered
/// pattern itself.
void AppendCanonicalKey(const std::vector<Atom>& shape, const TermId* cells,
                        std::vector<TermId>* out) {
  const size_t begin = out->size();
  if (shape.size() == 1) {
    const size_t arity = shape[0].args.size();
    out->resize(begin + 2 + arity);
    TermId* key = out->data() + begin;
    key[0] = shape[0].pred;
    key[1] = static_cast<TermId>(arity);
    Renumber(cells, arity, key + 2);
    return;
  }

  // Several atoms: materialize them, then sort under the local key.
  auto local_key = [](const Atom& a) {
    std::vector<TermId> renumbered(a.args.size());
    Renumber(a.args.data(), a.args.size(), renumbered.data());
    std::string s = std::to_string(a.pred);
    for (TermId t : renumbered) {
      s += IsVar(t) ? ",v" + std::to_string(DecodeVar(t))
                    : ",c" + std::to_string(t);
    }
    return s;
  };
  std::vector<std::pair<std::string, Atom>> keyed;
  keyed.reserve(shape.size());
  for (const Atom& a : shape) {
    Atom g(a.pred, std::vector<TermId>(cells, cells + a.args.size()));
    cells += a.args.size();
    keyed.emplace_back(local_key(g), std::move(g));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  // Group atoms with equal local keys and bound the number of arrangements
  // (a running product of the groups' factorials, which stops growing once
  // it passes the cap, so it cannot wrap).
  std::vector<std::vector<Atom>> groups;
  size_t arrangements = 1;
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) groups.emplace_back();
    groups.back().push_back(std::move(keyed[i].second));
    if (arrangements <= kMaxArrangements) arrangements *= groups.back().size();
  }

  // The renumbered key of the current arrangement of `groups`.
  std::vector<TermId> plain;
  auto arranged_key = [&groups, &plain](std::vector<TermId>* key) {
    plain.clear();
    for (const auto& g : groups) {
      for (const Atom& a : g) {
        plain.push_back(a.pred);
        plain.push_back(static_cast<TermId>(a.args.size()));
        plain.insert(plain.end(), a.args.begin(), a.args.end());
      }
    }
    key->resize(plain.size());
    Renumber(plain.data(), plain.size(), key->data());
  };

  std::vector<TermId> best;
  if (arrangements > kMaxArrangements) {
    arranged_key(&best);
  } else {
    std::string best_text;
    std::vector<TermId> cand;
    std::function<void(size_t)> rec = [&](size_t gi) {
      if (gi == groups.size()) {
        arranged_key(&cand);
        std::string text = Render(cand.data(), cand.size());
        if (best.empty() || text < best_text) {
          best_text = std::move(text);
          best.swap(cand);
        }
        return;
      }
      auto& g = groups[gi];
      std::sort(g.begin(), g.end());
      do {
        rec(gi + 1);
      } while (std::next_permutation(g.begin(), g.end()));
    };
    rec(0);
  }
  out->insert(out->end(), best.begin(), best.end());
}

}  // namespace

std::vector<TermId> Canonicalize(const std::vector<Atom>& pattern) {
  std::vector<TermId> cells;
  for (const Atom& a : pattern) {
    cells.insert(cells.end(), a.args.begin(), a.args.end());
  }
  std::vector<TermId> key;
  AppendCanonicalKey(pattern, cells.data(), &key);
  return key;
}

std::string Render(const TermId* key, size_t n) {
  std::string s;
  for (size_t i = 0; i < n;) {
    AppendNumber(key[i], &s);
    const size_t arity = static_cast<size_t>(key[i + 1]);
    for (size_t pos = 0; pos < arity; ++pos) {
      s += ',';
      AppendNumber(key[i + 2 + pos], &s);
    }
    s += '|';
    i += 2 + arity;
  }
  return s;
}

std::string PatternKey(const std::vector<Atom>& pattern) {
  const std::vector<TermId> key = Canonicalize(pattern);
  return Render(key.data(), key.size());
}

DatalogSinkBuffers::DatalogSinkBuffers(const Structure& frozen,
                                       size_t compact_threshold,
                                       bool drop_dup_groups)
    : frozen_(frozen),
      compact_threshold_(std::max<size_t>(compact_threshold, 1)),
      drop_dup_groups_(drop_dup_groups) {}

DatalogSinkBuffers::PredBuf& DatalogSinkBuffers::Buf(PredId pred,
                                                     size_t arity) {
  if (static_cast<size_t>(pred) >= pred_slot_.size()) {
    pred_slot_.resize(pred + 1, -1);
  }
  int32_t& slot = pred_slot_[pred];
  if (slot < 0) {
    slot = static_cast<int32_t>(bufs_.size());
    bufs_.emplace_back();
    bufs_.back().pred = pred;
    bufs_.back().arity = arity;
  }
  assert(bufs_[slot].arity == arity && "predicate arity changed mid-round");
  return bufs_[slot];
}

TermId* DatalogSinkBuffers::Append(PredId pred, size_t arity) {
  PredBuf& pb = Buf(pred, arity);
  ++candidates_;
  if (pb.tail >= compact_threshold_) Compact(&pb);
  ++pb.tail;
  if (arity == 0) return nullptr;
  const size_t at = pb.data.size();
  pb.data.resize(at + arity);
  return pb.data.data() + at;
}

void DatalogSinkBuffers::Compact(PredBuf* pb) {
  if (pb->tail == 0) return;
  const size_t arity = pb->arity;
  if (arity == 0) {
    // Nullary predicate: all occurrences are the one empty tuple.
    if (pb->kept == 1) {
      deduped_ += pb->tail;
      if (drop_dup_groups_) pb->kept_dup.assign(1, 1);
    } else {
      ++probes_;
      if (frozen_.Contains(pb->pred, {})) {
        contained_ += pb->tail;
      } else {
        deduped_ += pb->tail - 1;
        pb->kept = 1;
        if (drop_dup_groups_) pb->kept_dup.assign(1, pb->tail > 1 ? 1 : 0);
      }
    }
    pb->tail = 0;
    return;
  }

  obs::TraceSpan span("chase.compact");
  if (span.id() != 0) {
    span.set_detail("p" + std::to_string(pb->pred) + " +" +
                    std::to_string(pb->tail));
  }
  const TermId* base = pb->data.data();
  TermId* const tail = pb->data.data() + pb->kept * arity;
  auto tup_less = [arity](const TermId* a, const TermId* b) {
    return std::lexicographical_compare(a, a + arity, b, b + arity);
  };
  auto tup_eq = [arity](const TermId* a, const TermId* b) {
    return std::equal(a, a + arity, b);
  };

  SortTuples(tail, pb->tail, arity, arity, &sort_scratch_);

  // Pass 1: walk the sorted tail groups against the kept prefix with a
  // monotone cursor. Groups equal to a kept tuple collapse immediately
  // (order-independent: k more occurrences of a kept tuple count k);
  // fresh distinct tuples are gathered for one bulk containment probe.
  std::vector<TermId> fresh;
  std::vector<uint32_t> fresh_count;
  size_t pi = 0;
  for (size_t gi = 0; gi < pb->tail;) {
    const TermId* t = tail + gi * arity;
    size_t ge = gi + 1;
    while (ge < pb->tail && tup_eq(t, tail + ge * arity)) ++ge;
    const size_t k = ge - gi;
    while (pi < pb->kept && tup_less(base + pi * arity, t)) ++pi;
    if (pi < pb->kept && tup_eq(base + pi * arity, t)) {
      deduped_ += k;
      if (drop_dup_groups_) pb->kept_dup[pi] = 1;
    } else {
      fresh.insert(fresh.end(), t, t + arity);
      fresh_count.push_back(static_cast<uint32_t>(k));
    }
    gi = ge;
  }

  // One bulk containment probe for all fresh distinct tuples.
  const size_t fresh_tuples = fresh_count.size();
  std::vector<char> fresh_in;
  if (fresh_tuples > 0) {
    probes_ += fresh_tuples;
    frozen_.ContainsSorted(pb->pred, arity, fresh.data(), fresh_tuples,
                           &fresh_in);
  }

  // Pass 2: merge the kept prefix with the surviving fresh tuples (both
  // sorted, disjoint) into the new compacted prefix.
  std::vector<TermId> merged;
  std::vector<char> merged_dup;
  size_t merged_tuples = 0;
  merged.reserve(pb->kept * arity + fresh.size());
  size_t mi = 0;  // kept cursor
  size_t fi = 0;  // fresh cursor
  auto push_kept = [&](size_t i) {
    merged.insert(merged.end(), base + i * arity, base + (i + 1) * arity);
    if (drop_dup_groups_) merged_dup.push_back(pb->kept_dup[i]);
    ++merged_tuples;
  };
  auto push_fresh = [&](size_t i) {
    const TermId* t = fresh.data() + i * arity;
    if (fresh_in[i]) {
      contained_ += fresh_count[i];
      return;
    }
    deduped_ += fresh_count[i] - 1;
    merged.insert(merged.end(), t, t + arity);
    if (drop_dup_groups_) merged_dup.push_back(fresh_count[i] > 1 ? 1 : 0);
    ++merged_tuples;
  };
  while (mi < pb->kept && fi < fresh_tuples) {
    if (tup_less(base + mi * arity, fresh.data() + fi * arity)) {
      push_kept(mi++);
    } else {
      push_fresh(fi++);
    }
  }
  while (mi < pb->kept) push_kept(mi++);
  while (fi < fresh_tuples) push_fresh(fi++);

  pb->data = std::move(merged);
  pb->kept = merged_tuples;
  pb->tail = 0;
  if (drop_dup_groups_) pb->kept_dup = std::move(merged_dup);
}

std::vector<DatalogRun> DatalogSinkBuffers::TakeRuns() {
  std::sort(bufs_.begin(), bufs_.end(),
            [](const PredBuf& a, const PredBuf& b) { return a.pred < b.pred; });
  std::vector<DatalogRun> runs;
  runs.reserve(bufs_.size());
  for (PredBuf& pb : bufs_) {
    Compact(&pb);
    DatalogRun run;
    run.pred = pb.pred;
    run.arity = pb.arity;
    if (drop_dup_groups_ &&
        std::find(pb.kept_dup.begin(), pb.kept_dup.end(), 1) !=
            pb.kept_dup.end()) {
      // Fault path: rebuild the run without the flagged tuples.
      for (size_t ti = 0; ti < pb.kept; ++ti) {
        if (pb.kept_dup[ti]) continue;
        const TermId* t = pb.data.data() + ti * pb.arity;
        run.data.insert(run.data.end(), t, t + pb.arity);
        ++run.tuples;
      }
    } else {
      run.tuples = pb.kept;
      run.data = std::move(pb.data);
    }
    if (run.tuples > 0) runs.push_back(std::move(run));
  }
  bufs_.clear();
  pred_slot_.clear();
  return runs;
}

void MergeDatalogRuns(std::vector<DatalogRun> runs, bool drop_dup_groups,
                      std::vector<DatalogRun>* out, size_t* deduped) {
  std::sort(runs.begin(), runs.end(),
            [](const DatalogRun& a, const DatalogRun& b) {
              return a.pred < b.pred;
            });
  std::vector<TermId> scratch;
  for (size_t i = 0; i < runs.size();) {
    size_t j = i + 1;
    while (j < runs.size() && runs[j].pred == runs[i].pred) ++j;
    if (j == i + 1) {
      // A single run (every predicate of a one-worker round) is already
      // sorted and distinct: nothing to collapse.
      out->push_back(std::move(runs[i]));
      i = j;
      continue;
    }
    // Concatenate the runs of this predicate and sort the tuples by value
    // (the group walk is then the compaction's), compacting in place.
    DatalogRun merged;
    merged.pred = runs[i].pred;
    merged.arity = runs[i].arity;
    const size_t arity = merged.arity;
    size_t total = 0;
    for (size_t r = i; r < j; ++r) {
      merged.data.insert(merged.data.end(), runs[r].data.begin(),
                         runs[r].data.end());
      total += runs[r].tuples;
    }
    SortTuples(merged.data.data(), total, arity, arity, &scratch);
    for (size_t gi = 0; gi < total;) {
      const TermId* t = merged.tuple(gi);
      size_t ge = gi + 1;
      while (ge < total && std::equal(t, t + arity, merged.tuple(ge))) ++ge;
      *deduped += ge - gi - 1;
      if (!(drop_dup_groups && ge - gi > 1)) {
        if (merged.tuples != gi) {
          std::copy_n(t, arity, merged.data.data() + merged.tuples * arity);
        }
        ++merged.tuples;
      }
      gi = ge;
    }
    merged.data.resize(merged.tuples * arity);
    if (merged.tuples > 0) out->push_back(std::move(merged));
    i = j;
  }
}

namespace {

/// Number of cells of `atoms`: the sum of their arities.
size_t CellCount(const std::vector<Atom>& atoms) {
  size_t n = 0;
  for (const Atom& a : atoms) n += a.args.size();
  return n;
}

/// The oblivious-chase firing key of rule `ri` fired on the body match
/// whose grounded body atoms have `body`'s predicates and arities and the
/// arguments `cells`, atom after atom.
std::string ObliviousKey(size_t ri, const std::vector<Atom>& body,
                         const TermId* cells) {
  std::string key;
  AppendNumber(static_cast<int64_t>(ri), &key);
  for (const Atom& a : body) {
    key += '|';
    AppendNumber(a.pred, &key);
    for (size_t pos = 0; pos < a.args.size(); ++pos) {
      key += ',';
      AppendNumber(*cells++, &key);
    }
  }
  return key;
}

}  // namespace

void DedupTriggers(const Theory& theory, bool oblivious, bool unique_keys,
                   std::vector<TriggerTable> tables, TriggerTable* out,
                   size_t* tdedup) {
  const std::vector<Rule>& rules = theory.rules();
  // One table of every worker's records: the first table moves over, the
  // others append to it.
  TriggerTable all;
  for (TriggerTable& table : tables) {
    if (&table == &tables.front()) {
      all = std::move(table);
      continue;
    }
    const size_t base = all.cells.size();
    all.cells.insert(all.cells.end(), table.cells.begin(), table.cells.end());
    for (TriggerTable::Trigger& t : table.triggers) {
      t.cells += base;
      all.triggers.push_back(std::move(t));
    }
  }
  const size_t n = all.triggers.size();
  std::vector<size_t> head_cells(rules.size());
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    head_cells[ri] = CellCount(rules[ri].head);
  }

  // The flat keys: record i's key is keys[key_at[i], key_at[i + 1]).
  std::vector<TermId> keys;
  std::vector<size_t> key_at(n + 1);
  for (size_t i = 0; i < n; ++i) {
    key_at[i] = keys.size();
    const TriggerTable::Trigger& t = all.triggers[i];
    const TermId* cells = all.cells.data() + t.cells;
    if (oblivious) {
      // Blind chase: one witness per (rule, body match), ever; keys fired
      // in earlier rounds are dropped after the barrier.
      const TermId* body = cells + head_cells[t.rule_index];
      keys.push_back(t.rule_index);
      keys.insert(keys.end(), body,
                  body + CellCount(rules[t.rule_index].body));
    } else {
      AppendCanonicalKey(rules[t.rule_index].head, cells, &keys);
      // Injected bug: make every key unique so same-pattern triggers stop
      // collapsing to one witness.
      if (unique_keys) keys.push_back(static_cast<TermId>(i));
    }
  }
  key_at[n] = keys.size();
  auto same_key = [&](size_t a, size_t b) {
    return std::equal(keys.begin() + key_at[a], keys.begin() + key_at[a + 1],
                      keys.begin() + key_at[b], keys.begin() + key_at[b + 1]);
  };
  // TriggerLess on records: within one rule every record has the same head
  // shape, so comparing head cells compares the head patterns.
  auto trigger_less = [&](size_t a, size_t b) {
    const TriggerTable::Trigger& x = all.triggers[a];
    const TriggerTable::Trigger& y = all.triggers[b];
    if (x.rule_index != y.rule_index) return x.rule_index < y.rule_index;
    const TermId* xc = all.cells.data() + x.cells;
    const TermId* yc = all.cells.data() + y.cells;
    const size_t h = head_cells[x.rule_index];
    return std::lexicographical_compare(xc, xc + h, yc, yc + h);
  };

  // Collapse each key to its TriggerLess-least record. An open-addressing
  // table (linear probing, load at most 1/2) maps each key to its entry in
  // `winners`.
  constexpr size_t kFree = SIZE_MAX;
  std::vector<size_t> slots(std::bit_ceil(2 * n + 1), kFree);
  const size_t mask = slots.size() - 1;
  std::vector<size_t> winners;
  for (size_t i = 0; i < n; ++i) {
    const std::string_view bytes(
        reinterpret_cast<const char*>(keys.data() + key_at[i]),
        (key_at[i + 1] - key_at[i]) * sizeof(TermId));
    size_t at = std::hash<std::string_view>{}(bytes) & mask;
    while (slots[at] != kFree && !same_key(winners[slots[at]], i)) {
      at = (at + 1) & mask;
    }
    if (slots[at] == kFree) {
      slots[at] = winners.size();
      winners.push_back(i);
      continue;
    }
    ++*tdedup;
    size_t& w = winners[slots[at]];
    if (trigger_less(i, w)) w = i;
  }

  // Render only the winners' keys; their order is the application order.
  std::vector<std::pair<std::string, size_t>> ranked;
  ranked.reserve(winners.size());
  for (size_t w : winners) {
    const TriggerTable::Trigger& t = all.triggers[w];
    const TermId* key = keys.data() + key_at[w];
    const size_t key_len = key_at[w + 1] - key_at[w];
    std::string& text = ranked.emplace_back(std::string(), w).first;
    if (oblivious) {
      text = ObliviousKey(t.rule_index, rules[t.rule_index].body,
                          all.cells.data() + t.cells +
                              head_cells[t.rule_index]);
    } else if (unique_keys) {
      text = Render(key, key_len - 1) + "#";
      AppendNumber(key[key_len - 1], &text);
    } else {
      text = Render(key, key_len);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  out->triggers.clear();
  out->triggers.reserve(ranked.size());
  for (auto& [text, w] : ranked) {
    out->triggers.push_back(
        {all.triggers[w].rule_index, all.triggers[w].cells, std::move(text)});
  }
  out->cells = std::move(all.cells);
}

namespace {

/// A reference-round trigger: the rule and its head with the frontier
/// grounded and the existential variables still symbolic.
struct PendingExistential {
  int32_t rule_index;
  std::vector<Atom> head_pattern;
};

/// Canonical "which same-key trigger wins" order: least (rule index, head
/// pattern). Any total order works for correctness — same-key triggers
/// demand the same witnesses up to renaming — but a *value* order makes
/// the winner independent of enumeration order, which keep-first was not.
bool TriggerLess(const PendingExistential& a, const PendingExistential& b) {
  if (a.rule_index != b.rule_index) return a.rule_index < b.rule_index;
  return a.head_pattern < b.head_pattern;
}

/// The reference round's sink: plain hash containers, with frozen
/// containment probed and duplicates counted per occurrence, and existential
/// triggers keyed by their PatternKey strings in a keep-min map.
struct HashSink {
  const Structure& frozen;
  RoundBuffer* buf;
  std::unordered_set<Atom, AtomHash> datalog_seen;
  std::vector<Atom> datalog;  // distinct, not in frozen, discovery order
  std::map<std::string, PendingExistential> triggers;
  size_t bug_seq = 0;  // kSkipTriggerDedup key suffixes

  void BufferDatalog(Atom g) {
    if (frozen.Contains(g)) return;
    if (!datalog_seen.insert(g).second) {
      ++buf->stats.datalog_deduped;
      return;
    }
    datalog.push_back(std::move(g));
  }
  void BufferTrigger(std::string key, PendingExistential pe) {
    auto [it, inserted] = triggers.try_emplace(std::move(key), std::move(pe));
    if (!inserted) {
      ++buf->stats.triggers_deduped;
      if (TriggerLess(pe, it->second)) it->second = std::move(pe);
    }
  }
};

/// The reference round's per-binding step: grounds rule `ri`'s head (and,
/// for oblivious keys, its body) under `b` into `sink`. In the restricted
/// chase a pattern already witnessed in Chase^i demands nothing. Returns
/// false to stop the enumeration (governor trip).
bool HandleBinding(const RoundInputs& in, size_t ri, const Binding& b,
                   const Matcher& witness, HashSink& sink) {
  // Strided governor probe: aborts the enumeration on a trip; the
  // post-enumeration check discards the buffered round.
  if (in.ctx->ShouldStop("chase enumerate")) return false;
  const Rule& rule = in.theory.rules()[ri];
  auto ground = [&b](std::vector<Atom> atoms) {
    for (Atom& g : atoms) {
      for (TermId& t : g.args) {
        if (IsVar(t)) {
          auto it = b.find(t);
          if (it != b.end()) t = it->second;
        }
      }
    }
    return atoms;
  };
  std::vector<Atom> head = ground(rule.head);
  if (!rule.IsExistential()) {
    for (Atom& g : head) {
      assert(g.IsGround() && "datalog rule with unbound head variable");
      sink.BufferDatalog(std::move(g));
    }
    return true;
  }
  std::string key;
  if (in.options.oblivious) {
    std::vector<TermId> body;
    for (const Atom& g : ground(rule.body)) {
      body.insert(body.end(), g.args.begin(), g.args.end());
    }
    key = ObliviousKey(ri, rule.body, body.data());
  } else {
    if (witness.Exists(head, {})) return true;
    key = PatternKey(head);
    if (in.bug == SelfTestBug::kSkipTriggerDedup) {
      key += '#' + std::to_string(sink.bug_seq++);
    }
  }
  sink.BufferTrigger(std::move(key),
                     {static_cast<int32_t>(ri), std::move(head)});
  return true;
}

/// One worker's share of a production round: every task the worker runs
/// adds its counters to `stats`, its datalog head occurrences to
/// `datalog` and its raw trigger records to `triggers`. The round barrier
/// reads the slots once the fan-out is over.
struct WorkerSlot {
  explicit WorkerSlot(const RoundInputs& in)
      : datalog(in.frozen, kSinkCompactTuples,
                in.bug == SelfTestBug::kSinkDropDup) {}

  ChaseStats stats;
  DatalogSinkBuffers datalog;
  TriggerTable triggers;
  std::vector<DatalogRun> runs;  ///< datalog's final compaction

  /// Final compaction: moves the sorted runs out of the sink and folds its
  /// counters into `stats`.
  void TakeRuns() {
    runs = datalog.TakeRuns();
    stats.sink_candidates += datalog.candidates();
    stats.sink_contained += datalog.contained();
    stats.sink_probes += datalog.probes();
    stats.datalog_deduped += datalog.deduped();
  }
};

/// Bands for evaluating `rule`'s body with delta anchor `di` confined to
/// rows [begin, end) of its relation: atoms before the anchor stay on
/// pre-round rows, atoms after it range over the full relation — the
/// standard old/new split, with the anchor band narrowed to one chunk.
std::vector<RowBand> AnchorBands(const Structure& s, const Rule& rule,
                                 size_t di, uint32_t begin, uint32_t end) {
  const size_t k = rule.body.size();
  std::vector<RowBand> bands(k);
  for (size_t j = 0; j < k; ++j) {
    if (j < di) {
      bands[j] = {0, s.WatermarkRows(rule.body[j].pred)};
    } else if (j == di) {
      bands[j] = {begin, end};
    } else {
      bands[j] = RowBand::All();
    }
  }
  return bands;
}

/// Grounding template of one rule atom against a plan's slot layout: per
/// position, the slot holding the variable's value or a fixed TermId (a
/// constant, or an existential variable that stays symbolic). Lets block
/// grounding resolve an atom with `arity` array reads instead of
/// per-variable Binding lookups.
struct AtomTemplate {
  struct Arg {
    bool fixed = false;
    TermId value = 0;   // the TermId itself when fixed
    uint32_t slot = 0;  // slot index otherwise
  };
  PredId pred = -1;
  std::vector<Arg> args;

  /// Writes the atom's arguments under the slot row `slots` to `dst`.
  void Ground(const TermId* slots, TermId* dst) const {
    for (size_t pos = 0; pos < args.size(); ++pos) {
      dst[pos] = args[pos].fixed ? args[pos].value : slots[args[pos].slot];
    }
  }
};

/// Builds the templates of `atoms` against `slot_vars` (the slot layout
/// of the body's plan). Body variables resolve to slots; a variable
/// outside the body (an existential) stays fixed.
std::vector<AtomTemplate> BuildTemplates(const std::vector<Atom>& atoms,
                                         const std::vector<TermId>& slot_vars) {
  std::vector<AtomTemplate> out;
  out.reserve(atoms.size());
  for (const Atom& atom : atoms) {
    AtomTemplate& at = out.emplace_back();
    at.pred = atom.pred;
    at.args.reserve(atom.args.size());
    for (TermId t : atom.args) {
      AtomTemplate::Arg& a = at.args.emplace_back();
      auto it = std::find(slot_vars.begin(), slot_vars.end(), t);
      if (IsVar(t) && it != slot_vars.end()) {
        a.slot = static_cast<uint32_t>(it - slot_vars.begin());
      } else {
        a.fixed = true;
        a.value = t;
      }
    }
  }
  return out;
}

/// Grounds `templates` under the slot row `slots` into consecutive cells
/// from `dst`; returns the end of the written cells.
TermId* GroundCells(const std::vector<AtomTemplate>& templates,
                    const TermId* slots, TermId* dst) {
  for (const AtomTemplate& t : templates) {
    t.Ground(slots, dst);
    dst += t.args.size();
  }
  return dst;
}

/// One (rule, delta anchor) pair of a production round.
struct DeltaAnchor {
  size_t ri;
  size_t di;
  PredId pred;  ///< the anchor relation: rule ri's body atom di
};

/// The (rule, delta anchor) pairs a production round enumerates, in
/// (rule, anchor) order. Skipped: existential rules under datalog_only,
/// anchors whose relation gained nothing last round, and anchors after a
/// body atom with no pre-round rows (the old/new split leaves that atom
/// an empty band, so no binding exists; the plan executor pins the anchor
/// first and would scan its whole delta before finding out). The test
/// reads only the structure, so the round's task set stays a pure
/// function of the workload. Before the first MarkRoundBoundary every
/// watermark is 0, which leaves anchor 0 alone: round 1 is one full
/// enumeration per rule.
std::vector<DeltaAnchor> DeltaAnchors(const RoundInputs& in) {
  std::vector<DeltaAnchor> out;
  const Structure& s = in.frozen;
  for (size_t ri = 0; ri < in.theory.rules().size(); ++ri) {
    const Rule& rule = in.theory.rules()[ri];
    if (rule.IsExistential() && in.options.datalog_only) continue;
    for (size_t di = 0; di < rule.body.size(); ++di) {
      const PredId pred = rule.body[di].pred;
      if (s.WatermarkRows(pred) < s.NumFacts(pred)) {
        out.push_back({ri, di, pred});
      }
      if (s.WatermarkRows(pred) == 0) break;
    }
  }
  return out;
}

/// Enumerates anchor `a` with its delta confined to rows `chunk` into
/// `out`, the slot of the worker running the task. The task compiles the
/// plans it runs against the frozen round snapshot: the body with the
/// anchor pinned first and, for an existential rule in the restricted
/// chase, the head with the body's slots (and so the frontier) prebound.
/// Every rule grounds its head straight from the executor's slot blocks
/// through templates: a datalog head is written into the flat sink
/// buffers (no Binding, no Atom per occurrence); an existential head is
/// checked by the head plan's probe, seeded with the body match's slot
/// row, and when unwitnessed grounded into a flat trigger record.
void EnumerateAnchor(const RoundInputs& in, const DeltaAnchor& a,
                     RowRange chunk, WorkerSlot* out) {
  // Fail-stop fault site at the plan boundary: a fire latches the context
  // and the round-abort path discards the partial buffer.
  if (!in.ctx->CheckFault(faults::kPlanCompile).ok()) return;
  const Rule& rule = in.theory.rules()[a.ri];
  const std::vector<RowBand> bands =
      AnchorBands(in.frozen, rule, a.di, chunk.begin, chunk.end);
  const std::function<bool()> block_stop = [&in] {
    return in.ctx->ShouldStop("plan block");
  };
  const bool existential = rule.IsExistential();
  const bool oblivious = in.options.oblivious;
  QueryPlan plan;
  std::optional<PlanProbe> witness;  // restricted TGDs only
  {
    obs::TraceSpan span(&in.ctx->tracer(), "chase.compile");
    plan = CompilePlan(in.frozen, rule.body, a.di);
    // The head plan prebinds the body plan's whole slot layout (the
    // frontier, plus body-only variables the head never reads), so a body
    // match's slot row is the probe's seed as it stands.
    if (existential && !oblivious) {
      witness.emplace(in.frozen, CompilePlan(in.frozen, rule.head, kNoAnchor,
                                             plan.slot_vars));
    }
  }
  const std::vector<AtomTemplate> heads =
      BuildTemplates(rule.head, plan.slot_vars);
  std::function<bool(const SlotBlock&)> on_block;
  // Existential rules only: the body templates an oblivious record
  // grounds after its head cells.
  std::vector<AtomTemplate> body_templates;
  if (!existential) {
    // Every head variable of a datalog rule occurs in its body, so every
    // template cell is a slot or a constant.
    on_block = [&](const SlotBlock& blk) {
      for (size_t r = 0; r < blk.num_rows; ++r) {
        const TermId* slots = blk.rows + r * blk.width;
        for (const AtomTemplate& h : heads) {
          h.Ground(slots, out->datalog.Append(h.pred, h.args.size()));
        }
      }
      return true;
    };
  } else {
    if (oblivious) body_templates = BuildTemplates(rule.body, plan.slot_vars);
    const size_t cells =
        CellCount(rule.head) + (oblivious ? CellCount(rule.body) : 0);
    on_block = [&, cells](const SlotBlock& blk) {
      obs::TraceSpan span("chase.witness");
      for (size_t r = 0; r < blk.num_rows; ++r) {
        // Strided governor probe, once per body match as in the reference
        // round: aborts this task's enumeration on a trip; the
        // post-enumeration check discards the buffered round.
        if (in.ctx->ShouldStop("chase enumerate")) return false;
        const TermId* slots = blk.rows + r * blk.width;
        if (witness.has_value() && witness->Exists(slots, blk.width)) {
          continue;
        }
        TermId* dst = out->triggers.Append(static_cast<int32_t>(a.ri), cells);
        GroundCells(body_templates, slots, GroundCells(heads, slots, dst));
      }
      return true;
    };
  }
  ExecutePlan(in.frozen, plan, &bands, {}, on_block, &out->stats.match,
              &block_stop);
}

/// One task of a production round: the anchor it enumerates, with its
/// delta confined to one chunk.
struct ShardTask {
  DeltaAnchor anchor;
  RowRange chunk;
};

/// The production round: one ParallelFor task per (anchor, kChunkRows
/// chunk), each appending to the slot of the worker that runs it; then one
/// ParallelFor over the slots for their final compactions, and one
/// canonical merge of the slots' sorted runs and raw trigger records in
/// worker order. The merge runs even after a governor trip (the
/// kTornExhaust self-test applies a torn round's buffered datalog).
Status EnumerateDeltaRound(const RoundInputs& in, RoundBuffer* buf) {
  std::vector<ShardTask> tasks;
  for (const DeltaAnchor& a : DeltaAnchors(in)) {
    for (const RowRange& chunk : in.frozen.DeltaChunks(a.pred, kChunkRows)) {
      tasks.push_back({a, chunk});
    }
  }
  const size_t workers = std::min(in.threads, tasks.size());
  std::vector<WorkerSlot> slots;
  slots.reserve(workers);
  for (size_t w = 0; w < workers; ++w) slots.emplace_back(in);
  const Status barrier = ParallelFor(
      tasks.size(), in.threads,
      [&](size_t i, size_t worker) -> Status {
        // Fail-stop fault site: a fire latches a trip on the context, so
        // no later task starts (ParallelFor records the trip at the first
        // skipped index) and running ones stop at ShouldStop.
        if (!in.ctx->CheckFault(faults::kPoolTask).ok()) return Status::OK();
        const ShardTask& t = tasks[i];
        obs::TraceSpan span(&in.ctx->tracer(), "chase.shard");
        EnumerateAnchor(in, t.anchor, t.chunk, &slots[worker]);
        span.set_detail('r' + std::to_string(t.anchor.ri) + " a" +
                        std::to_string(t.anchor.di) + " +" +
                        std::to_string(t.chunk.size()) + "@" +
                        std::to_string(t.chunk.begin));
        return Status::OK();
      },
      in.ctx);

  obs::TraceSpan span(&in.ctx->tracer(), "chase.sink");
  // Fail-stop fault site at the merge; a fire latches the context and the
  // round-abort path in chase.cc discards the merged buffer.
  (void)in.ctx->CheckFault(faults::kSinkMerge);
  // No context: the compactions run even after a trip.
  (void)ParallelFor(slots.size(), in.threads, [&slots](size_t w, size_t) {
    slots[w].TakeRuns();
    return Status::OK();
  });
  std::vector<DatalogRun> runs;
  std::vector<TriggerTable> raw_triggers;
  for (WorkerSlot& slot : slots) {
    buf->stats += slot.stats;
    for (DatalogRun& run : slot.runs) runs.push_back(std::move(run));
    raw_triggers.push_back(std::move(slot.triggers));
  }
  MergeDatalogRuns(std::move(runs), in.bug == SelfTestBug::kSinkDropDup,
                   &buf->datalog, &buf->stats.datalog_deduped);
  obs::TraceSpan triggers_span(&in.ctx->tracer(), "chase.triggers");
  DedupTriggers(in.theory, in.options.oblivious,
                in.bug == SelfTestBug::kSkipTriggerDedup,
                std::move(raw_triggers), &buf->triggers,
                &buf->stats.triggers_deduped);
  return barrier;
}

/// The reference round: every rule body re-enumerated in full on the
/// interpretive Matcher, into the per-binding hash sink. The sink's
/// distinct atoms are sorted into runs here with std::sort, so the
/// reference shares no sort with the production sink, and its key-ordered
/// trigger map becomes the round's trigger table.
void EnumerateNaiveRound(const RoundInputs& in, RoundBuffer* buf) {
  Matcher matcher(in.frozen, &buf->stats.match);
  // Witness-existence probes go through a stats-less matcher so
  // bindings_tried counts rule-body bindings only.
  Matcher witness(in.frozen);
  HashSink sink{in.frozen, buf, {}, {}, {}};
  for (size_t ri = 0; ri < in.theory.rules().size(); ++ri) {
    if (in.ctx->Exhausted()) break;  // a trip mid-rule skips the rest
    const Rule& rule = in.theory.rules()[ri];
    if (rule.IsExistential() && in.options.datalog_only) continue;
    matcher.Enumerate(rule.body, {}, [&](const Binding& b) {
      return HandleBinding(in, ri, b, witness, sink);
    });
  }
  std::sort(sink.datalog.begin(), sink.datalog.end());
  for (const Atom& g : sink.datalog) {
    if (buf->datalog.empty() || buf->datalog.back().pred != g.pred) {
      DatalogRun& run = buf->datalog.emplace_back();
      run.pred = g.pred;
      run.arity = g.args.size();
    }
    DatalogRun& run = buf->datalog.back();
    run.data.insert(run.data.end(), g.args.begin(), g.args.end());
    ++run.tuples;
  }
  for (auto& [key, pe] : sink.triggers) {
    TermId* dst =
        buf->triggers.Append(pe.rule_index, CellCount(pe.head_pattern));
    for (const Atom& g : pe.head_pattern) {
      dst = std::copy(g.args.begin(), g.args.end(), dst);
    }
    buf->triggers.triggers.back().key = key;
  }
}

}  // namespace

Status EnumerateRound(const RoundInputs& in, RoundBuffer* buf) {
  Status barrier = Status::OK();
  if (in.options.engine == ChaseEngine::kNaive) {
    EnumerateNaiveRound(in, buf);
  } else {
    barrier = EnumerateDeltaRound(in, buf);
  }
  if (in.options.oblivious) {
    // Blind chase: each (rule, body binding) fires once over the whole
    // run. A round enumerates each binding at most once, so its keys are
    // unique and this drops exactly the triggers fired in earlier rounds.
    auto fired_before = [&in](const TriggerTable::Trigger& t) {
      return !in.fired->insert(t.key).second;
    };
    std::vector<TriggerTable::Trigger>& triggers = buf->triggers.triggers;
    triggers.erase(
        std::remove_if(triggers.begin(), triggers.end(), fired_before),
        triggers.end());
  }
  return barrier;
}

size_t RoundBuffer::datalog_facts() const {
  size_t n = 0;
  for (const DatalogRun& run : datalog) n += run.tuples;
  return n;
}

Status VerifyRoundBuffer(const RoundBuffer& buf, const Structure& frozen) {
  for (size_t i = 0; i < buf.datalog.size(); ++i) {
    const DatalogRun& run = buf.datalog[i];
    auto violation = [&run](const char* what) {
      return Status::Internal(std::string(what) + " (pred " +
                              std::to_string(run.pred) + ")");
    };
    if (i > 0 && buf.datalog[i - 1].pred >= run.pred) {
      return violation("round buffer runs out of predicate order");
    }
    for (size_t t = 0; t < run.tuples; ++t) {
      const TermId* tup = run.tuple(t);
      if (t > 0) {
        const TermId* prev = run.tuple(t - 1);
        if (std::equal(prev, prev + run.arity, tup)) {
          return violation("duplicate tuple in round buffer");
        }
        if (std::lexicographical_compare(tup, tup + run.arity, prev,
                                         prev + run.arity)) {
          return violation("descending pair in round buffer");
        }
      }
      if (frozen.Contains(run.pred, TupleRef(tup, run.arity))) {
        return violation("round buffer re-derives a frozen fact");
      }
    }
  }
  const std::vector<TriggerTable::Trigger>& triggers = buf.triggers.triggers;
  for (size_t i = 1; i < triggers.size(); ++i) {
    if (!(triggers[i - 1].key < triggers[i].key)) {
      return Status::Internal("round buffer trigger keys not ascending (" +
                              triggers[i - 1].key + " then " +
                              triggers[i].key + ")");
    }
  }
  return Status::OK();
}

size_t AddRuns(const std::vector<DatalogRun>& runs, Structure* s) {
  size_t added = 0;
  for (const DatalogRun& run : runs) {
    assert(static_cast<int>(run.arity) == s->sig().arity(run.pred));
    added += s->AppendRows(run.pred, run.data.data(), run.tuples);
  }
  return added;
}

size_t ApplyRound(const Theory& theory, const RoundBuffer& buf, size_t round,
                  ChaseResult* out) {
  // Canonical application order (see the header): the sorted datalog runs
  // first, then the triggers in key order. Both engines funnel through
  // this, so row order and null naming are functions of the round's
  // derivation set alone.
  size_t added = AddRuns(buf.datalog, &out->structure);
  const TriggerTable& table = buf.triggers;
  if (table.triggers.empty()) return added;

  // Per rule, its existential variables: each trigger invents one null
  // per variable, in this order.
  std::vector<std::vector<TermId>> existentials;
  existentials.reserve(theory.rules().size());
  for (const Rule& rule : theory.rules()) {
    existentials.push_back(rule.ExistentialVariables());
  }

  std::vector<TermId> nulls;
  std::vector<TermId> row;
  for (const TriggerTable::Trigger& t : table.triggers) {
    const Rule& rule = theory.rules()[t.rule_index];
    const std::vector<TermId>& vars = existentials[t.rule_index];
    nulls.clear();
    for (size_t i = 0; i < vars.size(); ++i) {
      nulls.push_back(out->structure.mutable_sig().AddNull());
      ++out->nulls_created;
    }
    const TermId* cell = table.cells.data() + t.cells;
    for (const Atom& h : rule.head) {
      row.assign(cell, cell + h.args.size());
      cell += h.args.size();
      for (TermId& v : row) {
        if (IsVar(v)) {
          v = nulls[std::find(vars.begin(), vars.end(), v) - vars.begin()];
        }
      }
      if (out->structure.AddFact(h.pred, row.data(), row.size())) ++added;
      // Each null's provenance is the first head atom that contains it.
      for (TermId n : nulls) {
        if (std::find(row.begin(), row.end(), n) == row.end()) continue;
        auto [it, first] = out->null_provenance.try_emplace(n);
        if (first) {
          it->second = {static_cast<int>(round), t.rule_index,
                        Atom(h.pred, row)};
        }
      }
    }
  }
  return added;
}

}  // namespace chase_internal
}  // namespace bddfc
