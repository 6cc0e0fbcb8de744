#include "bddfc/core/structure.h"

#include <algorithm>
#include <cassert>

namespace bddfc {

namespace {

/// Free slot of both open-addressing tables; equal to kNoRow, so a probe
/// of the tuple table yields FindRow's answer directly.
constexpr uint32_t kEmptySlot = Structure::kNoRow;
constexpr size_t kMinSlots = 8;

/// Final mixer of a 64-bit hash (murmur3's fmix64). TermIds are dense, so
/// an identity hash would lay runs of keys into runs of slots and make
/// linear probes long; this spreads them.
uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

uint64_t HashTuple(const TermId* t, size_t n) {
  uint64_t h = n;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<uint32_t>(t[i])) * 0x9e3779b97f4a7c15ULL;
  }
  return Mix(h);
}

uint64_t HashValue(TermId v) { return Mix(static_cast<uint32_t>(v)); }

/// The probing routine of both tables: linear probing over a non-empty
/// power-of-two table of ids. Returns the slot holding the id `same`
/// accepts, or the free slot where the probe ended (load <= 1/2, so one
/// exists).
template <typename Same>
size_t Probe(const std::vector<uint32_t>& slots, uint64_t hash, Same same) {
  const size_t mask = slots.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (slots[i] != kEmptySlot && !same(slots[i])) i = (i + 1) & mask;
  return i;
}

/// Makes room for one more id in a table holding ids [0, count): doubles
/// it and reinserts them when the next insert would push the load past
/// 1/2. Both tables hold dense ids (row ids, posting-list ids).
template <typename HashOf>
void ReserveSlot(std::vector<uint32_t>* slots, size_t count, HashOf hash_of) {
  if (2 * (count + 1) <= slots->size()) return;
  slots->assign(std::max(kMinSlots, 2 * slots->size()), kEmptySlot);
  for (uint32_t id = 0; id < count; ++id) {
    (*slots)[Probe(*slots, hash_of(id), [](uint32_t) { return false; })] = id;
  }
}

}  // namespace

bool Structure::AddFact(PredId pred, const TermId* args, size_t n) {
  assert(pred >= 0 && pred < sig_->num_predicates());
  if (static_cast<size_t>(pred) >= relations_.size()) {
    relations_.resize(pred + 1);
  }
  Relation& rel = relations_[pred];
  if (rel.tuple_slots.empty()) {  // first fact: fix the layout
    rel.arity = sig_->arity(pred);
    rel.postings.resize(rel.arity);
  }
  assert(static_cast<int>(n) == rel.arity);
  if (static_cast<int>(n) != rel.arity) return false;

  ReserveSlot(&rel.tuple_slots, rel.rows, [&rel](uint32_t r) {
    return HashTuple(rel.Row(r), rel.arity);
  });
  const size_t slot =
      Probe(rel.tuple_slots, HashTuple(args, n),
            [&](uint32_t r) { return std::equal(args, args + n, rel.Row(r)); });
  if (rel.tuple_slots[slot] != kEmptySlot) return false;
  // New, so `args` cannot alias this arena: appending is safe.
  const uint32_t row = rel.rows++;
  rel.tuple_slots[slot] = row;
  rel.data.insert(rel.data.end(), args, args + n);
  for (size_t pos = 0; pos < n; ++pos) {
    const TermId v = args[pos];
    assert(IsConst(v));
    PostingIndex& ix = rel.postings[pos];
    ReserveSlot(&ix.slots, ix.values.size(),
                [&ix](uint32_t id) { return HashValue(ix.values[id]); });
    const size_t vslot = Probe(ix.slots, HashValue(v),
                               [&ix, v](uint32_t id) { return ix.values[id] == v; });
    if (ix.slots[vslot] == kEmptySlot) {
      ix.slots[vslot] = static_cast<uint32_t>(ix.values.size());
      ix.values.push_back(v);
      ix.lists.emplace_back();
    }
    ix.lists[ix.slots[vslot]].push_back(row);
    AddDomainElement(v);
  }
  ++num_facts_;
  if (accountant_ != nullptr) accountant_->Charge(ApproxFactBytes(n));
  return true;
}

size_t Structure::ApproxAccountedBytes() const {
  size_t bytes = 0;
  for (const Relation& rel : relations_) {
    bytes += rel.rows * ApproxFactBytes(static_cast<size_t>(rel.arity));
  }
  return bytes;
}

void Structure::AddDomainElement(TermId c) {
  assert(IsConst(c));
  if (static_cast<size_t>(c) >= in_domain_.size()) {
    in_domain_.resize(c + 1, 0);
  }
  if (!in_domain_[c]) {
    in_domain_[c] = 1;
    domain_.push_back(c);
  }
}

uint32_t Structure::FindRow(PredId pred, TupleRef args) const {
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr || rel->tuple_slots.empty() ||
      args.size() != static_cast<size_t>(rel->arity)) {
    return kNoRow;
  }
  return rel->tuple_slots[Probe(
      rel->tuple_slots, HashTuple(args.data(), args.size()), [&](uint32_t r) {
        return std::equal(args.begin(), args.end(), rel->Row(r));
      })];
}

RowsView Structure::Rows(PredId pred) const {
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr) return RowsView();
  return RowsView(rel->data.data(), static_cast<size_t>(rel->arity),
                  rel->rows);
}

PredId Structure::NumStoredPredicates() const {
  return static_cast<PredId>(relations_.size());
}

const std::vector<uint32_t>* Structure::Postings(PredId pred, int pos,
                                                 TermId value) const {
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr || pos < 0 ||
      pos >= static_cast<int>(rel->postings.size())) {
    return nullptr;
  }
  const PostingIndex& ix = rel->postings[pos];
  const uint32_t id = ix.slots[Probe(
      ix.slots, HashValue(value),
      [&ix, value](uint32_t i) { return ix.values[i] == value; })];
  return id == kEmptySlot ? nullptr : &ix.lists[id];
}

uint32_t Structure::IndexedRows(PredId pred) const {
  const Relation* rel = FindRelation(pred);
  return rel == nullptr ? 0 : rel->sorted_rows;
}

size_t Structure::DistinctValues(PredId pred, int pos) const {
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr || pos < 0 ||
      pos >= static_cast<int>(rel->postings.size())) {
    return 0;
  }
  return rel->postings[pos].values.size();
}

size_t Structure::ContainsSorted(PredId pred, size_t arity,
                                 const TermId* tuples, size_t count,
                                 std::vector<char>* contained) const {
  contained->assign(count, 0);
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr || rel->rows == 0) return 0;
  assert(static_cast<int>(arity) == rel->arity);
  if (static_cast<int>(arity) != rel->arity) return 0;

  // Indexed row `r` vs tuple `t`, compared in the arena.
  auto row_less = [&](uint32_t r, const TermId* t) {
    const TermId* row = rel->Row(r);
    for (size_t pos = 0; pos < arity; ++pos) {
      if (row[pos] != t[pos]) return row[pos] < t[pos];
    }
    return false;
  };
  const std::vector<uint32_t>& idx = rel->sorted;
  const bool stale = rel->sorted_rows != rel->rows;
  size_t found = 0;
  size_t cursor = 0;  // first index entry not below the current tuple
  for (size_t i = 0; i < count; ++i) {
    const TermId* t = tuples + i * arity;
    // Gallop from the cursor: [lo, hi) brackets the lower bound of t.
    size_t lo = cursor;
    size_t hi = cursor;
    for (size_t step = 1; hi < idx.size() && row_less(idx[hi], t); step <<= 1) {
      lo = hi + 1;
      hi += step;
    }
    cursor = static_cast<size_t>(
        std::lower_bound(idx.begin() + lo,
                         idx.begin() + std::min(hi, idx.size()), t, row_less) -
        idx.begin());
    bool present = cursor < idx.size() &&
                   std::equal(t, t + arity, rel->Row(idx[cursor]));
    if (!present && stale) {
      // Absent from the indexed prefix while unindexed rows exist: one
      // exact-tuple hash lookup settles it.
      present = FindRow(pred, TupleRef(t, arity)) != kNoRow;
    }
    if (present) {
      (*contained)[i] = 1;
      ++found;
    }
  }
  return found;
}

void Structure::RefreshIndexes() {
  for (Relation& rel : relations_) {
    const uint32_t n = rel.rows;
    if (rel.sorted_rows == n) continue;
    auto tuple_less = [&rel](uint32_t a, uint32_t b) {
      const TermId* x = rel.Row(a);
      const TermId* y = rel.Row(b);
      for (int pos = 0; pos < rel.arity; ++pos) {
        if (x[pos] != y[pos]) return x[pos] < y[pos];
      }
      return false;
    };
    std::vector<uint32_t>& idx = rel.sorted;
    const size_t old = idx.size();
    for (uint32_t r = rel.sorted_rows; r < n; ++r) idx.push_back(r);
    std::sort(idx.begin() + old, idx.end(), tuple_less);
    std::inplace_merge(idx.begin(), idx.begin() + old, idx.end(), tuple_less);
    rel.sorted_rows = n;
  }
}

void Structure::MarkRoundBoundary() {
  watermark_.resize(relations_.size());
  for (size_t p = 0; p < relations_.size(); ++p) {
    watermark_[p] = relations_[p].rows;
  }
  facts_at_watermark_ = num_facts_;
}

std::vector<RowRange> Structure::DeltaChunks(PredId pred,
                                             uint32_t max_chunk_rows) const {
  std::vector<RowRange> chunks;
  const uint32_t begin = WatermarkRows(pred);
  const uint32_t end = static_cast<uint32_t>(NumFacts(pred));
  if (begin >= end) return chunks;
  if (max_chunk_rows == 0) max_chunk_rows = end - begin;
  chunks.reserve((end - begin + max_chunk_rows - 1) / max_chunk_rows);
  for (uint32_t at = begin; at < end; at += max_chunk_rows) {
    chunks.push_back({at, std::min(end, at + max_chunk_rows)});
  }
  return chunks;
}

void Structure::ForEachFact(
    const std::function<void(PredId, TupleRef)>& fn) const {
  for (PredId p = 0; p < NumStoredPredicates(); ++p) {
    for (TupleRef row : Rows(p)) fn(p, row);
  }
}

Structure Structure::RestrictToPredicates(
    const std::unordered_set<PredId>& preds) const {
  Structure out(sig_);
  ForEachFact([&](PredId p, TupleRef row) {
    if (preds.count(p)) out.AddFact(p, row);
  });
  return out;
}

Structure Structure::RestrictToElements(
    const std::unordered_set<TermId>& elements) const {
  Structure out(sig_);
  ForEachFact([&](PredId p, TupleRef row) {
    bool inside = std::all_of(row.begin(), row.end(), [&](TermId t) {
      return elements.count(t) > 0;
    });
    if (inside) out.AddFact(p, row);
  });
  return out;
}

bool Structure::ContainsAllFactsOf(const Structure& other) const {
  bool all = true;
  other.ForEachFact([&](PredId p, TupleRef row) {
    if (!Contains(p, row)) all = false;
  });
  return all;
}

std::string Structure::ToString() const {
  std::vector<std::string> lines;
  ForEachFact([&](PredId p, TupleRef row) {
    lines.push_back(Atom(p, row).ToString(*sig_));
  });
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

}  // namespace bddfc
