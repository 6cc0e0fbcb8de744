#include "bddfc/core/structure.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "bddfc/base/open_addressing.h"

namespace bddfc {

namespace {

namespace oa = open_addressing;

/// Free slot of both tables; equal to kNoRow, so a probe of the tuple
/// table yields FindRow's answer directly.
constexpr uint32_t kEmptySlot = oa::kEmptySlot;
static_assert(kEmptySlot == Structure::kNoRow);

uint64_t HashTuple(const TermId* t, size_t n) {
  uint64_t h = n;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<uint32_t>(t[i])) * 0x9e3779b97f4a7c15ULL;
  }
  return oa::Mix(h);
}

uint64_t HashValue(TermId v) { return oa::Mix(static_cast<uint32_t>(v)); }

}  // namespace

void SortTuples(TermId* data, size_t n, size_t width, size_t key,
                std::vector<TermId>* scratch) {
  if (n < 2 || key == 0) return;
  assert(key <= width);
  constexpr size_t kDigits = sizeof(TermId);  // 8-bit digits per position
  // One read pass fills every digit's histogram: counts[(pos, digit), b].
  std::vector<uint32_t> counts(key * kDigits * 256, 0);
  for (const TermId* t = data; t != data + n * width; t += width) {
    for (size_t pos = 0; pos < key; ++pos) {
      assert(t[pos] >= 0 && "SortTuples needs ground TermIds");
      const uint32_t v = static_cast<uint32_t>(t[pos]);
      uint32_t* c = counts.data() + pos * kDigits * 256;
      for (size_t d = 0; d < kDigits; ++d) ++c[d * 256 + ((v >> (8 * d)) & 255)];
    }
  }
  scratch->resize(n * width);
  TermId* src = data;
  TermId* dst = scratch->data();
  for (size_t pos = key; pos-- > 0;) {
    for (size_t d = 0; d < kDigits; ++d) {
      uint32_t* c = counts.data() + (pos * kDigits + d) * 256;
      const size_t shift = 8 * d;
      auto digit = [&](const TermId* t) {
        return (static_cast<uint32_t>(t[pos]) >> shift) & 255;
      };
      if (c[digit(src)] == n) continue;  // every record shares this digit
      uint32_t at = 0;
      for (size_t b = 0; b < 256; ++b) at += std::exchange(c[b], at);
      for (const TermId* t = src; t != src + n * width; t += width) {
        std::copy_n(t, width, dst + static_cast<size_t>(c[digit(t)]++) * width);
      }
      std::swap(src, dst);
    }
  }
  if (src != data) std::copy_n(src, n * width, data);
}

size_t Structure::AppendRows(PredId pred, const TermId* data, size_t n) {
  assert(pred >= 0 && pred < sig_->num_predicates());
  if (n == 0) return 0;
  if (static_cast<size_t>(pred) >= relations_.size()) {
    relations_.resize(pred + 1);
  }
  Relation& rel = relations_[pred];
  if (rel.tuple_slots.empty()) {  // first insert: fix the layout
    rel.arity = sig_->arity(pred);
    rel.postings.resize(rel.arity);
  }
  const size_t arity = static_cast<size_t>(rel.arity);
  const uint32_t first = rel.rows;

  // Rows: one reservation of the tuple table for the whole batch, then
  // one probe per tuple; a new tuple's row is readable at once, so a
  // repeat later in the batch finds it.
  oa::ReserveSlot(&rel.tuple_slots, rel.rows, n, [&rel](uint32_t r) {
    return HashTuple(rel.Row(r), rel.arity);
  });
  for (size_t i = 0; i < n; ++i) {
    const TermId* t = data + i * arity;
    const size_t slot =
        oa::Probe(rel.tuple_slots, HashTuple(t, arity), [&](uint32_t r) {
          return std::equal(t, t + arity, rel.Row(r));
        });
    if (rel.tuple_slots[slot] != kEmptySlot) continue;
    // New, so `t` cannot point into this arena, and neither can the rest
    // of the batch: growing the arena here leaves `data` valid. Growth is
    // geometric, so one-row calls stay amortized O(1).
    if (rel.data.capacity() < rel.data.size() + arity) {
      rel.data.reserve(std::max(rel.data.size() + (n - i) * arity,
                                2 * rel.data.capacity()));
    }
    rel.tuple_slots[slot] = rel.rows++;
    rel.data.insert(rel.data.end(), t, t + arity);
  }
  const uint32_t added = rel.rows - first;
  if (added == 0) return 0;

  // Postings, one position at a time. Consecutive rows often share a
  // value at a position (a sorted run's first column does), and then
  // share its list without a probe.
  for (size_t pos = 0; pos < arity; ++pos) {
    PostingIndex& ix = rel.postings[pos];
    TermId last = -1;
    std::vector<uint32_t>* list = nullptr;
    for (uint32_t row = first; row < rel.rows; ++row) {
      const TermId v = rel.Row(row)[pos];
      if (list == nullptr || v != last) {
        oa::ReserveSlot(&ix.slots, ix.values.size(), 1, [&ix](uint32_t id) {
          return HashValue(ix.values[id]);
        });
        const size_t vslot =
            oa::Probe(ix.slots, HashValue(v),
                      [&ix, v](uint32_t id) { return ix.values[id] == v; });
        if (ix.slots[vslot] == kEmptySlot) {
          ix.slots[vslot] = static_cast<uint32_t>(ix.values.size());
          ix.values.push_back(v);
          ix.lists.emplace_back();
        }
        list = &ix.lists[ix.slots[vslot]];
        last = v;
      }
      list->push_back(row);
    }
  }
  // Domain: the new rows' values in (row, position) order.
  for (const TermId* c = rel.Row(first); c != rel.Row(rel.rows); ++c) {
    AddDomainElement(*c);
  }
  num_facts_ += added;
  if (accountant_ != nullptr) {
    accountant_->Charge(added * ApproxFactBytes(arity));
  }
  return added;
}

bool Structure::AddFact(PredId pred, const TermId* args, size_t n) {
  assert(pred >= 0 && pred < sig_->num_predicates());
  assert(static_cast<int>(n) == sig_->arity(pred));
  if (static_cast<int>(n) != sig_->arity(pred)) return false;
  return AppendRows(pred, args, 1) == 1;
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
  return rel->tuple_slots[oa::Probe(
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
  const uint32_t id = ix.slots[oa::Probe(
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
  std::vector<TermId> records;  // (tuple, row id) per suffix row, flat
  std::vector<TermId> scratch;
  for (Relation& rel : relations_) {
    const uint32_t n = rel.rows;
    const uint32_t old = rel.sorted_rows;
    if (old == n) continue;
    auto tuple_less = [&rel](uint32_t a, uint32_t b) {
      const TermId* x = rel.Row(a);
      const TermId* y = rel.Row(b);
      for (int pos = 0; pos < rel.arity; ++pos) {
        if (x[pos] != y[pos]) return x[pos] < y[pos];
      }
      return false;
    };
    std::vector<uint32_t>& idx = rel.sorted;
    bool in_order = true;  // the suffix arrived as a sorted run
    for (uint32_t r = old + 1; r < n && in_order; ++r) {
      in_order = tuple_less(r - 1, r);
    }
    if (in_order) {
      for (uint32_t r = old; r < n; ++r) idx.push_back(r);
    } else {
      const size_t arity = static_cast<size_t>(rel.arity);
      const size_t width = arity + 1;
      records.resize(static_cast<size_t>(n - old) * width);
      TermId* rec = records.data();
      for (uint32_t r = old; r < n; ++r, rec += width) {
        std::copy_n(rel.Row(r), arity, rec);
        rec[arity] = static_cast<TermId>(r);
      }
      SortTuples(records.data(), n - old, width, arity, &scratch);
      for (size_t i = 0; i < n - old; ++i) {
        idx.push_back(static_cast<uint32_t>(records[i * width + arity]));
      }
    }
    // Merge only when the suffix does not sort after every indexed row.
    if (old > 0 && tuple_less(idx[old], idx[old - 1])) {
      std::inplace_merge(idx.begin(), idx.begin() + old, idx.end(),
                         tuple_less);
    }
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
