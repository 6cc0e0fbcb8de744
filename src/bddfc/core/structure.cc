#include "bddfc/core/structure.h"

#include <algorithm>
#include <cassert>

namespace bddfc {

namespace {
const std::vector<std::vector<TermId>> kEmptyRows;
}  // namespace

Structure::Relation& Structure::GetRelation(PredId pred) {
  if (static_cast<size_t>(pred) >= relations_.size()) {
    relations_.resize(pred + 1);
  }
  Relation& rel = relations_[pred];
  if (rel.by_pos.empty()) {
    rel.arity = sig_->arity(pred);
    rel.by_pos.resize(std::max(rel.arity, 1));
    rel.cols.resize(std::max(rel.arity, 1));
  }
  return rel;
}

const Structure::Relation* Structure::FindRelation(PredId pred) const {
  if (pred < 0 || static_cast<size_t>(pred) >= relations_.size()) {
    return nullptr;
  }
  return &relations_[pred];
}

bool Structure::AddFact(PredId pred, const std::vector<TermId>& args) {
  assert(pred >= 0 && pred < sig_->num_predicates());
  assert(static_cast<int>(args.size()) == sig_->arity(pred));
  Relation& rel = GetRelation(pred);
  auto [it, inserted] =
      rel.lookup.emplace(args, static_cast<uint32_t>(rel.rows.size()));
  if (!inserted) return false;
  uint32_t row = it->second;
  rel.rows.push_back(args);
  for (int pos = 0; pos < rel.arity; ++pos) {
    assert(IsConst(args[pos]));
    rel.by_pos[pos][args[pos]].push_back(row);
    rel.cols[pos].push_back(args[pos]);
    AddDomainElement(args[pos]);
  }
  ++num_facts_;
  if (accountant_ != nullptr) {
    accountant_->Charge(ApproxFactBytes(args.size()));
  }
  return true;
}

size_t Structure::ApproxAccountedBytes() const {
  size_t bytes = 0;
  for (const Relation& rel : relations_) {
    bytes += rel.rows.size() *
             ApproxFactBytes(static_cast<size_t>(std::max(rel.arity, 0)));
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

bool Structure::Contains(PredId pred, const std::vector<TermId>& args) const {
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr) return false;
  return rel->lookup.find(args) != rel->lookup.end();
}

uint32_t Structure::FindRow(PredId pred,
                            const std::vector<TermId>& args) const {
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr) return kNoRow;
  auto it = rel->lookup.find(args);
  return it == rel->lookup.end() ? kNoRow : it->second;
}

const std::vector<std::vector<TermId>>& Structure::Rows(PredId pred) const {
  const Relation* rel = FindRelation(pred);
  return rel == nullptr ? kEmptyRows : rel->rows;
}

PredId Structure::NumStoredPredicates() const {
  return static_cast<PredId>(relations_.size());
}

const std::vector<uint32_t>* Structure::Postings(PredId pred, int pos,
                                                 TermId value) const {
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr || pos >= static_cast<int>(rel->by_pos.size())) {
    return nullptr;
  }
  auto it = rel->by_pos[pos].find(value);
  return it == rel->by_pos[pos].end() ? nullptr : &it->second;
}

const std::vector<TermId>* Structure::Column(PredId pred, int pos) const {
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr || pos < 0 || pos >= static_cast<int>(rel->cols.size())) {
    return nullptr;
  }
  return &rel->cols[pos];
}

uint32_t Structure::IndexedRows(PredId pred) const {
  const Relation* rel = FindRelation(pred);
  return rel == nullptr ? 0 : rel->sorted_rows;
}

size_t Structure::DistinctValues(PredId pred, int pos) const {
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr || pos < 0 ||
      pos >= static_cast<int>(rel->by_pos.size())) {
    return 0;
  }
  return rel->by_pos[pos].size();
}

size_t Structure::ContainsSorted(PredId pred, size_t arity,
                                 const TermId* tuples, size_t count,
                                 std::vector<char>* contained) const {
  contained->assign(count, 0);
  const Relation* rel = FindRelation(pred);
  if (rel == nullptr || rel->rows.empty()) return 0;
  assert(static_cast<int>(arity) == rel->arity);

  // Indexed row `r` vs tuple `t`, compared through the column mirrors.
  auto row_less = [&](uint32_t r, const TermId* t) {
    for (size_t pos = 0; pos < arity; ++pos) {
      if (rel->cols[pos][r] != t[pos]) return rel->cols[pos][r] < t[pos];
    }
    return false;
  };
  const std::vector<uint32_t>& idx = rel->sorted;
  const bool stale = rel->sorted_rows != rel->rows.size();
  std::vector<TermId> key;
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
                   std::equal(t, t + arity, rel->rows[idx[cursor]].begin());
    if (!present && stale) {
      // Absent from the indexed prefix while unindexed rows exist: one
      // exact-tuple hash lookup settles it.
      key.assign(t, t + arity);
      present = rel->lookup.count(key) != 0;
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
    const uint32_t n = static_cast<uint32_t>(rel.rows.size());
    if (rel.sorted_rows == n) continue;
    auto tuple_less = [&rel](uint32_t a, uint32_t b) {
      for (int pos = 0; pos < rel.arity; ++pos) {
        const std::vector<TermId>& col = rel.cols[pos];
        if (col[a] != col[b]) return col[a] < col[b];
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
    watermark_[p] = static_cast<uint32_t>(relations_[p].rows.size());
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
    const std::function<void(PredId, const std::vector<TermId>&)>& fn) const {
  for (PredId p = 0; p < static_cast<PredId>(relations_.size()); ++p) {
    for (const auto& row : relations_[p].rows) fn(p, row);
  }
}

Structure Structure::RestrictToPredicates(
    const std::unordered_set<PredId>& preds) const {
  Structure out(sig_);
  ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    if (preds.count(p)) out.AddFact(p, row);
  });
  return out;
}

Structure Structure::RestrictToElements(
    const std::unordered_set<TermId>& elements) const {
  Structure out(sig_);
  ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    bool inside = std::all_of(row.begin(), row.end(), [&](TermId t) {
      return elements.count(t) > 0;
    });
    if (inside) out.AddFact(p, row);
  });
  return out;
}

bool Structure::ContainsAllFactsOf(const Structure& other) const {
  bool all = true;
  other.ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    if (!Contains(p, row)) all = false;
  });
  return all;
}

std::string Structure::ToString() const {
  std::vector<std::string> lines;
  ForEachFact([&](PredId p, const std::vector<TermId>& row) {
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
