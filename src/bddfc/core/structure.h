// Relational structures (database instances): ground facts with indexes.
//
// A Structure stores ground atoms per predicate, deduplicated, with
// per-(predicate, position, value) posting lists used by the backtracking
// join in eval/ and by the chase. Insertion is incremental and rows are
// append-only, which matches the chase's access pattern (facts are never
// deleted; new rounds only add).
//
// Beyond the exact-tuple hash lookup, a relation keeps:
//
//   * hash postings (by_pos) — maintained eagerly inside AddFact, always
//     current, probed by the interpretive Matcher and the plan executor;
//   * a columnar mirror — appended eagerly, contiguous per-position value
//     arrays for block-at-a-time scans;
//   * one sorted index — row ids in whole-tuple order, built on the first
//     RefreshIndexes() call and extended incrementally by later calls,
//     read only by the round sink's bulk containment (ContainsSorted).
//     RefreshIndexes is NOT thread-safe against readers: engines call it
//     only at round boundaries, the single-threaded point of a chase.

#ifndef BDDFC_CORE_STRUCTURE_H_
#define BDDFC_CORE_STRUCTURE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/interner.h"
#include "bddfc/core/atom.h"
#include "bddfc/core/signature.h"
#include "bddfc/core/term.h"

namespace bddfc {

/// A contiguous row range [begin, end) of one relation — the unit the
/// parallel chase shards delta scans by.
struct RowRange {
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end - begin; }
  bool operator==(const RowRange& o) const {
    return begin == o.begin && end == o.end;
  }
};

/// Identifies one stored fact: predicate plus row index within it.
struct FactHandle {
  PredId pred = -1;
  uint32_t row = 0;

  bool operator==(const FactHandle& o) const {
    return pred == o.pred && row == o.row;
  }
};

struct FactHandleHash {
  size_t operator()(const FactHandle& h) const {
    size_t seed = std::hash<int32_t>()(h.pred);
    HashCombine(seed, std::hash<uint32_t>()(h.row));
    return seed;
  }
};

/// A finite relational structure over a shared Signature.
class Structure {
 public:
  explicit Structure(SignaturePtr sig) : sig_(std::move(sig)) {}

  const SignaturePtr& signature_ptr() const { return sig_; }
  const Signature& sig() const { return *sig_; }
  Signature& mutable_sig() { return *sig_; }

  /// Inserts a ground fact; returns true iff it was new.
  /// Preconditions: all args are constants known to the signature and the
  /// arity matches (checked by assert in debug builds).
  bool AddFact(PredId pred, const std::vector<TermId>& args);
  bool AddFact(const Atom& ground_atom) {
    return AddFact(ground_atom.pred, ground_atom.args);
  }

  /// Registers a constant as a domain element even if it occurs in no fact.
  void AddDomainElement(TermId c);

  /// Attaches a memory accountant: every subsequent successful AddFact
  /// charges ApproxFactBytes(arity) to it. The accountant is run-scoped
  /// state, not part of the structure's value — engines attach it for the
  /// duration of a governed run and detach (nullptr) before returning, so
  /// results never carry dangling accountant pointers.
  void SetAccountant(MemoryAccountant* accountant) {
    accountant_ = accountant;
  }
  MemoryAccountant* accountant() const { return accountant_; }

  /// Estimated heap footprint of one stored fact of the given arity: the
  /// row vector, the dedup-map entry (key copy + node), one posting per
  /// position, the columnar mirror and the sorted-index entry. An
  /// accounting estimate, not an allocator measurement: it was sized when
  /// every position had a sorted index and keeps that value, because every
  /// governor trip point is calibrated against it.
  static size_t ApproxFactBytes(size_t arity) {
    return 96 + arity * (3 * sizeof(TermId) + 2 * sizeof(uint32_t) + 16);
  }

  /// Sum of ApproxFactBytes over every stored fact — exactly what an
  /// accountant was charged while building this structure. Callers that
  /// discard an accounted structure Release() this amount to return its
  /// allowance to the budget.
  size_t ApproxAccountedBytes() const;

  /// True iff the ground fact is present.
  bool Contains(PredId pred, const std::vector<TermId>& args) const;
  bool Contains(const Atom& ground_atom) const {
    return Contains(ground_atom.pred, ground_atom.args);
  }

  /// Row id of the exact ground tuple, or kNoRow when absent. One hash
  /// lookup — the plan executor's fast path for fully-bound steps (e.g.
  /// closing a cycle), where probing per-position postings would be wasted
  /// work. The id is also the tuple's position in Rows()/Column(), so
  /// band checks are a comparison.
  static constexpr uint32_t kNoRow = UINT32_MAX;
  uint32_t FindRow(PredId pred, const std::vector<TermId>& args) const;

  /// All rows of `pred` (each row is one ground tuple), append-ordered.
  ///
  /// The returned reference is invalidated by AddFact on a predicate not
  /// stored yet (the relation table may reallocate). Callers that hold a
  /// reference across insertions — the chase holds one inside match
  /// callbacks — must buffer additions and apply them between rounds.
  const std::vector<std::vector<TermId>>& Rows(PredId pred) const;

  /// Posting list of rows of `pred` whose argument `pos` equals `value`,
  /// or nullptr when empty.
  const std::vector<uint32_t>* Postings(PredId pred, int pos,
                                        TermId value) const;

  /// Columnar view of argument position `pos` of `pred`: element r equals
  /// Rows(pred)[r][pos], stored contiguously so block-at-a-time scans read
  /// one flat array per position instead of chasing a heap pointer per
  /// row. Returns nullptr when the relation is absent or `pos` is out of
  /// range. Invalidation matches Rows().
  const std::vector<TermId>* Column(PredId pred, int pos) const;

  /// Number of rows of `pred` covered by the sorted index — equal to
  /// NumFacts(pred) right after RefreshIndexes(), smaller (stale) once
  /// facts were added since. 0 before the first refresh.
  uint32_t IndexedRows(PredId pred) const;

  /// Number of distinct values at (pred, pos) — the selectivity estimate
  /// plan compilation divides row counts by.
  size_t DistinctValues(PredId pred, int pos) const;

  /// Bulk membership for a lexicographically sorted batch of tuples — the
  /// vectorized round sink's containment pass. `tuples` holds `count`
  /// tuples of `arity` TermIds each, flat and sorted ascending (duplicates
  /// allowed). Sets (*contained)[i] to 1/0 per tuple and returns how many
  /// were present. Instead of `count` independent hash probes, a single
  /// cursor gallops forward through the tuple-ordered index in step with
  /// the sorted batch, which answers exactly for the indexed rows. Only a
  /// tuple absent from them while rows past the index watermark exist
  /// takes the exact-tuple hash lookup, so the answer is correct at any
  /// index staleness (including never-refreshed).
  size_t ContainsSorted(PredId pred, size_t arity, const TermId* tuples,
                        size_t count, std::vector<char>* contained) const;

  /// Builds (first call) or incrementally extends (later calls) each
  /// relation's sorted index: new rows are sorted by tuple and merged into
  /// the existing run. Not thread-safe against concurrent readers — call
  /// only at round boundaries or before handing the structure to parallel
  /// scans. Without it ContainsSorted answers through the hash lookup.
  void RefreshIndexes();

  /// The tuple of a fact handle.
  const std::vector<TermId>& Tuple(FactHandle h) const {
    return Rows(h.pred)[h.row];
  }

  /// Number of stored facts (all predicates).
  size_t NumFacts() const { return num_facts_; }
  size_t NumFacts(PredId pred) const { return Rows(pred).size(); }

  /// Upper bound (exclusive) on PredIds with stored rows. May exceed the
  /// signature's predicate count: facts can be added for predicates interned
  /// in a signature other than this structure's (e.g. a chase over a theory
  /// whose signature is richer than the instance's).
  PredId NumStoredPredicates() const;

  /// Domain: every constant occurring in some fact or explicitly added,
  /// in first-appearance order.
  const std::vector<TermId>& Domain() const { return domain_; }
  bool InDomain(TermId c) const {
    return c >= 0 && static_cast<size_t>(c) < in_domain_.size() &&
           in_domain_[c];
  }

  /// Round-boundary bookkeeping for delta-driven evaluation: records the
  /// current per-relation row counts. After the call, rows of `pred` at
  /// index >= WatermarkRows(pred) are exactly the facts inserted since —
  /// the delta is a row range, not a copied structure.
  void MarkRoundBoundary();

  /// Number of rows of `pred` present at the last MarkRoundBoundary()
  /// (0 before the first mark, or for predicates unseen at the mark).
  uint32_t WatermarkRows(PredId pred) const {
    return pred >= 0 && static_cast<size_t>(pred) < watermark_.size()
               ? watermark_[pred]
               : 0;
  }

  /// Total facts present at the last MarkRoundBoundary() (0 before it).
  size_t NumFactsAtWatermark() const { return facts_at_watermark_; }

  /// Splits the delta of `pred` — rows in [WatermarkRows(pred),
  /// NumFacts(pred)) — into contiguous chunks of at most `max_chunk_rows`
  /// rows, for sharded anchor scans. Chunk boundaries depend only on the
  /// watermark and the row count, never on the reader's thread count, so a
  /// parallel scan enumerates the same row partition at any parallelism
  /// (the determinism anchor of the parallel chase). Empty when the delta
  /// is. A skewed relation whose delta dwarfs the others simply yields
  /// more chunks — load balancing falls out of chunking plus stealing.
  std::vector<RowRange> DeltaChunks(PredId pred,
                                    uint32_t max_chunk_rows) const;

  /// Calls fn(pred, tuple) for every stored fact.
  void ForEachFact(
      const std::function<void(PredId, const std::vector<TermId>&)>& fn) const;

  /// C ↾ P: the substructure over exactly the predicates in `preds`
  /// (same signature object).
  Structure RestrictToPredicates(const std::unordered_set<PredId>& preds) const;

  /// C ↾ A: all facts whose arguments lie entirely inside `elements`.
  Structure RestrictToElements(
      const std::unordered_set<TermId>& elements) const;

  /// True iff every fact of `other` is a fact of *this (C1 |= C2).
  bool ContainsAllFactsOf(const Structure& other) const;

  /// Multi-line sorted dump "R(a, b)" — for tests and debugging.
  std::string ToString() const;

 private:
  struct TupleHash {
    size_t operator()(const std::vector<TermId>& v) const {
      return HashRange(v.begin(), v.end());
    }
  };

  struct Relation {
    int arity = 0;
    std::vector<std::vector<TermId>> rows;
    std::unordered_map<std::vector<TermId>, uint32_t, TupleHash> lookup;
    /// by_pos[pos][value] -> row indexes.
    std::vector<std::unordered_map<TermId, std::vector<uint32_t>>> by_pos;
    /// Columnar mirror: cols[pos][row] == rows[row][pos].
    std::vector<std::vector<TermId>> cols;
    /// Row ids in tuple order (rows are distinct, so the order is total);
    /// covers rows [0, sorted_rows). Built/extended by RefreshIndexes only.
    std::vector<uint32_t> sorted;
    uint32_t sorted_rows = 0;
  };

  Relation& GetRelation(PredId pred);
  const Relation* FindRelation(PredId pred) const;

  SignaturePtr sig_;
  std::vector<Relation> relations_;  // indexed by PredId; grown lazily
  std::vector<TermId> domain_;
  std::vector<char> in_domain_;  // indexed by constant id
  size_t num_facts_ = 0;
  std::vector<uint32_t> watermark_;  // per-relation rows at the last mark
  size_t facts_at_watermark_ = 0;
  MemoryAccountant* accountant_ = nullptr;  // unowned; run-scoped
};

}  // namespace bddfc

#endif  // BDDFC_CORE_STRUCTURE_H_
