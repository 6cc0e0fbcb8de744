// Relational structures (database instances): ground facts with indexes.
//
// A Structure stores ground atoms per predicate, deduplicated, with
// per-(predicate, position, value) posting lists used by the backtracking
// join in eval/ and by the chase. Insertion is incremental and rows are
// append-only, which matches the chase's access pattern (facts are never
// deleted; new rounds only add).
//
// Each relation stores every tuple once, in one row-major arena of TermIds:
// row r occupies [r * arity, (r + 1) * arity). Beside the arena it keeps:
//
//   * an exact-tuple table — open addressing over row ids (no key
//     copies), probed with a hash of the tuple read from the arena;
//   * postings — per position, an open-addressing value index into a
//     vector of posting lists (ascending row ids), maintained on insert,
//     always current, probed by the interpretive Matcher and the plan
//     executor;
//   * one sorted index — row ids in whole-tuple order, built on the first
//     RefreshIndexes() call and extended incrementally by later calls,
//     read only by the round sink's bulk containment (ContainsSorted).
//     RefreshIndexes is NOT thread-safe against readers: engines call it
//     only at round boundaries, the single-threaded point of a chase.
//
// Facts enter through one routine, AppendRows, which takes a batch of
// tuples of one predicate; AddFact is its one-row case. Both hash tables
// use the shared probing routine of base/open_addressing.h (linear
// probing, power-of-two capacity, load at most 1/2). Rows are read through
// views of the arena — TupleRef for one tuple, RowsView for a relation. A
// view, a Postings() pointer, and anything derived from them are
// invalidated by an insert on the same predicate (the arena or a list may
// reallocate). Inserting into other predicates leaves them valid, even
// when the relation table grows: a relation moves without copying its
// arena.

#ifndef BDDFC_CORE_STRUCTURE_H_
#define BDDFC_CORE_STRUCTURE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bddfc/base/governor.h"
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

/// One ground tuple: a view of contiguous TermIds — a stored row of a
/// relation's arena, or any caller buffer (a std::vector converts
/// implicitly). Compares by value. The conversion back to std::vector
/// copies; it is kept so code that binds a row to a
/// `const std::vector<TermId>&` still compiles.
class TupleRef : public std::span<const TermId> {
 public:
  using std::span<const TermId>::span;

  operator std::vector<TermId>() const { return {begin(), end()}; }

  friend bool operator==(TupleRef a, TupleRef b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// The rows of one relation, append-ordered: size() tuples of arity()
/// TermIds read row-major from the relation's arena. Indexing and
/// iteration yield TupleRefs. Invalidated by an insert into the same
/// predicate (see the file comment).
class RowsView {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TupleRef;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TupleRef;

    iterator() = default;
    iterator(const TermId* data, size_t arity, size_t row)
        : data_(data), arity_(arity), row_(row) {}

    TupleRef operator*() const {
      return TupleRef(data_ + row_ * arity_, arity_);
    }
    iterator& operator++() {
      ++row_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++row_;
      return old;
    }
    bool operator==(const iterator& o) const { return row_ == o.row_; }

   private:
    const TermId* data_ = nullptr;
    size_t arity_ = 0;
    size_t row_ = 0;
  };

  RowsView() = default;
  RowsView(const TermId* data, size_t arity, size_t rows)
      : data_(data), arity_(arity), rows_(rows) {}

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  size_t arity() const { return arity_; }
  /// The arena: row r starts at data() + r * arity().
  const TermId* data() const { return data_; }
  TupleRef operator[](size_t r) const {
    return TupleRef(data_ + r * arity_, arity_);
  }
  iterator begin() const { return iterator(data_, arity_, 0); }
  iterator end() const { return iterator(data_, arity_, rows_); }

  /// Equal rows in equal order.
  friend bool operator==(const RowsView& a, const RowsView& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const TermId* data_ = nullptr;
  size_t arity_ = 0;
  size_t rows_ = 0;
};

/// Sorts `n` flat records of `width` TermIds at `data` in place, ascending
/// in the lexicographic order of their first `key` TermIds: an LSD radix
/// sort over 8-bit digits, last key position first, that skips every digit
/// on which all records agree. Stable, comparator-free, O(n * width), one
/// code path for every width. The key TermIds must be ground
/// (non-negative), so the unsigned digit order is the signed order; the
/// other `width - key` TermIds ride along unread. `scratch` is resized to
/// n * width and reused. The round sink sorts tuples with it (key equal to
/// width); RefreshIndexes sorts (tuple, row id) records.
void SortTuples(TermId* data, size_t n, size_t width, size_t key,
                std::vector<TermId>* scratch);

/// A finite relational structure over a shared Signature.
class Structure {
 public:
  explicit Structure(SignaturePtr sig) : sig_(std::move(sig)) {}

  const SignaturePtr& signature_ptr() const { return sig_; }
  const Signature& sig() const { return *sig_; }
  Signature& mutable_sig() { return *sig_; }

  /// Appends `n` ground tuples of `pred`, row-major at `data` (n times
  /// arity(pred) TermIds), and returns how many were new. The result —
  /// rows and their order, postings, Domain() order, NumFacts() and the
  /// accountant's used and peak bytes — equals that of n AddFact calls in
  /// order: a tuple already stored, or repeated within the batch, is
  /// skipped, and the new rows' values join Domain() in (row, position)
  /// order. The cost is one table reservation for the batch, the posting
  /// lists filled one position at a time and one accountant charge.
  /// Precondition: every value is a constant known to the signature.
  /// `data` may point into this structure's own rows: those tuples are
  /// stored, so they are skipped before anything grows.
  size_t AppendRows(PredId pred, const TermId* data, size_t n);

  /// Inserts a ground fact of `n` arguments; returns true iff it was new.
  /// The one-row case of AppendRows. Preconditions: all args are constants
  /// known to the signature and `n` equals the arity (checked by assert in
  /// debug builds; a tuple of the wrong length is never stored).
  bool AddFact(PredId pred, const TermId* args, size_t n);
  bool AddFact(PredId pred, TupleRef args) {
    return AddFact(pred, args.data(), args.size());
  }
  bool AddFact(PredId pred, std::initializer_list<TermId> args) {
    return AddFact(pred, args.begin(), args.size());
  }
  bool AddFact(const Atom& ground_atom) {
    return AddFact(ground_atom.pred, ground_atom.args);
  }

  /// Registers a constant as a domain element even if it occurs in no fact.
  void AddDomainElement(TermId c);

  /// Attaches a memory accountant: every subsequent new fact charges
  /// ApproxFactBytes(arity) to it. The accountant is run-scoped
  /// state, not part of the structure's value — engines attach it for the
  /// duration of a governed run and detach (nullptr) before returning, so
  /// results never carry dangling accountant pointers.
  void SetAccountant(MemoryAccountant* accountant) {
    accountant_ = accountant;
  }
  MemoryAccountant* accountant() const { return accountant_; }

  /// Accounted heap footprint of one stored fact of the given arity. An
  /// accounting estimate, not an allocator measurement: it was sized for
  /// an earlier layout that stored each fact five times, and keeps that
  /// value because every governor trip point and the serve cache's charge
  /// are calibrated against it. It overstates the current layout, which
  /// holds a fact as one arena row, a slot of the exact-tuple table, one
  /// posting per position (plus the value-index entry of a new value) and
  /// one sorted-index entry.
  static size_t ApproxFactBytes(size_t arity) {
    return 96 + arity * (3 * sizeof(TermId) + 2 * sizeof(uint32_t) + 16);
  }

  /// Sum of ApproxFactBytes over every stored fact — exactly what an
  /// accountant was charged while building this structure. Callers that
  /// discard an accounted structure Release() this amount to return its
  /// allowance to the budget.
  size_t ApproxAccountedBytes() const;

  /// True iff the ground fact is present. A tuple whose length differs
  /// from the relation's arity is absent.
  bool Contains(PredId pred, TupleRef args) const {
    return FindRow(pred, args) != kNoRow;
  }
  bool Contains(PredId pred, std::initializer_list<TermId> args) const {
    return Contains(pred, TupleRef(args.begin(), args.size()));
  }
  bool Contains(const Atom& ground_atom) const {
    return Contains(ground_atom.pred, ground_atom.args);
  }

  /// Row id of the exact ground tuple, or kNoRow when absent. One hash
  /// lookup — the plan executor's fast path for fully-bound steps (e.g.
  /// closing a cycle), where probing per-position postings would be wasted
  /// work. The id is also the tuple's position in Rows(), so band checks
  /// are a comparison.
  static constexpr uint32_t kNoRow = UINT32_MAX;
  uint32_t FindRow(PredId pred, TupleRef args) const;

  /// All rows of `pred` (each row is one ground tuple), append-ordered.
  /// Invalidated by an insert into `pred` — callers that scan while deriving
  /// (the chase does, inside match callbacks) must buffer additions and
  /// apply them between rounds.
  RowsView Rows(PredId pred) const;

  /// Posting list of rows of `pred` whose argument `pos` equals `value`,
  /// ascending, or nullptr when empty (including for a position outside
  /// [0, arity)). Invalidated by an insert into `pred`.
  const std::vector<uint32_t>* Postings(PredId pred, int pos,
                                        TermId value) const;

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
  /// the sorted batch, comparing against arena rows, which answers exactly
  /// for the indexed rows. Only a tuple absent from them while rows past
  /// the index watermark exist takes the exact-tuple hash lookup, so the
  /// answer is correct at any index staleness (including never-refreshed).
  size_t ContainsSorted(PredId pred, size_t arity, const TermId* tuples,
                        size_t count, std::vector<char>* contained) const;

  /// Builds (first call) or incrementally extends (later calls) each
  /// relation's sorted index: new rows are sorted by tuple and merged into
  /// the existing run. A suffix appended in tuple order (a sorted run)
  /// skips the sort, one that sorts after every indexed row skips the
  /// merge, and any other suffix is radix-sorted (SortTuples). Not
  /// thread-safe against concurrent readers — call
  /// only at round boundaries or before handing the structure to parallel
  /// scans. Without it ContainsSorted answers through the hash lookup.
  void RefreshIndexes();

  /// The tuple of a fact handle (a view; see Rows() for invalidation).
  TupleRef Tuple(FactHandle h) const { return Rows(h.pred)[h.row]; }

  /// Number of stored facts (all predicates).
  size_t NumFacts() const { return num_facts_; }
  size_t NumFacts(PredId pred) const {
    const Relation* rel = FindRelation(pred);
    return rel == nullptr ? 0 : rel->rows;
  }

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
  /// rows, one chase task each. Chunk boundaries depend only on the
  /// watermark and the row count, never on the reader's thread count, so a
  /// parallel scan enumerates the same row partition at any parallelism
  /// (the determinism anchor of the parallel chase). Empty when the delta
  /// is. A skewed relation whose delta dwarfs the others simply yields
  /// more chunks — load balancing falls out of chunking.
  std::vector<RowRange> DeltaChunks(PredId pred,
                                    uint32_t max_chunk_rows) const;

  /// Calls fn(pred, tuple) for every stored fact, predicate by predicate,
  /// rows append-ordered.
  void ForEachFact(const std::function<void(PredId, TupleRef)>& fn) const;

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
  /// Per-position postings: an open-addressing value index (`slots`, list
  /// ids) into `values` (list id -> its value) and `lists` (list id ->
  /// ascending row ids). DistinctValues is values.size().
  struct PostingIndex {
    std::vector<uint32_t> slots;
    std::vector<TermId> values;
    std::vector<std::vector<uint32_t>> lists;
  };

  struct Relation {
    int arity = 0;
    uint32_t rows = 0;
    /// Row-major arena: row r is data[r * arity, (r + 1) * arity).
    std::vector<TermId> data;
    /// Exact-tuple table: open addressing over row ids; empty until the
    /// first fact (which also fixes `arity` and sizes `postings`).
    std::vector<uint32_t> tuple_slots;
    std::vector<PostingIndex> postings;  // one per position
    /// Row ids in tuple order (rows are distinct, so the order is total);
    /// covers rows [0, sorted_rows). Built/extended by RefreshIndexes only.
    std::vector<uint32_t> sorted;
    uint32_t sorted_rows = 0;

    const TermId* Row(uint32_t r) const {
      return data.data() + static_cast<size_t>(r) * arity;
    }
  };
  // Views hold arena pointers across the relation table's growth, which
  // stays true only while relations move instead of being copied.
  static_assert(std::is_nothrow_move_constructible_v<Relation>);

  const Relation* FindRelation(PredId pred) const {
    return pred >= 0 && static_cast<size_t>(pred) < relations_.size()
               ? &relations_[pred]
               : nullptr;
  }

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
