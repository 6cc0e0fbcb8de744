// Round machinery of the chase (chase.cc): trigger canonicalization, the
// vectorized round sink, the two round enumerations (production and
// reference) and the canonical round application that makes every run
// byte-identical.
//
// Determinism design. Within a round, body bindings may be enumerated in
// any order — each production task compiles its plans against the frozen
// snapshot and the executor follows their join order, the production
// round splits delta anchors into row chunks whose tasks land on whichever
// worker takes them, and the reference re-enumerates everything on the
// interpretive Matcher.
// Byte-identical results therefore cannot rely on discovery order
// anywhere. Instead:
//
//   * buffered datalog additions are a *set*, handed to ApplyRound as one
//     sorted run per predicate, which it appends in (predicate, argument
//     tuple) order;
//   * pending existential triggers are keyed by the canonical pattern key
//     (Canonicalize; PatternKey is its rendered string); per key the
//     TriggerLess-least candidate wins (not the first discovered), and
//     ApplyRound fires the winners in rendered-key order — so null
//     invention order, null provenance, and row order are all functions of
//     the round's *set* of derivations;
//   * the dedup counters are occurrence counts minus distinct counts,
//     which are order-independent too.
//
// The production round keeps triggers flat end to end: a body match whose
// head has no witness (a PlanProbe on the head's compiled plan, seeded
// with the match's slot row, finds none) becomes a record (rule
// index, grounded head cells in a per-task TermId arena), the round
// barrier dedups the records on their flat TermId keys, and only each
// key's winner gets its string rendered, which fixes the application
// order. The reference keys every trigger by its PatternKey string in a
// keep-min map, and asks the Matcher for witnesses.
//
// Sharding. At every thread count, a production round is one ParallelFor
// (base/parallel.h) over a task list in (rule, delta anchor, chunk)
// order, where Structure::DeltaChunks splits the anchor relation's delta
// into kChunkRows-row chunks. The task set depends only on the structure,
// never on the thread count, and the chunks partition the round's
// bindings exactly (each binding's anchor row lies in exactly one chunk).
// Each worker keeps one slot — stats, a sink and raw trigger records —
// that every task it runs appends to; the round barrier compacts the
// slots (one more ParallelFor), folds them in worker order and merges
// them in canonical order. Which worker runs which task varies from run
// to run, but the merge depends only on the round's derivation set, so
// every thread count applies the same set and bindings_tried is the same
// sum. Every task of a round compiles against the same snapshot, so all
// of them run the same plans.
//
// The header is an implementation detail, not API: only chase.cc and the
// sink tests include it.

#ifndef BDDFC_CHASE_ROUND_H_
#define BDDFC_CHASE_ROUND_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "bddfc/base/status.h"
#include "bddfc/chase/chase.h"

namespace bddfc {
namespace chase_internal {

/// Canonical key of a head pattern as flat TermIds, invariant under
/// variable renaming and atom reordering: per atom, in the arrangement
/// PatternKey picks, its predicate, its arity, then its arguments with the
/// variables renumbered by first occurrence (MakeVar(0), MakeVar(1), ...).
/// A single-atom pattern is its own arrangement: no sort, no string.
std::vector<TermId> Canonicalize(const std::vector<Atom>& pattern);

/// Renders the flat key `key` (`n` cells, Canonicalize's layout) as its
/// PatternKey string: per atom the predicate, ",arg" per argument, then
/// "|". Injective, so two flat keys are equal iff their strings are.
std::string Render(const TermId* key, size_t n);

/// Canonical key string of a head pattern: Render(Canonicalize(pattern)).
std::string PatternKey(const std::vector<Atom>& pattern);

/// Existential triggers as flat records. Trigger i fires rule
/// `triggers[i].rule_index`; its cells start at `cells[triggers[i].cells]`:
/// the head atoms' arguments in rule order, frontier grounded and
/// existential variables still symbolic (followed, in an oblivious round's
/// raw records, by the grounded body atoms' arguments). An enumeration
/// task's raw records leave `key` empty; the round's table holds one
/// winner per key with its rendered key, in strictly ascending key order.
struct TriggerTable {
  struct Trigger {
    int32_t rule_index = 0;
    size_t cells = 0;  ///< offset of the trigger's first cell in `cells`
    std::string key;   ///< PatternKey, or the ObliviousKey in oblivious mode
  };
  std::vector<Trigger> triggers;
  std::vector<TermId> cells;

  /// Appends a trigger of rule `rule_index` and returns the slot for its
  /// `n` cells (invalidated by the next append).
  TermId* Append(int32_t rule_index, size_t n) {
    triggers.push_back({rule_index, cells.size(), {}});
    cells.resize(cells.size() + n);
    return cells.data() + cells.size() - n;
  }
};

/// The self-test bug a run carries (faults.h: the faults::kBug* actions of
/// faults::kChaseBug). kNone outside the differential fuzzer's self-test.
enum class SelfTestBug {
  kNone,
  kSkipTriggerDedup,  ///< faults::kBugChaseDedup
  kTornExhaust,       ///< faults::kBugTornExhaust
  kSinkDropDup,       ///< faults::kBugSinkDropDup (production sink only)
};

/// One predicate's buffered datalog tuples as a flat run: `tuples` entries
/// of `arity` TermIds, row-major (arity-0 runs carry only the count).
struct DatalogRun {
  PredId pred = -1;
  size_t arity = 0;
  size_t tuples = 0;
  std::vector<TermId> data;

  const TermId* tuple(size_t i) const { return data.data() + i * arity; }
};

/// One round's buffered derivations, evaluated against the frozen
/// Chase^{i-1} snapshot. EnumerateRound fills it; ApplyRound consumes it
/// in canonical order.
struct RoundBuffer {
  /// One sorted, distinct, frozen-free run per predicate that derived a
  /// new tuple, in ascending predicate order.
  std::vector<DatalogRun> datalog;
  /// The round's winning existential triggers in application order.
  TriggerTable triggers;
  /// Counters and per-round timing merged across the producing tasks.
  ChaseStats stats;

  bool empty() const { return datalog.empty() && triggers.triggers.empty(); }
  /// Total datalog tuples over every run.
  size_t datalog_facts() const;
};

/// Full paranoia's re-verification of a round buffer against the frozen
/// structure it was evaluated on: runs in strictly ascending predicate
/// order, each run's tuples strictly ascending (so pairwise distinct), no
/// tuple already in `frozen`, and trigger keys strictly ascending — the
/// guarantees the sinks claim to have enforced. Reads the buffer in place.
/// Returns Internal naming the first violation.
Status VerifyRoundBuffer(const RoundBuffer& buf, const Structure& frozen);

/// The read-only inputs one round's enumeration runs against. Production
/// tasks read it concurrently and compile their own plans and probes
/// against `frozen`.
struct RoundInputs {
  const Theory& theory;
  const Structure& frozen;  ///< Chase^{i-1}; not mutated until ApplyRound
  const ChaseOptions& options;
  ExecutionContext* ctx;  ///< never null (RunChase installs a local one)
  /// Oblivious-mode run-global (rule, body-binding) keys already fired.
  /// EnumerateRound filters the round's triggers against it once, after
  /// enumeration, so no enumeration thread ever touches it.
  std::unordered_set<std::string>* fired;
  /// The run's self-test bug, resolved once at RunChase entry from a
  /// FaultRegistry fire at faults::kChaseBug.
  SelfTestBug bug = SelfTestBug::kNone;
  /// ChaseOptions::threads resolved once by RunChase (0 becomes
  /// DefaultThreads()): the production round's ParallelFor threads.
  size_t threads = 1;
};

/// Rows per anchor chunk, the unit of one production task. Fixed (never
/// derived from the thread count) so the task decomposition — and with it
/// every plan compile — is a function of the workload alone.
inline constexpr uint32_t kChunkRows = 1024;

/// Default per-predicate raw-tail size (tuples) at which the vectorized
/// sink compacts: sorts the tail, merges it into the kept prefix, and
/// answers containment in one bulk pass. Large enough that typical rounds
/// compact exactly once, at the end; tests shrink it to exercise
/// mid-enumeration compactions.
inline constexpr size_t kSinkCompactTuples = 1 << 16;

/// Flat per-predicate candidate buffers with sort-dedup compaction and
/// bulk containment — the datalog half of the vectorized round sink
/// (DESIGN §2.13).
///
/// Append is the entire per-occurrence cost: bump a cursor and copy
/// `arity` TermIds; no Atom allocation, no hash probe, no dedup-set
/// insert. Compact() restores the invariant that the buffer's prefix is
/// sorted, distinct, and absent from `frozen`: the raw tail is sorted in
/// place by value, duplicate groups collapse with order-independent
/// counting (a group of k occurrences contributes k-1 to deduped() whether
/// it collapses in one compaction, telescopes across several, or splits
/// across the sinks of several workers), and the fresh distinct tuples go
/// through one bulk Structure::ContainsSorted probe. The counters
/// therefore match the reference's hash sink exactly — the byte-identity
/// contract extends to stats.
class DatalogSinkBuffers {
 public:
  /// `frozen` answers containment (Chase^{i-1}; must outlive the sink).
  /// `drop_dup_groups` is the kSinkDropDup self-test fault: tuples derived
  /// more than once get dropped instead of collapsed.
  DatalogSinkBuffers(const Structure& frozen, size_t compact_threshold,
                     bool drop_dup_groups);

  /// Reserves one tuple of `pred` and returns the slot to write `arity`
  /// TermIds into (invalidated by the next sink call; null iff arity 0).
  TermId* Append(PredId pred, size_t arity);

  /// Final compaction, then moves the surviving tuples out as one sorted
  /// distinct run per predicate (ascending pred) — the round barrier
  /// merges runs across workers.
  std::vector<DatalogRun> TakeRuns();

  size_t candidates() const { return candidates_; }
  size_t contained() const { return contained_; }
  size_t probes() const { return probes_; }
  size_t deduped() const { return deduped_; }

 private:
  struct PredBuf {
    PredId pred = -1;
    size_t arity = 0;
    /// Tuples [0, kept) are the compacted prefix (sorted, distinct, not in
    /// frozen); tuples [kept, kept + tail) are the raw unsorted tail.
    std::vector<TermId> data;
    size_t kept = 0;
    size_t tail = 0;
    /// Parallel to the kept prefix, only under drop_dup_groups: tuple ever
    /// had a duplicate occurrence (dropped at TakeRuns).
    std::vector<char> kept_dup;
  };

  PredBuf& Buf(PredId pred, size_t arity);
  void Compact(PredBuf* pb);

  const Structure& frozen_;
  const size_t compact_threshold_;
  const bool drop_dup_groups_;
  std::vector<int32_t> pred_slot_;  // pred -> index into bufs_, or -1
  std::vector<PredBuf> bufs_;      // first-appearance order
  std::vector<TermId> sort_scratch_;  // Compact's tuple-sort buffer
  size_t candidates_ = 0;
  size_t contained_ = 0;
  size_t probes_ = 0;
  size_t deduped_ = 0;
};

/// Merges sorted distinct runs (TakeRuns output, one or several workers'
/// worth) into one run per predicate appended to `out` in ascending
/// predicate order: a predicate's single run moves over as is; several
/// runs are concatenated and sorted by value, and cross-run duplicate
/// groups collapse to one copy, counting the extra occurrences into
/// *deduped — the +1-per-extra-run rule that makes the total dedup count
/// shard-count independent. Under `drop_dup_groups` (kSinkDropDup)
/// cross-run duplicates are dropped entirely instead. Runs are already
/// frozen-free, so no containment re-probe happens here.
void MergeDatalogRuns(std::vector<DatalogRun> runs, bool drop_dup_groups,
                      std::vector<DatalogRun>* out, size_t* deduped);

/// The round barrier's trigger dedup over the raw records of every worker
/// (`tables`, in any order; their keys empty). Each record is keyed on flat
/// TermIds: Canonicalize of its head cells, or in oblivious mode its rule
/// index followed by its body cells. Each key collapses to its
/// TriggerLess-least record — least (rule index, head cells), the order of
/// the reference's keep-min map — counting the dropped occurrences into
/// *tdedup. Only the winners' keys are rendered to strings, and *out gets
/// the winners in ascending key order: the same table at any task split
/// and arrival order. `unique_keys` is the kSkipTriggerDedup self-test
/// fault: every record gets a sequence cell appended to its key (rendered
/// "#seq"), so nothing collapses.
void DedupTriggers(const Theory& theory, bool oblivious, bool unique_keys,
                   std::vector<TriggerTable> tables, TriggerTable* out,
                   size_t* tdedup);

/// Enumerates one round's derivations into `buf` on the engine
/// options.engine selects. The production engine fans its chunk tasks
/// out over ParallelFor on in.threads workers; kNaive ignores
/// in.threads. Returns the fan-out's status: non-OK means tasks were
/// skipped on a tripped context and the round is incomplete, so the
/// caller must discard it. Counters in buf->stats are summed across workers.
Status EnumerateRound(const RoundInputs& in, RoundBuffer* buf);

/// Appends every tuple of `runs` to `s` in run order, one AppendRows batch
/// per run; returns the number of facts added.
size_t AddRuns(const std::vector<DatalogRun>& runs, Structure* s);

/// Applies a completed round's buffer in canonical order: the datalog
/// runs as they stand (already sorted by (pred, args)), then the triggers
/// in table order. Per trigger it invents one null per existential
/// variable of the rule (ExistentialVariables() order), appends the head
/// rows, and records each null's provenance at the first head atom that
/// contains it. Returns the number of facts added.
size_t ApplyRound(const Theory& theory, const RoundBuffer& buf, size_t round,
                  ChaseResult* out);

}  // namespace chase_internal
}  // namespace bddfc

#endif  // BDDFC_CHASE_ROUND_H_
