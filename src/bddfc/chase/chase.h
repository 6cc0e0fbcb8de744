// The chase (§1.1): round-based, non-oblivious by default.
//
// Chase^{i+1}(D, T) extends Chase^i(D, T) by simultaneously firing every
// rule whose body matches and (for existential TGDs) whose head is not
// already witnessed — the *non-oblivious* (restricted) chase the paper uses.
// An oblivious variant (create a witness for every trigger) is provided as a
// baseline for experiments.
//
// Within one round, existential triggers are deduplicated per canonicalized
// head pattern (existential positions renumbered order-invariantly): the
// non-oblivious chase demands at most one witness per demanded pattern,
// which is what Lemma 3(iv) relies on.
//
// One production engine and one independent reference compute it
// (DESIGN.md §2.3, §2.11):
//
//   * kParallel, the production engine, is *delta-driven* (semi-naive):
//     from round 2 on, each rule body is evaluated only over bindings in
//     which at least one atom matches a fact born in the previous round.
//     The delta is a per-relation row range recorded by
//     Structure::MarkRoundBoundary. Each body atom in turn anchors the
//     delta while atoms before the anchor stay on pre-round rows (the
//     old/new split), so every binding is derived exactly once per round.
//     Each task compiles the plans it runs (eval/plan.h, eval/exec.h): the
//     body, and in the restricted chase each TGD head, whose plan answers
//     the witness check per body match. Head derivations go through the
//     vectorized round sink (chase/round.h). At every thread count the
//     round splits each delta into fixed 1,024-row chunks, one ParallelFor
//     task each (base/parallel.h), and keeps one sink per worker.
//   * kNaive, the reference, re-enumerates every binding every round on
//     the interpretive Matcher, which also answers its witness checks, and
//     buffers through a per-binding hash sink. It shares no evaluator with
//     the production path, nor its sink or sorted indexes.
//
// Because facts are never deleted, a trigger whose body avoids the delta
// was already handled in an earlier round, so both engines produce the
// same result byte for byte: rows with raw TermIds, null provenance, birth
// rounds, facts_per_round and the dedup counters. Only bindings_tried
// differs (the reference re-enumerates old bindings).
//
// Faults enter a run only through the FaultRegistry attached to
// ChaseOptions::context (base/faults.h). Besides its fail-stop sites,
// RunChase hits faults::kChaseBug once at entry: a fire whose action names
// a self-test bug breaks that invariant for the whole run.

#ifndef BDDFC_CHASE_CHASE_H_
#define BDDFC_CHASE_CHASE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/status.h"
#include "bddfc/core/structure.h"
#include "bddfc/core/theory.h"
#include "bddfc/eval/match.h"

namespace bddfc {

/// Which round loop RunChase uses. Both produce byte-identical results
/// (see the header comment); only bindings_tried and the wall time differ.
enum class ChaseEngine {
  /// The production engine: delta evaluation through compiled plans and
  /// the vectorized sink, in chunk tasks fanned out over
  /// ChaseOptions::threads workers. The result does not depend on the
  /// thread count.
  kParallel,
  /// The independent reference: full re-enumeration every round on the
  /// interpretive Matcher with the per-binding hash sink.
  kNaive,
};

/// Budgets and variants for a chase run.
struct ChaseOptions {
  /// Maximum number of rounds (Chase^i levels) to run.
  size_t max_rounds = 64;
  /// Fact budget; the run stops with ResourceExhausted when exceeded.
  size_t max_facts = 1000000;
  /// Oblivious (blind) chase: fire every existential trigger regardless of
  /// existing witnesses. Default false = the paper's non-oblivious chase.
  bool oblivious = false;
  /// Fire only the plain datalog rules (the saturation mode of Lemma 5 —
  /// existential TGDs are still *checked* afterwards by CheckModel).
  bool datalog_only = false;
  /// Round-loop implementation (results are identical; speed is not).
  ChaseEngine engine = ChaseEngine::kParallel;
  /// Threads of the production engine (kNaive ignores it);
  /// 0 = DefaultThreads(). The result, bindings_tried included, does not
  /// depend on this value, only the wall time does. A resolved value of 1
  /// runs each round's tasks on the calling thread.
  size_t threads = 1;
  /// Runtime invariant checking (DESIGN.md §2.14): kCheap adds O(1)
  /// per-round identity checks (sink counters, index freshness,
  /// round-prefix consistency on trips), kFull re-verifies round buffers
  /// against the frozen structure. Violations surface as kInternal.
  ParanoiaLevel paranoia = ParanoiaLevel::kOff;
  /// Resource governor (not owned; may be null). When set, the run checks
  /// its deadline / memory budget / cancel token at round boundaries and
  /// (strided) inside body enumeration, charges fact storage to its
  /// accountant, and cuts the result at the last complete round on a trip.
  /// max_facts / max_rounds trips are recorded on it too, so the count
  /// knobs behave as views onto the same contract.
  ExecutionContext* context = nullptr;
};

/// Execution counters of one chase run, for benchmarks and the CLI.
struct ChaseStats {
  /// Matcher counters for rule-body enumeration: complete bindings tried
  /// and posting-list hits/misses. Witness-existence probes are not
  /// counted here.
  MatchStats match;
  /// Existential triggers dropped because an equivalent head pattern was
  /// already demanded in the same round.
  size_t triggers_deduped = 0;
  /// Buffered datalog derivations dropped as duplicates within a round.
  size_t datalog_deduped = 0;
  /// Vectorized-sink counters of the production engine, all zero on
  /// kNaive. sink_candidates counts datalog head occurrences buffered
  /// (before any dedup or containment check) and sink_contained the
  /// occurrences dropped because the tuple was already in the frozen
  /// structure — both are functions of the round's derivation multiset,
  /// identical at every thread count. sink_probes counts the distinct
  /// tuples actually submitted to bulk ContainsSorted; like postings_hits
  /// it depends on compaction boundaries, and on which worker ran which
  /// task, so it is excluded from byte-identity comparisons.
  size_t sink_candidates = 0;
  size_t sink_contained = 0;
  size_t sink_probes = 0;
  /// Wall time per round in milliseconds (entry 0 = round 1), measured
  /// barrier to barrier by RunChase. The run's peak accounted bytes are
  /// ChaseResult::report.peak_bytes.
  std::vector<double> round_ms;

  /// Adds the counters of `o` (a worker's, or a round's). round_ms is
  /// not merged: only RunChase records it, once per round.
  ChaseStats& operator+=(const ChaseStats& o) {
    match.bindings_tried += o.match.bindings_tried;
    match.postings_hits += o.match.postings_hits;
    match.postings_misses += o.match.postings_misses;
    match.rows_scanned += o.match.rows_scanned;
    triggers_deduped += o.triggers_deduped;
    datalog_deduped += o.datalog_deduped;
    sink_candidates += o.sink_candidates;
    sink_contained += o.sink_contained;
    sink_probes += o.sink_probes;
    return *this;
  }

  /// Publishes these counters into `reg` under `<prefix>.*` keys
  /// ("bddfc.chase" for RunChase). The registry is the run's — resolved
  /// through the ExecutionContext's RunContext, so concurrent sessions
  /// never interleave counters. Called once at the end of a run; a no-op
  /// (one relaxed load) when the registry is disabled.
  void PublishTo(const char* prefix, obs::MetricsRegistry& reg) const;
};

/// Provenance of a labeled null invented by the chase.
struct NullProvenance {
  int birth_round = 0;
  int rule_index = -1;
  /// The grounded head atom the null was created in.
  Atom head_atom;
};

/// Output of a chase run.
struct ChaseResult {
  /// OK when a fixpoint was reached; ResourceExhausted when a budget ran
  /// out first (the structure is then the Chase^L prefix).
  Status status = Status::OK();
  Structure structure;
  /// True iff no rule was applicable in the last round: structure ⊨ T.
  bool fixpoint_reached = false;
  size_t rounds_run = 0;
  size_t nulls_created = 0;
  /// Per-relation row counts after round 0 and after each applied round:
  /// entry i holds NumFacts(p) of Chase^i at index p (a relation past the
  /// end of an entry had no rows yet). Chase^{i+1} only appends to
  /// Chase^i, so these boundaries fix every fact's birth round (FactRound)
  /// without a per-fact record.
  std::vector<std::vector<uint32_t>> round_rows;
  /// Provenance per invented null.
  std::unordered_map<TermId, NullProvenance> null_provenance;
  /// |Chase^i| after each round i (index 0 = |D|); for growth experiments.
  std::vector<size_t> facts_per_round;
  /// Execution counters (bindings tried, postings hits/misses, dedups,
  /// per-round wall time).
  ChaseStats stats;
  /// Resource account of the run: what tripped (kNone on a clean run),
  /// peak accounted bytes, deadline slack, check counts. partial_result is
  /// true when a budget cut the run short but the structure holds a valid
  /// Chase^L prefix (it always does — rounds are applied atomically).
  ResourceReport report;

  explicit ChaseResult(SignaturePtr sig) : structure(std::move(sig)) {}

  /// Birth round of an element: 0 for named constants, the creating round
  /// for nulls.
  int ElementBirthRound(TermId e) const {
    auto it = null_provenance.find(e);
    return it == null_provenance.end() ? 0 : it->second.birth_round;
  }

  /// Birth round of a stored fact (round 0 = the facts of D): the first
  /// round whose recorded row count of its relation exceeds its row, by
  /// binary search over round_rows. Rows past the last record were applied
  /// by a round that did not complete (the torn-exhaust fault) and report
  /// rounds_run + 1.
  int FactRound(FactHandle h) const;

  /// Facts grouped by birth round: entry i holds the ground atoms first
  /// derived in round i (entry 0 = the facts of D), append-ordered within
  /// each relation. Empty when the structure is.
  std::vector<std::vector<Atom>> FactsByRound() const;
};

/// Runs the chase of `theory` on `instance`. The instance's signature object
/// is shared and mutated (nulls are added to it).
ChaseResult RunChase(const Theory& theory, const Structure& instance,
                     const ChaseOptions& options = {});

/// One violated rule instance found by CheckModel.
struct RuleViolation {
  int rule_index = -1;
  /// The grounded body of the violated rule.
  std::vector<Atom> grounded_body;
  std::string ToString(const Signature& sig) const;
};

/// Checks M ⊨ T: every datalog rule's grounded head is present, and every
/// existential TGD's head has a witness. Returns the first violation found,
/// or nullopt when M is a model of T.
std::optional<RuleViolation> CheckModel(const Structure& m,
                                        const Theory& theory);

}  // namespace bddfc

#endif  // BDDFC_CHASE_CHASE_H_
