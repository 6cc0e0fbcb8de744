// Compiled query plans: a per-body join order chosen from index
// selectivity, replacing the interpretive Matcher's per-call SelectAtom
// heuristic on the hot paths (chase rounds, saturation, certain answers,
// the restricted chase's witness checks).
//
// A plan maps the body's variables onto dense slots (0..num_slots-1) and
// fixes one join order over the atoms. Each step records, per argument
// position, whether the executor must compare against a constant, compare
// against an already-filled slot, or fill a fresh slot — so execution never
// touches a hash map per argument the way the interpreter's ResolveTerm
// does. Plans are pure orderings: they hold no row data and stay valid as
// the structure grows (selectivity estimates are sampled at compile time;
// the *order* may age, the results cannot). Plans are not cached: the
// chase compiles each task's plans against the round's frozen snapshot,
// so they follow each round's statistics.
//
// Byte-identity: a plan may enumerate a body's bindings in a different
// order than the Matcher, but the binding *set* is identical, and every
// engine output downstream (ApplyRound's sorted application, trigger
// keying, dedup counters) is a function of the set alone — see the
// determinism notes in chase/round.h.

#ifndef BDDFC_EVAL_PLAN_H_
#define BDDFC_EVAL_PLAN_H_

#include <cstdint>
#include <vector>

#include "bddfc/core/query.h"
#include "bddfc/core/structure.h"

namespace bddfc {

/// How the executor treats one argument position of a step.
struct PlanArg {
  enum Kind : uint8_t {
    kConst,  ///< compare the row value against `value`
    kBound,  ///< compare against slot `slot` (filled earlier, possibly by
             ///< an earlier position of this same step)
    kNew,    ///< first occurrence of the variable: fill slot `slot`
  };
  Kind kind = kConst;
  TermId value = 0;   // kConst only
  uint16_t slot = 0;  // kBound / kNew
};

/// One join step: match one body atom against its relation.
struct PlanStep {
  PredId pred = -1;
  /// Index of this atom in the *original* body — bands are per original
  /// atom, so banded execution looks the clamp up through this.
  size_t atom_index = 0;
  std::vector<PlanArg> args;
  /// Positions whose value is known *before* a candidate row is chosen
  /// (kConst, or kBound to a slot filled by an earlier step or the seed
  /// binding): the executor probes the smallest index among these.
  /// Positions bound to a slot first filled within this step are re-check
  /// only — their value is unknown until the row is read.
  std::vector<uint8_t> probe_positions;
};

/// A compiled body: slot layout plus ordered steps.
struct QueryPlan {
  size_t num_slots = 0;
  /// Slot -> variable id of the body the plan was compiled from: the
  /// prebound variables first, then each variable at its first kNew step.
  std::vector<TermId> slot_vars;
  std::vector<PlanStep> steps;
};

/// Sentinel for CompilePlan: no delta anchor, order all atoms freely.
inline constexpr size_t kNoAnchor = static_cast<size_t>(-1);

/// Compiles `atoms` into a join plan against `s`. When `anchor` names an
/// atom index it is pinned to the front of the join order (the semi-naive
/// delta anchor — its band is the narrow one). Remaining atoms are ordered
/// greedily by the interpreter's primary key (most known argument
/// positions first) with estimated result cardinality — row count divided
/// by the distinct-value counts of the known positions — as the
/// tie-breaker, which is where index selectivity replaces the Matcher's
/// band-width heuristic. `prebound` lists variables the caller will seed
/// through a partial binding; they occupy slots 0..prebound.size()-1 in
/// order and count as bound from step 0.
QueryPlan CompilePlan(const Structure& s, const std::vector<Atom>& atoms,
                      size_t anchor = kNoAnchor,
                      const std::vector<TermId>& prebound = {});

}  // namespace bddfc

#endif  // BDDFC_EVAL_PLAN_H_
