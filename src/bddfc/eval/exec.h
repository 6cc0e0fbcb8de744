// Vectorized plan execution: block-at-a-time joins over the fact store's
// row-major arenas.
//
// The executor runs a QueryPlan as a pipeline of steps. Intermediate
// bindings live in flat slot-value blocks (row-major, num_slots entries
// per binding, up to 1024 rows per block — DeltaChunk-aligned, scaled down
// for wide slot layouts); each step consumes a block, probes the smallest
// hash-postings list among its known positions per input row (clamped to
// the atom's band; a fully-bound step skips probing entirely and answers
// with one exact-tuple FindRow lookup), verifies and extends rows into
// its output block, and recurses per *block*, not per row. Compared
// to the interpretive Matcher this removes the per-call SelectAtom scan,
// the per-argument hash-map ResolveTerm lookups, and the per-variable
// Binding mutations from the innermost loop. Candidate rows are read from
// the relation's arena with stride arity and verified before anything is
// copied (rejects never touch the block), and the one Binding handed to
// the callback is reused across matches — its values are patched through
// stable element pointers, so emitting a match performs zero hash
// operations. PlanCountMatches goes further: no Binding at all, and the
// final step counts matches straight from its candidate ranges when the
// probe is the only constraint.
//
// Counter semantics (shared with the Matcher — see MatchStats):
//   * postings_hits  — one per atom instantiation that proceeded through a
//     chosen index probe;
//   * postings_misses — one per instantiation pruned because a probe found
//     no candidate rows in the atom's band;
//   * rows_scanned   — one per candidate row examined;
//   * bindings_tried — one per complete binding delivered to the callback.
//
// Governance: the optional abort hook is polled once per block boundary —
// the plan-stage equivalent of the engines' strided ShouldStop probes.

#ifndef BDDFC_EVAL_EXEC_H_
#define BDDFC_EVAL_EXEC_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "bddfc/core/structure.h"
#include "bddfc/eval/match.h"
#include "bddfc/eval/plan.h"

namespace bddfc {

/// Rows per intermediate block (narrow slot layouts; wide layouts shrink
/// the block so a block stays cache-sized).
inline constexpr size_t kExecBlockRows = 1024;

/// Runs `plan` against `s`, calling `on_match` with every complete binding
/// extending `partial`. `atoms` is the caller's body (alpha-equivalent to
/// the plan's — used to recover slot->variable names and band targets);
/// `bands` restricts each original atom to a row range (nullptr = all
/// rows); `prebound` must list the partial's variables in the same order
/// given to CompilePlan. The callback returning false stops enumeration
/// (not an error); the Binding it receives is reused across matches, so
/// copy out of it rather than keeping the reference (the Matcher's
/// callback contract). Returns false iff the abort hook cut execution
/// short.
bool ExecutePlan(const Structure& s, const QueryPlan& plan,
                 const std::vector<Atom>& atoms,
                 const std::vector<RowBand>* bands, const Binding& partial,
                 const std::vector<TermId>& prebound,
                 const std::function<bool(const Binding&)>& on_match,
                 MatchStats* stats = nullptr,
                 const std::function<bool()>* abort = nullptr);

/// One block of complete bindings in the executor's flat slot layout:
/// `num_rows` bindings of `width` TermIds each, row-major; slot `i` holds
/// the value of variable `slot_vars[i]` (the PlanSlotVars order for the
/// executed plan). Valid only for the duration of the callback — the
/// executor reuses the underlying buffer across flushes.
struct SlotBlock {
  const TermId* rows = nullptr;
  size_t num_rows = 0;
  size_t width = 0;
  const TermId* slot_vars = nullptr;
};

/// Block-at-a-time variant of ExecutePlan for sinks that consume whole
/// result blocks (the vectorized chase sink grounds head atoms against
/// them): instead of patching one reused Binding per match, each final
/// block is handed over once per flush, so emitting N matches costs one
/// virtual call instead of N map-pointer patch loops. bindings_tried still
/// counts one per row. `on_block` returning false stops enumeration (not
/// an error); returns false iff the abort hook cut execution short.
bool ExecutePlanBlocks(const Structure& s, const QueryPlan& plan,
                       const std::vector<Atom>& atoms,
                       const std::vector<RowBand>* bands,
                       const std::function<bool(const SlotBlock&)>& on_block,
                       MatchStats* stats = nullptr,
                       const std::function<bool()>* abort = nullptr);

/// Cached banded enumeration for the delta chase: fetches (or compiles)
/// the plan for (atoms, anchor) from `cache` and executes it with `bands`.
/// Returns false iff the abort hook cut execution short.
bool ExecuteBandedPlan(const Structure& s, PlanCache& cache,
                       const std::vector<Atom>& atoms, size_t anchor,
                       const std::vector<RowBand>& bands,
                       const std::function<bool(const Binding&)>& on_match,
                       MatchStats* stats = nullptr,
                       const std::function<bool()>* abort = nullptr);

/// Plan-backed equivalents of Matcher::Exists / Enumerate / CountMatches:
/// compile on the fly (no cache) and execute. Enumeration *order* may
/// differ from the Matcher's; the binding set never does.
bool PlanExists(const Structure& s, const std::vector<Atom>& atoms,
                const Binding& partial = {});
void PlanEnumerate(const Structure& s, const std::vector<Atom>& atoms,
                   const Binding& partial,
                   const std::function<bool(const Binding&)>& on_match,
                   MatchStats* stats = nullptr);
size_t PlanCountMatches(const Structure& s, const std::vector<Atom>& atoms,
                        const Binding& partial = {});

}  // namespace bddfc

#endif  // BDDFC_EVAL_EXEC_H_
