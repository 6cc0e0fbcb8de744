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
// copied (rejects never touch the block). The one output is the final
// step's SlotBlock: callers read complete bindings as flat slot rows, so
// emitting a match performs no hash operation and builds no Binding.
//
// Counter semantics (shared with the Matcher — see MatchStats):
//   * postings_hits  — one per atom instantiation that proceeded through a
//     chosen index probe;
//   * postings_misses — one per instantiation pruned because a probe found
//     no candidate rows in the atom's band;
//   * rows_scanned   — one per candidate row examined;
//   * bindings_tried — one per complete binding handed to the callback.
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

/// Runs `plan` against `s`, handing every final block of complete bindings
/// to `on_block`. `atoms` is the caller's body (alpha-equivalent to the
/// plan's — used to recover slot->variable names and band targets);
/// `bands` restricts each original atom to a row range (nullptr = all
/// rows); `seed` holds the values of the plan's prebound slots (slots
/// 0..seed.size()-1, in the order their variables were given to
/// CompilePlan; empty when nothing is prebound). bindings_tried counts one
/// per row of every block handed over. `on_block` returning false stops
/// enumeration (not an error); returns false iff the abort hook cut
/// execution short.
bool ExecutePlan(const Structure& s, const QueryPlan& plan,
                 const std::vector<Atom>& atoms,
                 const std::vector<RowBand>* bands,
                 const std::vector<TermId>& seed,
                 const std::function<bool(const SlotBlock&)>& on_block,
                 MatchStats* stats = nullptr,
                 const std::function<bool()>* abort = nullptr);

/// Plan-backed equivalent of Matcher::Exists: compiles on the fly (no
/// cache) with `partial`'s variables prebound, and stops at the first
/// block of matches.
bool PlanExists(const Structure& s, const std::vector<Atom>& atoms,
                const Binding& partial = {});

}  // namespace bddfc

#endif  // BDDFC_EVAL_EXEC_H_
