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
// Two entry points share the executor. ExecutePlan streams the blocks to
// a callback (rule bodies, answer collection). PlanProbe runs the same
// steps with one-row blocks, so the search is depth first and stops at
// the first complete binding: the restricted chase's witness check on a
// rule head's plan, and PlanExists.
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
#include <memory>
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
/// the value of variable `slot_vars[i]` (the executed plan's
/// QueryPlan::slot_vars). Valid only for the duration of the callback —
/// the executor reuses the underlying buffer across flushes.
struct SlotBlock {
  const TermId* rows = nullptr;
  size_t num_rows = 0;
  size_t width = 0;
  const TermId* slot_vars = nullptr;
};

/// Runs `plan` against `s`, handing every final block of complete bindings
/// to `on_block`. `bands` restricts each atom of the body the plan was
/// compiled from to a row range, indexed like that body
/// (PlanStep::atom_index; nullptr = all rows); `seed` holds the values of
/// the plan's prebound slots (slots 0..seed.size()-1, in the order their
/// variables were given to CompilePlan; empty when nothing is prebound).
/// bindings_tried counts one per row of every block handed over.
/// `on_block` returning false stops enumeration (not an error); returns
/// false iff the abort hook cut execution short.
bool ExecutePlan(const Structure& s, const QueryPlan& plan,
                 const std::vector<RowBand>* bands,
                 const std::vector<TermId>& seed,
                 const std::function<bool(const SlotBlock&)>& on_block,
                 MatchStats* stats = nullptr,
                 const std::function<bool()>* abort = nullptr);

/// A plan prepared once and answered many times: the executor with
/// one-row blocks, so the search runs depth first and stops at its first
/// complete binding. Each Exists call seeds the plan's prebound slots. It
/// opens no span and counts no MatchStats. The structure must not change
/// while the probe lives (the arenas and row counts are read once, as the
/// chase's frozen round snapshot allows). Not thread-safe: one per task.
class PlanProbe {
 public:
  PlanProbe(const Structure& s, QueryPlan plan);
  ~PlanProbe();

  /// True iff some complete binding gives the plan's first `n` slots (its
  /// prebound variables, in CompilePlan order) the values `seed[0..n)`.
  bool Exists(const TermId* seed, size_t n);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Plan-backed equivalent of Matcher::Exists: compiles with `partial`'s
/// variables prebound and answers with one PlanProbe::Exists, which stops
/// at the first complete binding.
bool PlanExists(const Structure& s, const std::vector<Atom>& atoms,
                const Binding& partial = {});

}  // namespace bddfc

#endif  // BDDFC_EVAL_EXEC_H_
