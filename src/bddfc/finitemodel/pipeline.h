// The Theorem 2 pipeline (§3): a certified finite counter-model
// construction for binary BDD theories.
//
// Given a binary theory T₀, an instance D and a Boolean CQ Q with
// Chase(D, T₀) ⊭ Q, the pipeline builds a finite M with M ⊨ D, T₀ and
// M ⊭ Q following the paper's proof:
//
//   1. hide the query:  T := T₀ + (Q ⇒ ∃z F(y, z))            (♠4, §3.1)
//   2. normalize heads and separate TGPs                       (♠5, §3.1)
//   3. chase D to a depth-L prefix; abort with "query certainly true" if
//      F ever appears                                          (§1.1)
//   4. extract the skeleton S(D, T) — a forest by Lemma 3      (§3.2)
//   5. color S naturally with window m = κ (the max rewriting width of
//      rule bodies, §3.3), quotient by ≡_n                     (§2, §4)
//   6. saturate the quotient with the datalog rules only — Lemma 5 says
//      no existential TGD needs to fire                        (§3.3)
//   7. certify: M ⊇ D, M ⊨ T₀, M ⊭ Q; on failure retry with a deeper
//      chase prefix and a larger n.
//
// Certification makes the pipeline sound even though the chase prefix is
// finite and the rewriter is budgeted: an accepted model is checked
// end-to-end, and Lemma 2 + Theorem 2 guarantee the search terminates for
// genuinely BDD binary theories.

#ifndef BDDFC_FINITEMODEL_PIPELINE_H_
#define BDDFC_FINITEMODEL_PIPELINE_H_

#include <string>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/status.h"
#include "bddfc/core/query.h"
#include "bddfc/core/structure.h"
#include "bddfc/core/theory.h"
#include "bddfc/rewrite/rewriter.h"

namespace bddfc {

/// Budgets and knobs for the pipeline.
struct PipelineOptions {
  /// Chase-depth schedule: starts at `initial_chase_depth`, doubles up to
  /// `max_chase_depth`.
  /// Normalization layers cost a few chase rounds per witness level, so
  /// the depth schedule must comfortably exceed (rounds-per-level × hue
  /// period); max_chase_facts backstops exponential theories in the chase
  /// phase only (the datalog saturation over the finite quotient has no
  /// fact cap).
  size_t initial_chase_depth = 8;
  size_t max_chase_depth = 128;
  size_t max_chase_facts = 200000;
  /// Quotient type width schedule n = initial_n .. max_n.
  int initial_n = 2;
  int max_n = 4;
  /// Override for the coloring window m (κ of §3.3); -1 = compute via the
  /// rewriter, capped at `max_m` for tractability (certification covers
  /// the gap).
  int m_override = -1;
  int max_m = 4;
  RewriteOptions rewrite_options{.max_depth = 10, .max_queries = 2000};
  /// Budget for type-partition / conservativity pattern checks.
  size_t max_patterns = 2000000;
  /// Run the (informative) conservativity check on each attempt.
  bool check_conservativity = false;
  /// Datalog saturation budget.
  size_t max_saturation_rounds = 512;
  /// Runtime invariant checking (DESIGN.md §2.14), forwarded to every
  /// chase/saturation call. Violations surface as kInternal — the
  /// supervisor retries them on the reference engine.
  ParanoiaLevel paranoia = ParanoiaLevel::kOff;
  /// Resource governor (not owned; may be null). The pipeline carves the
  /// byte budget into phase sub-accounts (chase half, rewriter a quarter,
  /// the rest shared), runs every engine call under a child context so the
  /// per-phase count budgets above stay retryable (the depth-doubling loop
  /// *depends* on a chase max_rounds trip being local to one attempt), and
  /// aborts between phases on a governed trip (deadline/memory/cancel)
  /// with ResourceExhausted, a populated report, and the partial chase
  /// prefix in FiniteModelResult::partial_chase.
  ExecutionContext* context = nullptr;
};

/// One pipeline attempt, for diagnostics.
struct PipelineAttempt {
  size_t chase_depth = 0;
  int n = 0;
  size_t skeleton_facts = 0;
  int quotient_size = 0;
  bool conservative = false;  ///< only meaningful with check_conservativity
  /// True when the ♠2 check tripped a budget: `conservative` is then
  /// meaningless (it is NOT silently reported as "not conservative").
  bool conservativity_inconclusive = false;
  bool certified = false;
  std::string failure;  ///< empty when certified
};

/// Outcome of the pipeline.
struct FiniteModelResult {
  /// OK: `model` is a certified finite model of D, T₀ avoiding Q.
  /// FailedPrecondition: Chase(D, T₀) ⊨ Q — no counter-model exists.
  /// Unknown: the per-attempt count budgets ran dry before certification
  /// (the explicit attempt list says which; the run itself completed).
  /// ResourceExhausted: the governor tripped (deadline/memory/cancel) —
  /// `report` says what and `partial_chase` holds the best prefix.
  Status status = Status::OK();
  Structure model;
  bool query_certainly_true = false;
  int kappa = 0;        ///< the m actually used for the coloring
  int n_used = 0;
  size_t chase_depth_used = 0;
  std::vector<PipelineAttempt> attempts;
  /// On a governor trip: the last chase prefix computed before the trip
  /// (facts up to its last complete round); empty otherwise.
  Structure partial_chase;
  size_t partial_chase_rounds = 0;
  /// Resource account of the whole run (phase notes, peak bytes, slack).
  ResourceReport report;

  explicit FiniteModelResult(SignaturePtr sig)
      : model(sig), partial_chase(std::move(sig)) {}
};

/// Runs the pipeline. `theory` must be binary and single-head (apply the
/// reductions of §5.1–5.3 first otherwise); the elements of `instance` are
/// named constants (§3.2). The theory's signature object is shared and
/// extended (hidden/normalized/color predicates).
FiniteModelResult ConstructFiniteCounterModel(
    const Theory& theory, const Structure& instance,
    const ConjunctiveQuery& query, const PipelineOptions& options = {});

}  // namespace bddfc

#endif  // BDDFC_FINITEMODEL_PIPELINE_H_
