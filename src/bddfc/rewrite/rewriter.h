// Positive first-order (UCQ) rewriting and the BDD property (Def. 2).
//
// A theory T is BDD iff every CQ Φ has a UCQ rewriting Φ′ with
// Chase(D, T) ⊨ Φ  ⇔  D ⊨ Φ′ for all instances D. We compute Φ′ by
// backward-chaining over the rules (the standard procedure for single-head
// TGDs, in the style of Cali–Gottlob–Pieris' XRewrite): a rewriting step
// resolves a query atom against a rule head under an applicability
// condition on existential variables; a factorization step unifies two
// query atoms to unblock further rewritings.
//
// The BFS prunes by homomorphic subsumption (DESIGN.md §2.7): a candidate
// CQ contained in an already-kept disjunct is dropped — it adds nothing to
// the union, and its own rewritings are covered by the rewritings of the
// subsuming disjunct (the standard query-elimination argument: any
// chase-derivation discharged through the candidate is discharged through
// the disjunct that subsumes it at the same chase level). Containment
// probes go through a predicate-multiset/answer-arity pre-filter index so
// most pairs never reach the exponential hom search; per-level counters are
// reported in RewriteStats.
//
// BDD is undecidable, so the API is a budgeted semi-decision: when the
// exploration saturates, the finite UCQ is a *certificate* that the input
// query is rewritable (and, probed over all rule bodies, evidence of BDD);
// when a budget trips, the result is Unknown.

#ifndef BDDFC_REWRITE_REWRITER_H_
#define BDDFC_REWRITE_REWRITER_H_

#include <cstddef>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/status.h"
#include "bddfc/core/query.h"
#include "bddfc/core/structure.h"
#include "bddfc/core/theory.h"

namespace bddfc {

/// Budgets and variants for the rewriting exploration.
struct RewriteOptions {
  /// Maximum BFS depth (number of rewriting levels).
  size_t max_depth = 24;
  /// Maximum number of distinct CQs to generate.
  size_t max_queries = 20000;
  /// Drop generated CQs with more atoms than this (0 = unlimited). A CQ
  /// that would exceed the cap makes the result Unknown rather than
  /// silently incomplete.
  size_t max_atoms_per_query = 0;
  /// Drop candidates homomorphically subsumed by a kept disjunct from the
  /// output UCQ (pre-filtered containment probes). Off = the seed
  /// behaviour: dedup by normalized key only. The final UCQ is
  /// hom-equivalent either way; pruning keeps the kept set (and
  /// MinimizeUcq's input) small. Subsumed candidates still get explored:
  /// their rewritings are not always covered by the subsuming disjunct's,
  /// so pruning the frontier itself would lose completeness.
  bool prune_subsumed = true;
  /// Budget on subsumption-probe hom checks per RewriteQuery. Probing a
  /// candidate costs O(kept disjuncts) hom checks, so on a diverging
  /// theory the total is quadratic in max_queries; once this budget is
  /// spent the engine stops probing (pruning becomes a no-op for the rest
  /// of the run, which only costs pruning opportunities, never
  /// completeness). Saturating workloads keep small disjunct sets and
  /// never come close. The cutoff is deterministic: RewriteQuery is
  /// single-threaded, so the same exploration hits it at the same point
  /// for any thread count.
  size_t max_hom_checks = 100000;
  /// Worker threads for the independent per-query rewritings fanned out by
  /// ProbeBdd and ComputeKappa (1 = serial; results are deterministic and
  /// identical for any thread count). RewriteQuery itself is single-threaded.
  size_t threads = 1;
  /// Resource governor (not owned; may be null). Deadline / memory /
  /// cancellation are checked at BFS-level boundaries and (strided) inside
  /// candidate generation; frontier storage is charged to its accountant
  /// for the duration of the run. On a trip the run returns
  /// ResourceExhausted with `rewriting` cut at the last *complete* level —
  /// a sound partial union. The count budgets above stay run-local
  /// (Unknown), so one query tripping max_queries inside a shared fan-out
  /// does not cancel its siblings; the shared context is thread-safe.
  ExecutionContext* context = nullptr;
};

/// Per-BFS-level execution counters of one rewriting run.
struct RewriteLevelStats {
  size_t candidates = 0;          ///< raw candidates generated at this level
  size_t key_deduped = 0;         ///< dropped: normalized key already seen
  size_t subsumption_pruned = 0;  ///< dropped: contained in a kept disjunct
  /// Compute time spent on this level in milliseconds. For a single run
  /// this is the level's wall time; merging stats (operator+=) sums it, so
  /// in aggregated fan-out stats it is *accumulated* (cpu-style) time
  /// across runs, not elapsed time.
  double accum_ms = 0;
};

/// Execution counters of one rewriting run (BFS levels + containment
/// probing), for the CLI and benchmark observability.
struct RewriteStats {
  /// Entry d-1 describes BFS level d (level 0, the start query, is free).
  std::vector<RewriteLevelStats> levels;
  /// Full hom searches performed (BFS pruning + final minimization).
  size_t hom_checks = 0;
  /// Candidate pairs rejected by the signature pre-filter instead.
  size_t hom_checks_skipped = 0;
  /// True elapsed wall time of the run. operator+= takes the max (runs
  /// merged into one stats object overlapped or ran back-to-back; the max
  /// is a sound lower bound either way), and ComputeKappa/ProbeBdd
  /// overwrite it with the measured wall time of the whole fan-out — so
  /// unlike the accumulated per-level sums it never exceeds real time.
  double wall_ms = 0;

  size_t TotalCandidates() const;
  size_t TotalKeyDeduped() const;
  size_t TotalSubsumptionPruned() const;
  /// Accumulated compute time over all levels (sums across merged runs;
  /// can exceed elapsed time under a thread fan-out — compare with
  /// TotalWallMs to read parallel speedup).
  double TotalAccumMs() const;
  /// True elapsed wall time: never exceeds the caller's measured wall
  /// clock, for any thread count.
  double TotalWallMs() const { return wall_ms; }

  /// Publishes these counters into `reg` under `<prefix>.*` keys
  /// ("bddfc.rewrite" for RewriteQuery). Callers pass the run's registry
  /// (ContextMetrics) so concurrent sessions never share series. No-op
  /// when the registry is disabled.
  void PublishTo(const char* prefix, obs::MetricsRegistry& reg) const;

  RewriteStats& operator+=(const RewriteStats& o);
};

/// Outcome of a rewriting run.
struct RewriteResult {
  /// OK: exploration saturated; `rewriting` is the complete UCQ Φ′.
  /// Unknown: a budget tripped; `rewriting` is sound but maybe incomplete.
  Status status = Status::OK();
  UnionOfCQs rewriting;
  /// Number of BFS levels until saturation — a derivation-depth bound
  /// certificate k_Φ (each level undoes one chase step).
  size_t depth_reached = 0;
  /// Distinct CQs kept during exploration (after key dedup and subsumption
  /// pruning, before minimization).
  size_t queries_generated = 0;
  /// Maximum number of variables over the disjuncts of `rewriting`
  /// (the §3.3 κ contribution of this query).
  int max_variables = 0;
  /// Execution counters (per-level candidates/dedup/pruning, hom probes).
  RewriteStats stats;
  /// Resource account: a governor trip (deadline/memory/cancel) or the
  /// run-local count budget that made the result Unknown; partial_result
  /// is true when `rewriting` is a usable level-prefix union.
  ResourceReport report;
};

/// Computes the UCQ rewriting of `query` under `theory`.
RewriteResult RewriteQuery(const Theory& theory, const ConjunctiveQuery& query,
                           const RewriteOptions& options = {});

/// §3.3's κ for a theory: rewrite the body of every rule (as a CQ with the
/// rule's frontier/head variables free) and take the maximum variable count
/// across all disjuncts of all rewritings. The per-rule rewritings are
/// independent and fan out over options.threads; the aggregate (and the
/// reported status: the first non-OK in rule order) is identical for any
/// thread count.
struct KappaResult {
  Status status = Status::OK();  ///< Unknown when any body rewriting tripped
  int kappa = 0;
  /// Aggregated rewriting counters over all rule bodies.
  RewriteStats stats;
};
KappaResult ComputeKappa(const Theory& theory,
                         const RewriteOptions& options = {});

/// Budgeted BDD probe: rewrites every rule body and a set of probe queries
/// (single atoms per predicate). All saturated => "BDD-certified at this
/// budget"; any Unknown => Unknown. The independent rewritings fan out over
/// options.threads; every output field is aggregated in probe order and is
/// identical for any thread count.
struct BddProbeResult {
  Status status = Status::OK();
  bool certified = false;
  int kappa = 0;
  size_t max_depth_seen = 0;
  size_t total_disjuncts = 0;
  /// Distinct CQs kept across all probe rewritings.
  size_t queries_generated = 0;
  /// Aggregated rewriting counters over all probes.
  RewriteStats stats;
};
BddProbeResult ProbeBdd(const Theory& theory,
                        const RewriteOptions& options = {});

/// Empirical derivation depth: the smallest i with Chase^i(D, T) ⊨ q, or
/// -1 if not derived within `max_rounds`.
int DerivationDepth(const Theory& theory, const Structure& instance,
                    const ConjunctiveQuery& q, size_t max_rounds = 64);

}  // namespace bddfc

#endif  // BDDFC_REWRITE_REWRITER_H_
