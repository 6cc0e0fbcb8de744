// Differential and metamorphic oracles (DESIGN.md §2.8).
//
// Each oracle cross-checks two independent routes to the same semantic
// answer on one scenario, using the paper's own constructions as ground
// truth: byte-level agreement of the production chase with the kNaive
// reference (Chase is engine-independent), the Def. 2
// equivalence Chase(D, T) ⊨ Φ ⇔ D ⊨ Φ′ on rewritable theories, rewriter
// thread-count determinism, Parse ∘ Print identity, and independent
// re-certification of Theorem-2 counter-models (M ⊨ D, T₀ and M ⊭ Q).
// An oracle returns kSkip when a scenario is outside its sound fragment or
// a budget trips — only kFail means a real disagreement.

#ifndef BDDFC_TESTING_ORACLES_H_
#define BDDFC_TESTING_ORACLES_H_

#include <string>
#include <string_view>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/chase/chase.h"
#include "bddfc/rewrite/rewriter.h"
#include "bddfc/testing/scenario.h"

namespace bddfc {

/// Shared budgets for oracle checks. Small by default: scenarios are small
/// and CI wants throughput; every budget miss is a skip, never a failure.
struct OracleConfig {
  /// Chase budgets for every chase an oracle runs.
  size_t max_rounds = 24;
  size_t max_facts = 20000;
  /// Rewriter budgets (kept tight; Unknown results are skipped). The atom
  /// cap matters: without it, datalog closures rewritten with a free
  /// answer variable grow disjuncts to ~2^depth atoms and a single
  /// subsumption hom-check backtracks exponentially.
  RewriteOptions rewrite{.max_depth = 8,
                         .max_queries = 600,
                         .max_atoms_per_query = 10,
                         .max_hom_checks = 30000};
  /// Thread counts the determinism oracle compares against threads=1.
  std::vector<size_t> determinism_threads = {4};
  /// Faults armed on a fresh registry for every chase run under test (the
  /// production runs of chase-agreement, the interrupted runs of
  /// governor-prefix; never a reference or baseline run). The fuzzer's
  /// --inject-bug self-test arms one faults::kChaseBug spec here.
  FaultPlan faults;
  /// governor-prefix's interruption (--inject-fault): the
  /// faults::kGovernorCheck action its interrupted runs arm after a few
  /// checks. Empty disables the oracle (skip).
  std::string interruption;
  /// Paranoia level (--paranoia) for the chase runs *under test* — never
  /// the kNaive reference, so an injected corruption the paranoia checks
  /// catch surfaces as a status divergence against the immune reference.
  ParanoiaLevel paranoia = ParanoiaLevel::kOff;
  /// Chaos-recovery oracle (--chaos): random fault plans per scenario to
  /// run under the supervisor and compare byte-for-byte against the
  /// fault-free run. 0 disables the oracle (skip).
  size_t chaos_plans = 0;
  /// Stream seed for the chaos fault plans (--chaos-seed); combined with
  /// the scenario seed so every scenario sees different plans.
  uint64_t chaos_seed = 0;
};

/// Outcome of one oracle check.
struct OracleOutcome {
  enum class Kind {
    kPass,  ///< both routes agreed
    kSkip,  ///< scenario outside the oracle's fragment, or budget tripped
    kFail,  ///< genuine disagreement — a bug in at least one engine
  };
  Kind kind = Kind::kPass;
  /// Failure diagnosis (which quantity diverged, both values), or the skip
  /// reason. Empty on pass.
  std::string detail;

  static OracleOutcome Pass() { return {}; }
  static OracleOutcome Skip(std::string why) {
    return {Kind::kSkip, std::move(why)};
  }
  static OracleOutcome Fail(std::string why) {
    return {Kind::kFail, std::move(why)};
  }
  bool failed() const { return kind == Kind::kFail; }
};

/// One pluggable cross-check.
class Oracle {
 public:
  virtual ~Oracle() = default;
  /// Stable CLI/corpus name ("chase-agreement", ...).
  virtual std::string_view name() const = 0;
  virtual OracleOutcome Check(const Scenario& s,
                              const OracleConfig& config) const = 0;
};

/// All registered oracles, in a stable order.
const std::vector<const Oracle*>& AllOracles();

/// Byte-exact dump of a chase result: status, fixpoint flag, rounds, null
/// count, both dedup counters, facts_per_round, every row with raw TermIds
/// in append order, null provenance with head atoms, and every fact's
/// birth round. The production engine at any thread count and the kNaive
/// reference dump identically (DESIGN.md §2.3). bindings_tried is left out
/// because the reference re-enumerates old bindings; thread sweeps compare
/// it separately. Raw TermIds make two dumps comparable only when both
/// runs interned their nulls from the same signature state (a fresh parse
/// or CloneScenario per run, or a Signature mark rolled back in between).
std::string ExactChaseDump(const ChaseResult& r);

/// Looks up an oracle by name; nullptr when unknown.
const Oracle* FindOracle(std::string_view name);

}  // namespace bddfc

#endif  // BDDFC_TESTING_ORACLES_H_
