// Retrying chase supervisor with one degradation rung (DESIGN.md §2.14).
//
// RunChaseSupervised runs RunChase under a parent ExecutionContext and,
// when an attempt fails with kInternal (a fail-stop fault from the
// FaultRegistry attached to the parent context, or a paranoia invariant
// trip — never a budget exhaustion and never a semantic error), retries it
// on the independent reference engine
// (ChaseEngine::kNaive), recorded as the degradation "reference". The
// reference shares none of the production engine's fan-out, compiled plans,
// vectorized sink or sorted indexes, so a fault in any of them cannot
// recur on the retry; and it is byte-identical to the production engine by
// contract, so degrading never changes the answer — only the speed.
//
// Isolation per attempt:
//   * each attempt runs under a fresh child context, so its fault latch
//     dies with the child and the parent's report stays clean;
//   * the shared Signature is marked before each attempt and rolled back
//     after a failed one, so labeled nulls invented by an aborted attempt
//     never shift the TermIds of the retry — recovery is byte-identical
//     to a fault-free run, raw ids included;
//   * the run's MetricsRegistry — whatever the parent context resolves
//     through its RunContext chain, the process-wide registry only as the
//     unattached fallback — is reset before each retry (when enabled), so
//     a recovered run publishes one clean set of counters (plus the
//     supervisor's own bddfc.supervisor.* series) and a retry in one
//     session never wipes another session's numbers.
//
// Retries do not back off (a retry re-runs a deterministic in-process
// failure, so waiting buys nothing) and stop once the parent's deadline
// has passed. When the retry budget or the deadline is exhausted, the last
// attempt's result — a complete-prefix partial, per the chase's
// round-atomic contract — is returned as-is.

#ifndef BDDFC_CHASE_SUPERVISOR_H_
#define BDDFC_CHASE_SUPERVISOR_H_

#include <string>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/chase/chase.h"

namespace bddfc {

/// Retry policy of one supervised chase.
struct SupervisorOptions {
  /// Parent context the attempts are children of (not owned; may be null —
  /// the supervisor then creates a local ungoverned parent). Attach the
  /// FaultRegistry and deadline here.
  ExecutionContext* context = nullptr;
  /// Attempts after the first (0 = plain RunChase with child isolation).
  /// The default covers the worst bounded chaos plan: three specs at two
  /// fires each, one fire consumed per failed attempt.
  size_t max_retries = 6;
  /// Byte budget of each attempt's child accountant (0 = uncapped child;
  /// the parent's limit still governs).
  size_t child_memory_limit = 0;
};

/// A supervised run's result plus its recovery history.
struct SupervisedChase {
  ChaseResult result;
  /// Attempts executed (1 = no retry was needed).
  size_t attempts = 0;
  /// Degradations applied: {"reference"} once a retry ran on kNaive.
  /// Empty when no retry was needed or the run was already on kNaive.
  std::vector<std::string> degradations;
  /// True when a retry (not the first attempt) produced the final OK or
  /// budget-exhausted result.
  bool recovered = false;
};

/// Runs the chase under the supervisor. Retries only on kInternal
/// failures; OK, ResourceExhausted and semantic errors return immediately
/// with the attempt's result.
SupervisedChase RunChaseSupervised(const Theory& theory,
                                   const Structure& instance,
                                   const ChaseOptions& chase_options,
                                   const SupervisorOptions& sup_options = {});

}  // namespace bddfc

#endif  // BDDFC_CHASE_SUPERVISOR_H_
