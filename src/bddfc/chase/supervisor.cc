#include "bddfc/chase/supervisor.h"

#include <memory>

#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"

namespace bddfc {

SupervisedChase RunChaseSupervised(const Theory& theory,
                                   const Structure& instance,
                                   const ChaseOptions& chase_options,
                                   const SupervisorOptions& sup_options) {
  // The attempts need a parent to hang child contexts off; an ungoverned
  // caller gets a local one (no deadline, no limits — pure isolation).
  ExecutionContext local_parent;
  ExecutionContext* parent = sup_options.context != nullptr
                                 ? sup_options.context
                                 : chase_options.context != nullptr
                                       ? chase_options.context
                                       : &local_parent;

  ChaseOptions attempt_options = chase_options;

  SupervisedChase out{ChaseResult(instance.signature_ptr()), 0, {}, false};
  // The run's registry, not the process-wide one: the per-retry Reset below
  // must only wipe THIS run's counters. With the global registry a retry in
  // one request erased every concurrent request's series.
  obs::MetricsRegistry& metrics = ContextMetrics(parent);

  for (size_t attempt = 0;; ++attempt) {
    // Attempt isolation: fresh child context (fault latches die with it)
    // and a signature mark so an aborted attempt's invented nulls roll
    // back — the retry then reproduces the fault-free run's TermIds.
    const Signature::Mark mark = instance.signature_ptr()->TakeMark();
    std::unique_ptr<ExecutionContext> child =
        parent->CreateChild(sup_options.child_memory_limit);
    attempt_options.context = child.get();

    out.result = RunChase(theory, instance, attempt_options);
    out.attempts = attempt + 1;

    // Only kInternal (injected fault / paranoia trip) is retryable: a
    // budget exhaustion is a correct partial answer and a semantic error
    // would fail identically on the reference.
    if (out.result.status.code() != StatusCode::kInternal) {
      out.recovered = attempt > 0;
      break;
    }
    if (attempt >= sup_options.max_retries || parent->Exhausted()) break;
    if (parent->has_deadline() && parent->RemainingMs() <= 0) break;

    // Discard the failed attempt before rolling the signature back: the
    // result's structure references the ids being forgotten. Its bytes
    // were charged through the child to the parent, so hand them back.
    child->memory().Release(out.result.structure.ApproxAccountedBytes());
    out.result = ChaseResult(instance.signature_ptr());
    instance.signature_ptr()->RollbackTo(mark);

    // A recovered run should publish one clean set of counters — wipe
    // whatever the failed attempt published. The supervisor's own series
    // is published once, after the loop, so it survives this reset.
    if (metrics.enabled()) metrics.Reset();

    // The one degradation: retry on the independent reference, which
    // shares none of the production engine's fan-out, plans, sink or sorted
    // indexes, so a fault in any of them cannot recur.
    std::string degraded;
    if (attempt_options.engine != ChaseEngine::kNaive) {
      attempt_options.engine = ChaseEngine::kNaive;
      degraded = "reference";
      out.degradations.emplace_back(degraded);
    }

    obs::TraceSpan span(&parent->tracer(), "supervisor.retry");
    std::string note = "attempt " + std::to_string(attempt + 2) +
                       (degraded.empty() ? std::string()
                                         : ", degraded: " + degraded);
    span.set_detail(note);
    parent->NotePhase("supervisor.retry", std::move(note));
  }

  if (metrics.enabled()) {
    if (out.attempts > 1) {
      metrics.GetCounter("bddfc.supervisor.retries")->Add(out.attempts - 1);
    }
    if (!out.degradations.empty()) {
      metrics.GetCounter("bddfc.supervisor.degradations")
          ->Add(out.degradations.size());
    }
    if (out.recovered) {
      metrics.GetCounter("bddfc.supervisor.recoveries")->Add(1);
    }
    if (out.result.status.code() == StatusCode::kInternal) {
      metrics.GetCounter("bddfc.supervisor.gave_up")->Add(1);
    }
  }
  return out;
}

}  // namespace bddfc
