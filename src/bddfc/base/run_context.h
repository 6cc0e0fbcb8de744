// Per-session observability destinations (DESIGN.md §2.15).
//
// MetricsRegistry::Global() and Tracer::Global() are process-lifetime
// singletons. That is correct for a one-shot CLI and wrong for a
// multi-tenant daemon: two concurrent requests would interleave their
// counters in one registry, and a supervisor retry's registry reset would
// wipe counters owned by other in-flight requests.
//
// A RunContext makes the destination explicit: it bundles the metrics
// registry and tracer ONE logical run publishes into. Engines reach
// it through the ExecutionContext they already take
// (ExecutionContext::SetRunContext / metrics_registry() / tracer()), so
// the refactor threads no new parameters through the engine APIs. A null
// field — and a null RunContext, the default — resolves to the process
// globals, which keeps the CLI tools and existing tests byte-identical.
//
// Faults are not part of it: a run's FaultRegistry attaches to its
// ExecutionContext directly (ExecutionContext::SetFaultRegistry).
//
// Ownership: a RunContext does not own what it points at. The session (or
// test) that builds it keeps the registry and tracer alive for the
// duration of every run that references it.

#ifndef BDDFC_BASE_RUN_CONTEXT_H_
#define BDDFC_BASE_RUN_CONTEXT_H_

#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"

namespace bddfc {

/// Where one logical run's observability output goes. Null fields fall
/// back to the process-wide singletons, so `RunContext{}` is exactly the
/// legacy behaviour.
struct RunContext {
  /// Registry the run's engines publish counters into (null = global).
  obs::MetricsRegistry* metrics = nullptr;
  /// Tracer the run's phase / run-level spans record to (null = global).
  obs::Tracer* tracer = nullptr;

  obs::MetricsRegistry& metrics_or_global() const {
    return metrics != nullptr ? *metrics : obs::MetricsRegistry::Global();
  }
  obs::Tracer& tracer_or_global() const {
    return tracer != nullptr ? *tracer : obs::Tracer::Global();
  }
};

}  // namespace bddfc

#endif  // BDDFC_BASE_RUN_CONTEXT_H_
