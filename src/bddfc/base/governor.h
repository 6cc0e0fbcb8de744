// Unified resource governor: one enforceable contract for deadlines,
// memory, and cooperative cancellation across every compute module.
//
// Every procedure the paper gives us is semi-decidable or worst-case
// explosive: the chase need not terminate (§1.1), the UCQ rewriting can
// blow up before the k_Φ bound (Def. 2), and positive-n-type enumeration
// is exponential in n (Def. 3). The per-engine count caps (max_facts,
// max_queries, max_patterns, ...) bound *work items* but know nothing
// about wall-clock time, memory, or each other. An ExecutionContext is
// the shared contract the engines check instead:
//
//   * a wall-clock deadline (steady_clock),
//   * a hierarchical byte-accounted memory budget (MemoryAccountant;
//     children charge their parents, so a pipeline can split its
//     allowance across chase/rewrite/type phases),
//   * a cooperative CancelToken (flipped by SIGINT handlers or other
//     threads; checked, never preempted),
//   * a structured ResourceReport: what ran out, how far the run got,
//     and whether a partial result was retained.
//
// Engines call CheckPoint() at round/level/frontier granularity and
// ShouldStop() inside hot enumeration loops (strided, so the common case
// is one relaxed atomic load). On the first trip the context latches the
// exhausted resource; every later check fails fast. Partial results are
// cut at the last completed round/level, never mid-application, so an
// interrupted run is prefix-consistent with an uninterrupted one.
//
// Determinism: wall-clock and memory trips are inherently timing
// dependent, so tests and the fuzz oracles attach a FaultRegistry with an
// after-N faults::kGovernorCheck spec whose action names a resource
// (base/faults.h): the context then reports that exhaustion after a fixed
// number of checks — exercising the exact same early-exit paths
// deterministically.

#ifndef BDDFC_BASE_GOVERNOR_H_
#define BDDFC_BASE_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bddfc/base/faults.h"
#include "bddfc/base/run_context.h"
#include "bddfc/base/status.h"
#include "bddfc/obs/trace.h"

namespace bddfc {

/// Which governed resource (or legacy count budget) ran out first.
enum class ResourceKind {
  kNone = 0,
  kDeadline,   ///< the wall-clock deadline passed
  kMemory,     ///< the accounted byte budget watermark was exceeded
  kCancelled,  ///< the CancelToken was flipped
  kFacts,      ///< a max_facts count cap (chase / saturation)
  kRounds,     ///< a max_rounds / max_depth round cap
  kQueries,    ///< the rewriter's max_queries cap
  kAtoms,      ///< the rewriter's max_atoms_per_query cap
  kHomChecks,  ///< a hom-search budget (subsumption probing)
  kPatterns,   ///< the type oracle's max_patterns cap
  kStructures, ///< the model search's max_structures cap
  kFault,      ///< an injected fail-stop fault fired (FaultRegistry site)
  kInvariant,  ///< a paranoia invariant check failed
};

/// Stable lowercase name ("deadline", "memory", ...).
const char* ResourceKindName(ResourceKind kind);

/// A shared cancellation flag. Copies alias the same flag, so a token
/// handed to a SIGINT handler (or another thread) cancels every context
/// that holds a copy. Cancel() is a single atomic store: safe from signal
/// handlers and concurrent threads.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Byte-accounted memory budget. Charges are approximate (engines charge
/// the estimated footprint of facts, frontier queries, indexes) and
/// propagate to the parent accountant, so a child is a *view* carving a
/// sub-allowance out of the parent's budget: the pipeline gives its chase
/// phase half the bytes and the rewriter a quarter without double
/// counting at the root. Enforcement is a watermark — engines keep
/// charging freely and CheckPoint trips once used() exceeds limit() here
/// or in any ancestor — which keeps the hot insert path to two relaxed
/// atomic ops. limit 0 = unlimited (accounting still runs, for reports).
///
/// Thread-safe. A parent must outlive its children.
class MemoryAccountant {
 public:
  explicit MemoryAccountant(size_t limit_bytes = 0,
                            MemoryAccountant* parent = nullptr)
      : limit_(limit_bytes), parent_(parent) {}

  MemoryAccountant(const MemoryAccountant&) = delete;
  MemoryAccountant& operator=(const MemoryAccountant&) = delete;

  void Charge(size_t bytes);
  void Release(size_t bytes);

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  size_t limit() const { return limit_.load(std::memory_order_relaxed); }
  void set_limit(size_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }

  /// True when this accountant or any ancestor exceeds its limit.
  bool OverBudget() const;

 private:
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<size_t> limit_;
  MemoryAccountant* const parent_;
};

/// One phase's progress note inside a ResourceReport ("chase" →
/// "round 17, 5120 facts").
struct PhaseProgress {
  std::string phase;
  std::string progress;
};

/// Structured account of a governed run: what ran out (kNone when
/// nothing), how far each phase got, and the live resource counters at
/// report time. Attached to every engine result so exhaustion is never a
/// bare bool or a conflated error string.
struct ResourceReport {
  ResourceKind exhausted = ResourceKind::kNone;
  /// Human-readable trip detail ("deadline exceeded at chase round 12").
  std::string detail;
  /// True when the result carries a usable partial prefix (facts up to the
  /// last complete round, the UCQ union up to the last complete level, ...).
  bool partial_result = false;
  size_t peak_bytes = 0;      ///< peak accounted bytes (0 if unaccounted)
  size_t limit_bytes = 0;     ///< byte budget (0 = unlimited)
  double deadline_slack_ms = 0;  ///< deadline minus now; negative = overshoot
  size_t cancel_checks = 0;   ///< direct CheckPoint calls (not probes)
  /// Completed phase notes, in completion order (a PhaseScope appends one
  /// when it closes, so an early return can never leave a stale entry).
  std::vector<PhaseProgress> phases;
  /// Phases still open at report() time, outermost first. Non-empty only
  /// when the report is taken mid-run (e.g. a trip unwinding a pipeline).
  std::vector<std::string> open_phases;

  bool ok() const { return exhausted == ResourceKind::kNone; }
  /// "exhausted=deadline detail=... peak_bytes=... " one-line summary plus
  /// one indented line per phase note.
  std::string ToString() const;
};

/// The trip a faults::kGovernorCheck fire with `action` causes: kDeadline,
/// kMemory or kCancelled for the faults::kTrip* actions, and a fail-stop
/// kFault for any other (a chaos plan's empty action included).
ResourceKind GovernorCheckTrip(std::string_view action);

/// The execution contract one logical request runs under. Configure
/// (deadline, memory limit, fault registry) before handing it to
/// engines; the checking side is thread-safe, so one context can govern a
/// ParallelFor fan-out. The first resource trip latches: every
/// subsequent CheckPoint/ShouldStop fails immediately, which is what
/// stops a fan-out from starting more tasks and unwinds nested phases.
class ExecutionContext {
 public:
  ExecutionContext() = default;

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  // -- configuration (before the run) --------------------------------------

  /// Sets the deadline `ms` milliseconds from this call — not from the
  /// context's creation, so a child created late (a request on a
  /// long-running server) still gets its full allowance.
  void SetDeadlineAfterMs(double ms) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
    has_deadline_ = true;
  }
  bool has_deadline() const { return has_deadline_; }
  /// Milliseconds until the deadline (negative once past); +inf when none.
  double RemainingMs() const;

  /// Sets the root byte budget (0 = unlimited; accounting always runs).
  void SetMemoryLimitBytes(size_t bytes) { memory_.set_limit(bytes); }
  MemoryAccountant& memory() { return memory_; }
  const MemoryAccountant& memory() const { return memory_; }

  /// The shared cancellation flag (copy it into SIGINT handlers/threads).
  CancelToken cancel_token() const { return cancel_; }
  void RequestCancel() { cancel_.Cancel(); }

  /// Attaches the fault registry the fault sites of this context and its
  /// descendants consult — the only way a fault enters a run. The nearest
  /// attachment up the parent chain wins, so requests under one server
  /// root carry their own session's registry. The registry must outlive
  /// the run; pass nullptr to detach this level.
  void SetFaultRegistry(FaultRegistry* registry) { faults_ = registry; }
  /// The nearest attached registry up the parent chain; nullptr when
  /// chaos is off.
  FaultRegistry* fault_registry() const {
    for (const ExecutionContext* c = this; c != nullptr; c = c->parent_) {
      if (c->faults_ != nullptr) return c->faults_;
    }
    return nullptr;
  }

  /// Attaches the session/run-scoped observability destinations
  /// (DESIGN.md §2.15) to this context and its descendants. Like
  /// SetFaultRegistry, resolution is nearest-ancestor-wins — the serving
  /// layer hangs every request off one server root, each with its own
  /// RunContext, and the root itself carries none. The RunContext and
  /// everything it points at must outlive the run; pass nullptr to detach
  /// and fall back to the process-wide singletons.
  void SetRunContext(const RunContext* rc) { run_ctx_ = rc; }
  /// The nearest attached RunContext up the parent chain (nullptr = none).
  const RunContext* run_context() const {
    for (const ExecutionContext* c = this; c != nullptr; c = c->parent_) {
      if (c->run_ctx_ != nullptr) return c->run_ctx_;
    }
    return nullptr;
  }

  /// The metrics registry this run publishes into: the nearest attached
  /// RunContext's, else the process-wide registry. Engines resolve their
  /// publication target through this instead of MetricsRegistry::Global()
  /// so concurrent sessions never interleave counters.
  obs::MetricsRegistry& metrics_registry() const {
    const RunContext* rc = run_context();
    return rc != nullptr ? rc->metrics_or_global()
                         : obs::MetricsRegistry::Global();
  }

  /// The tracer this run's phase and run-level spans record to.
  obs::Tracer& tracer() const {
    const RunContext* rc = run_context();
    return rc != nullptr ? rc->tracer_or_global() : obs::Tracer::Global();
  }

  /// Creates a sub-context sharing this context's cancel token, deadline
  /// and trip visibility, with a child memory accountant capped at
  /// `memory_limit_bytes` — the pipeline splits its allowance across
  /// phases this way. The parent must outlive the child.
  std::unique_ptr<ExecutionContext> CreateChild(size_t memory_limit_bytes);

  // -- cooperative checking (run time, any thread) -------------------------

  /// The full check: cancellation, deadline, memory watermark, and a
  /// faults::kGovernorCheck fire (which trips the resource its action
  /// names, or fails stop as kFault → kInternal). OK, or the trip's
  /// status with the trip recorded (first trip wins; later calls return
  /// the recorded trip). Call at round/level/
  /// frontier boundaries — cost is one steady_clock read when a deadline
  /// is set, a few relaxed loads otherwise.
  Status CheckPoint(const char* where);

  /// Strided probe for hot enumeration loops: the full check every 64th
  /// call (not counted in cancel_checks), otherwise one relaxed load of
  /// the latch. True = stop now.
  bool ShouldStop(const char* where);

  /// Fail-stop fault probe for a named registry site: when a registry is
  /// attached and a fault fires at `site`, latches a kFault trip on THIS
  /// context (not the root — a supervisor retry under a fresh child
  /// starts clean) and returns kInternal. One relaxed load when no
  /// registry is attached or it is disarmed.
  Status CheckFault(const char* site);

  /// Reports a paranoia invariant violation: latches a kInvariant trip
  /// (first trip wins) and returns kInternal carrying `detail` — always
  /// this violation's detail, even when an earlier governed trip already
  /// latched, so corruption found while unwinding a trip is never masked.
  Status RecordInvariantViolation(std::string detail);

  /// True once any governed resource (or a recorded count budget) tripped
  /// in this context or an ancestor.
  bool Exhausted() const {
    return tripped_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->Exhausted());
  }

  /// Routes a legacy count-budget trip (max_facts, max_queries, ...)
  /// through the shared contract: latches the trip (unless a governed
  /// resource already tripped) and returns ResourceExhausted carrying
  /// `detail`. This is how the per-engine max_* knobs become views onto
  /// the governor without changing their call sites.
  Status RecordExhaustion(ResourceKind kind, std::string detail);

  /// Appends a progress note for the report ("chase", "round 12, 800 facts").
  /// Prefer PhaseScope, which also tracks the open-phase stack and traces
  /// the phase as a span; NotePhase remains for one-shot notes.
  void NotePhase(std::string phase, std::string progress);

  // -- reporting -----------------------------------------------------------

  /// Snapshot of the current state: trip (if any), phases, peak bytes,
  /// deadline slack, check count.
  ResourceReport report() const;

  /// Direct CheckPoint calls performed (shared with children: a child's
  /// checks count on the root): round, level and phase boundaries, and
  /// ParallelFor's skip on a tripped context. ShouldStop's strided
  /// escalations are not counted, since their number depends on how a
  /// round splits into blocks and tasks, but they hit
  /// faults::kGovernorCheck like every full check.
  size_t cancel_checks() const {
    return root()->checks_.load(std::memory_order_relaxed);
  }

 private:
  /// Child constructor: shares the parent's cancel token, deadline and
  /// check counter, and resolves the parent's fault registry; owns a
  /// child accountant.
  ExecutionContext(ExecutionContext* parent, size_t memory_limit_bytes);

  ExecutionContext* root() { return parent_ == nullptr ? this : root_; }
  const ExecutionContext* root() const {
    return parent_ == nullptr ? this : root_;
  }

  /// CheckPoint without the count: what ShouldStop escalates to.
  Status FullCheck(const char* where);

  /// Latches (kind, detail) as the first trip if none is recorded yet and
  /// returns the ResourceExhausted status for the recorded trip.
  Status Trip(ResourceKind kind, std::string detail);

  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  MemoryAccountant memory_;
  CancelToken cancel_;
  FaultRegistry* faults_ = nullptr;  // nearest-ancestor resolution
  const RunContext* run_ctx_ = nullptr;  // nearest-ancestor resolution
  ExecutionContext* parent_ = nullptr;  // trips in ancestors are visible
  ExecutionContext* root_ = nullptr;    // topmost ancestor (nullptr = self)

  friend class PhaseScope;

  std::atomic<size_t> checks_{0};
  std::atomic<size_t> stride_{0};  // ShouldStop probe counter (root only)
  std::atomic<bool> tripped_{false};
  mutable std::mutex mu_;  // guards kind_/code_/detail_/phases_/open_phases_
  ResourceKind kind_ = ResourceKind::kNone;
  StatusCode code_ = StatusCode::kResourceExhausted;
  std::string detail_;
  std::vector<PhaseProgress> phases_;
  std::vector<std::string> open_phases_;
};

/// Resolves the metrics registry for an engine whose context pointer may
/// be null (ungoverned runs publish to the process-wide registry, exactly
/// the pre-serve behaviour).
inline obs::MetricsRegistry& ContextMetrics(const ExecutionContext* ctx) {
  return ctx != nullptr ? ctx->metrics_registry()
                        : obs::MetricsRegistry::Global();
}

/// Resolves the tracer for an engine whose context pointer may be null.
inline obs::Tracer& ContextTracer(const ExecutionContext* ctx) {
  return ctx != nullptr ? ctx->tracer() : obs::Tracer::Global();
}

/// RAII phase marker: one object is both the governor's phase bookkeeping
/// and the tracing span for the phase. Construction pushes the phase onto
/// the context's open-phase stack and opens a span; destruction pops the
/// stack and appends the PhaseProgress note — so every exit path (early
/// return, error, resource trip) unwinds the report correctly, which the
/// old NotePhase-at-the-end pattern did not guarantee.
///
/// The note defaults to "done", or "aborted" when the context tripped;
/// set_progress() overrides it ("round 12, 800 facts"). `ctx` may be
/// null: the scope still traces, and the phase bookkeeping is skipped.
class PhaseScope {
 public:
  PhaseScope(ExecutionContext* ctx, const char* phase);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  void set_progress(std::string progress) { progress_ = std::move(progress); }
  /// The underlying trace span's id (0 when tracing is disabled).
  uint64_t span_id() const { return span_.id(); }

 private:
  ExecutionContext* ctx_;
  const char* phase_;
  std::string progress_;
  obs::TraceSpan span_;
};

}  // namespace bddfc

#endif  // BDDFC_BASE_GOVERNOR_H_
