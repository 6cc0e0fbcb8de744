#include "bddfc/base/governor.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace bddfc {

const char* ResourceKindName(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kNone: return "none";
    case ResourceKind::kDeadline: return "deadline";
    case ResourceKind::kMemory: return "memory";
    case ResourceKind::kCancelled: return "cancelled";
    case ResourceKind::kFacts: return "facts";
    case ResourceKind::kRounds: return "rounds";
    case ResourceKind::kQueries: return "queries";
    case ResourceKind::kAtoms: return "atoms";
    case ResourceKind::kHomChecks: return "hom-checks";
    case ResourceKind::kPatterns: return "patterns";
    case ResourceKind::kStructures: return "structures";
    case ResourceKind::kFault: return "fault";
    case ResourceKind::kInvariant: return "invariant";
  }
  return "?";
}

ResourceKind GovernorCheckTrip(std::string_view action) {
  if (action == faults::kTripDeadline) return ResourceKind::kDeadline;
  if (action == faults::kTripOom) return ResourceKind::kMemory;
  if (action == faults::kTripCancel) return ResourceKind::kCancelled;
  return ResourceKind::kFault;
}

void MemoryAccountant::Charge(size_t bytes) {
  for (MemoryAccountant* a = this; a != nullptr; a = a->parent_) {
    size_t now =
        a->used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t peak = a->peak_.load(std::memory_order_relaxed);
    while (now > peak && !a->peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
}

void MemoryAccountant::Release(size_t bytes) {
  for (MemoryAccountant* a = this; a != nullptr; a = a->parent_) {
    a->used_.fetch_sub(bytes, std::memory_order_relaxed);
  }
}

bool MemoryAccountant::OverBudget() const {
  for (const MemoryAccountant* a = this; a != nullptr; a = a->parent_) {
    size_t limit = a->limit_.load(std::memory_order_relaxed);
    if (limit != 0 && a->used_.load(std::memory_order_relaxed) > limit) {
      return true;
    }
  }
  return false;
}

std::string ResourceReport::ToString() const {
  std::string s = "exhausted=" + std::string(ResourceKindName(exhausted));
  if (!detail.empty()) s += " detail=\"" + detail + "\"";
  s += " partial=" + std::string(partial_result ? "yes" : "no");
  s += " peak_bytes=" + std::to_string(peak_bytes);
  if (limit_bytes != 0) s += " limit_bytes=" + std::to_string(limit_bytes);
  if (std::isfinite(deadline_slack_ms)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", deadline_slack_ms);
    s += " deadline_slack_ms=" + std::string(buf);
  }
  s += " cancel_checks=" + std::to_string(cancel_checks);
  for (const PhaseProgress& p : phases) {
    s += "\n  " + p.phase + ": " + p.progress;
  }
  if (!open_phases.empty()) {
    s += "\n  open:";
    for (const std::string& p : open_phases) s += " " + p;
  }
  return s;
}

std::unique_ptr<ExecutionContext> ExecutionContext::CreateChild(
    size_t memory_limit_bytes) {
  return std::unique_ptr<ExecutionContext>(
      new ExecutionContext(this, memory_limit_bytes));
}

ExecutionContext::ExecutionContext(ExecutionContext* parent,
                                   size_t memory_limit_bytes)
    : has_deadline_(parent->has_deadline_),
      deadline_(parent->deadline_),
      memory_(memory_limit_bytes, &parent->memory_),
      cancel_(parent->cancel_),
      parent_(parent),
      root_(parent->parent_ == nullptr ? parent : parent->root_) {}

double ExecutionContext::RemainingMs() const {
  if (!has_deadline_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double, std::milli>(
             deadline_ - std::chrono::steady_clock::now())
      .count();
}

Status ExecutionContext::Trip(ResourceKind kind, std::string detail) {
  // Fault and invariant trips are internal errors (the run is wrong, not
  // merely out of budget); everything else keeps the exhaustion contract.
  StatusCode code =
      (kind == ResourceKind::kFault || kind == ResourceKind::kInvariant)
          ? StatusCode::kInternal
          : StatusCode::kResourceExhausted;
  std::lock_guard<std::mutex> lock(mu_);
  if (kind_ == ResourceKind::kNone) {
    kind_ = kind;
    code_ = code;
    detail_ = std::move(detail);
    tripped_.store(true, std::memory_order_release);
  }
  return Status(code_, detail_);
}

Status ExecutionContext::RecordExhaustion(ResourceKind kind,
                                          std::string detail) {
  return Trip(kind, std::move(detail));
}

Status ExecutionContext::CheckFault(const char* site) {
  FaultRegistry* reg = fault_registry();
  if (reg == nullptr || !reg->enabled()) return Status::OK();
  FaultFire fire = reg->Hit(site);
  if (!fire.fired) return Status::OK();
  return Trip(ResourceKind::kFault, std::string("injected fault at ") + site);
}

Status ExecutionContext::RecordInvariantViolation(std::string detail) {
  Trip(ResourceKind::kInvariant, detail);
  // Always surface THIS violation: an earlier governed trip (say the
  // deadline that interrupted the round) must not mask the corruption the
  // paranoia check just found while unwinding it.
  return Status::Internal(std::move(detail));
}

Status ExecutionContext::CheckPoint(const char* where) {
  root()->checks_.fetch_add(1, std::memory_order_relaxed);
  return FullCheck(where);
}

Status ExecutionContext::FullCheck(const char* where) {
  // Latched trip (here or in an ancestor): fail fast with its status.
  for (ExecutionContext* c = this; c != nullptr; c = c->parent_) {
    if (c->tripped_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(c->mu_);
      return Status(c->code_, c->detail_);
    }
  }

  // Registry faults at the governor's own site: an action naming a
  // resource fakes that trip; any other fire (a chaos plan's empty
  // action) is a fail-stop kFault → kInternal trip.
  if (FaultRegistry* freg = fault_registry();
      freg != nullptr && freg->enabled()) {
    FaultFire fire = freg->Hit(faults::kGovernorCheck);
    if (fire.fired) {
      return Trip(GovernorCheckTrip(fire.action),
                  std::string("injected fault at ") + where);
    }
  }

  if (cancel_.cancelled()) {
    return Trip(ResourceKind::kCancelled,
                std::string("cancelled at ") + where);
  }
  if (has_deadline_ &&
      std::chrono::steady_clock::now() >= deadline_) {
    return Trip(ResourceKind::kDeadline,
                std::string("deadline exceeded at ") + where);
  }
  if (memory_.OverBudget()) {
    return Trip(ResourceKind::kMemory,
                "memory budget exceeded at " + std::string(where) + " (" +
                    std::to_string(memory_.used()) + " bytes accounted)");
  }
  return Status::OK();
}

bool ExecutionContext::ShouldStop(const char* where) {
  if (Exhausted()) return true;
  // Strided: only every 64th probe pays for the clock read. The counter
  // races benignly across threads — the stride is a heuristic, not a
  // correctness boundary. The escalation is not counted as a check: how
  // many probes a round makes depends on its split into blocks and tasks.
  size_t probe =
      root()->stride_.fetch_add(1, std::memory_order_relaxed);
  if (probe % 64 != 0) return false;
  return !FullCheck(where).ok();
}

void ExecutionContext::NotePhase(std::string phase, std::string progress) {
  std::lock_guard<std::mutex> lock(mu_);
  phases_.push_back({std::move(phase), std::move(progress)});
}

PhaseScope::PhaseScope(ExecutionContext* ctx, const char* phase)
    : ctx_(ctx),
      phase_(phase),
      // The phase span follows the run's tracer (a session ring when a
      // RunContext is attached, the process ring otherwise).
      span_(ctx != nullptr ? &ctx->tracer() : nullptr, phase) {
  if (ctx_ != nullptr) {
    std::lock_guard<std::mutex> lock(ctx_->mu_);
    ctx_->open_phases_.emplace_back(phase);
  }
}

PhaseScope::~PhaseScope() {
  std::string note = std::move(progress_);
  if (note.empty()) {
    note = (ctx_ != nullptr && ctx_->Exhausted()) ? "aborted" : "done";
  }
  span_.set_detail(note);
  if (ctx_ != nullptr) {
    std::lock_guard<std::mutex> lock(ctx_->mu_);
    // Pop the innermost matching entry (scopes unwind LIFO per thread,
    // but sibling phases on fan-out threads may interleave in the vector).
    for (auto it = ctx_->open_phases_.rbegin();
         it != ctx_->open_phases_.rend(); ++it) {
      if (*it == phase_) {
        ctx_->open_phases_.erase(std::next(it).base());
        break;
      }
    }
    ctx_->phases_.push_back({phase_, std::move(note)});
  }
}

ResourceReport ExecutionContext::report() const {
  ResourceReport rep;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rep.exhausted = kind_;
    rep.detail = detail_;
    rep.phases = phases_;
    rep.open_phases = open_phases_;
  }
  // A trip latched in an ancestor (e.g. the pipeline recorded a budget
  // while this child ran) shows up here too.
  if (rep.exhausted == ResourceKind::kNone && parent_ != nullptr) {
    ResourceReport up = parent_->report();
    rep.exhausted = up.exhausted;
    rep.detail = up.detail;
  }
  rep.peak_bytes = memory_.peak();
  rep.limit_bytes = memory_.limit();
  rep.deadline_slack_ms = RemainingMs();
  rep.cancel_checks = cancel_checks();
  return rep;
}

}  // namespace bddfc
