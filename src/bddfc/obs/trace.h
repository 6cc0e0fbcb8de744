// Structured tracing: RAII spans recorded into a preallocated ring
// buffer and exported as Chrome trace_event JSON (loadable in
// chrome://tracing and Perfetto).
//
// A TraceSpan opens on construction (a 'B' event) and closes on
// destruction (an 'E' event). Spans carry:
//   * a small stable thread id (assigned per OS thread on first use),
//   * a process-unique span id and the id of the enclosing span on the
//     same thread (a thread-local stack), and
//   * an optional short detail string, set any time before destruction.
// Cross-thread fan-outs stay attached: ParallelFor captures the calling
// span's id at entry and opens each task's span with that id as an
// explicit parent, so a rewrite fan-out's per-query spans nest under the
// ProbeBdd/ComputeKappa span that started them even though they run on
// other threads.
//
// Routing: a span opened with an explicit tracer records there. A span
// opened without one records to the tracer of the innermost span open on
// its thread, and to Tracer::Global() only at top level — so a library
// layer that knows no tracer (the plan executor, the round sink) lands in
// the ring of the run that called it. ParallelFor's task spans carry the
// caller's tracer along with its span id.
//
// Cost model: when tracing is disabled (the default), constructing a
// span is one relaxed atomic load (after a thread-local read that picks
// the tracer) and nothing else — no allocation, no clock read. When
// enabled, Begin/End take a mutex, read steady_clock and write one
// fixed-size slot in the preallocated ring; span names must be string
// literals (the recorder stores the pointer). The ring
// overwrites its oldest events when full; the exporter repairs the
// resulting orphans (an 'E' whose 'B' was overwritten is dropped, a 'B'
// still open at export gets a synthetic 'E'), so the exported JSON is
// always balanced and per-thread monotone — the contract
// tools/trace_check enforces.

#ifndef BDDFC_OBS_TRACE_H_
#define BDDFC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bddfc::obs {

/// One ring slot. `name` must point at a string literal (or memory that
/// outlives the tracer); `detail` is copied inline and truncated. The
/// slot is packed and aligned to exactly one cache line: recording is a
/// cold-slot write (the workload between events evicts the ring), so
/// every extra line per event is an extra memory stall on the hot path.
struct alignas(64) TraceEvent {
  /// Raw monotonic ticks since the tracer's epoch (TSC on x86-64, else
  /// steady_clock nanoseconds); converted to microseconds at export so
  /// the hot path pays a register read instead of a vDSO call.
  int64_t ts_ticks = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = top-level
  const char* name = "";
  uint32_t tid = 0;        ///< small stable per-thread id
  char phase = 'B';        ///< 'B' or 'E'
  char detail[27] = {};    ///< optional, NUL-terminated, may be empty
};
static_assert(sizeof(TraceEvent) == 64, "one event == one cache line");

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer every span records to. Disabled until a
  /// tool opts in (--trace-out) or a test calls Enable().
  static Tracer& Global();

  /// Allocates (or re-allocates) the ring and turns recording on.
  /// `capacity_events` is clamped to >= 64; 64 bytes per slot.
  void Enable(size_t capacity_events = size_t{1} << 16);
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every recorded event (capacity and enabled state stay).
  void Reset();

  /// The innermost span currently open on this thread (0 = none). What
  /// ParallelFor captures at entry to re-parent task spans.
  static uint64_t CurrentSpanId();
  /// The tracer that span records to (null = no span open): where a span
  /// without an explicit tracer records.
  static Tracer* CurrentTracer();

  /// Spans overwritten or repaired is visible here: how many events the
  /// ring dropped by wrapping since Enable/Reset.
  uint64_t overwritten_events() const {
    return overwritten_.load(std::memory_order_relaxed);
  }

  /// Chrome trace_event JSON: {"traceEvents":[...]}. Balanced B/E per
  /// tid, ts monotone per tid, stable order. Safe to call while spans
  /// are still open (they get synthetic 'E's in the export only).
  std::string ExportChromeJson() const;

  // -- used by TraceSpan -----------------------------------------------------

  uint64_t Begin(const char* name, uint64_t parent_id);
  void End(const char* name, uint64_t span_id, uint64_t parent_id,
           std::string_view detail);

 private:
  void Record(char phase, const char* name, uint64_t span_id,
              uint64_t parent_id, std::string_view detail);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> overwritten_{0};
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_{};
  uint64_t epoch_ticks_ = 0;  ///< tick-counter reading taken at epoch_
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;    // next slot to write
  size_t filled_ = 0;  // slots holding valid events (<= ring_.size())
};

/// RAII span. Construct with a string literal name; optionally
/// set_detail() before destruction (recorded on the 'E' event). The
/// (tracer, name) form records to an explicit tracer — a per-session ring
/// instead of the process-wide one; a null tracer, like the (name) form,
/// follows the routing rule above. The (tracer, name, parent) form also
/// re-parents the span under a span id captured on another thread. Span
/// ids are process-unique across tracers, so parent links stay coherent
/// even if nested spans land in different rings.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : TraceSpan(nullptr, name) {}
  TraceSpan(Tracer* tracer, const char* name);
  TraceSpan(Tracer* tracer, const char* name, uint64_t explicit_parent);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_detail(std::string detail) { detail_ = std::move(detail); }
  /// This span's id (0 when tracing is disabled).
  uint64_t id() const { return id_; }

 private:
  void Open(Tracer& tracer, const char* name, uint64_t parent);

  Tracer* tracer_ = nullptr;  // the tracer Open recorded to
  const char* name_ = "";
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  bool active_ = false;
  bool pushed_ = false;  // id_ sits on this thread's span stack
  std::string detail_;
};

}  // namespace bddfc::obs

#endif  // BDDFC_OBS_TRACE_H_
