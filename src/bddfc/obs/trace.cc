#include "bddfc/obs/trace.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace bddfc::obs {

namespace {

/// Cheapest monotonic tick source: raw TSC where we have one (modern
/// x86-64 TSCs are invariant and socket-synchronized — this is what
/// clock_gettime reads under the hood, minus the scaling math), else the
/// steady clock in nanoseconds. Ticks are converted to microseconds at
/// export against the (epoch, now) steady-clock anchors.
uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Stable small thread id, assigned on first recorded event.
uint32_t ThisThreadTraceId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t tid = UINT32_MAX;
  if (tid == UINT32_MAX) tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// Per-thread stack of open spans and the tracers they record to; the top
/// is CurrentSpanId() / CurrentTracer(). Fixed depth so pushing never
/// allocates; spans past the cap simply don't become "current" (their
/// events still record with the right parent).
constexpr size_t kMaxSpanDepth = 128;
thread_local uint64_t tls_span_stack[kMaxSpanDepth];
thread_local Tracer* tls_tracer_stack[kMaxSpanDepth];
thread_local size_t tls_span_depth = 0;

bool PushSpan(uint64_t id, Tracer* tracer) {
  if (tls_span_depth >= kMaxSpanDepth) return false;
  tls_tracer_stack[tls_span_depth] = tracer;
  tls_span_stack[tls_span_depth++] = id;
  return true;
}

void PopSpan() {
  if (tls_span_depth > 0) --tls_span_depth;
}

/// Where a span records: `tracer` if given, else the innermost open
/// span's tracer, else the process-wide one.
Tracer& RouteSpan(Tracer* tracer) {
  if (tracer != nullptr) return *tracer;
  Tracer* inner = Tracer::CurrentTracer();
  return inner != nullptr ? *inner : Tracer::Global();
}

void JsonEscapeInto(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* instance = new Tracer();
  return *instance;
}

uint64_t Tracer::CurrentSpanId() {
  return tls_span_depth == 0 ? 0 : tls_span_stack[tls_span_depth - 1];
}

Tracer* Tracer::CurrentTracer() {
  return tls_span_depth == 0 ? nullptr : tls_tracer_stack[tls_span_depth - 1];
}

void Tracer::Enable(size_t capacity_events) {
  std::lock_guard<std::mutex> lock(mu_);
  // Reuse the ring when the capacity is unchanged: stale slots become
  // unreachable once the indices reset, and re-touching megabytes of slot
  // memory here would evict the caller's working set from cache.
  const size_t capacity = std::max<size_t>(64, capacity_events);
  if (ring_.size() != capacity) ring_.assign(capacity, TraceEvent{});
  next_ = 0;
  filled_ = 0;
  overwritten_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  epoch_ticks_ = Ticks();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
  filled_ = 0;
  overwritten_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  epoch_ticks_ = Ticks();
}

uint64_t Tracer::Begin(const char* name, uint64_t parent_id) {
  static std::atomic<uint64_t> next_span_id{1};
  uint64_t id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  Record('B', name, id, parent_id, {});
  return id;
}

void Tracer::End(const char* name, uint64_t span_id, uint64_t parent_id,
                 std::string_view detail) {
  Record('E', name, span_id, parent_id, detail);
}

void Tracer::Record(char phase, const char* name, uint64_t span_id,
                    uint64_t parent_id, std::string_view detail) {
  const uint32_t tid = ThisThreadTraceId();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty() || !enabled()) return;
  TraceEvent& e = ring_[next_];
  // The tick read happens under the lock, so recorded order == ts order
  // and the export is monotone without sorting.
  e.ts_ticks = static_cast<int64_t>(Ticks() - epoch_ticks_);
  e.span_id = span_id;
  e.parent_id = parent_id;
  e.tid = tid;
  e.phase = phase;
  e.name = name;
  size_t n = std::min(detail.size(), sizeof(e.detail) - 1);
  // An empty detail may have a null data(), which memcpy must not see.
  if (n != 0) std::memcpy(e.detail, detail.data(), n);
  e.detail[n] = '\0';
  if (++next_ == ring_.size()) next_ = 0;
  // The workload between two events evicts the ring, so the next slot is
  // a guaranteed cache miss; start fetching it now, while the caller has
  // microseconds of real work to hide the latency behind.
  __builtin_prefetch(&ring_[next_], /*rw=*/1, /*locality=*/0);
  if (filled_ < ring_.size()) {
    ++filled_;
  } else {
    overwritten_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string Tracer::ExportChromeJson() const {
  // Copy the ring oldest-to-newest, then repair what wrapping broke: an
  // 'E' whose 'B' was overwritten is dropped, a 'B' still open at export
  // gets a synthetic 'E' at the end (innermost first, per thread).
  std::vector<TraceEvent> events;
  double us_per_tick = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.reserve(filled_);
    const size_t cap = ring_.size();
    const size_t start = filled_ < cap ? 0 : next_;
    for (size_t i = 0; i < filled_; ++i) {
      events.push_back(ring_[(start + i) % cap]);
    }
    // Calibrate raw ticks against the steady clock over the epoch->now
    // window. Both anchors are exact, the tick rate is constant, so the
    // linear map is accurate for every event in between (and an export
    // taken instants after Enable maps everything to ~0, still monotone).
    const uint64_t tick_span = Ticks() - epoch_ticks_;
    if (tick_span > 0) {
      const double us_span =
          std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
              std::chrono::steady_clock::now() - epoch_)
              .count();
      us_per_tick = us_span / static_cast<double>(tick_span);
    }
  }
  auto to_us = [us_per_tick](int64_t ticks) {
    return static_cast<int64_t>(static_cast<double>(ticks) * us_per_tick);
  };

  // Per-tid stacks of indices into `events`; -1 marks a dropped event.
  std::vector<char> keep(events.size(), 1);
  std::vector<std::pair<uint32_t, std::vector<size_t>>> stacks;
  auto stack_for = [&](uint32_t tid) -> std::vector<size_t>& {
    for (auto& [t, s] : stacks) {
      if (t == tid) return s;
    }
    stacks.emplace_back(tid, std::vector<size_t>{});
    return stacks.back().second;
  };
  for (size_t i = 0; i < events.size(); ++i) {
    std::vector<size_t>& stack = stack_for(events[i].tid);
    if (events[i].phase == 'B') {
      stack.push_back(i);
    } else if (stack.empty() ||
               events[stack.back()].span_id != events[i].span_id) {
      keep[i] = 0;  // orphan: its 'B' was overwritten
    } else {
      stack.pop_back();
    }
  }

  int64_t max_ts = 0;
  for (const TraceEvent& e : events) {
    max_ts = std::max(max_ts, to_us(e.ts_ticks));
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const TraceEvent& e, char phase, int64_t ts) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    JsonEscapeInto(&out, e.name);
    out += "\",\"cat\":\"bddfc\",\"ph\":\"";
    out += phase;
    out += "\",\"ts\":" + std::to_string(ts) +
           ",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"args\":{\"span\":" + std::to_string(e.span_id) +
           ",\"parent\":" + std::to_string(e.parent_id);
    if (phase == 'E' && e.detail[0] != '\0') {
      out += ",\"detail\":\"";
      JsonEscapeInto(&out, e.detail);
      out += "\"";
    }
    out += "}}";
  };
  for (size_t i = 0; i < events.size(); ++i) {
    if (keep[i]) emit(events[i], events[i].phase, to_us(events[i].ts_ticks));
  }
  // Close spans still open at export time, innermost first.
  for (auto& [tid, stack] : stacks) {
    (void)tid;
    for (size_t j = stack.size(); j > 0; --j) {
      emit(events[stack[j - 1]], 'E', max_ts);
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

TraceSpan::TraceSpan(Tracer* tracer, const char* name) {
  Tracer& t = RouteSpan(tracer);
  if (!t.enabled()) return;
  Open(t, name, Tracer::CurrentSpanId());
}

TraceSpan::TraceSpan(Tracer* tracer, const char* name,
                     uint64_t explicit_parent) {
  Tracer& t = RouteSpan(tracer);
  if (!t.enabled()) return;
  Open(t, name, explicit_parent);
}

void TraceSpan::Open(Tracer& tracer, const char* name, uint64_t parent) {
  tracer_ = &tracer;
  name_ = name;
  parent_ = parent;
  id_ = tracer.Begin(name, parent);
  active_ = true;
  pushed_ = PushSpan(id_, &tracer);
}

TraceSpan::~TraceSpan() {
  if (pushed_) PopSpan();
  if (active_) tracer_->End(name_, id_, parent_, detail_);
}

}  // namespace bddfc::obs
