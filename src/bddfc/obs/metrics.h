// Process-wide metrics registry: named counters, gauges and histograms
// updated with relaxed atomics, snapshotted on demand and exported as
// text or JSON.
//
// The repo grew four generations of ad-hoc counters (ChaseStats,
// RewriteStats, the fuzzer's oracle tallies, the governor's
// ResourceReport), each with its own merge rules and its own export
// shape. The registry is the one substrate underneath them: engines keep
// their per-run structs as the *run-scoped view* (they stay cheap plain
// fields in the hot loops and keep their determinism guarantees), and
// publish them into the registry under canonical `bddfc.<engine>.<name>`
// keys exactly once per run. Every export path — `bddfc --metrics-out`,
// `bddfc_fuzz --metrics-out`, bench JSON — reads the same snapshot.
//
// Concurrency and cost:
//   * Counter::Add is one relaxed fetch_add on one atomic — safe from any
//     thread, no locks. Publishers add once per run or per request, never
//     per fact, so one word per counter does not contend.
//   * Gauge::Set/Max are single relaxed atomics.
//   * Histogram::Record is a relaxed add on a log2 bucket.
//   * Handle resolution (GetCounter/...) takes a mutex and may allocate;
//     resolve handles once, outside hot loops. Handles stay valid for the
//     registry's lifetime (Reset zeroes values, never frees metrics).
//   * A disabled registry (the default for Global()) makes publication a
//     no-op: callers guard with enabled() so the off path allocates
//     nothing and touches one relaxed atomic.

#ifndef BDDFC_OBS_METRICS_H_
#define BDDFC_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bddfc::obs {

/// Monotone named counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins (Set) or monotone-max (Max) named value.
class Gauge {
 public:
  void Set(uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Max(uint64_t v) {
    uint64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<uint64_t> v_{0};
};

struct HistogramPoint;

/// Log2-bucketed histogram of non-negative samples (bucket i counts
/// samples in (2^(i-1), 2^i], bucket 0 counts zeros and ones). Tracks
/// count and sum so exports can report a mean without bucket math.
class Histogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Record(uint64_t sample);
  /// Adds another histogram's exported state into this one (bucket-wise;
  /// count and sum add). The serve layer folds per-request histograms
  /// into session and server totals with this.
  void MergeFrom(const HistogramPoint& point);
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// One named value in a snapshot.
struct MetricPoint {
  std::string name;
  uint64_t value = 0;
};

/// One named histogram in a snapshot (non-empty buckets only).
struct HistogramPoint {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  /// (bucket index, count) pairs for non-empty buckets, ascending.
  std::vector<std::pair<size_t, uint64_t>> buckets;
};

/// A point-in-time copy of every metric, sorted by name — the one shape
/// all export paths share.
struct MetricsSnapshot {
  std::vector<MetricPoint> counters;
  std::vector<MetricPoint> gauges;
  std::vector<HistogramPoint> histograms;

  /// "name value" lines, counters then gauges then histograms, sorted.
  std::string ToText() const;
  /// {"counters":{...},"gauges":{...},"histograms":{...}} with stable key
  /// order (the JSON the CLI writes for --metrics-out).
  std::string ToJson() const;
};

/// Registry of named metrics. Metric objects live as long as the
/// registry; re-resolving a name returns the same object.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide instance every engine publishes to. Starts
  /// disabled: publication is a guarded no-op until a tool opts in
  /// (--metrics-out) or a test enables it.
  static MetricsRegistry& Global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Adds a snapshot's values into this registry by name: counters and
  /// histograms add, gauges last-write. This is the serve layer's
  /// aggregation primitive — a request-scoped registry is snapshotted
  /// once at request end and folded into the session's cumulative
  /// registry and the server totals, so per-session counters sum to the
  /// server's by construction. Ignores enabled(): aggregation is not a
  /// hot path.
  void MergeFrom(const MetricsSnapshot& snap);

  /// Zeroes every value. Handles stay valid (tests and benchmarks reuse
  /// them across runs).
  void Reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Writes `text` to the file at `path`. On failure names the path on
/// stderr and returns false, so a tool can fail instead of leaving CI a
/// missing artifact behind a zero exit.
bool WriteArtifact(const std::string& path, const std::string& text);

/// Writes a one-shot tool's --trace-out / --metrics-out artifacts:
/// Tracer::Global()'s Chrome JSON and MetricsRegistry::Global()'s
/// snapshot, skipping an empty path. False when any write failed.
bool WriteProcessExports(const std::string& trace_out,
                         const std::string& metrics_out);

}  // namespace bddfc::obs

#endif  // BDDFC_OBS_METRICS_H_
