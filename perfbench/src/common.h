// Shared pieces of the repository benchmark: options, timing, statistics,
// the metric report, output digests and the trace-span summary.
//
// The benchmark measures the library from outside: it times calls into
// public entry points and reads only what the library already exposes
// (ChaseStats, FiniteModelResult, MetricsRegistry counters and the Chrome
// trace export of the existing spans).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bddfc/core/structure.h"
#include "bddfc/obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: print the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Self-test sizes (--scale=tiny): every workload shrinks to well under a
  /// second so the self-test can exercise all of them.
  bool tiny = false;
  /// Self-test of the output checks: drop one fact before every digest
  /// taken after the reference, so each checked job must fail.
  bool drop_fact = false;
  /// Print the generated inputs and exit (self-test of seed determinism).
  bool dump_inputs = false;
  /// Run one job in a fresh process and exit: peak_rss_mb measures this.
  bool memory_probe = false;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double Median(std::vector<double> v);

/// Nearest-rank quantile of `v` for q in [0, 1]; 0 if empty.
double Quantile(std::vector<double> v, double q);

/// Peak resident set size of this process, KiB (what --memory-probe prints).
double PeakRssOfThisProcessKib();
/// Current resident set size of this process, bytes.
double CurrentRssBytes();

/// FNV-1a over the structure's facts rendered with signature names and
/// sorted, so equal digests mean equal fact sets under equal naming.
/// `drop_one` leaves out the smallest rendered fact.
uint64_t FactDigest(const bddfc::Structure& s, bool drop_one);

/// Totals per span name of one Chrome trace export. Time sums only the
/// outermost span of each name (a span nested in a span of the same name
/// is not counted again); the count includes every span.
struct SpanTotals {
  std::map<std::string, double> ms;
  std::map<std::string, size_t> count;
  double Ms(const std::string& name) const;
  size_t Count(const std::string& name) const;
};
SpanTotals SummarizeTrace(const std::string& chrome_json);

/// The named counter of a metrics snapshot; 0 when absent.
double CounterValue(const bddfc::obs::MetricsSnapshot& snap,
                    const std::string& name);

/// Collects the run's metrics and outcome and prints them: one
/// human-readable line per metric, then the result as one JSON line.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
  };
  /// The metrics the run must print, in order (end-to-end or per-layer).
  Report(std::vector<Metric> expected, bool fill_missing_with_zero);

  /// Sets a metric; `samples` is printed with it when nonzero.
  void Set(const std::string& name, double value, size_t samples = 0);
  /// Sets a metric to the median of `samples` and notes every sample.
  void SetMedian(const std::string& name, const std::vector<double>& samples);
  /// Counts one checked operation.
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  uint64_t failed() const { return failed_; }
  /// Records a failed set-up check; it counts as one failed operation.
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Prints the report. False when an expected metric was never set
  /// although set-up succeeded (after a failed set-up they print as 0).
  bool Print() const;

 private:
  struct Value {
    double value = 0;
    size_t samples = 0;
  };
  std::vector<Metric> expected_;
  bool fill_missing_with_zero_;
  std::map<std::string, Value> values_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool setup_ok_ = true;
};

/// Sets peak_rss_mb to the peak resident set size, MiB, of a fresh process
/// running one job of the workload (this binary with --memory-probe): what
/// a user's process of that job holds, free of the allocator state the
/// timed loop leaves. A probe that fails fails the run.
void MeasurePeakRss(const Options& o, Report& report);

/// The metric lists of BENCHMARK.json, in its order.
const std::vector<Report::Metric>& EndToEndMetrics();
const std::vector<Report::Metric>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
