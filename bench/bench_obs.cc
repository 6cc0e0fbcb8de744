// E14 — Observability overhead.
//
// The obs substrate's promise mirrors the governor's (E13): "off by
// default, free when off, cheap when on". Disabled, a TraceSpan is one
// relaxed atomic load and metrics publication is a guarded no-op; enabled,
// spans take a mutex + clock read per round/level/stage (never per fact)
// and a counter is one relaxed add. This experiment measures the
// end-to-end cost on the E1 chase shapes and an E3 rewrite workload, two
// ways per rep, interleaved:
//
//   off — tracer disabled, metrics registry disabled (the default state)
//   on  — tracer enabled with the CLI's 1<<16-slot ring, registry enabled
//
// and reports the median paired thread-CPU delta (the E13 estimator: CPU
// time is robust to preemption, pairing cancels drift). The acceptance
// bar is <= 2% overhead with everything on; the micro-benchmarks below pin
// the disabled path at a few nanoseconds per would-be span. Measured
// numbers are recorded in EXPERIMENTS.md.

#include "bench_common.h"

#include <algorithm>
#include <ctime>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/chase/chase.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"
#include "bddfc/parser/parser.h"
#include "bddfc/rewrite/rewriter.h"
#include "bddfc/workload/generators.h"
#include "bddfc/workload/paper_examples.h"

namespace {

using namespace bddfc;

double ThreadCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

void SetObs(bool on) {
  if (on) {
    obs::Tracer::Global().Enable(size_t{1} << 16);
    obs::Tracer::Global().Reset();
    obs::MetricsRegistry::Global().set_enabled(true);
  } else {
    obs::Tracer::Global().Disable();
    obs::MetricsRegistry::Global().set_enabled(false);
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double MedianPairedDelta(const std::vector<double>& off,
                         const std::vector<double>& on) {
  std::vector<double> deltas(off.size());
  for (size_t i = 0; i < off.size(); ++i) deltas[i] = on[i] - off[i];
  return Median(std::move(deltas));
}

// One rep of each workload kind, instrumented end to end. Each sample
// times `block` back-to-back runs so allocator and scheduler spikes on
// the sub-millisecond workloads average out within a sample instead of
// landing on one side of a pair.

double TimeChaseMs(const Program& p, size_t max_rounds, int block) {
  ChaseOptions opts;
  opts.max_rounds = max_rounds;
  opts.max_facts = 5000000;
  double t0 = ThreadCpuMs();
  for (int i = 0; i < block; ++i) {
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
  }
  return ThreadCpuMs() - t0;
}

double TimeRewriteMs(const Program& p, const ConjunctiveQuery& q, int block) {
  RewriteOptions opts;
  opts.max_depth = 10;
  opts.max_queries = 1200;
  double t0 = ThreadCpuMs();
  for (int i = 0; i < block; ++i) {
    RewriteResult r = RewriteQuery(p.theory, q, opts);
    benchmark::DoNotOptimize(r.rewriting.size());
  }
  return ThreadCpuMs() - t0;
}

void PrintOverheadTable() {
  bddfc_bench::Banner("E14",
                      "observability overhead (obs off vs tracing+metrics)");
  std::printf("%-16s %-12s %-12s %-10s\n", "workload", "off ms", "on ms",
              "overhead");

  const int kReps = 31;

  auto run = [&](const char* name, int block, auto&& sample) {
    std::vector<double> off_ms, on_ms;
    // Warm-up pair first; interleave so frequency scaling, allocator
    // state and co-tenants hit both modes equally (E13 methodology), and
    // alternate the within-pair order (ABBA) so "runs second in its
    // pair" — with whatever cache state the first leg leaves behind —
    // does not systematically land on one mode.
    for (int rep = -1; rep < kReps; ++rep) {
      const bool off_first = (rep & 1) == 0;
      SetObs(!off_first);
      double a = sample();
      SetObs(off_first);
      double b = sample();
      if (rep < 0) continue;
      off_ms.push_back(off_first ? a : b);
      on_ms.push_back(off_first ? b : a);
    }
    SetObs(false);
    double off_med = Median(off_ms);
    double delta = MedianPairedDelta(off_ms, on_ms);
    std::printf("%-16s %-12.3f %-12.3f %+.2f%%\n", name, off_med / block,
                (off_med + delta) / block,
                100.0 * delta / std::max(off_med, 1e-9));
  };

  // E1 chase shapes: Example 9's exponential tree, Example 1's long chain.
  Program e9 = Example9();
  run("e1-example9", 1, [&] { return TimeChaseMs(e9, 12, 1); });
  Program e1 = Example1();
  run("e1-example1", 8, [&] { return TimeChaseMs(e1, 400, 8); });

  // E3 rewrite workload: path query on the successor-with-source theory
  // (saturating, hits the subsumption machinery and per-level spans).
  auto ss = ParseProgram(R"(
    u(X) -> exists Z: e(X, Z).
    e(X, Y) -> u(Y).
  )");
  Program ss_p = std::move(ss).ValueOrDie();
  PredId e_pred = std::move(ss_p.theory.sig().FindPredicate("e")).ValueOrDie();
  ConjunctiveQuery path = PathQuery(e_pred, 4);
  run("e3-path-k4", 64, [&] { return TimeRewriteMs(ss_p, path, 64); });

  std::printf("acceptance bar: <= 2%% overhead with tracing+metrics on\n");
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the per-operation costs behind the table.
// ---------------------------------------------------------------------------

void BM_SpanDisabled(benchmark::State& state) {
  obs::Tracer::Global().Disable();
  for (auto _ : state) {
    obs::TraceSpan span("bench.disabled");
    benchmark::DoNotOptimize(span.id());
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer::Global().Enable(size_t{1} << 16);
  for (auto _ : state) {
    obs::TraceSpan span("bench.enabled");
    benchmark::DoNotOptimize(span.id());
  }
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Reset();
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter c;
  for (auto _ : state) {
    c.Add(1);
  }
  benchmark::DoNotOptimize(c.Value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  uint64_t v = 0;
  for (auto _ : state) {
    h.Record(++v & 1023);
  }
  benchmark::DoNotOptimize(h.Count());
}
BENCHMARK(BM_HistogramRecord);

void BM_DisabledPublicationGuard(benchmark::State& state) {
  // What every engine pays per run when metrics are off: one relaxed load.
  obs::MetricsRegistry::Global().set_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::MetricsRegistry::Global().enabled());
  }
}
BENCHMARK(BM_DisabledPublicationGuard);

void BM_ExportChromeJson(benchmark::State& state) {
  obs::Tracer::Global().Enable(size_t{1} << 12);
  for (int i = 0; i < 4096; ++i) {
    obs::TraceSpan span("bench.fill");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::Tracer::Global().ExportChromeJson().size());
  }
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Reset();
}
BENCHMARK(BM_ExportChromeJson);

}  // namespace

BDDFC_BENCH_MAIN(PrintOverheadTable)
