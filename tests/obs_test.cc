// Tests for the observability substrate (obs/metrics.h, obs/trace.h) and
// its integration points: the metrics registry's sharded counters and
// snapshot determinism, the tracer's ring/export repair contract, span
// nesting across ParallelFor, and the engines' canonical
// `bddfc.<engine>.<name>` publication.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/parallel.h"
#include "bddfc/chase/chase.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"
#include "bddfc/parser/parser.h"

namespace bddfc {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Tracer;
using obs::TraceSpan;

// Every test leaves the global tracer/registry the way it found them
// (disabled, empty) so test order cannot matter.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Reset();
    MetricsRegistry::Global().set_enabled(false);
    MetricsRegistry::Global().Reset();
  }
};

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CounterSumsAcrossThreads) {
  obs::Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), 8000u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST_F(ObsTest, GaugeSetAndMax) {
  obs::Gauge g;
  g.Set(7);
  EXPECT_EQ(g.Value(), 7u);
  g.Max(3);  // no-op: smaller
  EXPECT_EQ(g.Value(), 7u);
  g.Max(12);
  EXPECT_EQ(g.Value(), 12u);
}

TEST_F(ObsTest, HistogramBucketsByLog2) {
  // Bucket i counts samples in (2^(i-1), 2^i]; bucket 0 counts 0 and 1.
  obs::Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);    // (1,2]   -> bucket 1
  h.Record(3);    // (2,4]   -> bucket 2
  h.Record(100);  // (64,128] -> bucket 7
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 106u);
  EXPECT_EQ(h.BucketCount(0), 2u);  // 0 and 1
  EXPECT_EQ(h.BucketCount(1), 1u);  // 2
  EXPECT_EQ(h.BucketCount(2), 1u);  // 3
  EXPECT_EQ(h.BucketCount(7), 1u);  // 100
}

TEST_F(ObsTest, RegistryHandlesAreStableAndSnapshotIsSorted) {
  MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("zzz.last");
  obs::Counter* b = reg.GetCounter("aaa.first");
  EXPECT_EQ(reg.GetCounter("zzz.last"), a);  // same handle on re-resolve
  a->Add(2);
  b->Add(1);
  reg.GetGauge("mid.gauge")->Set(5);
  reg.GetHistogram("mid.hist")->Record(9);

  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "aaa.first");  // sorted by name
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "zzz.last");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);

  // Two snapshots of an unchanged registry export identically.
  EXPECT_EQ(snap.ToText(), reg.Snapshot().ToText());
  EXPECT_EQ(snap.ToJson(), reg.Snapshot().ToJson());

  // Reset zeroes values but keeps handles valid.
  reg.Reset();
  EXPECT_EQ(a->Value(), 0u);
  a->Add(3);
  EXPECT_EQ(reg.Snapshot().counters[1].value, 3u);
}

TEST_F(ObsTest, ExportsAreWellShaped) {
  MetricsRegistry reg;
  reg.GetCounter("c.one")->Add(4);
  reg.GetGauge("g.one")->Set(2);
  reg.GetHistogram("h.one")->Record(5);
  std::string text = reg.Snapshot().ToText();
  EXPECT_NE(text.find("c.one 4"), std::string::npos);
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\":{\"c.one\":4}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"g.one\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"h.one\""), std::string::npos);
}

TEST_F(ObsTest, MergeFromAddsCountersAndHistogramsGaugesLastWrite) {
  // The serving layer's aggregation primitive: request registries fold
  // into session and server registries via MergeFrom, so its semantics
  // (counters/histograms add, gauges overwrite, enabled() ignored) are
  // load-bearing for the session-sums == server-totals invariant.
  MetricsRegistry req;
  req.GetCounter("c")->Add(3);
  req.GetGauge("g")->Set(5);
  req.GetHistogram("h")->Record(2);
  req.GetHistogram("h")->Record(100);
  const MetricsSnapshot snap = req.Snapshot();

  MetricsRegistry total;  // deliberately left disabled: MergeFrom ignores it
  ASSERT_FALSE(total.enabled());
  total.MergeFrom(snap);
  total.MergeFrom(snap);

  EXPECT_EQ(total.GetCounter("c")->Value(), 6u);
  EXPECT_EQ(total.GetGauge("g")->Value(), 5u);
  bool found = false;
  for (const auto& h : total.Snapshot().histograms) {
    if (h.name != "h") continue;
    found = true;
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.sum, 204u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, DisabledGlobalRegistryIsANoOpForPublishers) {
  // Engines guard publication with enabled(); the default Global() state
  // must be disabled so un-instrumented runs never pay for metrics.
  EXPECT_FALSE(MetricsRegistry::Global().enabled());
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledTracerRecordsNothingAndSpansAreIdZero) {
  ASSERT_FALSE(Tracer::Global().enabled());
  {
    TraceSpan span("never.recorded");
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(Tracer::CurrentSpanId(), 0u);
  }
  Tracer::Global().Enable(64);
  std::string json = Tracer::Global().ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST_F(ObsTest, NestedSpansExportBalancedWithParentIds) {
  Tracer::Global().Enable(1 << 10);
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    TraceSpan outer("outer");
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(Tracer::CurrentSpanId(), outer_id);
    {
      TraceSpan inner("inner");
      inner_id = inner.id();
      inner.set_detail("round 3");
      EXPECT_EQ(Tracer::CurrentSpanId(), inner_id);
    }
    EXPECT_EQ(Tracer::CurrentSpanId(), outer_id);
  }
  EXPECT_EQ(Tracer::CurrentSpanId(), 0u);

  std::string json = Tracer::Global().ExportChromeJson();
  // Both spans appear, the inner one parented to the outer, the detail on
  // its 'E' event, and B/E balance (checked structurally by trace_check;
  // here just the substrings).
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":" + std::to_string(outer_id)),
            std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"round 3\""), std::string::npos);
  size_t b_count = 0, e_count = 0;
  for (size_t p = 0; (p = json.find("\"ph\":\"B\"", p)) != std::string::npos;
       ++p) {
    ++b_count;
  }
  for (size_t p = 0; (p = json.find("\"ph\":\"E\"", p)) != std::string::npos;
       ++p) {
    ++e_count;
  }
  EXPECT_EQ(b_count, 2u);
  EXPECT_EQ(e_count, 2u);
}

TEST_F(ObsTest, OpenSpansGetSyntheticEndsInTheExport) {
  Tracer::Global().Enable(1 << 10);
  TraceSpan still_open("unfinished");
  std::string json = Tracer::Global().ExportChromeJson();
  size_t b = json.find("\"ph\":\"B\"");
  size_t e = json.find("\"ph\":\"E\"");
  EXPECT_NE(b, std::string::npos);
  EXPECT_NE(e, std::string::npos);  // synthesized: the span is still open
}

TEST_F(ObsTest, RingOverflowDropsOrphansButStaysBalanced) {
  // Capacity clamps to 64; record far more spans than fit so the ring
  // wraps many times. The export must repair the wrap damage: no 'E'
  // without its 'B', per-tid monotone timestamps.
  Tracer::Global().Enable(64);
  for (int i = 0; i < 500; ++i) {
    TraceSpan span("wrapped");
    span.set_detail(std::to_string(i));
  }
  EXPECT_GT(Tracer::Global().overwritten_events(), 0u);
  std::string json = Tracer::Global().ExportChromeJson();
  size_t b_count = 0, e_count = 0;
  for (size_t p = 0; (p = json.find("\"ph\":\"B\"", p)) != std::string::npos;
       ++p) {
    ++b_count;
  }
  for (size_t p = 0; (p = json.find("\"ph\":\"E\"", p)) != std::string::npos;
       ++p) {
    ++e_count;
  }
  EXPECT_EQ(b_count, e_count);
  EXPECT_GT(b_count, 0u);
}

TEST_F(ObsTest, ParallelForTasksParentUnderTheCallingSpan) {
  Tracer::Global().Enable(1 << 10);
  uint64_t caller_id = 0;
  {
    TraceSpan fan_out("fan.out");
    caller_id = fan_out.id();
    std::atomic<int> ran{0};
    EXPECT_TRUE(ParallelFor(8, 4, [&ran](size_t, size_t) {
                  ++ran;
                  return Status::OK();
                }).ok());
    EXPECT_EQ(ran.load(), 8);
  }
  // Every pool.task span must carry the calling span as its parent, also
  // when it ran (and recorded) on one of the fan-out's own threads.
  std::string json = Tracer::Global().ExportChromeJson();
  size_t tasks = 0;
  const std::string want =
      "\"name\":\"pool.task\",\"cat\":\"bddfc\",\"ph\":\"B\"";
  const std::string parent_field = "\"parent\":" + std::to_string(caller_id);
  for (size_t p = 0; (p = json.find(want, p)) != std::string::npos; ++p) {
    size_t parent = json.find("\"parent\":", p);
    ASSERT_NE(parent, std::string::npos);
    EXPECT_EQ(json.compare(parent, parent_field.size(), parent_field), 0)
        << json.substr(p, 160);
    ++tasks;
  }
  EXPECT_EQ(tasks, 8u);
}

TEST_F(ObsTest, NestedSpansWithoutATracerRecordToTheirParentsRing) {
  // A span opened without a tracer follows the innermost open span's
  // tracer — on its own thread and, through ParallelFor, on the fan-out's
  // threads — and falls back to Global() only at top level.
  Tracer::Global().Enable(1 << 10);
  Tracer session;
  session.Enable(1 << 10);
  {
    TraceSpan outer(&session, "session.outer");
    EXPECT_EQ(Tracer::CurrentTracer(), &session);
    TraceSpan inner("nested.inner");
    EXPECT_TRUE(ParallelFor(2, 2, [](size_t, size_t) {
                  TraceSpan in_task("nested.task");
                  return Status::OK();
                }).ok());
  }
  EXPECT_EQ(Tracer::CurrentTracer(), nullptr);
  { TraceSpan top("top.level"); }

  const std::string in_session = session.ExportChromeJson();
  const std::string in_global = Tracer::Global().ExportChromeJson();
  for (const char* name : {"nested.inner", "pool.task", "nested.task"}) {
    const std::string needle = "\"name\":\"" + std::string(name) + "\"";
    EXPECT_NE(in_session.find(needle), std::string::npos) << name;
    EXPECT_EQ(in_global.find(needle), std::string::npos) << name;
  }
  EXPECT_NE(in_global.find("\"name\":\"top.level\""), std::string::npos);
  EXPECT_EQ(in_session.find("\"name\":\"top.level\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration: canonical publication and stage spans.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ChasePublishesCanonicalMetrics) {
  MetricsRegistry::Global().set_enabled(true);
  auto parsed = ParseProgram(
      "e(X, Y) -> exists Z: e(Y, Z).\n"
      "e(a, b).\n");
  ASSERT_TRUE(parsed.ok());
  ChaseOptions opts;
  opts.max_rounds = 3;
  (void)RunChase(parsed.value().theory, parsed.value().instance, opts);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const obs::MetricPoint& p : snap.counters) {
      if (p.name == name) return p.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("bddfc.chase.runs"), 1u);
  EXPECT_GT(counter("bddfc.chase.rounds"), 0u);
  EXPECT_GT(counter("bddfc.chase.bindings_tried"), 0u);
}

TEST_F(ObsTest, PhaseScopeSpanCarriesTheTracerId) {
  Tracer::Global().Enable(1 << 10);
  ExecutionContext ctx;
  {
    PhaseScope scope(&ctx, "stage");
    EXPECT_NE(scope.span_id(), 0u);
    EXPECT_EQ(Tracer::CurrentSpanId(), scope.span_id());
  }
  std::string json = Tracer::Global().ExportChromeJson();
  EXPECT_NE(json.find("\"name\":\"stage\""), std::string::npos);
  // The default close note lands as the span detail.
  EXPECT_NE(json.find("\"detail\":\"done\""), std::string::npos);
}

}  // namespace
}  // namespace bddfc
