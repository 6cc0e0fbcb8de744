// E1 — Chase growth |Chase^i(D, T)| per depth, restricted (non-oblivious)
// vs oblivious, on the paper's example theories. Expected shapes: Example 1
// and Example 7 grow linearly (one chain), Example 9 exponentially (binary
// tree); the oblivious chase never reuses witnesses so it dominates the
// restricted one wherever witnesses pre-exist.
//
// Also compares the production engine against the kNaive reference on
// generator workloads (equal outputs, wall-clock speedup) and exports
// ChaseStats counters into the google-benchmark counter set (visible in
// --benchmark_format=json output).

#include "bench_common.h"

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "bddfc/chase/chase.h"
#include "bddfc/workload/generators.h"
#include "bddfc/workload/paper_examples.h"

namespace {

using namespace bddfc;

/// Copies a ChaseResult's execution counters into benchmark counters so
/// they land in the JSON report.
void ExportChaseStats(benchmark::State& state, const ChaseResult& r) {
  state.counters["facts"] = static_cast<double>(r.structure.NumFacts());
  state.counters["rounds"] = static_cast<double>(r.rounds_run);
  state.counters["bindings_tried"] =
      static_cast<double>(r.stats.match.bindings_tried);
  state.counters["postings_hits"] =
      static_cast<double>(r.stats.match.postings_hits);
  state.counters["postings_misses"] =
      static_cast<double>(r.stats.match.postings_misses);
  state.counters["triggers_deduped"] =
      static_cast<double>(r.stats.triggers_deduped);
  state.counters["datalog_deduped"] =
      static_cast<double>(r.stats.datalog_deduped);
  // Governor account: all zero / absent-deadline on ungoverned runs, but
  // exported unconditionally so JSON consumers see a stable counter set.
  state.counters["peak_accounted_bytes"] =
      static_cast<double>(r.report.peak_bytes);
  state.counters["deadline_slack_ms"] =
      std::isfinite(r.report.deadline_slack_ms) ? r.report.deadline_slack_ms
                                                : 0.0;
  state.counters["cancel_checks"] =
      static_cast<double>(r.report.cancel_checks);
}

/// A weakly acyclic generator workload: RandomAcyclicBinaryTheory over a
/// random b0-graph on `nodes` named constants. TC-style datalog rules plus
/// up-pointing TGDs make the naive loop pay a full join every round.
struct GeneratorWorkload {
  SignaturePtr sig;
  Theory theory;
  Structure instance;
};

GeneratorWorkload MakeGeneratorWorkload(int nodes, int edges, uint64_t seed) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, /*preds=*/6, /*tgds=*/8,
                                       /*datalog_rules=*/10, seed);
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  Rng rng(seed * 101 + 7);
  std::vector<TermId> consts;
  consts.reserve(nodes);
  for (int i = 0; i < nodes; ++i) {
    consts.push_back(sig->AddConstant('k' + std::to_string(i)));
  }
  for (int i = 0; i < edges; ++i) {
    d.AddFact(b0, {consts[rng.Uniform(nodes)], consts[rng.Uniform(nodes)]});
  }
  return {std::move(sig), std::move(t), std::move(d)};
}

ChaseResult TimedChase(const GeneratorWorkload& w, ChaseEngine engine,
                       size_t threads, double* ms) {
  ChaseOptions opts;
  opts.max_rounds = 256;
  opts.max_facts = 5000000;
  opts.engine = engine;
  opts.threads = threads;
  auto t0 = std::chrono::steady_clock::now();
  ChaseResult r = RunChase(w.theory, w.instance, opts);
  *ms = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  return r;
}

void PrintEngineComparison() {
  bddfc_bench::Banner(
      "E1b", "production engine (one thread) vs naive reference "
             "(generator workloads)");
  std::printf("%-8s %-8s %-8s %-8s %-12s %-12s %-10s %-18s %-6s\n", "nodes",
              "edges", "facts", "rounds", "naive ms", "prod ms", "speedup",
              "bindings n/p", "equal");
  const int sizes[][2] = {{50, 150}, {100, 300}, {200, 600}, {400, 1200}};
  for (auto [nodes, edges] : sizes) {
    GeneratorWorkload w = MakeGeneratorWorkload(nodes, edges, /*seed=*/42);
    double naive_ms = 0, prod_ms = 0;
    ChaseResult naive = TimedChase(w, ChaseEngine::kNaive, 1, &naive_ms);
    ChaseResult prod = TimedChase(w, ChaseEngine::kParallel, 1, &prod_ms);
    const bool equal = naive.structure.NumFacts() ==
                           prod.structure.NumFacts() &&
                       naive.facts_per_round == prod.facts_per_round &&
                       naive.nulls_created == prod.nulls_created &&
                       naive.fixpoint_reached == prod.fixpoint_reached;
    std::printf("%-8d %-8d %-8zu %-8zu %-12.2f %-12.2f %-10.2f %9zu/%-8zu %-6s\n",
                nodes, edges, prod.structure.NumFacts(), prod.rounds_run,
                naive_ms, prod_ms, naive_ms / std::max(prod_ms, 1e-9),
                naive.stats.match.bindings_tried,
                prod.stats.match.bindings_tried, equal ? "yes" : "NO");
  }
}

void PrintTable() {
  bddfc_bench::Banner("E1", "chase growth per depth (facts)");
  struct Row {
    const char* name;
    Program program;
  };
  // cyclic-db: witnesses pre-exist, so the restricted chase stops at once
  // while the blind chase keeps inventing (the defining difference).
  Result<Program> cyclic = ParseProgram(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b). e(b, a).
  )");
  Row rows[] = {{"example1", Example1()},
                {"example7", Example7()},
                {"example9", Example9()},
                {"section5.5", Section55()},
                {"cyclic-db", std::move(cyclic).ValueOrDie()}};
  std::printf("%-12s %-10s", "theory", "mode");
  for (int d = 2; d <= 10; d += 2) std::printf(" d=%-6d", d);
  std::printf("\n");
  for (Row& row : rows) {
    for (bool oblivious : {false, true}) {
      std::printf("%-12s %-10s", row.name,
                  oblivious ? "oblivious" : "restricted");
      for (int d = 2; d <= 10; d += 2) {
        ChaseOptions opts;
        opts.max_rounds = static_cast<size_t>(d);
        opts.max_facts = 1000000;
        opts.oblivious = oblivious;
        ChaseResult r = RunChase(row.program.theory, row.program.instance,
                                 opts);
        std::printf(" %-8zu", r.structure.NumFacts());
      }
      std::printf("\n");
    }
  }
}

void BM_RestrictedChase(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Program p = Example9();
    state.ResumeTiming();
    ChaseOptions opts;
    opts.max_rounds = static_cast<size_t>(state.range(0));
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_RestrictedChase)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_DeltaChaseGenerator(benchmark::State& state) {
  GeneratorWorkload w =
      MakeGeneratorWorkload(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 3, 42);
  ChaseOptions opts;
  opts.max_rounds = 256;
  opts.max_facts = 5000000;
  for (auto _ : state) {
    ChaseResult r = RunChase(w.theory, w.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_DeltaChaseGenerator)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_NaiveChaseGenerator(benchmark::State& state) {
  GeneratorWorkload w =
      MakeGeneratorWorkload(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 3, 42);
  ChaseOptions opts;
  opts.max_rounds = 256;
  opts.max_facts = 5000000;
  opts.engine = ChaseEngine::kNaive;
  for (auto _ : state) {
    ChaseResult r = RunChase(w.theory, w.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_NaiveChaseGenerator)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_ParallelChaseGenerator(benchmark::State& state) {
  GeneratorWorkload w =
      MakeGeneratorWorkload(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 3, 42);
  ChaseOptions opts;
  opts.max_rounds = 256;
  opts.max_facts = 5000000;
  opts.engine = ChaseEngine::kParallel;
  opts.threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    ChaseResult r = RunChase(w.theory, w.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_ParallelChaseGenerator)
    ->Args({200, 1})
    ->Args({200, 2})
    ->Args({200, 4})
    ->Args({200, 8});

void BM_ObliviousChase(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Program p = Example9();
    state.ResumeTiming();
    ChaseOptions opts;
    opts.max_rounds = static_cast<size_t>(state.range(0));
    opts.oblivious = true;
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_ObliviousChase)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_DatalogSaturation(benchmark::State& state) {
  // Transitive closure of a path: the classic datalog saturation load.
  for (auto _ : state) {
    state.PauseTiming();
    auto parsed = ParseProgram("e(X, Y), e(Y, Z) -> e(X, Z).");
    Program& p = parsed.value();
    TermId prev = p.theory.mutable_sig().AddConstant("c0");
    PredId e = std::move(p.theory.sig().FindPredicate("e")).ValueOrDie();
    for (int i = 1; i <= state.range(0); ++i) {
      TermId next = p.theory.mutable_sig().AddConstant(
          'c' + std::to_string(i));
      p.instance.AddFact(e, {prev, next});
      prev = next;
    }
    state.ResumeTiming();
    ChaseResult r = RunChase(p.theory, p.instance);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_DatalogSaturation)->Arg(16)->Arg(32)->Arg(64);

void PrintAllTables() {
  PrintTable();
  PrintEngineComparison();
}

}  // namespace

BDDFC_BENCH_MAIN(PrintAllTables)
