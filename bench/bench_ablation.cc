// E11 — Ablations of the pipeline's design choices.
//
// (a) Coloring: quotient the Example 7 skeleton with and without the
//     natural coloring and try to certify. Without colors the quotient
//     collapses too much (Example 3's parasite types) and certification
//     fails; with colors it succeeds. Coloring is load-bearing.
// (b) Saturation strategy: the naive reference's full re-enumeration vs
//     the production engine's delta rounds on transitive closure
//     workloads.

#include "bench_common.h"

#include "bddfc/chase/chase.h"
#include "bddfc/chase/skeleton.h"
#include "bddfc/eval/match.h"
#include "bddfc/reductions/reductions.h"
#include "bddfc/types/coloring.h"
#include "bddfc/types/ptype.h"
#include "bddfc/types/quotient.h"
#include "bddfc/workload/paper_examples.h"

namespace {

using namespace bddfc;

/// Runs skeleton→quotient→saturate→certify on Example 7 with or without
/// coloring; returns "certified" / the failure stage.
std::string TryExample7(bool with_coloring, int n, size_t depth) {
  Program p = Example7();
  auto q = std::move(
      ParseQuery("e(X, X)", p.theory.signature_ptr().get())).ValueOrDie();
  auto hidden = HideQuery(p.theory, q);
  auto norm = NormalizeSpade5(std::move(hidden).value().theory);
  ChaseOptions copts;
  copts.max_rounds = depth;
  ChaseResult chase = RunChase(norm.value(), p.instance, copts);
  Skeleton s = SkeletonOf(norm.value(), p.instance, chase);

  const Structure* base = &s.structure;
  Result<Coloring> col = NaturalColoring(s.structure, 3);
  if (with_coloring) base = &col.value().colored;

  TypePartition part = AncestorPathPartition(*base, n);
  Quotient quotient = BuildQuotient(*base, part);
  ChaseOptions sat;
  sat.datalog_only = true;
  sat.max_rounds = 512;
  ChaseResult saturated = RunChase(norm.value(), quotient.structure, sat);
  if (!saturated.status.ok()) return "saturation-budget";
  if (!saturated.structure.ContainsAllFactsOf(p.instance)) return "lost-D";
  if (CheckModel(saturated.structure, p.theory).has_value()) {
    return "not-a-model";
  }
  if (Satisfies(saturated.structure, q)) return "query-holds";
  return "certified";
}

void PrintTable() {
  bddfc_bench::Banner("E11", "ablations: coloring and saturation strategy");
  std::printf("(a) Example 7 quotient certification, chase depth 32:\n");
  std::printf("%-12s %-4s %-16s\n", "coloring", "n", "outcome");
  for (bool colored : {false, true}) {
    for (int n : {2, 3}) {
      std::printf("%-12s %-4d %-16s\n", colored ? "natural" : "none", n,
                  TryExample7(colored, n, 32).c_str());
    }
  }

  std::printf("\n(b) datalog saturation: naive reference vs delta-driven "
              "production chase, transitive closure of a k-path:\n");
  std::printf("%-6s %-12s %-14s %-16s %-16s\n", "k", "closure",
              "naive rounds", "naive bindings", "delta bindings");
  for (int k : {8, 16, 32, 64}) {
    std::string text = "e(X, Y), e(Y, Z) -> e(X, Z).\n";
    for (int i = 0; i < k; ++i) {
      text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
              ").\n";
    }
    Program p = std::move(ParseProgram(text.c_str())).ValueOrDie();
    ChaseOptions naive_opts;
    naive_opts.engine = ChaseEngine::kNaive;
    ChaseResult naive = RunChase(p.theory, p.instance, naive_opts);
    ChaseResult delta = RunChase(p.theory, p.instance);
    std::printf("%-6d %-12zu %-14zu %-16zu %-16zu\n", k,
                delta.structure.NumFacts(), naive.rounds_run,
                naive.stats.match.bindings_tried,
                delta.stats.match.bindings_tried);
  }
}

void BM_NaiveSaturation(benchmark::State& state) {
  std::string text = "e(X, Y), e(Y, Z) -> e(X, Z).\n";
  for (int i = 0; i < state.range(0); ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) + ").\n";
  }
  for (auto _ : state) {
    state.PauseTiming();
    Program p = std::move(ParseProgram(text.c_str())).ValueOrDie();
    state.ResumeTiming();
    ChaseOptions opts;
    opts.engine = ChaseEngine::kNaive;
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    state.counters["bindings_tried"] =
        static_cast<double>(r.stats.match.bindings_tried);
  }
}
BENCHMARK(BM_NaiveSaturation)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

BDDFC_BENCH_MAIN(PrintTable)
