// E2 — CQ evaluation throughput of the index-backed backtracking matcher:
// random graphs of growing size, path/star/cycle queries of growing width.
// Expected shape: boolean satisfaction stays fast (first-match exit);
// match counting grows with the number of embeddings; cycle queries are
// the most selective.
//
// E16 — interpreter vs compiled-plan evaluation on the same workloads:
// full enumeration through the interpretive Matcher (CountMatches) and the
// vectorized plan executor (block rows summed), equal counts required,
// with the per-query timings exported as BENCH_eval.json (the CQ-eval perf
// trajectory CI archives).

#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "bddfc/eval/exec.h"
#include "bddfc/eval/match.h"
#include "bddfc/workload/generators.h"

namespace {

using namespace bddfc;

void PrintTable() {
  bddfc_bench::Banner("E2", "CQ evaluation on random graphs");
  std::printf("%-8s %-8s %-7s %-9s %-12s\n", "nodes", "edges", "query",
              "decide", "matches");
  for (int nodes : {100, 1000, 10000}) {
    auto sig = std::make_shared<Signature>();
    Structure g = RandomGraph(sig, nodes, nodes * 4, /*seed=*/7);
    PredId e = std::move(sig->FindPredicate("e0")).ValueOrDie();
    Matcher m(g);
    struct Q {
      const char* name;
      ConjunctiveQuery q;
    } queries[] = {{"path3", PathQuery(e, 3)},
                   {"star3", StarQuery(e, 3)},
                   {"cycle3", CycleQuery(e, 3)}};
    for (auto& [name, q] : queries) {
      bool sat = Satisfies(g, q);
      size_t count = nodes <= 1000 ? m.CountMatches(q.atoms) : 0;
      std::printf("%-8d %-8d %-7s %-9s %-12s\n", nodes, nodes * 4, name,
                  sat ? "true" : "false",
                  nodes <= 1000 ? std::to_string(count).c_str() : "(skipped)");
    }
  }
}

/// Plan matches of `atoms` over `g`: compiles the plan and sums the rows of
/// every block the executor hands over.
size_t PlanMatches(const Structure& g, const std::vector<Atom>& atoms) {
  size_t n = 0;
  ExecutePlan(g, CompilePlan(g, atoms), nullptr, {},
              [&n](const SlotBlock& blk) {
                n += blk.num_rows;
                return true;
              });
  return n;
}

/// One measured query of E16, also a row of BENCH_eval.json.
struct EvalRow {
  int nodes;
  int edges;
  const char* query;
  size_t matches;
  double interp_ms;
  double plan_ms;
  bool equal;
};

/// Best-of-three wall time of `fn` in milliseconds.
template <typename Fn>
double TimeMs(const Fn& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

/// Writes the CQ-eval perf-trajectory artifact. Defaults to
/// BENCH_eval.json in the working directory; override with
/// BDDFC_BENCH_EVAL_JSON.
void WriteEvalJson(const std::vector<EvalRow>& rows) {
  const char* path = std::getenv("BDDFC_BENCH_EVAL_JSON");
  if (path == nullptr) path = "BENCH_eval.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "E16: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"eval\",\n  \"experiment\": \"E16\",\n");
  std::fprintf(f, "  \"workload\": \"RandomGraph seed=7, edges=4n\",\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const EvalRow& r = rows[i];
    std::fprintf(f,
                 "    {\"nodes\": %d, \"edges\": %d, \"query\": \"%s\", "
                 "\"matches\": %zu, \"interp_ms\": %.3f, \"plan_ms\": %.3f, "
                 "\"speedup\": %.2f, \"equal\": %s}%s\n",
                 r.nodes, r.edges, r.query, r.matches, r.interp_ms,
                 r.plan_ms, r.interp_ms / std::max(r.plan_ms, 1e-9),
                 r.equal ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path, rows.size());
}

void PrintBackendComparison() {
  bddfc_bench::Banner(
      "E16", "interpretive matcher vs compiled-plan executor (full "
             "enumeration, equal counts required)");
  std::printf("%-8s %-8s %-7s %-10s %-10s %-9s %-8s %-6s\n", "nodes",
              "edges", "query", "matches", "interp ms", "plan ms",
              "speedup", "equal");
  std::vector<EvalRow> rows;
  for (int nodes : {300, 1000, 3000}) {
    auto sig = std::make_shared<Signature>();
    Structure g = RandomGraph(sig, nodes, nodes * 4, /*seed=*/7);
    // Sorted columnar indexes as the chase would have them at a round
    // boundary; the executor falls back to hash postings without this.
    g.RefreshIndexes();
    PredId e = std::move(sig->FindPredicate("e0")).ValueOrDie();
    struct Q {
      const char* name;
      ConjunctiveQuery q;
    } queries[] = {{"path2", PathQuery(e, 2)},
                   {"path3", PathQuery(e, 3)},
                   {"star3", StarQuery(e, 3)},
                   {"cycle3", CycleQuery(e, 3)},
                   {"cycle4", CycleQuery(e, 4)}};
    for (auto& [name, q] : queries) {
      Matcher m(g);
      size_t interp_count = 0;
      const double interp_ms =
          TimeMs([&] { interp_count = m.CountMatches(q.atoms); });
      size_t plan_count = 0;
      const double plan_ms =
          TimeMs([&] { plan_count = PlanMatches(g, q.atoms); });
      rows.push_back({nodes, nodes * 4, name, interp_count, interp_ms,
                      plan_ms, interp_count == plan_count});
      std::printf("%-8d %-8d %-7s %-10zu %-10.2f %-9.2f %-8.2f %-6s\n",
                  nodes, nodes * 4, name, interp_count, interp_ms, plan_ms,
                  interp_ms / std::max(plan_ms, 1e-9),
                  interp_count == plan_count ? "yes" : "NO");
    }
  }
  WriteEvalJson(rows);
}

void PrintAllTables() {
  PrintTable();
  PrintBackendComparison();
}

void BM_Decide(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  Structure g = RandomGraph(sig, static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 4, 7);
  PredId e = std::move(sig->FindPredicate("e0")).ValueOrDie();
  ConjunctiveQuery q = PathQuery(e, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Satisfies(g, q));
  }
}
BENCHMARK(BM_Decide)
    ->Args({1000, 2})
    ->Args({1000, 4})
    ->Args({10000, 2})
    ->Args({10000, 4});

void BM_CountMatches(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  Structure g = RandomGraph(sig, static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 4, 7);
  PredId e = std::move(sig->FindPredicate("e0")).ValueOrDie();
  Matcher m(g);
  ConjunctiveQuery q = PathQuery(e, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.CountMatches(q.atoms));
  }
}
BENCHMARK(BM_CountMatches)->Arg(100)->Arg(300)->Arg(1000);

void BM_CycleDetection(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  Structure g = RandomGraph(sig, 1000, 4000, 7);
  PredId e = std::move(sig->FindPredicate("e0")).ValueOrDie();
  ConjunctiveQuery q = CycleQuery(e, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Satisfies(g, q));
  }
}
BENCHMARK(BM_CycleDetection)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_PlanMatches(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  Structure g = RandomGraph(sig, static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 4, 7);
  g.RefreshIndexes();
  PredId e = std::move(sig->FindPredicate("e0")).ValueOrDie();
  ConjunctiveQuery q = PathQuery(e, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlanMatches(g, q.atoms));
  }
}
BENCHMARK(BM_PlanMatches)->Arg(100)->Arg(300)->Arg(1000);

}  // namespace

BDDFC_BENCH_MAIN(PrintAllTables)
