// E7 — End-to-end Theorem 2 pipeline: certified counter-model size,
// attempts, chase depth and wall time versus the database size, on the
// Example 7 theory with D a path of named constants. Expected shape: model
// size grows linearly with |D| plus a constant-size cycle tail (hue
// period), and the pipeline certifies at the first depth whose prefix wraps
// the hue period.

#include <chrono>

#include "bench_common.h"

#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/workload/paper_examples.h"

namespace {

using namespace bddfc;

Program Example7WithPath(int path_len) {
  std::string text = R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(X, Y), e(X1, Y) -> r(X, X1).
  )";
  for (int i = 0; i < path_len; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) + ").\n";
  }
  return std::move(ParseProgram(text.c_str())).ValueOrDie();
}

void PrintTable() {
  bddfc_bench::Banner("E7", "Theorem 2 pipeline vs |D| (Example 7 theory)");
  std::printf("%-6s %-12s %-10s %-10s %-8s %-8s %-10s\n", "|D|",
              "model size", "attempts", "depth", "n", "status", "wall ms");
  for (int d : {1, 2, 4, 8, 16, 64, 256, 512, 1024}) {
    Program p = Example7WithPath(d);
    ConjunctiveQuery q =
        std::move(ParseQuery("e(X, X)", p.theory.signature_ptr().get()))
            .ValueOrDie();
    PipelineOptions opts;
    opts.max_chase_depth = 64;
    auto t0 = std::chrono::steady_clock::now();
    FiniteModelResult r =
        ConstructFiniteCounterModel(p.theory, p.instance, q, opts);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    std::printf("%-6d %-12s %-10zu %-10zu %-8d %-8s %-10.1f\n", d,
                r.status.ok()
                    ? std::to_string(r.model.Domain().size()).c_str()
                    : "-",
                r.attempts.size(), r.chase_depth_used, r.n_used,
                r.status.ok() ? "ok" : StatusCodeName(r.status.code()), ms);
  }
}

void BM_PipelineExample7(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Program p = Example7WithPath(static_cast<int>(state.range(0)));
    ConjunctiveQuery q =
        std::move(ParseQuery("e(X, X)", p.theory.signature_ptr().get()))
            .ValueOrDie();
    state.ResumeTiming();
    PipelineOptions opts;
    opts.max_chase_depth = 64;
    FiniteModelResult r =
        ConstructFiniteCounterModel(p.theory, p.instance, q, opts);
    benchmark::DoNotOptimize(r.status.ok());
  }
}
BENCHMARK(BM_PipelineExample7)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineSuccessor(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Program p = std::move(ParseProgram(R"(
      e(X, Y) -> exists Z: e(Y, Z).
      e(a, b).
    )")).ValueOrDie();
    ConjunctiveQuery q =
        std::move(ParseQuery("e(X, X)", p.theory.signature_ptr().get()))
            .ValueOrDie();
    state.ResumeTiming();
    FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
    benchmark::DoNotOptimize(r.status.ok());
  }
}
BENCHMARK(BM_PipelineSuccessor)->Unit(benchmark::kMillisecond);

}  // namespace

BDDFC_BENCH_MAIN(PrintTable)
