// bddfc command-line tool.
//
// Usage:
//   bddfc chase    <program.dlg> [max_rounds] [--chase-engine=parallel|naive]
//                  [--threads N]
//   bddfc rewrite  <program.dlg> [--threads N] [--no-prune]
//   bddfc classify <program.dlg> [--threads N] [--no-prune]
//   bddfc model    <program.dlg>            (Theorem 2 counter-model per query)
//   bddfc search   <program.dlg> [extra]    (brute-force counter-model)
//
// chase runs the production engine (--chase-engine=parallel, the default)
// on --threads N workers (default 1; 0 = hardware concurrency) with
// byte-identical output at any N, or the independent reference
// (--chase-engine=naive: interpretive matcher, hash sink, full
// re-enumeration; same output, slower). rewrite rewrites each ?- query and
// prints the per-level RewriteStats; classify prints class membership +
// the BDD probe. --threads N fans the independent rewritings of the BDD
// probe over N workers (the output is identical for any N); --no-prune
// disables homomorphic-subsumption pruning (for A/B comparison).
//
// Flags are strict (base/flags.h): a bad flag or value, a second positional
// argument or a non-numeric one is a usage error (exit 2), never a
// silently different run. Valued flags take --name=V or --name V.
//
// Resource governance (all commands): --deadline-ms N bounds wall-clock
// time, --mem-budget-mb N bounds accounted memory, and SIGINT (Ctrl-C)
// or SIGTERM requests cooperative cancellation. On any of the three the
// command stops at the next round/level/frontier boundary, prints the
// best partial result plus the resource report, and exits with code 3.
//
// Robustness (chase/model): --paranoia=off|cheap|full promotes the
// chase's test-only invariants to runtime checks (DESIGN.md §2.14);
// a violation is retried by the supervisor on the reference engine
// before surfacing as an error.
//
// Observability (all commands, off by default — see obs/):
//   --trace-out=FILE    record stage/round/level spans and write Chrome
//                       trace_event JSON (chrome://tracing, Perfetto)
//   --metrics-out=FILE  enable the metrics registry and write the final
//                       snapshot as JSON
//
// Exit codes:
//   0  success (chase/rewrite/classify completed; counter-model found)
//   1  negative semantic outcome (query certainly true, no model found,
//      no counter-model within the explicit count budgets)
//   2  usage or parse error
//   3  resource exhausted (deadline / memory budget / cancelled / count
//      cap) — a partial result and the resource report were printed
//
// The program file uses the Datalog± syntax of parser/parser.h: facts,
// rules (with optional 'exists V:' clauses) and '?-' queries.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bddfc/base/flags.h"
#include "bddfc/base/governor.h"
#include "bddfc/chase/chase.h"
#include "bddfc/chase/supervisor.h"
#include "bddfc/classes/recognizers.h"
#include "bddfc/eval/match.h"
#include "bddfc/finitemodel/model_search.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"
#include "bddfc/parser/parser.h"
#include "bddfc/rewrite/rewriter.h"

namespace {

using namespace bddfc;

// Exit codes of the documented contract (see the header comment).
enum ExitCode {
  kExitOk = 0,
  kExitNegative = 1,
  kExitUsage = 2,
  kExitExhausted = 3,
};

int Usage() {
  std::fprintf(stderr,
               "usage: bddfc <chase|rewrite|classify|model|search> "
               "<program.dlg> [arg] [--threads N] [--no-prune]\n"
               "             [--chase-engine=parallel|naive]\n"
               "             [--deadline-ms N] [--mem-budget-mb N]\n"
               "             [--paranoia=off|cheap|full]\n"
               "             [--trace-out=FILE] [--metrics-out=FILE]\n"
               "exit codes: 0 ok, 1 negative outcome, 2 usage/parse error, "
               "3 resource exhausted\n");
  return kExitUsage;
}

// SIGINT and SIGTERM flip the shared CancelToken; every engine drains at
// its next cooperative check and the command prints its partial result
// (and exits 3, like any other governed trip). A second delivery of the
// same signal kills the process the default way.
CancelToken* g_cancel = nullptr;

extern "C" void OnSignal(int sig) {
  if (g_cancel != nullptr) g_cancel->Cancel();
  std::signal(sig, SIG_DFL);
}

Result<Program> Load(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open '" + std::string(path) + "'");
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return ParseProgram(buf.str());
}

void PrintReport(const ResourceReport& report) {
  std::printf("resource report: %s\n", report.ToString().c_str());
}

/// Exit code for a finished command: governed/count trips map to 3, other
/// errors to 1, OK to `ok_code`.
int ExitFor(const Status& status, int ok_code = kExitOk) {
  if (status.ok()) return ok_code;
  return status.code() == StatusCode::kResourceExhausted ? kExitExhausted
                                                         : kExitNegative;
}

int CmdChase(Program& p, size_t max_rounds, ChaseEngine engine,
             size_t threads, ParanoiaLevel paranoia, ExecutionContext* ctx) {
  ChaseOptions opts;
  opts.max_rounds = max_rounds;
  opts.engine = engine;
  opts.threads = threads;
  opts.paranoia = paranoia;
  // Supervised: a paranoia trip (or injected fault, under a test harness)
  // is retried on the reference engine before surfacing as an error.
  SupervisorOptions sup;
  sup.context = ctx;
  SupervisedChase s = RunChaseSupervised(p.theory, p.instance, opts, sup);
  ChaseResult& r = s.result;
  if (s.recovered) {
    std::string rungs;
    for (const std::string& d : s.degradations) {
      rungs += (rungs.empty() ? "" : ", ") + d;
    }
    std::printf("supervisor: recovered after %zu attempts (degraded: %s)\n",
                s.attempts, rungs.empty() ? "none" : rungs.c_str());
  }
  std::printf("rounds=%zu facts=%zu nulls=%zu fixpoint=%s status=%s\n",
              r.rounds_run, r.structure.NumFacts(), r.nulls_created,
              r.fixpoint_reached ? "yes" : "no", r.status.ToString().c_str());
  double total_ms = 0;
  for (double ms : r.stats.round_ms) total_ms += ms;
  std::printf("stats: bindings=%zu postings_hits=%zu postings_misses=%zu "
              "rows_scanned=%zu triggers_deduped=%zu datalog_deduped=%zu "
              "sink_candidates=%zu sink_contained=%zu chase_ms=%.2f\n",
              r.stats.match.bindings_tried, r.stats.match.postings_hits,
              r.stats.match.postings_misses, r.stats.match.rows_scanned,
              r.stats.triggers_deduped, r.stats.datalog_deduped,
              r.stats.sink_candidates, r.stats.sink_contained, total_ms);
  std::printf("%s", r.structure.ToString().c_str());
  for (size_t i = 0; i < p.queries.size(); ++i) {
    std::printf("query %zu: %s\n", i,
                Satisfies(r.structure, p.queries[i]) ? "certain (at this "
                                                       "depth)"
                                                     : "not derived");
  }
  if (!r.status.ok()) PrintReport(r.report);
  return ExitFor(r.status);
}

void PrintRewriteStats(const RewriteStats& stats) {
  std::printf("  stats: candidates=%zu key_deduped=%zu "
              "subsumption_pruned=%zu hom_checks=%zu hom_checks_skipped=%zu "
              "wall_ms=%.2f accum_ms=%.2f\n",
              stats.TotalCandidates(), stats.TotalKeyDeduped(),
              stats.TotalSubsumptionPruned(), stats.hom_checks,
              stats.hom_checks_skipped, stats.TotalWallMs(),
              stats.TotalAccumMs());
  for (size_t d = 0; d < stats.levels.size(); ++d) {
    const RewriteLevelStats& l = stats.levels[d];
    std::printf("    level %zu: candidates=%zu key_deduped=%zu "
                "subsumption_pruned=%zu accum_ms=%.2f\n",
                d + 1, l.candidates, l.key_deduped, l.subsumption_pruned,
                l.accum_ms);
  }
}

int CmdRewrite(Program& p, const RewriteOptions& opts) {
  if (p.queries.empty()) {
    std::printf("no ?- queries in the program\n");
    return kExitNegative;
  }
  int rc = kExitOk;
  for (size_t i = 0; i < p.queries.size(); ++i) {
    RewriteResult r = RewriteQuery(p.theory, p.queries[i], opts);
    std::printf("query %zu: %s\n  disjuncts=%zu depth=%zu generated=%zu\n",
                i, r.status.ToString().c_str(), r.rewriting.size(),
                r.depth_reached, r.queries_generated);
    std::printf("  %s\n", UcqToString(r.rewriting, p.theory.sig()).c_str());
    std::printf("  D |= rewriting: %s\n",
                SatisfiesUcq(p.instance, r.rewriting) ? "true" : "false");
    PrintRewriteStats(r.stats);
    if (r.status.code() == StatusCode::kResourceExhausted) {
      PrintReport(r.report);
      rc = kExitExhausted;
    }
  }
  return rc;
}

int CmdClassify(Program& p, const RewriteOptions& opts) {
  std::printf("rules=%zu predicates=%d max_arity=%d\n", p.theory.size(),
              p.theory.sig().num_predicates(), p.theory.sig().MaxArity());
  std::printf("binary:          %s\n", IsBinaryTheory(p.theory) ? "yes" : "no");
  std::printf("linear:          %s\n", IsLinear(p.theory) ? "yes" : "no");
  std::printf("guarded:         %s\n", IsGuarded(p.theory) ? "yes" : "no");
  StickyReport sticky = CheckSticky(p.theory);
  std::printf("sticky:          %s%s%s\n", sticky.is_sticky ? "yes" : "no",
              sticky.violation.empty() ? "" : "  -- ",
              sticky.violation.c_str());
  std::printf("weakly acyclic:  %s\n",
              IsWeaklyAcyclic(p.theory) ? "yes" : "no");
  std::printf("theorem-3 heads: %s\n",
              HasSingleFrontierVariableHeads(p.theory) ? "yes" : "no");
  BddProbeResult probe = ProbeBdd(p.theory, opts);
  std::printf("BDD probe:       %s (kappa=%d, max rewrite depth=%zu, "
              "generated=%zu, disjuncts=%zu, pruned=%zu, hom_checks=%zu/%zu "
              "skipped)\n",
              probe.certified ? "certified" : "unknown at budget",
              probe.kappa, probe.max_depth_seen, probe.queries_generated,
              probe.total_disjuncts, probe.stats.TotalSubsumptionPruned(),
              probe.stats.hom_checks, probe.stats.hom_checks_skipped);
  if (probe.status.code() == StatusCode::kResourceExhausted) {
    std::printf("BDD probe stopped early: %s\n",
                probe.status.ToString().c_str());
    if (opts.context != nullptr) PrintReport(opts.context->report());
    return kExitExhausted;
  }
  return kExitOk;
}

int CmdModel(Program& p, ParanoiaLevel paranoia, ExecutionContext* ctx) {
  if (p.queries.empty()) {
    std::printf("no ?- queries in the program\n");
    return kExitNegative;
  }
  int rc = kExitOk;
  for (size_t i = 0; i < p.queries.size(); ++i) {
    PipelineOptions opts;
    opts.context = ctx;
    opts.paranoia = paranoia;
    FiniteModelResult r =
        ConstructFiniteCounterModel(p.theory, p.instance, p.queries[i], opts);
    if (r.status.ok()) {
      std::printf("query %zu: counter-model with %zu elements "
                  "(kappa=%d n=%d depth=%zu):\n%s",
                  i, r.model.Domain().size(), r.kappa, r.n_used,
                  r.chase_depth_used, r.model.ToString().c_str());
    } else if (r.query_certainly_true) {
      std::printf("query %zu: certainly true (no counter-model exists)\n", i);
      if (rc == kExitOk) rc = kExitNegative;
    } else if (r.status.code() == StatusCode::kResourceExhausted) {
      std::printf("query %zu: %s\n", i, r.status.ToString().c_str());
      if (r.report.partial_result) {
        std::printf("partial chase prefix: %zu facts after %zu complete "
                    "round(s)\n%s",
                    r.partial_chase.NumFacts(), r.partial_chase_rounds,
                    r.partial_chase.ToString().c_str());
      }
      PrintReport(r.report);
      return kExitExhausted;  // governed trip: later queries would re-trip
    } else {
      std::printf("query %zu: %s\n", i, r.status.ToString().c_str());
      rc = kExitNegative;
    }
  }
  return rc;
}

int CmdSearch(Program& p, int extra, ExecutionContext* ctx) {
  const ConjunctiveQuery* avoid =
      p.queries.empty() ? nullptr : &p.queries[0];
  ModelSearchOptions opts;
  opts.max_extra_elements = extra;
  opts.context = ctx;
  ModelSearchResult r = FindFiniteModel(p.theory, p.instance, avoid, opts);
  std::printf("checked %zu structures; %s\n", r.structures_checked,
              r.status.ToString().c_str());
  if (r.found) {
    std::printf("model:\n%s", r.model->ToString().c_str());
    return kExitOk;
  }
  if (r.status.code() == StatusCode::kResourceExhausted) {
    PrintReport(ctx->report());
    return kExitExhausted;
  }
  std::printf("no finite model%s within the domain budget\n",
              avoid != nullptr ? " avoiding the first query" : "");
  return kExitNegative;
}

}  // namespace

int main(int argc, char** argv) {
  RewriteOptions ropts;  // --threads sets the chase's threads too
  std::string chase_engine = "parallel";
  std::string paranoia_name = "off";
  bool no_prune = false;
  double deadline_ms = -1;
  double mem_budget_mb = -1;
  std::string trace_out;
  std::string metrics_out;
  FlagSet flags("bddfc");
  flags.Count("--threads", &ropts.threads);
  flags.Choice("--chase-engine", &chase_engine, {"parallel", "naive"});
  flags.Bool("--no-prune", &no_prune);
  flags.Choice("--paranoia", &paranoia_name, {"off", "cheap", "full"});
  flags.Real("--deadline-ms", &deadline_ms);
  // The MiB-to-bytes conversion below must fit a size_t.
  flags.Real("--mem-budget-mb", &mem_budget_mb,
             static_cast<double>(SIZE_MAX >> 20));
  flags.String("--trace-out", &trace_out);
  flags.String("--metrics-out", &metrics_out);
  // Positionals: the command, the program and an optional count.
  if (!flags.Parse(argc, argv, 3) || flags.positionals().size() < 2) {
    return Usage();
  }
  const std::vector<std::string>& args = flags.positionals();
  uint64_t positional_count = 0;
  const bool has_count = args.size() == 3;
  if (has_count && !ParseUnsigned(args[2], &positional_count)) {
    std::fprintf(stderr, "error: '%s' is not a count\n", args[2].c_str());
    return Usage();
  }
  ropts.prune_subsumed = !no_prune;
  ParanoiaLevel paranoia = ParanoiaLevel::kOff;
  ParanoiaLevelFromName(paranoia_name, &paranoia);

  // Observability stays off unless asked for: enabling costs a ring
  // allocation (trace) and per-run publication (metrics). It starts
  // before the load, so the trace shows the parse.
  if (!trace_out.empty()) obs::Tracer::Global().Enable();
  if (!metrics_out.empty()) obs::MetricsRegistry::Global().set_enabled(true);

  Result<Program> loaded = Load(args[1].c_str());
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return kExitUsage;
  }
  Program& p = loaded.value();
  const std::string& cmd = args[0];

  // One governed context for the whole command; SIGINT flips its token.
  ExecutionContext ctx;
  if (deadline_ms >= 0) ctx.SetDeadlineAfterMs(deadline_ms);
  if (mem_budget_mb >= 0) {
    ctx.SetMemoryLimitBytes(static_cast<size_t>(mem_budget_mb * 1024 * 1024));
  }
  static CancelToken cancel = ctx.cancel_token();
  g_cancel = &cancel;
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // A closed stdout (`bddfc ... | head`) loses the rest of the output but
  // must not kill the process before WriteProcessExports writes the
  // --trace-out and --metrics-out files: writes to it fail with EPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  ropts.context = &ctx;

  int rc;
  if (cmd == "chase") {
    rc = CmdChase(p, has_count ? positional_count : 32,
                  chase_engine == "naive" ? ChaseEngine::kNaive
                                          : ChaseEngine::kParallel,
                  ropts.threads, paranoia, &ctx);
  } else if (cmd == "rewrite") {
    rc = CmdRewrite(p, ropts);
  } else if (cmd == "classify") {
    rc = CmdClassify(p, ropts);
  } else if (cmd == "model") {
    rc = CmdModel(p, paranoia, &ctx);
  } else if (cmd == "search") {
    rc = CmdSearch(p, has_count ? static_cast<int>(positional_count) : 1,
                   &ctx);
  } else {
    return Usage();
  }
  // An unwritable artifact path fails a run that would have exited 0: a
  // silent half-success would make CI consume a missing artifact.
  if (!obs::WriteProcessExports(trace_out, metrics_out) && rc == kExitOk) {
    rc = kExitUsage;
  }
  return rc;
}
