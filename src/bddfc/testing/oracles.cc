#include "bddfc/testing/oracles.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bddfc/chase/supervisor.h"
#include "bddfc/classes/recognizers.h"
#include "bddfc/eval/answers.h"
#include "bddfc/eval/match.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/parser/parser.h"
#include "bddfc/parser/printer.h"
#include "bddfc/serve/server.h"

namespace bddfc {

namespace {

template <typename T>
std::string Mismatch(const char* what, const T& a, const T& b) {
  std::ostringstream os;
  os << what << " diverged: " << a << " vs " << b;
  return os.str();
}

/// Per-predicate multiset of fact birth rounds — row-order and null-name
/// independent, so it compares chase runs without an isomorphism search.
std::map<PredId, std::vector<int>> BirthRoundsByPredicate(
    const ChaseResult& r) {
  std::map<PredId, std::vector<int>> out;
  for (PredId p = 0; p < r.structure.NumStoredPredicates(); ++p) {
    const uint32_t n = static_cast<uint32_t>(r.structure.NumFacts(p));
    if (n == 0) continue;
    std::vector<int>& rounds = out[p];
    for (uint32_t row = 0; row < n; ++row) {
      rounds.push_back(r.FactRound({p, row}));
    }
    std::sort(rounds.begin(), rounds.end());
  }
  return out;
}

/// Where two ExactChaseDumps first differ: the byte offset plus the
/// differing line of each (clipped), e.g. a "status=..." or "pred 3:" line.
std::string DumpDivergence(const std::string& got, const std::string& want) {
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  auto line_at = [at](const std::string& d) {
    const size_t nl = at == 0 ? std::string::npos : d.rfind('\n', at - 1);
    const size_t begin = nl == std::string::npos ? 0 : nl + 1;
    const size_t end = d.find('\n', at);
    std::string line = d.substr(
        begin, end == std::string::npos ? std::string::npos : end - begin);
    if (line.size() > 160) line = line.substr(0, 160) + "...";
    return line;
  };
  return "first divergence at byte " + std::to_string(at) + ": '" +
         line_at(got) + "' vs reference '" + line_at(want) + "'";
}

// ---------------------------------------------------------------------------
// chase-agreement: the production engine (restricted and oblivious, at 1,
// 2, 4 and 8 threads) must reproduce the kNaive reference byte for byte,
// with one bindings_tried at every thread count; the reference's
// fixpoints must satisfy the theory.
// ---------------------------------------------------------------------------

class ChaseAgreementOracle : public Oracle {
 public:
  std::string_view name() const override { return "chase-agreement"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    // Every run rolls the shared signature back to this mark, so each one
    // invents its nulls on the same raw TermIds and the dumps compare as
    // plain bytes.
    const Signature::Mark mark = s.sig->TakeMark();
    struct Run {
      std::string dump;
      size_t bindings = 0;
      std::string violation;  // the reference's fixpoint is not a model
    };
    auto run = [&](ChaseOptions opts) {
      Run out;
      {
        // A run under test gets the configured faults on a fresh registry.
        FaultRegistry reg;
        ExecutionContext ctx;
        if (opts.engine != ChaseEngine::kNaive) {
          reg.ArmPlan(config.faults);
          ctx.SetFaultRegistry(&reg);
          opts.context = &ctx;
        }
        ChaseResult r = RunChase(s.theory, s.instance, opts);
        out.dump = ExactChaseDump(r);
        out.bindings = r.stats.match.bindings_tried;
        if (opts.engine == ChaseEngine::kNaive && !opts.oblivious &&
            r.fixpoint_reached) {
          if (auto v = CheckModel(r.structure, s.theory)) {
            out.violation = v->ToString(*s.sig);
          }
        }
      }
      s.sig->RollbackTo(mark);
      return out;
    };

    for (bool oblivious : {false, true}) {
      const std::string mode = oblivious ? "[oblivious" : "[restricted";
      ChaseOptions opts;
      opts.max_rounds = config.max_rounds;
      opts.max_facts = config.max_facts;
      opts.oblivious = oblivious;
      opts.engine = ChaseEngine::kNaive;
      const Run ref = run(opts);
      if (!ref.violation.empty()) {
        return OracleOutcome::Fail(mode + " naive] fixpoint is not a model: " +
                                   ref.violation);
      }

      // The configured faults (the fuzzer's self-test) and the paranoia
      // checks ride on the production runs only: the reference shares none
      // of their plans, sink or fan-out, so a corruption either one causes
      // surfaces as a divergence from it.
      opts.engine = ChaseEngine::kParallel;
      opts.paranoia = config.paranoia;
      size_t t1_bindings = 0;
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        opts.threads = threads;
        const Run got = run(opts);
        const std::string label =
            mode + " t" + std::to_string(threads) + "] ";
        if (got.dump != ref.dump) {
          return OracleOutcome::Fail(label + "diverged from kNaive: " +
                                     DumpDivergence(got.dump, ref.dump));
        }
        if (threads == 1) t1_bindings = got.bindings;
        if (got.bindings != t1_bindings) {
          return OracleOutcome::Fail(
              label + Mismatch("bindings_tried vs t1", t1_bindings,
                               got.bindings));
        }
      }
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// parser-roundtrip: Print ∘ Parse ∘ Print must be a fixpoint and preserve
// the program's shape.
// ---------------------------------------------------------------------------

class ParserRoundTripOracle : public Oracle {
 public:
  std::string_view name() const override { return "parser-roundtrip"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    (void)config;
    std::string text1 = ScenarioToText(s);
    Result<Scenario> reparsed = ParseScenario(text1);
    if (!reparsed.ok()) {
      return OracleOutcome::Fail("printed program does not reparse: " +
                                 reparsed.status().ToString() +
                                 "\n--- program ---\n" + text1);
    }
    const Scenario& r = reparsed.value();
    if (r.theory.size() != s.theory.size()) {
      return OracleOutcome::Fail(
          Mismatch("rule count", s.theory.size(), r.theory.size()));
    }
    if (r.instance.NumFacts() != s.instance.NumFacts()) {
      return OracleOutcome::Fail(Mismatch("fact count",
                                          s.instance.NumFacts(),
                                          r.instance.NumFacts()));
    }
    if (r.queries.size() != s.queries.size()) {
      return OracleOutcome::Fail(
          Mismatch("query count", s.queries.size(), r.queries.size()));
    }
    std::string text2 = ScenarioToText(r);
    if (text1 != text2) {
      size_t at = 0;
      while (at < text1.size() && at < text2.size() && text1[at] == text2[at]) {
        ++at;
      }
      return OracleOutcome::Fail(
          "print-parse-print is not a fixpoint (first divergence at byte " +
          std::to_string(at) + ")\n--- first ---\n" + text1 +
          "--- second ---\n" + text2);
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// rewrite-vs-chase: Def. 2 — on a theory whose chase terminates, a
// saturated rewriting Φ′ must satisfy Chase(D,T) ⊨ Φ ⇔ D ⊨ Φ′, and the
// two certain-answer routes must return the same tuples.
// ---------------------------------------------------------------------------

class RewriteVsChaseOracle : public Oracle {
 public:
  std::string_view name() const override { return "rewrite-vs-chase"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (s.queries.empty()) return OracleOutcome::Skip("no queries");
    if (!IsWeaklyAcyclic(s.theory)) {
      return OracleOutcome::Skip("not weakly acyclic");
    }
    ChaseOptions chase_opts;
    chase_opts.max_rounds = config.max_rounds;
    chase_opts.max_facts = config.max_facts;
    ChaseResult chase = RunChase(s.theory, s.instance, chase_opts);
    if (!chase.fixpoint_reached) {
      return OracleOutcome::Skip("chase budget tripped");
    }
    RewriteOptions rewrite_opts = config.rewrite;
    rewrite_opts.threads = 1;
    size_t checked = 0;
    for (size_t qi = 0; qi < s.queries.size(); ++qi) {
      const ConjunctiveQuery& q = s.queries[qi];
      RewriteResult rw = RewriteQuery(s.theory, q, rewrite_opts);
      if (!rw.status.ok()) continue;  // budgeted out: sound but incomplete
      bool chase_says = Satisfies(chase.structure, q);
      bool rewrite_says = SatisfiesUcq(s.instance, rw.rewriting);
      ++checked;
      if (chase_says != rewrite_says) {
        return OracleOutcome::Fail(
            "query " + std::to_string(qi) + " (" + q.ToString(*s.sig) +
            "): " + Mismatch("Boolean certain answer", chase_says,
                             rewrite_says));
      }
      // Non-Boolean variant: free the first variable and compare the
      // certain-answer tuple sets of the two routes.
      std::vector<TermId> vars = q.Variables();
      if (vars.empty()) continue;
      ConjunctiveQuery open = q;
      open.answer_vars = {vars[0]};
      CertainAnswersResult via_chase =
          CertainAnswers(s.theory, s.instance, open, chase_opts);
      CertainAnswersResult via_rewriting =
          CertainAnswersViaRewriting(s.theory, s.instance, open, rewrite_opts);
      if (!via_chase.complete || !via_rewriting.complete) continue;
      if (via_chase.answers != via_rewriting.answers) {
        return OracleOutcome::Fail(
            "query " + std::to_string(qi) + " (" + open.ToString(*s.sig) +
            "): " + Mismatch("certain-answer count",
                             via_chase.answers.size(),
                             via_rewriting.answers.size()));
      }
    }
    if (checked == 0) return OracleOutcome::Skip("every rewriting budgeted out");
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// rewrite-determinism: ProbeBdd/ComputeKappa must return byte-identical
// aggregates for any thread count (including budget-tripped Unknown runs —
// the cutoffs are deterministic too).
// ---------------------------------------------------------------------------

class RewriteDeterminismOracle : public Oracle {
 public:
  std::string_view name() const override { return "rewrite-determinism"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    RewriteOptions base = config.rewrite;
    base.threads = 1;
    BddProbeResult serial = ProbeBdd(s.theory, base);
    KappaResult serial_kappa = ComputeKappa(s.theory, base);
    for (size_t threads : config.determinism_threads) {
      RewriteOptions opts = base;
      opts.threads = threads;
      BddProbeResult probe = ProbeBdd(s.theory, opts);
      std::string t = "threads=" + std::to_string(threads) + ": ";
      if (probe.status.code() != serial.status.code()) {
        return OracleOutcome::Fail(t + Mismatch("probe status",
                                                serial.status.ToString(),
                                                probe.status.ToString()));
      }
      if (probe.certified != serial.certified) {
        return OracleOutcome::Fail(
            t + Mismatch("certified", serial.certified, probe.certified));
      }
      if (probe.kappa != serial.kappa) {
        return OracleOutcome::Fail(
            t + Mismatch("kappa", serial.kappa, probe.kappa));
      }
      if (probe.max_depth_seen != serial.max_depth_seen) {
        return OracleOutcome::Fail(t + Mismatch("max_depth_seen",
                                                serial.max_depth_seen,
                                                probe.max_depth_seen));
      }
      if (probe.total_disjuncts != serial.total_disjuncts) {
        return OracleOutcome::Fail(t + Mismatch("total_disjuncts",
                                                serial.total_disjuncts,
                                                probe.total_disjuncts));
      }
      if (probe.queries_generated != serial.queries_generated) {
        return OracleOutcome::Fail(t + Mismatch("queries_generated",
                                                serial.queries_generated,
                                                probe.queries_generated));
      }
      if (probe.stats.hom_checks != serial.stats.hom_checks ||
          probe.stats.TotalCandidates() != serial.stats.TotalCandidates()) {
        return OracleOutcome::Fail(t + "aggregated RewriteStats diverged");
      }
      KappaResult kappa = ComputeKappa(s.theory, opts);
      if (kappa.kappa != serial_kappa.kappa ||
          kappa.status.code() != serial_kappa.status.code()) {
        return OracleOutcome::Fail(
            t + Mismatch("ComputeKappa", serial_kappa.kappa, kappa.kappa));
      }
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// pipeline-certify: when the chase refutes Q, the Theorem-2 pipeline's
// counter-model must *independently* re-verify M ⊇ D, M ⊨ T₀, M ⊭ Q —
// not just pass the pipeline's own certification.
// ---------------------------------------------------------------------------

class PipelineCertifyOracle : public Oracle {
 public:
  std::string_view name() const override { return "pipeline-certify"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (s.queries.empty()) return OracleOutcome::Skip("no queries");
    if (!IsBinaryTheory(s.theory) || !s.theory.IsSingleHead()) {
      return OracleOutcome::Skip("not binary single-head");
    }
    if (s.theory.size() > 10 || s.instance.NumFacts() > 30) {
      return OracleOutcome::Skip("scenario too large for the pipeline budget");
    }
    ChaseOptions chase_opts;
    chase_opts.max_rounds = config.max_rounds;
    chase_opts.max_facts = config.max_facts;
    ChaseResult chase = RunChase(s.theory, s.instance, chase_opts);
    if (!chase.fixpoint_reached) {
      return OracleOutcome::Skip("chase budget tripped");
    }
    size_t target = s.queries.size();
    for (size_t qi = 0; qi < s.queries.size(); ++qi) {
      if (!Satisfies(chase.structure, s.queries[qi])) {
        target = qi;
        break;
      }
    }
    if (target == s.queries.size()) {
      return OracleOutcome::Skip("every query certain — nothing to refute");
    }
    // Clone onto a fresh signature: the pipeline interns hidden/normalized/
    // color predicates and must not pollute the scenario for later oracles.
    Result<Scenario> cloned = CloneScenario(s);
    if (!cloned.ok()) {
      return OracleOutcome::Fail("clone via print+parse failed: " +
                                 cloned.status().ToString());
    }
    const Scenario& c = cloned.value();
    const ConjunctiveQuery& q = c.queries[target];
    PipelineOptions opts;
    opts.initial_chase_depth = 6;
    opts.max_chase_depth = 48;
    opts.max_chase_facts = config.max_facts;
    opts.max_n = 3;
    opts.max_m = 3;
    opts.rewrite_options = config.rewrite;
    opts.rewrite_options.threads = 1;
    opts.max_saturation_rounds = 128;
    FiniteModelResult result =
        ConstructFiniteCounterModel(c.theory, c.instance, q, opts);
    if (result.query_certainly_true) {
      // The terminated chase refuted Q; "certainly true" is a contradiction.
      // (The reductions also answer FailedPrecondition for out-of-scope
      // theories, so only this flag is the contradiction signal.)
      return OracleOutcome::Fail(
          "pipeline claims the query is certainly true, but the chase "
          "fixpoint refutes it (query " +
          std::to_string(target) + ": " + q.ToString(*c.sig) + ")");
    }
    if (!result.status.ok()) {
      return OracleOutcome::Skip("pipeline out of scope or budgeted out: " +
                                 result.status.ToString());
    }
    if (!result.model.ContainsAllFactsOf(c.instance)) {
      return OracleOutcome::Fail("certified model does not contain D");
    }
    if (auto v = CheckModel(result.model, c.theory)) {
      return OracleOutcome::Fail("certified model violates T0: " +
                                 v->ToString(*c.sig));
    }
    if (Satisfies(result.model, q)) {
      return OracleOutcome::Fail("certified model satisfies the query " +
                                 q.ToString(*c.sig));
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// governor-prefix: a chase interrupted by the governor (deadline / memory /
// cancel, injected deterministically after K cooperative checks) must be
// prefix-consistent with the uninterrupted run — ResourceExhausted with the
// right ResourceKind, the same facts per completed round, the same
// per-predicate birth rounds on that prefix, and no torn half-round.
// ---------------------------------------------------------------------------

class GovernorPrefixOracle : public Oracle {
 public:
  std::string_view name() const override { return "governor-prefix"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (config.interruption.empty()) {
      return OracleOutcome::Skip("no fault injected (--inject-fault)");
    }
    const ResourceKind expected = GovernorCheckTrip(config.interruption);
    if (expected == ResourceKind::kFault) {
      return OracleOutcome::Fail("unknown interruption '" +
                                 config.interruption + "'");
    }

    ChaseOptions base;
    base.max_rounds = config.max_rounds;
    base.max_facts = config.max_facts;
    ChaseResult baseline = RunChase(s.theory, s.instance, base);

    // The production engine on one worker and on four: cooperative checks
    // land in plan blocks and between chunk tasks, and a trip at either
    // thread count must discard the buffered (incomplete) round.
    bool tripped_any = false;
    for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t after : {size_t{1}, size_t{3}, size_t{7}}) {
      // The configured faults ride along (torn-exhaust gives the
      // torn-prefix path a detector).
      FaultRegistry reg;
      reg.ArmPlan(config.faults);
      reg.Arm({.site = faults::kGovernorCheck,
               .n = after,
               .action = config.interruption});
      ExecutionContext ctx;
      ctx.SetFaultRegistry(&reg);
      ChaseOptions opts = base;
      opts.context = &ctx;
      opts.threads = threads;
      ChaseResult run = RunChase(s.theory, s.instance, opts);
      std::string t = "[t" + std::to_string(threads) + "] after " +
                      std::to_string(after) + " checks: ";

      if (run.status.ok() ||
          run.status.code() != StatusCode::kResourceExhausted ||
          run.report.exhausted != expected) {
        // The chase may legitimately finish (or trip a count budget) before
        // the injected fault fires; only a wrong *governed* kind is a bug.
        bool governed_kind =
            run.report.exhausted == ResourceKind::kDeadline ||
            run.report.exhausted == ResourceKind::kMemory ||
            run.report.exhausted == ResourceKind::kCancelled;
        if (governed_kind && run.report.exhausted != expected) {
          return OracleOutcome::Fail(
              t + Mismatch("exhausted kind", ResourceKindName(expected),
                           ResourceKindName(run.report.exhausted)));
        }
        continue;
      }
      tripped_any = true;

      if (run.rounds_run > baseline.rounds_run) {
        return OracleOutcome::Fail(
            t + Mismatch("rounds_run beyond baseline", baseline.rounds_run,
                         run.rounds_run));
      }
      if (run.facts_per_round.size() > baseline.facts_per_round.size()) {
        return OracleOutcome::Fail(t + "more facts_per_round entries than "
                                       "the uninterrupted run");
      }
      for (size_t i = 0; i < run.facts_per_round.size(); ++i) {
        if (run.facts_per_round[i] != baseline.facts_per_round[i]) {
          return OracleOutcome::Fail(
              t + "facts_per_round[" + std::to_string(i) + "] " +
              Mismatch("is not a baseline prefix", baseline.facts_per_round[i],
                       run.facts_per_round[i]));
        }
      }
      // No torn half-round: every fact belongs to a completed round.
      if (!run.facts_per_round.empty() &&
          run.structure.NumFacts() != run.facts_per_round.back()) {
        return OracleOutcome::Fail(
            t + Mismatch("torn structure: facts vs last complete round",
                         run.structure.NumFacts(), run.facts_per_round.back()));
      }
      // Per-predicate birth rounds on the completed prefix must agree.
      auto clip = [&](const ChaseResult& r) {
        std::map<PredId, std::vector<int>> out;
        for (auto& [pred, rounds] : BirthRoundsByPredicate(r)) {
          for (int round : rounds) {
            if (round <= static_cast<int>(run.rounds_run)) {
              out[pred].push_back(round);
            }
          }
        }
        return out;
      };
      if (clip(run) != clip(baseline)) {
        return OracleOutcome::Fail(
            t + "per-predicate birth rounds diverge on the completed prefix");
      }
    }
    }
    if (!tripped_any) {
      return OracleOutcome::Skip("chase finished before any injected fault");
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// chaos-recovery: a supervised chase under a random bounded fault plan
// must end byte-identical — raw TermIds, nulls, provenance, per-round
// counts — to the fault-free run. Recovery is mandatory, not best-effort.
// ---------------------------------------------------------------------------

class ChaosRecoveryOracle : public Oracle {
 public:
  std::string_view name() const override { return "chaos-recovery"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (config.chaos_plans == 0) {
      return OracleOutcome::Skip("chaos disabled (--chaos)");
    }
    // The production engine at four threads: it reaches every recoverable
    // fault site, and a retry degrades it to the reference.
    ChaseOptions opts;
    opts.max_rounds = config.max_rounds;
    opts.max_facts = config.max_facts;
    opts.engine = ChaseEngine::kParallel;
    opts.threads = 4;
    opts.paranoia = config.paranoia;

    // Every run (reference and chaos) chases its own print+parse clone:
    // cloning interns identically, so invented nulls land on the same raw
    // TermIds in every run and the dumps compare as plain bytes.
    auto run_plan = [&](const FaultPlan* plan, std::string* dump) -> Status {
      Result<Scenario> c = CloneScenario(s);
      if (!c.ok()) return c.status();
      FaultRegistry reg;
      ExecutionContext parent;
      if (plan != nullptr) {
        reg.ArmPlan(*plan);
        parent.SetFaultRegistry(&reg);
      }
      SupervisorOptions sup;
      sup.context = &parent;
      SupervisedChase out =
          RunChaseSupervised(c.value().theory, c.value().instance, opts, sup);
      *dump = ExactChaseDump(out.result);
      return Status::OK();
    };

    std::string ref;
    if (Status st = run_plan(nullptr, &ref); !st.ok()) {
      return OracleOutcome::Skip("clone failed: " + st.ToString());
    }

    for (size_t k = 0; k < config.chaos_plans; ++k) {
      const uint64_t plan_seed =
          (config.chaos_seed ^ s.seed) + 0x9e3779b97f4a7c15ull * (k + 1);
      FaultPlan plan = RandomFaultPlan(plan_seed);
      std::string dump;
      if (Status st = run_plan(&plan, &dump); !st.ok()) {
        return OracleOutcome::Skip("clone failed: " + st.ToString());
      }
      if (dump == ref) continue;

      // ddmin the plan (greedy single-spec drops to a fixpoint) so the
      // failure names the smallest sub-plan that still breaks recovery.
      FaultPlan min = plan;
      bool shrunk = true;
      while (shrunk && min.faults.size() > 1) {
        shrunk = false;
        for (size_t i = 0; i < min.faults.size(); ++i) {
          FaultPlan cand;
          for (size_t j = 0; j < min.faults.size(); ++j) {
            if (j != i) cand.faults.push_back(min.faults[j]);
          }
          std::string d;
          if (!run_plan(&cand, &d).ok()) continue;
          if (d != ref) {
            min = std::move(cand);
            shrunk = true;
            break;
          }
        }
      }
      return OracleOutcome::Fail(
          "chaos plan (seed " + std::to_string(plan_seed) +
          ") did not recover byte-identically (" + DumpDivergence(dump, ref) +
          ")\n--- minimized plan ---\n" + min.ToString() +
          "--- fault-free ---\n" + ref + "--- chaos ---\n" + dump);
    }
    return OracleOutcome::Pass();
  }
};

/// Renders one CQ as the bare body text the serve protocol's QUERY
/// payload carries ("e(V0, V1), u(V1)").
std::string QueryBodyText(const ConjunctiveQuery& q, const SignaturePtr& sig) {
  std::vector<ConjunctiveQuery> one{q};
  const Theory empty(sig);
  std::string text = ToProgramText(empty, nullptr, &one);
  // ToProgramText renders a query line as "?- <body>.\n".
  if (text.rfind("?- ", 0) == 0) text.erase(0, 3);
  while (!text.empty() && (text.back() == '\n' || text.back() == '.')) {
    text.pop_back();
  }
  return text;
}

/// Serving agreement (DESIGN.md §2.15): a ReasoningServer that LOADs the
/// scenario and answers its queries from the cached artifact must agree
/// byte-for-byte with a one-shot RunChase + Satisfies over the same
/// program. Every query is asked twice — the second ask runs against a
/// signature the first ask already marked and rolled back, so a rollback
/// leak (satellite: one Signature per artifact, copy-on-admit) diverges
/// here. Skips scenarios the compile budget rejects (serve only admits
/// saturating theories).
class ServeAgreementOracle : public Oracle {
 public:
  std::string_view name() const override { return "serve-agreement"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (s.queries.empty()) return OracleOutcome::Skip("no queries");

    ChaseOptions opts;
    opts.max_rounds = config.max_rounds;
    opts.max_facts = config.max_facts;
    const ChaseResult one_shot = RunChase(s.theory, s.instance, opts);
    if (!one_shot.status.ok() || !one_shot.fixpoint_reached) {
      return OracleOutcome::Skip("chase budget (serve admits only fixpoints)");
    }

    serve::ServerOptions sopts;
    sopts.compile.max_rounds = config.max_rounds;
    sopts.compile.max_facts = config.max_facts;
    serve::ReasoningServer server(sopts);

    serve::Request load;
    load.kind = serve::Request::Kind::kLoad;
    load.tenant = "oracle";
    load.payload = ToProgramText(s.theory, &s.instance, nullptr);
    const serve::Response loaded = server.Handle(load);
    if (!loaded.ok()) {
      return OracleOutcome::Fail("LOAD rejected a saturating theory: " +
                                 loaded.status.ToString());
    }
    uint64_t key = 0;
    if (loaded.body.rfind("key=", 0) != 0 ||
        !serve::KeyFromHex(loaded.body.substr(4, 16), &key)) {
      return OracleOutcome::Fail("unparseable LOAD response: " + loaded.body);
    }

    for (size_t i = 0; i < s.queries.size(); ++i) {
      const bool expected = Satisfies(one_shot.structure, s.queries[i]);
      serve::Request ask;
      ask.kind = serve::Request::Kind::kQuery;
      ask.tenant = "oracle";
      ask.key = key;
      ask.payload = QueryBodyText(s.queries[i], s.sig);
      for (int round = 0; round < 2; ++round) {
        const serve::Response served = server.Handle(ask);
        if (!served.ok()) {
          return OracleOutcome::Fail("QUERY failed: " +
                                     served.status.ToString());
        }
        const std::string want = expected ? "true" : "false";
        if (served.body != want) {
          return OracleOutcome::Fail(
              "query " + std::to_string(i) + " ask " + std::to_string(round) +
              " diverged: served " + served.body + ", one-shot " + want +
              " (" + ask.payload + ")");
        }
      }
    }
    return OracleOutcome::Pass();
  }
};

}  // namespace

const std::vector<const Oracle*>& AllOracles() {
  static const ChaseAgreementOracle chase_agreement;
  static const ParserRoundTripOracle parser_roundtrip;
  static const RewriteDeterminismOracle rewrite_determinism;
  static const RewriteVsChaseOracle rewrite_vs_chase;
  static const PipelineCertifyOracle pipeline_certify;
  static const GovernorPrefixOracle governor_prefix;
  static const ChaosRecoveryOracle chaos_recovery;
  static const ServeAgreementOracle serve_agreement;
  static const std::vector<const Oracle*> kAll = {
      &chase_agreement, &parser_roundtrip, &rewrite_determinism,
      &rewrite_vs_chase, &pipeline_certify, &governor_prefix,
      &chaos_recovery, &serve_agreement};
  return kAll;
}

const Oracle* FindOracle(std::string_view name) {
  for (const Oracle* o : AllOracles()) {
    if (o->name() == name) return o;
  }
  return nullptr;
}

std::string ExactChaseDump(const ChaseResult& r) {
  std::string s;
  s += "status=" + r.status.ToString() + " fixpoint=";
  s += r.fixpoint_reached ? '1' : '0';
  s += " rounds=" + std::to_string(r.rounds_run);
  s += " nulls=" + std::to_string(r.nulls_created);
  s += " tdedup=" + std::to_string(r.stats.triggers_deduped);
  s += " ddedup=" + std::to_string(r.stats.datalog_deduped);
  s += "\nfacts_per_round:";
  for (size_t n : r.facts_per_round) s += " " + std::to_string(n);
  s += "\n";
  for (PredId p = 0; p < r.structure.NumStoredPredicates(); ++p) {
    s += "pred " + std::to_string(p) + ":";
    for (const auto& row : r.structure.Rows(p)) {
      s += " (";
      for (TermId t : row) s += std::to_string(t) + ",";
      s += ")";
    }
    s += "\n";
  }
  const std::map<TermId, NullProvenance> prov(r.null_provenance.begin(),
                                              r.null_provenance.end());
  for (const auto& [null_id, np] : prov) {
    s += "null " + std::to_string(null_id) + ": r" +
         std::to_string(np.birth_round) + " rule" +
         std::to_string(np.rule_index) + " head p" +
         std::to_string(np.head_atom.pred) + "(";
    for (TermId t : np.head_atom.args) s += std::to_string(t) + ",";
    s += ")\n";
  }
  for (PredId p = 0; p < r.structure.NumStoredPredicates(); ++p) {
    const uint32_t n = static_cast<uint32_t>(r.structure.NumFacts(p));
    for (uint32_t row = 0; row < n; ++row) {
      s += "fact p" + std::to_string(p) + "#" + std::to_string(row) + "=r" +
           std::to_string(r.FactRound({p, row})) + "\n";
    }
  }
  return s;
}

}  // namespace bddfc
