#include "bddfc/finitemodel/pipeline.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "bddfc/chase/chase.h"
#include "bddfc/chase/skeleton.h"
#include "bddfc/chase/supervisor.h"
#include "bddfc/classes/recognizers.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/trace.h"
#include "bddfc/reductions/reductions.h"
#include "bddfc/types/coloring.h"
#include "bddfc/types/conservativity.h"
#include "bddfc/types/ptype.h"
#include "bddfc/types/quotient.h"

namespace bddfc {

namespace {

/// Projects a structure onto the predicates with id < `num_original`
/// (drops colors, hidden-query and normalization auxiliaries).
Structure ProjectToOriginal(const Structure& s, int num_original) {
  Structure out(s.signature_ptr());
  const PredId end = std::min(num_original, s.NumStoredPredicates());
  for (PredId p = 0; p < end; ++p) {
    const RowsView rows = s.Rows(p);
    out.AppendRows(p, rows.data(), rows.size());
  }
  for (TermId e : s.Domain()) out.AddDomainElement(e);
  return out;
}

}  // namespace

FiniteModelResult ConstructFiniteCounterModel(
    const Theory& theory, const Structure& instance,
    const ConjunctiveQuery& query, const PipelineOptions& options) {
  SignaturePtr sig = theory.signature_ptr();
  FiniteModelResult result(sig);
  obs::TraceSpan pipeline_span("pipeline.run");
  const int num_original_preds = sig->num_predicates();

  ExecutionContext local_ctx;
  ExecutionContext* ctx =
      options.context != nullptr ? options.context : &local_ctx;
  // Phase sub-budgets: chase gets half the bytes, the rewriter a quarter,
  // everything else charges the shared remainder. 0 = unlimited.
  const size_t mem_limit = ctx->memory().limit();
  const size_t chase_mem = mem_limit != 0 ? mem_limit / 2 : 0;
  std::unique_ptr<ExecutionContext> rewrite_ctx =
      ctx->CreateChild(mem_limit != 0 ? mem_limit / 4 : 0);

  // Fills the resource account before a return. The governed-trip exits
  // additionally stash the freshest chase prefix in partial_chase.
  auto finalize = [&] {
    result.report = ctx->report();
    result.report.partial_result = result.partial_chase.NumFacts() > 0;
  };
  // Hands back the accounted bytes of a chase or saturation result the run
  // drops, so every exit leaves the context's used() as it found it; only
  // a prefix handed back in partial_chase stays charged.
  auto release = [ctx](const Structure& s) {
    ctx->memory().Release(s.ApproxAccountedBytes());
  };

  // Scope: binary theories (Theorem 1) directly; theories whose TGD heads
  // have at most one frontier variable (Theorem 3) via the §5.1 head
  // binarization — the proof only uses binarity of the TGD heads.
  bool needs_binarization = !IsBinaryTheory(theory);
  for (const Rule& r : theory.rules()) {
    if (r.IsExistential() &&
        (!r.IsSingleHead() || r.head[0].args.size() > 2 ||
         r.ExistentialVariables().size() > 1)) {
      needs_binarization = true;
    }
  }
  std::optional<Theory> binarized;
  const Theory* base = &theory;
  if (needs_binarization) {
    Result<Theory> b = BinarizeHeads(theory);
    if (!b.ok()) {
      result.status = Status::InvalidArgument(
          "theory is outside the Theorem 1/3 scope (" +
          b.status().message() + "); apply the §5.2/§5.3 reductions first");
      return result;
    }
    binarized = std::move(b).value();
    base = &*binarized;
  }

  // Step 1 (♠4): hide the query. Stage scopes (here and below) are RAII:
  // every exit path — success, error, governed trip — closes the phase in
  // the report and the stage's trace span together.
  Result<HiddenQuery> hidden = [&] {
    PhaseScope scope(ctx, "hide");
    return HideQuery(*base, query);
  }();
  if (!hidden.ok()) {
    result.status = hidden.status();
    return result;
  }
  // Step 2 (♠5): normal form. Split multi-head datalog rules first.
  Result<Theory> normalized = [&]() -> Result<Theory> {
    PhaseScope scope(ctx, "normalize");
    Result<Theory> single = SingleHeadify(hidden.value().theory);
    if (!single.ok()) return single;
    return NormalizeSpade5(single.value());
  }();
  if (!normalized.ok()) {
    result.status = normalized.status();
    return result;
  }
  const Theory& t = normalized.value();
  const PredId f_pred = hidden.value().f;

  // The coloring window m: κ of §3.3, computed from the rewriter (budgeted;
  // the certification step covers any shortfall), capped at max_m.
  int m = options.m_override;
  bool kappa_aborted = false;
  {
    PhaseScope kappa_scope(ctx, "kappa");
    if (m < 0) {
      RewriteOptions ropts = options.rewrite_options;
      ropts.context = rewrite_ctx.get();
      KappaResult kappa = ComputeKappa(t, ropts);
      // Count-budget Unknowns are tolerated (certification covers the
      // shortfall), but a governed trip ends the run here. CheckPoint, not
      // Exhausted(): a trip latched inside the child is re-evaluated against
      // the shared deadline/budget/token here on the parent.
      Status cp = ctx->CheckPoint("pipeline kappa");
      if (!cp.ok()) {
        result.status = std::move(cp);
        kappa_aborted = true;
      } else {
        m = std::max(kappa.kappa, t.MaxBodyVariables());
        m = std::max(m, 1);
      }
    }
    if (!kappa_aborted) {
      m = std::min(m, options.max_m);
      result.kappa = m;
      kappa_scope.set_progress("m=" + std::to_string(m));
    }
  }
  if (kappa_aborted) {
    // The scope above already closed the phase as "aborted", so the report
    // taken here shows it completed-with-abort rather than dangling open.
    finalize();
    return result;
  }

  // Step 7, for the finite chase and for every attempt: certifies `s`, a
  // chase or saturation result over the extended signature, in place and
  // returns the failure, empty when certified. D, T₀ and Q read only the
  // original predicates, whose rows ProjectToOriginal copies in row order,
  // so each check gets the verdict it would get on the projection, and
  // CheckModel the same first violation. Only the accepted model is
  // projected, into result.model; callers run this in the certify phase.
  auto certify = [&](const Structure& s) -> std::string {
    if (!s.ContainsAllFactsOf(instance)) return "candidate lost facts of D";
    if (auto violation = CheckModel(s, theory)) {
      return "not a model: " + violation->ToString(*sig);
    }
    if (Satisfies(s, query)) return "candidate satisfies the query";
    result.model = ProjectToOriginal(s, num_original_preds);
    return "";
  };

  size_t depth = options.initial_chase_depth;
  bool stop = false;
  while (!stop) {
    if (depth >= options.max_chase_depth) {
      depth = options.max_chase_depth;
      stop = true;
    }
    // Step 3: chase prefix. The chase runs under its own child context so
    // its max_rounds trip stays local — the depth-doubling loop depends on
    // retrying after exactly that trip. A chase-phase *memory* trip is
    // likewise local to the phase's sub-budget: the pipeline proceeds with
    // the prefix (graceful degradation); only root-level trips abort.
    ChaseResult chase = [&] {
      PhaseScope scope(ctx, "chase");
      ChaseOptions copts;
      copts.max_rounds = depth;
      copts.max_facts = options.max_chase_facts;
      copts.paranoia = options.paranoia;
      SupervisorOptions sup;
      sup.context = ctx;
      sup.child_memory_limit = chase_mem;
      SupervisedChase s = RunChaseSupervised(t, instance, copts, sup);
      scope.set_progress("depth " + std::to_string(depth) + ", " +
                         std::to_string(s.result.structure.NumFacts()) +
                         " facts" +
                         (s.recovered ? ", recovered after " +
                                            std::to_string(s.attempts) +
                                            " attempts"
                                      : std::string()));
      return std::move(s.result);
    }();

    // An unrecovered kInternal (injected fault / paranoia violation that
    // survived every retry) ends the run with the best prefix:
    // the chase's round-atomic contract makes it a complete prefix.
    if (chase.status.code() == StatusCode::kInternal) {
      result.status = chase.status;
      result.partial_chase = std::move(chase.structure);
      result.partial_chase_rounds = chase.rounds_run;
      finalize();
      return result;
    }

    Status chase_cp = ctx->CheckPoint("pipeline chase");
    if (!chase_cp.ok()) {
      // Governed trip: hand back the best partial result — the chase
      // prefix up to its last complete round — with the report attached.
      result.status = std::move(chase_cp);
      result.partial_chase = std::move(chase.structure);
      result.partial_chase_rounds = chase.rounds_run;
      finalize();
      return result;
    }

    // F present => Chase(D, T₀) ⊨ Q: no counter-model exists (§3.1).
    if (!chase.structure.Rows(f_pred).empty()) {
      release(chase.structure);
      result.query_certainly_true = true;
      result.status = Status::FailedPrecondition(
          "the query is certainly true: Chase(D, T) derives it");
      finalize();
      result.report.partial_result = false;
      return result;
    }

    if (chase.fixpoint_reached) {
      // The chase itself is a finite model avoiding F; certify directly.
      PipelineAttempt attempt;
      attempt.chase_depth = chase.rounds_run;
      attempt.n = 0;
      {
        PhaseScope scope(ctx, "certify");
        attempt.certified = certify(chase.structure).empty();
        if (!attempt.certified) {
          attempt.failure = "finite chase failed certification";
        }
        scope.set_progress(attempt.certified
                               ? "finite chase certified directly"
                               : attempt.failure);
      }
      result.attempts.push_back(attempt);
      release(chase.structure);
      // A deeper chase cannot change a reached fixpoint.
      if (!attempt.certified) break;
      result.chase_depth_used = chase.rounds_run;
      finalize();
      result.report.partial_result = false;
      return result;
    }

    // Step 4: skeleton.
    SkeletonAnalysis forest;
    Skeleton skeleton = [&] {
      PhaseScope scope(ctx, "skeleton");
      Skeleton s = SkeletonOf(t, instance, chase);
      forest = AnalyzeSkeleton(s.structure);
      scope.set_progress(std::to_string(s.structure.NumFacts()) + " facts");
      return s;
    }();
    if (!forest.is_forest) {
      release(chase.structure);
      result.status = Status::Internal(
          "skeleton is not a forest — (♠5) normalization violated Lemma 3");
      return result;
    }

    // Step 5: color, quotient; step 6: saturate; step 7: certify.
    Result<Coloring> coloring = [&] {
      PhaseScope scope(ctx, "color");
      return NaturalColoring(skeleton.structure, m);
    }();
    if (!coloring.ok()) {
      release(chase.structure);
      result.status = coloring.status();
      return result;
    }
    const Coloring& col = coloring.value();

    for (int n = options.initial_n; n <= options.max_n; ++n) {
      Status cp = ctx->CheckPoint("pipeline attempt");
      if (!cp.ok()) {
        result.status = std::move(cp);
        result.partial_chase = std::move(chase.structure);
        result.partial_chase_rounds = chase.rounds_run;
        finalize();
        return result;
      }
      PipelineAttempt attempt;
      attempt.chase_depth = depth;
      attempt.n = n;
      attempt.skeleton_facts = skeleton.structure.NumFacts();

      // Quotient by the ancestor-path partition: it computes the types the
      // elements have in the *infinite* chase, so the prefix frontier merges
      // with interior elements instead of leaving witness-less tails (see
      // ptype.h). Prefix-exact partitions (ExactPtpPartition) would keep
      // the frontier distinct and the candidate would fail certification.
      Quotient quotient = [&] {
        PhaseScope scope(ctx, "quotient");
        TypePartition partition = AncestorPathPartition(col.colored, n);
        Quotient q = BuildQuotient(col.colored, partition);
        scope.set_progress(
            "n=" + std::to_string(n) + ", " +
            std::to_string(q.structure.Domain().size()) + " elements");
        return q;
      }();
      attempt.quotient_size =
          static_cast<int>(quotient.structure.Domain().size());

      if (options.check_conservativity) {
        std::unique_ptr<ExecutionContext> cons_ctx = ctx->CreateChild(0);
        ConservativityReport rep = CheckConservativeUpTo(
            col.colored, quotient, m, col.base_predicates,
            options.max_patterns, cons_ctx.get());
        // A budget trip makes rep.conservative meaningless — say so
        // instead of silently reporting "not conservative".
        attempt.conservativity_inconclusive = !rep.status.ok();
        attempt.conservative = rep.status.ok() && rep.conservative;
      }

      // Step 6: datalog saturation (Lemma 5: the TGDs stay satisfied).
      ChaseResult saturated = [&] {
        PhaseScope scope(ctx, "saturate");
        ChaseOptions sat;
        sat.datalog_only = true;
        sat.max_rounds = options.max_saturation_rounds;
        // No fact cap: the saturation is datalog-only over the quotient's
        // finite domain, so it stops within sum_p |M|^ar(p) facts; the
        // governor's memory budget stays the guard.
        sat.max_facts = SIZE_MAX;
        sat.paranoia = options.paranoia;
        SupervisorOptions sup;
        sup.context = ctx;
        SupervisedChase s = RunChaseSupervised(t, quotient.structure, sat, sup);
        scope.set_progress(std::to_string(s.result.structure.NumFacts()) +
                           " facts");
        return std::move(s.result);
      }();
      if (saturated.status.code() == StatusCode::kInternal) {
        release(saturated.structure);
        result.status = saturated.status;
        result.partial_chase = std::move(chase.structure);
        result.partial_chase_rounds = chase.rounds_run;
        finalize();
        return result;
      }
      if (!saturated.status.ok()) {
        // Checked before the release: the trip is judged on the budget as
        // the saturation left it.
        Status sat_cp = ctx->CheckPoint("pipeline saturation");
        release(saturated.structure);
        if (!sat_cp.ok()) {
          result.status = std::move(sat_cp);
          result.partial_chase = std::move(chase.structure);
          result.partial_chase_rounds = chase.rounds_run;
          finalize();
          return result;
        }
        attempt.failure = "saturation: " + saturated.status.ToString();
        result.attempts.push_back(attempt);
        continue;
      }

      // Step 7: certification against the ORIGINAL theory and query.
      {
        PhaseScope cert_scope(ctx, "certify");
        attempt.failure = certify(saturated.structure);
        attempt.certified = attempt.failure.empty();
        cert_scope.set_progress(
            attempt.certified
                ? "model with " + std::to_string(result.model.NumFacts()) +
                      " facts at depth " + std::to_string(depth) +
                      ", n=" + std::to_string(n)
                : attempt.failure);
      }
      result.attempts.push_back(attempt);
      release(saturated.structure);
      if (attempt.certified) {
        release(chase.structure);
        result.n_used = n;
        result.chase_depth_used = depth;
        finalize();
        result.report.partial_result = false;
        return result;
      }
    }
    // This depth's chase prefix is rebuilt (deeper) next iteration; hand
    // its allowance back to the budget.
    release(chase.structure);
    depth *= 2;
  }

  // Reaching this point means every attempt failed on its *explicit*
  // per-attempt budgets or certification — never a silent governor trip
  // (those return above, as ResourceExhausted with the report attached).
  ctx->NotePhase("pipeline",
                 std::to_string(result.attempts.size()) + " attempts, none certified");
  result.status = Status::Unknown(
      "no certified finite model within budgets (" +
      std::to_string(result.attempts.size()) + " attempts)");
  finalize();
  result.report.partial_result = false;
  return result;
}

}  // namespace bddfc
