#include "bddfc/rewrite/rewriter.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_set>

#include "bddfc/base/parallel.h"
#include "bddfc/chase/chase.h"
#include "bddfc/core/substitution.h"
#include "bddfc/eval/containment.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"

namespace bddfc {

namespace {

/// Splits multi-head datalog rules into single-head ones (semantically
/// equivalent) so the rewriting only sees single-head rules. Multi-head
/// existential TGDs are reported unsupported.
Result<std::vector<Rule>> PrepareRules(const Theory& theory) {
  std::vector<Rule> out;
  for (const Rule& r : theory.rules()) {
    if (r.head.size() == 1) {
      out.push_back(r);
      continue;
    }
    if (r.IsExistential()) {
      return Status::FailedPrecondition(
          "rewriting requires single-head existential TGDs; rule '" +
          r.label + "' is a multi-head TGD (apply the §5.3 reduction first)");
    }
    for (const Atom& h : r.head) {
      Rule single;
      single.body = r.body;
      single.head.push_back(h);
      single.label = r.label;
      out.push_back(std::move(single));
    }
  }
  return out;
}

/// Applies a substitution to a whole query.
ConjunctiveQuery ApplySubst(const Substitution& s, const ConjunctiveQuery& q) {
  ConjunctiveQuery out;
  out.atoms = s.Apply(q.atoms);
  out.answer_vars.reserve(q.answer_vars.size());
  for (TermId v : q.answer_vars) out.answer_vars.push_back(s.Resolve(v));
  return out;
}

/// One backward-resolution step: resolve q.atoms[i] against `rule`
/// (renamed apart). Returns the rewritten query, or nullopt when the
/// applicability conditions fail.
std::optional<ConjunctiveQuery> ResolveStep(const ConjunctiveQuery& q,
                                            size_t i, const Rule& rule) {
  Substitution mgu;
  if (!UnifyAtoms(q.atoms[i], rule.head[0], &mgu)) return std::nullopt;

  // Applicability of existential variables (Cali–Gottlob–Pieris): each
  // existential variable z must resolve to a variable that (a) is not an
  // answer variable, (b) occurs in no other atom of q, and (c) is not
  // identified with any frontier variable or other existential variable.
  std::vector<TermId> existentials = rule.ExistentialVariables();
  std::vector<TermId> frontier = rule.FrontierVariables();
  for (size_t zi = 0; zi < existentials.size(); ++zi) {
    TermId t = mgu.Resolve(existentials[zi]);
    if (!IsVar(t)) return std::nullopt;  // unified with a constant
    for (TermId av : q.answer_vars) {
      if (mgu.Resolve(av) == t) return std::nullopt;
    }
    for (size_t j = 0; j < q.atoms.size(); ++j) {
      if (j == i) continue;
      for (TermId arg : q.atoms[j].args) {
        if (IsVar(arg) && mgu.Resolve(arg) == t) return std::nullopt;
      }
    }
    for (TermId f : frontier) {
      if (mgu.Resolve(f) == t) return std::nullopt;
    }
    for (size_t zj = zi + 1; zj < existentials.size(); ++zj) {
      if (mgu.Resolve(existentials[zj]) == t) return std::nullopt;
    }
  }

  ConjunctiveQuery rest;
  rest.answer_vars = q.answer_vars;
  for (size_t j = 0; j < q.atoms.size(); ++j) {
    if (j != i) rest.atoms.push_back(q.atoms[j]);
  }
  for (const Atom& b : rule.body) rest.atoms.push_back(b);
  return ApplySubst(mgu, rest);
}

/// Factorization step: unify two same-predicate atoms that share a
/// variable. The result is contained in q (sound to add) and can unblock
/// resolution steps whose shared-variable condition failed.
void Factorizations(const ConjunctiveQuery& q,
                    std::vector<ConjunctiveQuery>* out) {
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    for (size_t j = i + 1; j < q.atoms.size(); ++j) {
      if (q.atoms[i].pred != q.atoms[j].pred) continue;
      bool share = false;
      for (TermId a : q.atoms[i].args) {
        if (IsVar(a) &&
            std::find(q.atoms[j].args.begin(), q.atoms[j].args.end(), a) !=
                q.atoms[j].args.end()) {
          share = true;
          break;
        }
      }
      if (!share) continue;
      Substitution mgu;
      if (!UnifyAtoms(q.atoms[i], q.atoms[j], &mgu)) continue;
      if (mgu.empty()) continue;  // identical atoms: nothing to do
      out->push_back(ApplySubst(mgu, q));
    }
  }
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

size_t RewriteStats::TotalCandidates() const {
  size_t n = 0;
  for (const RewriteLevelStats& l : levels) n += l.candidates;
  return n;
}

size_t RewriteStats::TotalKeyDeduped() const {
  size_t n = 0;
  for (const RewriteLevelStats& l : levels) n += l.key_deduped;
  return n;
}

size_t RewriteStats::TotalSubsumptionPruned() const {
  size_t n = 0;
  for (const RewriteLevelStats& l : levels) n += l.subsumption_pruned;
  return n;
}

double RewriteStats::TotalAccumMs() const {
  double ms = 0;
  for (const RewriteLevelStats& l : levels) ms += l.accum_ms;
  return ms;
}

void RewriteStats::PublishTo(const char* prefix,
                             obs::MetricsRegistry& reg) const {
  if (!reg.enabled()) return;
  // Handles are resolved per call: with per-session registries under the
  // serving layer, a static handle cache would pin the first caller's
  // registry and silently publish every later session's counters there.
  const std::string p(prefix);
  reg.GetCounter(p + ".candidates")->Add(TotalCandidates());
  reg.GetCounter(p + ".key_deduped")->Add(TotalKeyDeduped());
  reg.GetCounter(p + ".subsumption_pruned")->Add(TotalSubsumptionPruned());
  reg.GetCounter(p + ".hom_checks")->Add(hom_checks);
  reg.GetCounter(p + ".hom_checks_skipped")->Add(hom_checks_skipped);
  reg.GetHistogram(p + ".depth")->Record(levels.size());
}

RewriteStats& RewriteStats::operator+=(const RewriteStats& o) {
  if (levels.size() < o.levels.size()) levels.resize(o.levels.size());
  for (size_t i = 0; i < o.levels.size(); ++i) {
    levels[i].candidates += o.levels[i].candidates;
    levels[i].key_deduped += o.levels[i].key_deduped;
    levels[i].subsumption_pruned += o.levels[i].subsumption_pruned;
    // Per-level times accumulate across merged runs (cpu-style): the sum
    // over a thread fan-out exceeds elapsed time by design and is labeled
    // accordingly (accum, not wall).
    levels[i].accum_ms += o.levels[i].accum_ms;
  }
  hom_checks += o.hom_checks;
  hom_checks_skipped += o.hom_checks_skipped;
  // True wall does NOT sum: merged runs overlapped (fan-out) or the caller
  // measures the batch itself (ComputeKappa/ProbeBdd overwrite this). The
  // max of the inputs is a sound lower bound in both cases. The seed
  // summed per-level wall times here, which made ComputeKappa report
  // "wall" time ~threads x the real elapsed time.
  wall_ms = std::max(wall_ms, o.wall_ms);
  return *this;
}

RewriteResult RewriteQuery(const Theory& theory, const ConjunctiveQuery& query,
                           const RewriteOptions& options) {
  RewriteResult result;
  obs::TraceSpan run_span(&ContextTracer(options.context), "rewrite.query");
  const auto run_start = std::chrono::steady_clock::now();
  Result<std::vector<Rule>> prepared = PrepareRules(theory);
  if (!prepared.ok()) {
    result.status = prepared.status();
    return result;
  }
  const std::vector<Rule>& rules = prepared.value();

  // Governed runs charge the exploration state (kept union + frontier) to
  // the shared accountant and release it on return; the estimate is per
  // kept CQ, not per allocation.
  ExecutionContext local_ctx;
  ExecutionContext* ctx =
      options.context != nullptr ? options.context : &local_ctx;
  size_t charged_bytes = 0;
  auto charge_query = [&](const ConjunctiveQuery& q) {
    size_t bytes = 96 + q.atoms.size() * 64;
    charged_bytes += bytes;
    ctx->memory().Charge(bytes);
  };

  ConjunctiveQuery start = query.Normalized();
  std::unordered_set<std::string> seen = {start.CanonicalKey()};
  std::vector<ConjunctiveQuery> all = {start};
  std::vector<ConjunctiveQuery> frontier = {start};
  charge_query(start);
  UcqSubsumptionIndex kept;
  SubsumptionStats probes;
  if (options.prune_subsumed) kept.Add(start);
  result.queries_generated = 1;
  bool budget_hit = false;
  bool governor_trip = false;
  std::string budget_reason;

  for (size_t depth = 1; depth <= options.max_depth && !frontier.empty();
       ++depth) {
    // Level boundary: a trip here (or mid-level below) cuts the union at
    // the last complete level, so the partial result is well defined.
    Status cp = ctx->CheckPoint("rewrite level start");
    if (!cp.ok()) {
      result.status = std::move(cp);
      governor_trip = true;
      break;
    }
    const size_t union_at_level_start = all.size();

    auto level_start = std::chrono::steady_clock::now();
    obs::TraceSpan level_span(&ctx->tracer(), "rewrite.level");
    RewriteLevelStats level;
    std::vector<ConjunctiveQuery> next;
    for (const ConjunctiveQuery& q : frontier) {
      if (ctx->ShouldStop("rewrite frontier")) {
        governor_trip = true;
        break;
      }
      // Rename rule variables apart from q's.
      int32_t next_var = 0;
      for (TermId v : q.Variables()) {
        next_var = std::max(next_var, DecodeVar(v) + 1);
      }

      std::vector<ConjunctiveQuery> candidates;
      for (const Rule& rule : rules) {
        Rule renamed = rule.RenamedApart(&next_var);
        for (size_t i = 0; i < q.atoms.size(); ++i) {
          std::optional<ConjunctiveQuery> step = ResolveStep(q, i, renamed);
          if (step.has_value()) candidates.push_back(std::move(*step));
        }
      }
      // Factorizations (the f-labeled queries of XRewrite) can unblock
      // resolution steps whose shared-variable applicability condition
      // failed on the parent; like every candidate they stay on the
      // frontier, and like every candidate they are dropped from the
      // output union when subsumed (a factorization always is — by its
      // parent, or by whatever subsumed the parent).
      Factorizations(q, &candidates);
      level.candidates += candidates.size();

      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        ConjunctiveQuery n = candidates[ci].Normalized();
        if (options.max_atoms_per_query != 0 &&
            n.atoms.size() > options.max_atoms_per_query) {
          budget_hit = true;
          budget_reason = "max_atoms_per_query";
          continue;
        }
        if (!seen.insert(n.CanonicalKey()).second) {
          ++level.key_deduped;
          continue;
        }
        const bool probing = options.prune_subsumed &&
                             probes.hom_checks < options.max_hom_checks;
        // A subsumed candidate adds nothing to the union, but its
        // rewritings are NOT always covered by the rewritings of the
        // subsuming disjunct (resolving an atom away can break the very
        // hom that witnessed subsumption), so it stays on the frontier:
        // pruning only shrinks the output UCQ, never the exploration.
        const bool subsumed = probing && kept.Subsumes(n, &probes);
        if (subsumed) ++level.subsumption_pruned;
        ++result.queries_generated;
        charge_query(n);
        if (!subsumed) {
          if (probing) kept.Add(n);
          all.push_back(n);
        }
        next.push_back(std::move(n));
        if (result.queries_generated >= options.max_queries) {
          budget_hit = true;
          budget_reason = "max_queries";
          break;
        }
      }
      if (budget_hit && budget_reason == "max_queries") break;
    }
    if (governor_trip) {
      // Discard this level's partial additions: the union stays the
      // last-complete-level prefix.
      all.resize(union_at_level_start);
      result.status = ctx->CheckPoint("rewrite level abort");
      level.accum_ms = MsSince(level_start);
      result.stats.levels.push_back(level);
      break;
    }
    level.accum_ms = MsSince(level_start);
    if (level_span.id() != 0) {
      level_span.set_detail("level " + std::to_string(depth) + ", " +
                            std::to_string(level.candidates) + " candidates");
    }
    result.stats.levels.push_back(level);
    if (budget_hit && budget_reason == "max_queries") {
      result.depth_reached = depth;
      break;
    }
    if (next.empty()) {
      result.depth_reached = depth - 1;
      frontier.clear();
      break;
    }
    result.depth_reached = depth;
    frontier = std::move(next);
  }

  if (!governor_trip && (!frontier.empty() || budget_hit)) {
    // Count budgets are run-local semi-decision outcomes (Unknown), not
    // governed-resource trips: inside a shared fan-out one query maxing
    // out max_queries must not cancel its siblings.
    result.status = Status::Unknown(
        "rewriting did not saturate (budget: " +
        (budget_reason.empty() ? std::string("max_depth") : budget_reason) +
        ")");
  }

  // Pairwise subsumption is quadratic; only minimize complete, reasonably
  // sized rewritings (an incomplete rewriting is diagnostic output anyway).
  const bool minimize = result.status.ok() && all.size() <= 1000;
  result.rewriting = minimize ? MinimizeUcq(all, &probes) : all;
  result.stats.hom_checks = probes.hom_checks;
  result.stats.hom_checks_skipped = probes.prefilter_skipped;
  for (const ConjunctiveQuery& q : result.rewriting) {
    result.max_variables = std::max(result.max_variables, q.NumVariables());
  }

  result.report = ctx->report();
  if (governor_trip) {
    result.report.partial_result = !result.rewriting.empty();
  } else if (!result.status.ok() &&
             result.report.exhausted == ResourceKind::kNone) {
    // Note the run-local count budget in this result's report without
    // latching the (possibly shared) context.
    result.report.exhausted = budget_reason == "max_queries"
                                  ? ResourceKind::kQueries
                              : budget_reason == "max_atoms_per_query"
                                  ? ResourceKind::kAtoms
                                  : ResourceKind::kRounds;
    result.report.detail = result.status.message();
    result.report.partial_result = !result.rewriting.empty();
  }
  ctx->memory().Release(charged_bytes);
  result.stats.wall_ms = MsSince(run_start);
  obs::MetricsRegistry& reg = ctx->metrics_registry();
  result.stats.PublishTo("bddfc.rewrite", reg);
  if (reg.enabled()) {
    reg.GetCounter("bddfc.rewrite.runs")->Add(1);
    reg.GetCounter("bddfc.rewrite.queries_generated")
        ->Add(result.queries_generated);
    reg.GetCounter("bddfc.rewrite.disjuncts")->Add(result.rewriting.size());
  }
  return result;
}

namespace {

/// The rewriting probe of a rule body: the body as a CQ whose free
/// variables are the frontier for TGDs (the paper's Ψ(x̄, y)) and the head
/// variables for datalog rules — they must survive the rewriting.
ConjunctiveQuery BodyProbe(const Rule& r) {
  ConjunctiveQuery body;
  body.atoms = r.body;
  body.answer_vars =
      r.IsExistential() ? r.FrontierVariables() : r.HeadVariables();
  return body;
}

/// Rewrites every probe query on options.threads workers. Results are
/// indexed by probe, so any downstream aggregation that scans them in probe
/// order is deterministic regardless of thread count.
std::vector<RewriteResult> RewriteAll(const Theory& theory,
                                      const std::vector<ConjunctiveQuery>& qs,
                                      const RewriteOptions& options) {
  std::vector<RewriteResult> results(qs.size());
  std::vector<char> ran(qs.size(), 0);
  ParallelFor(
      qs.size(), options.threads,
      [&](size_t i, size_t) {
        ran[i] = 1;
        results[i] = RewriteQuery(theory, qs[i], options);
        return Status::OK();
      },
      options.context);
  // Probes ParallelFor skipped on a governor trip never ran; without a
  // status their empty slots would read as saturated (empty) rewritings.
  for (size_t i = 0; i < qs.size(); ++i) {
    if (!ran[i] && options.context != nullptr) {
      results[i].status = options.context->CheckPoint("rewrite fan-out");
      results[i].report = options.context->report();
    }
  }
  return results;
}

}  // namespace

KappaResult ComputeKappa(const Theory& theory, const RewriteOptions& options) {
  KappaResult out;
  obs::TraceSpan span(&ContextTracer(options.context), "rewrite.kappa");
  const auto start = std::chrono::steady_clock::now();
  std::vector<ConjunctiveQuery> probes;
  probes.reserve(theory.rules().size());
  for (const Rule& r : theory.rules()) probes.push_back(BodyProbe(r));
  for (const RewriteResult& rr : RewriteAll(theory, probes, options)) {
    if (out.status.ok() && !rr.status.ok()) out.status = rr.status;
    out.kappa = std::max(out.kappa, rr.max_variables);
    out.stats += rr.stats;
  }
  // The merged per-level times are accumulated compute time; the fan-out's
  // true wall is measured here, around the whole batch.
  out.stats.wall_ms = MsSince(start);
  return out;
}

BddProbeResult ProbeBdd(const Theory& theory, const RewriteOptions& options) {
  BddProbeResult out;
  obs::TraceSpan span(&ContextTracer(options.context), "rewrite.probe_bdd");
  const auto start = std::chrono::steady_clock::now();
  // Probe 1: every rule body. Probe 2: one fresh atom per predicate.
  std::vector<ConjunctiveQuery> probes;
  for (const Rule& r : theory.rules()) probes.push_back(BodyProbe(r));
  for (PredId p = 0; p < theory.sig().num_predicates(); ++p) {
    if (theory.sig().IsColor(p)) continue;
    std::vector<TermId> args;
    for (int i = 0; i < theory.sig().arity(p); ++i) {
      args.push_back(MakeVar(i));
    }
    ConjunctiveQuery q;
    q.atoms.push_back(Atom(p, args));
    probes.push_back(std::move(q));
  }

  for (const RewriteResult& rr : RewriteAll(theory, probes, options)) {
    if (out.status.ok() && !rr.status.ok()) out.status = rr.status;
    out.max_depth_seen = std::max(out.max_depth_seen, rr.depth_reached);
    out.total_disjuncts += rr.rewriting.size();
    out.kappa = std::max(out.kappa, rr.max_variables);
    out.queries_generated += rr.queries_generated;
    out.stats += rr.stats;
  }
  out.stats.wall_ms = MsSince(start);
  out.certified = out.status.ok();
  return out;
}

int DerivationDepth(const Theory& theory, const Structure& instance,
                    const ConjunctiveQuery& q, size_t max_rounds) {
  // RunChase requires the theory and instance to share one Signature
  // object. Callers often parse the instance separately; re-intern such an
  // instance into the theory's signature (predicates and constants by
  // name) rather than chasing over mismatched id spaces.
  const Structure* inst = &instance;
  Structure reinterned(theory.signature_ptr());
  if (instance.signature_ptr().get() != theory.signature_ptr().get()) {
    const Signature& from = instance.sig();
    Signature& to = *theory.signature_ptr();
    bool ok = true;
    instance.ForEachFact([&](PredId p, TupleRef row) {
      Result<PredId> tp =
          to.AddPredicate(from.PredicateName(p), from.arity(p));
      if (!tp.ok()) {
        ok = false;  // same name, different arity: no sensible translation
        return;
      }
      std::vector<TermId> args;
      args.reserve(row.size());
      for (TermId c : row) args.push_back(to.AddConstant(from.ConstantName(c)));
      reinterned.AddFact(tp.value(), args);
    });
    if (!ok) return -1;
    inst = &reinterned;
  }

  ChaseOptions copts;
  copts.max_rounds = max_rounds;
  ChaseResult chase = RunChase(theory, *inst, copts);

  // Replay the facts round by round into a prefix structure and test the
  // query after each round.
  Structure prefix(chase.structure.signature_ptr());
  std::vector<std::vector<Atom>> by_round = chase.FactsByRound();
  for (size_t round = 0; round < by_round.size(); ++round) {
    for (const Atom& a : by_round[round]) prefix.AddFact(a);
    if (Satisfies(prefix, q)) return static_cast<int>(round);
  }
  return -1;
}

}  // namespace bddfc
