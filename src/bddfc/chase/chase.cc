#include "bddfc/chase/chase.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_set>

#include "bddfc/base/parallel.h"
#include "bddfc/chase/round.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"

namespace bddfc {

void ChaseStats::PublishTo(const char* prefix,
                           obs::MetricsRegistry& reg) const {
  if (!reg.enabled()) return;
  // Handles are resolved per call: registries are per-session now
  // (DESIGN.md §2.15), so a static cache keyed on the first caller's
  // registry would silently publish one session's counters into
  // another's — the exact cross-request interleaving bug the RunContext
  // refactor removes. Publication happens once per run, so the string
  // assembly and map lookups are off every hot loop.
  struct Handles {
    std::string prefix;
    obs::Counter* bindings_tried;
    obs::Counter* postings_hits;
    obs::Counter* postings_misses;
    obs::Counter* rows_scanned;
    obs::Counter* triggers_deduped;
    obs::Counter* datalog_deduped;
    obs::Counter* sink_candidates;
    obs::Counter* sink_contained;
    obs::Counter* sink_probes;
    obs::Histogram* round_us;
  };
  auto resolve = [&reg](const char* pfx) {
    const std::string p(pfx);
    return Handles{p,
                   reg.GetCounter(p + ".bindings_tried"),
                   reg.GetCounter(p + ".postings_hits"),
                   reg.GetCounter(p + ".postings_misses"),
                   reg.GetCounter(p + ".rows_scanned"),
                   reg.GetCounter(p + ".triggers_deduped"),
                   reg.GetCounter(p + ".datalog_deduped"),
                   reg.GetCounter(p + ".sink_candidates"),
                   reg.GetCounter(p + ".sink_contained"),
                   reg.GetCounter(p + ".sink_probes"),
                   reg.GetHistogram(p + ".round_us")};
  };
  auto publish = [this](const Handles& h) {
    h.bindings_tried->Add(match.bindings_tried);
    h.postings_hits->Add(match.postings_hits);
    h.postings_misses->Add(match.postings_misses);
    h.rows_scanned->Add(match.rows_scanned);
    h.triggers_deduped->Add(triggers_deduped);
    h.datalog_deduped->Add(datalog_deduped);
    h.sink_candidates->Add(sink_candidates);
    h.sink_contained->Add(sink_contained);
    h.sink_probes->Add(sink_probes);
    for (double ms : round_ms) {
      h.round_us->Record(static_cast<uint64_t>(ms * 1000.0));
    }
  };
  publish(resolve(prefix));
}

using chase_internal::ApplyRound;
using chase_internal::EnumerateRound;
using chase_internal::RoundBuffer;
using chase_internal::RoundInputs;
using chase_internal::SelfTestBug;

ChaseResult RunChase(const Theory& theory, const Structure& instance,
                     const ChaseOptions& options) {
  assert(theory.signature_ptr().get() == instance.signature_ptr().get() &&
         "theory and instance must share one Signature object");
  ChaseResult out(instance.signature_ptr());
  obs::TraceSpan run_span(&ContextTracer(options.context),
                          options.datalog_only ? "chase.datalog"
                                               : "chase.run");

  // Ungoverned runs get a cheap local context (no deadline, no limits, no
  // accountant attached) so the loop below has a single code path; its
  // checks are a handful of relaxed atomic loads per round.
  ExecutionContext local_ctx;
  ExecutionContext* ctx =
      options.context != nullptr ? options.context : &local_ctx;
  const bool governed = options.context != nullptr;
  if (governed) out.structure.SetAccountant(&ctx->memory());

  // The run's self-test bug: the one a faults::kChaseBug fire names (the
  // site is hit once per run, so an after-N spec counts RunChase calls).
  const SelfTestBug bug = [ctx] {
    FaultRegistry* freg = ctx->fault_registry();
    const std::string action = freg != nullptr && freg->enabled()
                                   ? freg->Hit(faults::kChaseBug).action
                                   : "";
    if (action == faults::kBugChaseDedup) {
      return SelfTestBug::kSkipTriggerDedup;
    }
    if (action == faults::kBugTornExhaust) return SelfTestBug::kTornExhaust;
    if (action == faults::kBugSinkDropDup) return SelfTestBug::kSinkDropDup;
    return SelfTestBug::kNone;
  }();
  const ParanoiaLevel paranoia = options.paranoia;

  // Detaches the run-scoped accountant and snapshots the resource report;
  // called before every return so results never carry dangling pointers.
  auto finalize = [&] {
    out.structure.SetAccountant(nullptr);
    std::string progress =
        "round " + std::to_string(out.rounds_run) + ", " +
        std::to_string(out.structure.NumFacts()) + " facts" +
        (out.fixpoint_reached ? ", fixpoint" : "");
    run_span.set_detail(progress);
    ctx->NotePhase("chase", std::move(progress));
    out.report = ctx->report();
    out.report.partial_result =
        !out.status.ok() && out.structure.NumFacts() > 0;
    // The run publishes into its context's registry (a per-request one
    // under the serving layer, the process registry otherwise). No static
    // handle cache: handles are registry-specific.
    obs::MetricsRegistry& reg = ctx->metrics_registry();
    out.stats.PublishTo("bddfc.chase", reg);
    if (reg.enabled()) {
      reg.GetCounter("bddfc.chase.runs")->Add(1);
      reg.GetCounter("bddfc.chase.rounds")->Add(out.rounds_run);
      reg.GetCounter("bddfc.chase.nulls_created")->Add(out.nulls_created);
      reg.GetGauge("bddfc.chase.last_facts")->Set(out.structure.NumFacts());
    }
  };

  // Records every relation's row count at a round boundary; the records
  // are what FactRound derives birth rounds from.
  auto record_round_rows = [&out] {
    std::vector<uint32_t>& rows =
        out.round_rows.emplace_back(out.structure.NumStoredPredicates());
    for (size_t p = 0; p < rows.size(); ++p) {
      rows[p] = static_cast<uint32_t>(
          out.structure.NumFacts(static_cast<PredId>(p)));
    }
  };

  // Round 0: copy the instance, one batch per relation.
  {
    obs::TraceSpan load_span(&ctx->tracer(), "chase.load");
    for (PredId p = 0; p < instance.NumStoredPredicates(); ++p) {
      const RowsView rows = instance.Rows(p);
      out.structure.AppendRows(p, rows.data(), rows.size());
    }
    for (TermId c : instance.Domain()) out.structure.AddDomainElement(c);
    out.facts_per_round.push_back(out.structure.NumFacts());
    record_round_rows();
  }

  // Oblivious mode: remember fired (rule, body-binding) pairs so each
  // trigger fires exactly once over the whole run (the blind chase creates
  // one witness per trigger, not one per round).
  std::unordered_set<std::string> fired;

  // The production engine fans each round's chunk tasks out over
  // ParallelFor on `threads` workers. The reference (kNaive) uses none of
  // the production machinery: no fan-out, no plans, no sorted indexes.
  const bool production = options.engine != ChaseEngine::kNaive;
  const size_t threads =
      options.threads != 0 ? options.threads : DefaultThreads();

  for (size_t round = 1; round <= options.max_rounds; ++round) {
    // Round boundary: the structure holds exactly Chase^{round-1}, so a
    // trip here returns a clean prefix.
    Status cp = ctx->CheckPoint("chase round start");
    if (cp.ok()) cp = ctx->CheckFault(faults::kChaseRound);
    if (!cp.ok()) {
      out.status = std::move(cp);
      finalize();
      return out;
    }

    const auto round_start = std::chrono::steady_clock::now();
    obs::TraceSpan round_span(&ctx->tracer(), "chase.round");

    // Round boundaries are the single-threaded point of the run: extend
    // the tuple-ordered indexes (read by the sink's bulk containment) over
    // the previous round's additions before any (possibly parallel) task
    // starts reading them.
    if (production) {
      Status fs = ctx->CheckFault(faults::kIndexRefresh);
      if (!fs.ok()) {
        out.status = std::move(fs);
        finalize();
        return out;
      }
      {
        obs::TraceSpan refresh_span(&ctx->tracer(), "chase.refresh");
        out.structure.RefreshIndexes();
      }
      if (paranoia != ParanoiaLevel::kOff) {
        // Index watermark freshness: every scan this round assumes the
        // sorted indexes cover every stored row.
        for (PredId p = 0; p < out.structure.NumStoredPredicates(); ++p) {
          if (out.structure.IndexedRows(p) != out.structure.NumFacts(p)) {
            out.status = ctx->RecordInvariantViolation(
                "paranoia: stale sorted index for pred " + std::to_string(p) +
                " after refresh (" +
                std::to_string(out.structure.IndexedRows(p)) + " of " +
                std::to_string(out.structure.NumFacts(p)) +
                " rows covered) at round " + std::to_string(round));
            finalize();
            return out;
          }
        }
      }
    }

    // Enumerate this round's derivations against the Chase^{round-1}
    // snapshot into a buffer; the structure is not touched until the
    // buffer is applied, so every engine sees one frozen instance.
    RoundBuffer buf;
    RoundInputs inputs{theory, out.structure, options, ctx, &fired, bug,
                       threads};
    Status barrier = EnumerateRound(inputs, &buf);

    auto elapsed_ms = [&round_start] {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - round_start)
          .count();
    };
    // Fold the round's counters into the run stats; the run records the
    // measured barrier-to-barrier round time below.
    out.stats += buf.stats;

    // A non-OK barrier means shard tasks were skipped on a tripped
    // context: the buffer is incomplete, so the round is discarded.
    if (ctx->Exhausted() || !barrier.ok()) {
      // The governor tripped mid-enumeration: the buffered additions are
      // an incomplete round. Discard them so the structure stays the
      // Chase^{round-1} prefix (unless the torn-exhaust fault is injected,
      // which applies them to give the prefix oracle a bug to catch; their
      // rows lie past the last round record, so FactRound reports them
      // as born in this unfinished round).
      if (bug == SelfTestBug::kTornExhaust) {
        chase_internal::AddRuns(buf.datalog, &out.structure);
      }
      Status abort_status = ctx->CheckPoint("chase round abort");
      out.status = !abort_status.ok() ? std::move(abort_status)
                                      : std::move(barrier);
      // Round-prefix consistency: an interrupted run must still hold
      // exactly Chase^{round-1}. A mismatch means a torn (non-atomic)
      // round application leaked into the result — corruption, not a
      // budget trip, so it overrides the exhaustion status.
      if (paranoia != ParanoiaLevel::kOff &&
          out.structure.NumFacts() != out.facts_per_round.back()) {
        out.status = ctx->RecordInvariantViolation(
            "paranoia: torn round prefix on trip at round " +
            std::to_string(round) + " (" +
            std::to_string(out.structure.NumFacts()) + " facts vs " +
            std::to_string(out.facts_per_round.back()) +
            " at the last round boundary)");
      }
      out.stats.round_ms.push_back(elapsed_ms());
      finalize();
      return out;
    }

    // Sink counter identity (paranoia): every buffered datalog occurrence
    // is either contained in the frozen structure, collapsed as an
    // in-round duplicate, or emitted as a fresh tuple. A sink that drops
    // or double-counts tuples breaks this identity. Only the production
    // engine's vectorized sink populates sink_candidates.
    if (paranoia != ParanoiaLevel::kOff && production &&
        buf.stats.sink_candidates != buf.stats.sink_contained +
                                         buf.stats.datalog_deduped +
                                         buf.datalog_facts()) {
      out.status = ctx->RecordInvariantViolation(
          "paranoia: sink counter identity violated at round " +
          std::to_string(round) + " (candidates=" +
          std::to_string(buf.stats.sink_candidates) + " contained=" +
          std::to_string(buf.stats.sink_contained) + " deduped=" +
          std::to_string(buf.stats.datalog_deduped) + " new=" +
          std::to_string(buf.datalog_facts()) + ")");
      out.stats.round_ms.push_back(elapsed_ms());
      finalize();
      return out;
    }

    // Full paranoia re-verifies the buffer against the frozen structure
    // (VerifyRoundBuffer): emitted tuples must be pairwise distinct and
    // absent from Chase^{round-1} (the guarantees the sink's sort-dedup and
    // bulk containment pass claim to have enforced).
    if (paranoia == ParanoiaLevel::kFull) {
      Status verify = chase_internal::VerifyRoundBuffer(buf, out.structure);
      if (!verify.ok()) {
        out.status = ctx->RecordInvariantViolation(
            "paranoia: " + verify.message() + " at round " +
            std::to_string(round));
        out.stats.round_ms.push_back(elapsed_ms());
        finalize();
        return out;
      }
    }

    if (buf.empty()) {
      out.stats.round_ms.push_back(elapsed_ms());
      out.fixpoint_reached = true;
      break;
    }

    // Last abort point with the buffer still unapplied: a fault here
    // discards the whole round, so the structure stays a clean prefix.
    Status alloc_cp = ctx->CheckFault(faults::kChaseAlloc);
    if (!alloc_cp.ok()) {
      out.status = std::move(alloc_cp);
      out.stats.round_ms.push_back(elapsed_ms());
      finalize();
      return out;
    }

    // Record the round boundary *before* applying this round's additions:
    // the rows inserted below form the delta of the next round.
    size_t added = 0;
    {
      obs::TraceSpan apply_span(&ctx->tracer(), "chase.apply");
      out.structure.MarkRoundBoundary();
      added = ApplyRound(theory, buf, round, &out);
    }

    out.rounds_run = round;
    out.facts_per_round.push_back(out.structure.NumFacts());
    record_round_rows();
    out.stats.round_ms.push_back(elapsed_ms());

    if (added == 0) {
      // Buffered additions all turned out to be duplicates: fixpoint.
      out.fixpoint_reached = true;
      break;
    }
    if (out.structure.NumFacts() > options.max_facts) {
      out.status = ctx->RecordExhaustion(
          ResourceKind::kFacts,
          "chase exceeded max_facts=" + std::to_string(options.max_facts) +
              " at round " + std::to_string(round));
      finalize();
      return out;
    }
  }

  if (!out.fixpoint_reached) {
    out.status = ctx->RecordExhaustion(
        ResourceKind::kRounds,
        "chase did not reach a fixpoint within max_rounds=" +
            std::to_string(options.max_rounds));
  }
  finalize();
  return out;
}

int ChaseResult::FactRound(FactHandle h) const {
  auto rows_at = [&h](const std::vector<uint32_t>& rows) {
    return static_cast<size_t>(h.pred) < rows.size() ? rows[h.pred] : 0u;
  };
  // Row counts never shrink from one round to the next: the records not
  // yet holding the row form a prefix.
  auto born = std::partition_point(
      round_rows.begin(), round_rows.end(),
      [&](const std::vector<uint32_t>& rows) { return rows_at(rows) <= h.row; });
  return born == round_rows.end()
             ? static_cast<int>(rounds_run) + 1
             : static_cast<int>(born - round_rows.begin());
}

std::vector<std::vector<Atom>> ChaseResult::FactsByRound() const {
  std::vector<std::vector<Atom>> out;
  for (PredId p = 0; p < structure.NumStoredPredicates(); ++p) {
    const RowsView rows = structure.Rows(p);
    for (uint32_t row = 0; row < rows.size(); ++row) {
      const size_t round = static_cast<size_t>(FactRound({p, row}));
      if (round >= out.size()) out.resize(round + 1);
      out[round].emplace_back(p, rows[row]);
    }
  }
  return out;
}

std::string RuleViolation::ToString(const Signature& sig) const {
  std::string s = "rule #" + std::to_string(rule_index) + " violated by ";
  for (size_t i = 0; i < grounded_body.size(); ++i) {
    if (i) s += ", ";
    s += grounded_body[i].ToString(sig);
  }
  return s;
}

std::optional<RuleViolation> CheckModel(const Structure& m,
                                        const Theory& theory) {
  // The certifier shares no evaluator with the production engine: bodies
  // are enumerated by the interpretive Matcher, a TGD head is answered by
  // Matcher::Exists and a datalog head by one exact-tuple FindRow probe
  // per atom, the store lookup the plan executor also uses.
  Matcher matcher(m);
  std::optional<RuleViolation> violation;
  for (size_t ri = 0; ri < theory.rules().size() && !violation; ++ri) {
    const Rule& rule = theory.rules()[ri];
    const bool datalog = rule.IsDatalog();
    // The head, grounded in place for every match: bound variables take
    // the match's values, existential ones stay free for the Matcher.
    std::vector<Atom> head = rule.head;
    matcher.Enumerate(rule.body, {}, [&](const Binding& b) {
      for (size_t i = 0; i < head.size(); ++i) {
        for (size_t j = 0; j < head[i].args.size(); ++j) {
          const TermId t = rule.head[i].args[j];
          if (!IsVar(t)) continue;
          auto it = b.find(t);
          if (it != b.end()) head[i].args[j] = it->second;
        }
      }
      const bool holds =
          datalog ? std::all_of(head.begin(), head.end(),
                                [&m](const Atom& a) { return m.Contains(a); })
                  : matcher.Exists(head, {});
      if (!holds) {
        RuleViolation v;
        v.rule_index = static_cast<int>(ri);
        for (const Atom& a : rule.body) {
          Atom g = a;
          for (TermId& t : g.args) {
            auto it = b.find(t);
            if (it != b.end()) t = it->second;
          }
          v.grounded_body.push_back(std::move(g));
        }
        violation = std::move(v);
        return false;
      }
      return true;
    });
  }
  return violation;
}

}  // namespace bddfc
