#include "bddfc/finitemodel/model_search.h"

#include <vector>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"

namespace bddfc {

namespace {

/// All tuples over `domain` of length `arity`, in lexicographic order.
void EnumerateTuples(const std::vector<TermId>& domain, int arity,
                     std::vector<std::vector<TermId>>* out) {
  std::vector<TermId> tuple(arity);
  std::vector<size_t> idx(arity, 0);
  while (true) {
    for (int i = 0; i < arity; ++i) tuple[i] = domain[idx[i]];
    out->push_back(tuple);
    int pos = arity - 1;
    while (pos >= 0 && ++idx[pos] == domain.size()) {
      idx[pos] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  if (arity == 0) out->clear();  // 0-ary handled separately
}

}  // namespace

ModelSearchResult FindFiniteModel(const Theory& theory,
                                  const Structure& instance,
                                  const ConjunctiveQuery* avoid,
                                  const ModelSearchOptions& options) {
  ModelSearchResult result;
  ExecutionContext local_ctx;
  ExecutionContext* ctx =
      options.context != nullptr ? options.context : &local_ctx;

  obs::TraceSpan span(&ctx->tracer(), "model_search.run");
  // Publishes on every return path (the search exits from several places)
  // into the run's registry — resolved here, not at publication, so the
  // destructor never touches process-global state.
  struct Publish {
    const ModelSearchResult& r;
    obs::MetricsRegistry& reg;
    ~Publish() {
      if (reg.enabled()) {
        reg.GetCounter("bddfc.model_search.runs")->Add(1);
        reg.GetCounter("bddfc.model_search.structures_checked")
            ->Add(r.structures_checked);
      }
    }
  } publish{result, ctx->metrics_registry()};
  SignaturePtr sig = theory.signature_ptr();

  for (int extra = 0; extra <= options.max_extra_elements; ++extra) {
    std::vector<TermId> domain = instance.Domain();
    for (int i = 0; i < extra; ++i) {
      domain.push_back(sig->AddNull("ms"));
    }
    if (domain.empty()) continue;

    // Optional atoms: every possible ground atom not already in D.
    std::vector<Atom> optional;
    bool too_big = false;
    for (PredId p = 0; p < sig->num_predicates() && !too_big; ++p) {
      if (sig->IsColor(p)) continue;
      std::vector<std::vector<TermId>> tuples;
      if (sig->arity(p) == 0) {
        tuples.push_back({});
      } else {
        EnumerateTuples(domain, sig->arity(p), &tuples);
      }
      for (auto& t : tuples) {
        if (!instance.Contains(p, t)) {
          optional.push_back(Atom(p, std::move(t)));
        }
        if (optional.size() > 62) {
          too_big = true;
          break;
        }
      }
    }
    if (too_big ||
        (optional.size() < 62 &&
         (uint64_t{1} << optional.size()) > options.max_structures)) {
      result.status = Status::ResourceExhausted(
          "model search space too large at extra=" + std::to_string(extra));
      return result;
    }

    uint64_t limit = uint64_t{1} << optional.size();
    for (uint64_t mask = 0; mask < limit; ++mask) {
      if (ctx->ShouldStop("model search")) {
        result.status = ctx->CheckPoint("model search abort");
        return result;
      }
      if (++result.structures_checked > options.max_structures) {
        result.status = ctx->RecordExhaustion(
            ResourceKind::kStructures,
            "model search exceeded max_structures=" +
                std::to_string(options.max_structures));
        return result;
      }
      Structure candidate(sig);
      instance.ForEachFact([&](PredId p, TupleRef row) {
        candidate.AddFact(p, row);
      });
      for (TermId e : domain) candidate.AddDomainElement(e);
      for (size_t i = 0; i < optional.size(); ++i) {
        if (mask & (uint64_t{1} << i)) candidate.AddFact(optional[i]);
      }
      if (avoid != nullptr && Satisfies(candidate, *avoid)) continue;
      if (CheckModel(candidate, theory) != std::nullopt) continue;
      result.found = true;
      result.model = std::move(candidate);
      return result;
    }
  }
  return result;
}

}  // namespace bddfc
