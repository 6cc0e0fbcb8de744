#include "bddfc/testing/shrinker.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

namespace bddfc {

namespace {

/// The mutable decomposition of a scenario the shrinker edits.
struct Parts {
  std::vector<Rule> rules;
  std::vector<Atom> facts;
  std::vector<ConjunctiveQuery> queries;
};

Parts Decompose(const Scenario& s) {
  Parts p;
  p.rules = s.theory.rules();
  s.instance.ForEachFact([&](PredId pred, TupleRef row) {
    p.facts.push_back(Atom(pred, row));
  });
  p.queries = s.queries;
  return p;
}

/// Rebuilds a scenario over the *shared* signature (removal never needs
/// new ids). nullopt when a candidate rule no longer validates.
std::optional<Scenario> Recompose(const Scenario& base, const Parts& p) {
  Scenario s(base.sig);
  s.family = base.family;
  s.seed = base.seed;
  for (const Rule& r : p.rules) {
    if (!s.theory.AddRule(r).ok()) return std::nullopt;
  }
  for (const Atom& f : p.facts) s.instance.AddFact(f);
  s.queries = p.queries;
  return s;
}

/// ddmin-style list reduction: tries dropping windows of decreasing size;
/// `fails_without` re-checks the oracle on the candidate list. Returns true
/// when anything was removed.
template <typename T, typename FailsWithout>
bool ShrinkList(std::vector<T>* items, const FailsWithout& fails_without,
                size_t max_attempts, ShrinkStats* stats) {
  bool progress = false;
  for (size_t chunk = std::max<size_t>(items->size() / 2, 1); chunk >= 1;
       chunk /= 2) {
    for (size_t start = 0; start < items->size();) {
      if (stats->attempts >= max_attempts) return progress;
      size_t len = std::min(chunk, items->size() - start);
      std::vector<T> candidate;
      candidate.reserve(items->size() - len);
      candidate.insert(candidate.end(), items->begin(),
                       items->begin() + static_cast<ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       items->begin() + static_cast<ptrdiff_t>(start + len),
                       items->end());
      ++stats->attempts;
      if (fails_without(candidate)) {
        *items = std::move(candidate);
        stats->removals += len;
        progress = true;  // same start: the next window shifted in
      } else {
        start += len;
      }
    }
    if (chunk == 1) break;
  }
  return progress;
}

}  // namespace

Scenario ShrinkScenario(const Scenario& s, const Oracle& oracle,
                        const OracleConfig& config, size_t max_attempts,
                        ShrinkStats* stats) {
  ShrinkStats local;
  if (stats == nullptr) stats = &local;

  auto fails = [&](const Parts& parts) {
    std::optional<Scenario> candidate = Recompose(s, parts);
    return candidate.has_value() &&
           oracle.Check(*candidate, config).failed();
  };

  Parts parts = Decompose(s);
  ++stats->attempts;
  if (!fails(parts)) return s;  // precondition violated: nothing to shrink

  bool progress = true;
  while (progress && stats->attempts < max_attempts) {
    progress = false;

    progress |= ShrinkList(&parts.rules,
                           [&](const std::vector<Rule>& rules) {
                             Parts cand = parts;
                             cand.rules = rules;
                             return fails(cand);
                           },
                           max_attempts, stats);
    progress |= ShrinkList(&parts.facts,
                           [&](const std::vector<Atom>& facts) {
                             Parts cand = parts;
                             cand.facts = facts;
                             return fails(cand);
                           },
                           max_attempts, stats);
    progress |= ShrinkList(&parts.queries,
                           [&](const std::vector<ConjunctiveQuery>& queries) {
                             Parts cand = parts;
                             cand.queries = queries;
                             return fails(cand);
                           },
                           max_attempts, stats);

    // Atom-level passes: drop single body/head atoms of rules and single
    // query atoms (each list keeps at least one atom).
    for (size_t ri = 0; ri < parts.rules.size(); ++ri) {
      for (auto member : {&Rule::body, &Rule::head}) {
        for (size_t ai = 0; (parts.rules[ri].*member).size() > 1 &&
                            ai < (parts.rules[ri].*member).size();) {
          if (stats->attempts >= max_attempts) break;
          Parts cand = parts;
          auto& atoms = cand.rules[ri].*member;
          atoms.erase(atoms.begin() + static_cast<ptrdiff_t>(ai));
          ++stats->attempts;
          if (fails(cand)) {
            parts = std::move(cand);
            ++stats->removals;
            progress = true;
          } else {
            ++ai;
          }
        }
      }
    }
    for (size_t qi = 0; qi < parts.queries.size(); ++qi) {
      for (size_t ai = 0; parts.queries[qi].atoms.size() > 1 &&
                          ai < parts.queries[qi].atoms.size();) {
        if (stats->attempts >= max_attempts) break;
        Parts cand = parts;
        auto& atoms = cand.queries[qi].atoms;
        atoms.erase(atoms.begin() + static_cast<ptrdiff_t>(ai));
        ++stats->attempts;
        if (fails(cand)) {
          parts = std::move(cand);
          ++stats->removals;
          progress = true;
        } else {
          ++ai;
        }
      }
    }
  }

  std::optional<Scenario> minimized = Recompose(s, parts);
  return minimized.has_value() ? std::move(*minimized) : s;
}

}  // namespace bddfc
