#include "bddfc/eval/match.h"

#include <algorithm>
#include <cassert>

#include "bddfc/eval/exec.h"

namespace bddfc {

namespace {

/// Backtracking state shared across the recursion.
struct SearchState {
  const Structure& s;
  std::vector<Atom> atoms;         // remaining atoms are atoms[depth..]
  std::vector<RowBand> bands;      // parallel to atoms; reordered with them
  Binding binding;
  const std::function<bool(const Binding&)>* on_match;
  MatchStats* stats;
  bool stopped = false;

  SearchState(const Structure& s_, std::vector<Atom> a,
              std::vector<RowBand> b,
              const std::function<bool(const Binding&)>* cb,
              MatchStats* st)
      : s(s_), atoms(std::move(a)), bands(std::move(b)), on_match(cb),
        stats(st) {
    if (bands.empty()) bands.resize(atoms.size());
  }

  /// Width of atom i's band once clamped to its relation (its row count).
  size_t BandWidth(size_t i) const {
    size_t n = s.NumFacts(atoms[i].pred);
    size_t hi = std::min<size_t>(bands[i].end, n);
    size_t lo = bands[i].begin;
    return lo < hi ? hi - lo : 0;
  }

  TermId ResolveTerm(TermId t) const {
    if (IsConst(t)) return t;
    auto it = binding.find(t);
    return it == binding.end() ? t : it->second;
  }

  /// Number of bound argument positions of atom i (selectivity heuristic).
  int BoundPositions(size_t i) const {
    int n = 0;
    for (TermId t : atoms[i].args) {
      if (IsConst(ResolveTerm(t))) ++n;
    }
    return n;
  }

  /// Picks the most constrained remaining atom and swaps it to `depth`
  /// (band width stands in for the row count, so a narrow delta band is
  /// preferred over a wide full-relation scan).
  void SelectAtom(size_t depth) {
    size_t best = depth;
    int best_bound = -1;
    size_t best_rows = 0;
    for (size_t i = depth; i < atoms.size(); ++i) {
      int b = BoundPositions(i);
      size_t rows = BandWidth(i);
      if (b > best_bound || (b == best_bound && rows < best_rows)) {
        best_bound = b;
        best_rows = rows;
        best = i;
      }
    }
    std::swap(atoms[depth], atoms[best]);
    std::swap(bands[depth], bands[best]);
  }

  /// Tries to unify atom `a`'s pattern with a stored row; on success binds
  /// newly bound variables and records them in `newly_bound`.
  bool TryRow(const Atom& a, TupleRef row, std::vector<TermId>* newly_bound) {
    for (size_t i = 0; i < a.args.size(); ++i) {
      TermId t = ResolveTerm(a.args[i]);
      if (IsConst(t)) {
        if (t != row[i]) {
          return false;
        }
      } else {
        auto [it, inserted] = binding.emplace(t, row[i]);
        if (inserted) {
          newly_bound->push_back(t);
        } else if (it->second != row[i]) {
          return false;
        }
      }
    }
    return true;
  }

  void UndoBindings(const std::vector<TermId>& newly_bound) {
    for (TermId v : newly_bound) binding.erase(v);
  }

  void Search(size_t depth) {
    if (stopped) return;
    if (depth == atoms.size()) {
      if (stats != nullptr) ++stats->bindings_tried;
      if (!(*on_match)(binding)) stopped = true;
      return;
    }
    SelectAtom(depth);
    const Atom& a = atoms[depth];
    const RowsView rows = s.Rows(a.pred);
    const uint32_t lo = bands[depth].begin;
    const uint32_t hi =
        std::min<uint32_t>(bands[depth].end, static_cast<uint32_t>(rows.size()));
    if (lo >= hi) return;  // empty band: nothing can match

    // Choose candidate rows: the posting list of the most selective bound
    // position, else the band of the relation. This instantiation counts
    // as at most ONE hit or ONE miss no matter how many positions are
    // probed while picking the smallest list (the counter contract shared
    // with the plan executor — see MatchStats).
    const std::vector<uint32_t>* postings = nullptr;
    for (size_t i = 0; i < a.args.size(); ++i) {
      TermId t = ResolveTerm(a.args[i]);
      if (IsConst(t)) {
        const std::vector<uint32_t>* p =
            s.Postings(a.pred, static_cast<int>(i), t);
        if (p == nullptr) {
          if (stats != nullptr) ++stats->postings_misses;
          return;  // no row matches this constant
        }
        if (postings == nullptr || p->size() < postings->size()) postings = p;
      }
    }

    std::vector<TermId> newly_bound;
    if (postings != nullptr) {
      // Posting lists are append-ordered, so the band is a contiguous slice.
      auto it = std::lower_bound(postings->begin(), postings->end(), lo);
      if (it == postings->end() || *it >= hi) {
        if (stats != nullptr) ++stats->postings_misses;
        return;  // the probe found no candidate rows inside the band
      }
      if (stats != nullptr) ++stats->postings_hits;
      for (; it != postings->end() && *it < hi; ++it) {
        if (stats != nullptr) ++stats->rows_scanned;
        newly_bound.clear();
        if (TryRow(a, rows[*it], &newly_bound)) Search(depth + 1);
        UndoBindings(newly_bound);
        if (stopped) return;
      }
    } else {
      for (uint32_t r = lo; r < hi; ++r) {
        if (stats != nullptr) ++stats->rows_scanned;
        newly_bound.clear();
        if (TryRow(a, rows[r], &newly_bound)) Search(depth + 1);
        UndoBindings(newly_bound);
        if (stopped) return;
      }
    }
  }
};

}  // namespace

bool Matcher::Exists(const std::vector<Atom>& atoms,
                     const Binding& partial) const {
  bool found = false;
  std::function<bool(const Binding&)> cb = [&](const Binding&) {
    found = true;
    return false;  // stop at first match
  };
  SearchState st(s_, atoms, {}, &cb, stats_);
  st.binding = partial;
  st.Search(0);
  return found;
}

void Matcher::Enumerate(const std::vector<Atom>& atoms, const Binding& partial,
                        const std::function<bool(const Binding&)>& on_match)
    const {
  SearchState st(s_, atoms, {}, &on_match, stats_);
  st.binding = partial;
  st.Search(0);
}

void Matcher::EnumerateBanded(
    const std::vector<Atom>& atoms, const std::vector<RowBand>& bands,
    const Binding& partial,
    const std::function<bool(const Binding&)>& on_match) const {
  assert(bands.size() == atoms.size());
  SearchState st(s_, atoms, bands, &on_match, stats_);
  st.binding = partial;
  st.Search(0);
}

size_t Matcher::CountMatches(const std::vector<Atom>& atoms,
                             const Binding& partial) const {
  size_t n = 0;
  Enumerate(atoms, partial, [&](const Binding&) {
    ++n;
    return true;
  });
  return n;
}

bool Satisfies(const Structure& s, const ConjunctiveQuery& q) {
  // Plan-backed since the compiled join backend landed: a Boolean result
  // is enumeration-order-independent, so the rewriter's certain-answer
  // path and every other caller gets the vectorized executor for free.
  return PlanExists(s, q.atoms);
}

bool SatisfiesUcq(const Structure& s, const UnionOfCQs& ucq) {
  return std::any_of(ucq.begin(), ucq.end(), [&](const ConjunctiveQuery& q) {
    return Satisfies(s, q);
  });
}

bool SatisfiesAt(const Structure& s, const ConjunctiveQuery& q, TermId e) {
  assert(!q.answer_vars.empty());
  Binding partial;
  partial.emplace(q.answer_vars[0], e);
  return PlanExists(s, q.atoms, partial);
}

ConjunctiveQuery StructureToQuery(const Structure& s) {
  std::unordered_map<TermId, TermId> null_to_var;
  int32_t next_var = 0;
  ConjunctiveQuery q;
  s.ForEachFact([&](PredId p, TupleRef row) {
    Atom a;
    a.pred = p;
    a.args.reserve(row.size());
    for (TermId c : row) {
      if (s.sig().IsNull(c)) {
        auto it = null_to_var.find(c);
        if (it == null_to_var.end()) {
          it = null_to_var.emplace(c, MakeVar(next_var++)).first;
        }
        a.args.push_back(it->second);
      } else {
        a.args.push_back(c);
      }
    }
    q.atoms.push_back(std::move(a));
  });
  return q;
}

bool HasHomomorphism(const Structure& a, const Structure& b) {
  return Satisfies(b, StructureToQuery(a));
}

}  // namespace bddfc
