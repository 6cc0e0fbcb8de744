#include "bddfc/eval/plan.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

namespace bddfc {

namespace {

/// Estimated result rows of matching `atom` given the variables already in
/// `slot_of`: the relation's row count divided by the distinct-value count
/// of every position whose value will be known. The classic independence
/// estimate — coarse, but it only has to rank atoms.
double EstimateRows(const Structure& s, const Atom& atom,
                    const std::unordered_map<TermId, uint16_t>& slot_of) {
  double est = static_cast<double>(s.NumFacts(atom.pred));
  for (size_t pos = 0; pos < atom.args.size(); ++pos) {
    TermId t = atom.args[pos];
    const bool known = IsConst(t) || slot_of.count(t) > 0;
    if (!known) continue;
    const size_t distinct = s.DistinctValues(atom.pred, static_cast<int>(pos));
    est /= static_cast<double>(std::max<size_t>(distinct, 1));
  }
  return est;
}

int KnownPositions(const Atom& atom,
                   const std::unordered_map<TermId, uint16_t>& slot_of) {
  int n = 0;
  for (TermId t : atom.args) {
    if (IsConst(t) || slot_of.count(t) > 0) ++n;
  }
  return n;
}

}  // namespace

QueryPlan CompilePlan(const Structure& s, const std::vector<Atom>& atoms,
                      size_t anchor, const std::vector<TermId>& prebound) {
  QueryPlan plan;
  std::unordered_map<TermId, uint16_t> slot_of;
  for (TermId v : prebound) {
    assert(IsVar(v));
    if (slot_of.emplace(v, static_cast<uint16_t>(slot_of.size())).second) {
      plan.slot_vars.push_back(v);
    }
  }

  auto append_step = [&](size_t i) {
    const Atom& a = atoms[i];
    PlanStep st;
    st.pred = a.pred;
    st.atom_index = i;
    st.args.reserve(a.args.size());
    // Slots filled by this very step: later positions bound to them are
    // re-check only (their value is unknown until the row is read).
    std::vector<uint16_t> new_here;
    for (size_t pos = 0; pos < a.args.size(); ++pos) {
      TermId t = a.args[pos];
      PlanArg arg;
      if (IsConst(t)) {
        arg.kind = PlanArg::kConst;
        arg.value = t;
        st.probe_positions.push_back(static_cast<uint8_t>(pos));
      } else {
        auto it = slot_of.find(t);
        if (it == slot_of.end()) {
          assert(slot_of.size() < std::numeric_limits<uint16_t>::max());
          arg.kind = PlanArg::kNew;
          arg.slot = static_cast<uint16_t>(slot_of.size());
          slot_of.emplace(t, arg.slot);
          plan.slot_vars.push_back(t);
          new_here.push_back(arg.slot);
        } else {
          arg.kind = PlanArg::kBound;
          arg.slot = it->second;
          const bool filled_here =
              std::find(new_here.begin(), new_here.end(), arg.slot) !=
              new_here.end();
          if (!filled_here) {
            st.probe_positions.push_back(static_cast<uint8_t>(pos));
          }
        }
      }
      st.args.push_back(arg);
    }
    plan.steps.push_back(std::move(st));
  };

  std::vector<char> used(atoms.size(), 0);
  size_t remaining = atoms.size();
  if (anchor != kNoAnchor) {
    assert(anchor < atoms.size());
    append_step(anchor);
    used[anchor] = 1;
    --remaining;
  }
  while (remaining > 0) {
    size_t best = atoms.size();
    int best_known = -1;
    double best_est = 0.0;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      const int known = KnownPositions(atoms[i], slot_of);
      const double est = EstimateRows(s, atoms[i], slot_of);
      if (best == atoms.size() || known > best_known ||
          (known == best_known && est < best_est)) {
        best = i;
        best_known = known;
        best_est = est;
      }
    }
    append_step(best);
    used[best] = 1;
    --remaining;
  }
  plan.num_slots = slot_of.size();
  return plan;
}

}  // namespace bddfc
