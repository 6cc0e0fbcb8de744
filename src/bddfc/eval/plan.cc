#include "bddfc/eval/plan.h"

#include <algorithm>
#include <cassert>
#include <limits>

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

std::string PlanCacheKey(const std::vector<Atom>& atoms, size_t anchor) {
  std::unordered_map<TermId, TermId> ren;
  int32_t next = 0;
  std::string s = "a";
  s += std::to_string(anchor);
  s += ";";
  for (const Atom& a : atoms) {
    s += std::to_string(a.pred);
    for (TermId t : a.args) {
      if (IsVar(t)) {
        auto it = ren.find(t);
        if (it == ren.end()) it = ren.emplace(t, MakeVar(next++)).first;
        t = it->second;
      }
      s += ",";
      s += std::to_string(t);
    }
    s += "|";
  }
  return s;
}

std::vector<TermId> PlanSlotVars(const QueryPlan& plan,
                                 const std::vector<Atom>& atoms) {
  std::vector<TermId> slot_vars = plan.slot_vars;
  for (const PlanStep& st : plan.steps) {
    const Atom& a = atoms[st.atom_index];
    for (size_t pos = 0; pos < st.args.size(); ++pos) {
      if (st.args[pos].kind == PlanArg::kNew) {
        slot_vars[st.args[pos].slot] = a.args[pos];
      }
    }
  }
  return slot_vars;
}

std::shared_ptr<const QueryPlan> PlanCache::Get(const Structure& s,
                                               const std::vector<Atom>& atoms,
                                               size_t anchor) {
  std::string key = PlanCacheKey(atoms, anchor);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) return it->second;
  }
  // Compile outside the lock: concurrent misses may compile the same plan
  // twice, but only one is published and both are identical.
  auto plan = std::make_shared<QueryPlan>(CompilePlan(s, atoms, anchor));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = plans_.emplace(std::move(key), std::move(plan));
  (void)inserted;
  return it->second;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

}  // namespace bddfc
