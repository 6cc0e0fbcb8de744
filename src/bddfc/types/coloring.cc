#include "bddfc/types/coloring.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>

#include "bddfc/chase/skeleton.h"
#include "bddfc/classes/vtdag.h"

namespace bddfc {

namespace {

/// Canonical encoding of C ↾ (P(e) ∪ C_con) with e and its parent
/// anonymized ("@E"/"@P") and constants by id. Equal strings <=> isomorphic
/// restrictions (with the P-roles distinguished). Deliberately brute force
/// — every fact of C, constant-only atoms included — and sharing no code
/// with NaturalColoring's keys: it is the reference they are checked
/// against.
std::string LocalIsoKey(const Structure& c, TermId e, TermId parent) {
  auto name = [&](TermId t) -> std::string {
    if (t == e) return "@E";
    if (t == parent) return "@P";
    if (!c.sig().IsNull(t)) return 'c' + std::to_string(t);
    return "";  // outside P(e) ∪ C_con
  };
  std::vector<std::string> atoms;
  c.ForEachFact([&](PredId p, TupleRef row) {
    if (c.sig().IsColor(p)) return;
    std::string s = std::to_string(p) + "(";
    for (TermId t : row) {
      std::string nm = name(t);
      if (nm.empty()) return;  // atom leaves the restriction
      s += nm + ",";
    }
    atoms.push_back(s + ")");
  });
  std::sort(atoms.begin(), atoms.end());
  std::string out;
  for (const auto& a : atoms) out += a + ";";
  return out;
}

/// LocalIsoKey's encoding of one atom, appended to `atoms`; an atom that
/// mentions a null other than e and its parent leaves the restriction.
void AddLocalAtom(const Signature& sig, PredId p, TupleRef row, TermId e,
                  TermId parent, std::vector<std::string>* atoms) {
  std::string s = std::to_string(p) + "(";
  for (TermId t : row) {
    if (t == e) {
      s += "@E,";
    } else if (t == parent) {
      s += "@P,";
    } else if (!sig.IsNull(t)) {
      s += 'c' + std::to_string(t) + ",";
    } else {
      return;
    }
  }
  atoms->push_back(s + ")");
}

TermId ParentOf(const SkeletonAnalysis& forest, TermId e) {
  auto it = forest.parent.find(e);
  return it == forest.parent.end() ? -1 : it->second;
}

}  // namespace

Result<Coloring> NaturalColoring(const Structure& c, int m) {
  SkeletonAnalysis forest = AnalyzeSkeleton(c);
  if (!forest.is_forest) {
    return Status::FailedPrecondition(
        "natural coloring requires the nulls of C to form a forest");
  }
  const Signature& sig = c.sig();

  Coloring out(c.signature_ptr());
  c.ForEachFact([&](PredId p, TupleRef row) {
    out.colored.AddFact(p, row);
  });
  for (TermId e : c.Domain()) out.colored.AddDomainElement(e);

  // Incident index: the non-color facts each null occurs in, once per fact.
  // A lightness key reads only the lists of e and its parent, so the whole
  // stage is one pass over the facts plus O(deg e + deg parent) per element.
  std::vector<std::vector<FactHandle>> incident(sig.num_constants());
  for (PredId p = 0; p < c.NumStoredPredicates(); ++p) {
    if (sig.IsColor(p)) continue;
    const RowsView rows = c.Rows(p);
    for (uint32_t r = 0; r < rows.size(); ++r) {
      const TupleRef row = rows[r];
      for (auto it = row.begin(); it != row.end(); ++it) {
        if (sig.IsNull(*it) && std::find(row.begin(), it, *it) == it) {
          incident[*it].push_back({p, r});
        }
      }
    }
  }

  // Lightness table: canonical local-iso string -> id.
  std::map<std::string, int> lightness_of;
  // (hue, lightness) -> color predicate.
  std::map<std::pair<int, int>, PredId> color_pred;
  int hue_period = m + 2;  // P_m(e) reaches ancestors within m+1 steps

  for (TermId e : c.Domain()) {
    int hue;
    std::string iso_key;
    if (!sig.IsNull(e)) {
      // Constants: P(e) = {e}; their name makes the local type unique.
      hue = 0;
      iso_key = "const:" + std::to_string(e);
    } else {
      auto dit = forest.depth.find(e);
      hue = 1 + (dit == forest.depth.end() ? 0 : dit->second % hue_period);
      // LocalIsoKey restricted to the facts around e and its parent; a
      // fact that mentions both is taken once. The constant-only atoms are
      // left out: they are the same for every null, and a rendered
      // null-touching atom always contains "@E" or "@P", so two keys are
      // equal exactly when the full keys are.
      TermId parent = ParentOf(forest, e);
      std::vector<std::string> atoms;
      for (FactHandle h : incident[e]) {
        AddLocalAtom(sig, h.pred, c.Tuple(h), e, parent, &atoms);
      }
      if (parent != -1) {
        for (FactHandle h : incident[parent]) {
          const TupleRef row = c.Tuple(h);
          if (std::find(row.begin(), row.end(), e) == row.end()) {
            AddLocalAtom(sig, h.pred, row, e, parent, &atoms);
          }
        }
      }
      std::sort(atoms.begin(), atoms.end());
      for (const auto& a : atoms) iso_key += a + ";";
    }
    auto [lit, lnew] =
        lightness_of.emplace(iso_key, static_cast<int>(lightness_of.size()));
    (void)lnew;
    int lightness = lit->second;
    auto key = std::make_pair(hue, lightness);
    auto cit = color_pred.find(key);
    if (cit == color_pred.end()) {
      PredId k = out.colored.mutable_sig().AddColorPredicate(hue, lightness);
      cit = color_pred.emplace(key, k).first;
      out.color_predicates.push_back(k);
    }
    out.colored.AddFact(cit->second, {e});
    out.color_of.emplace(e, cit->second);
    out.num_hues = std::max(out.num_hues, hue + 1);
  }
  out.num_lightnesses = static_cast<int>(lightness_of.size());

  for (PredId p = 0; p < sig.num_predicates(); ++p) {
    if (!sig.IsColor(p)) out.base_predicates.push_back(p);
  }
  // Exclude colors added concurrently by this very call (already excluded:
  // the loop above ran over the pre-coloring predicate count).
  return out;
}

std::vector<int> ReferenceLightnesses(const Structure& c) {
  SkeletonAnalysis forest = AnalyzeSkeleton(c);
  std::unordered_map<std::string, int> ids;
  std::vector<int> out;
  for (TermId e : c.Domain()) {
    std::string key = c.sig().IsNull(e)
                          ? LocalIsoKey(c, e, ParentOf(forest, e))
                          : "const:" + std::to_string(e);
    auto it = ids.emplace(std::move(key), static_cast<int>(ids.size())).first;
    out.push_back(it->second);
  }
  return out;
}

bool IsNaturalColoring(const Coloring& coloring, const Structure& c, int m) {
  const Signature& sig = coloring.colored.sig();
  // Condition 1: distinct hues within P_m(e) (excluding e itself).
  for (TermId e : c.Domain()) {
    if (!sig.IsNull(e)) continue;
    auto it = coloring.color_of.find(e);
    if (it == coloring.color_of.end()) return false;
    int hue_e = sig.predicate(it->second).hue;
    for (TermId d : PkSet(c, e, m)) {
      if (d == e || !sig.IsNull(d)) continue;
      auto dit = coloring.color_of.find(d);
      if (dit == coloring.color_of.end()) return false;
      if (sig.predicate(dit->second).hue == hue_e) return false;
    }
  }
  // Condition 2: same color => isomorphic C ↾ (P(e) ∪ C_con).
  std::vector<int> lightness = ReferenceLightnesses(c);
  std::map<PredId, int> seen;
  for (size_t i = 0; i < c.Domain().size(); ++i) {
    auto it = coloring.color_of.find(c.Domain()[i]);
    if (it == coloring.color_of.end()) return false;
    auto [sit, inserted] = seen.emplace(it->second, lightness[i]);
    if (!inserted && sit->second != lightness[i]) return false;
  }
  return true;
}

}  // namespace bddfc
