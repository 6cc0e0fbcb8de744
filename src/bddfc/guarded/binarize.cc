#include "bddfc/guarded/binarize.h"

#include <algorithm>
#include <string>

#include "bddfc/classes/recognizers.h"

namespace bddfc {

namespace {

/// Bound on parent-index assignment enumeration per rule.
constexpr size_t kMaxCombos = 4096;

}  // namespace

Result<GuardedBinarization> GuardedToBinary(const Theory& theory) {
  SignaturePtr sig = theory.signature_ptr();
  if (!IsGuarded(theory)) {
    return Status::FailedPrecondition("GuardedToBinary needs a guarded theory");
  }
  if (!theory.IsSingleHead()) {
    return Status::FailedPrecondition(
        "GuardedToBinary needs single-head rules (apply SingleHeadify)");
  }

  GuardedBinarization out(sig);
  std::unordered_set<PredId> tgps = theory.TgpCandidates();

  // Validate the step (i)/(iv) preconditions.
  std::unordered_map<PredId, int> tgp_rule;
  for (size_t ri = 0; ri < theory.rules().size(); ++ri) {
    const Rule& r = theory.rules()[ri];
    const Atom& h = r.head[0];
    if (r.IsExistential()) {
      std::vector<TermId> ex = r.ExistentialVariables();
      if (ex.size() != 1 || h.args.empty() || h.args.back() != ex[0]) {
        return Status::FailedPrecondition(
            "TGD '" + r.label +
            "' must have exactly one existential variable, in the last "
            "head position");
      }
      auto [it, inserted] = tgp_rule.emplace(h.pred, static_cast<int>(ri));
      (void)it;
      if (!inserted) {
        return Status::FailedPrecondition(
            "TGP '" + sig->PredicateName(h.pred) +
            "' occurs in two TGD heads; rename (step iv) first");
      }
    } else if (tgps.count(h.pred)) {
      return Status::FailedPrecondition(
          "TGP '" + sig->PredicateName(h.pred) +
          "' occurs in a datalog head; separate (step i) first");
    }
    for (const Atom& a : r.body) {
      for (TermId t : a.args) {
        if (IsConst(t)) {
          return Status::FailedPrecondition(
              "GuardedToBinary does not support constants in rules");
        }
      }
    }
  }

  const int max_arity = sig->MaxArity();

  // Parent links F_1..F_K.
  out.parent_links.assign(max_arity + 1, -1);
  for (int i = 1; i <= max_arity; ++i) {
    BDDFC_ASSIGN_OR_RETURN(
        PredId f,
        sig->AddPredicate(sig->FreshPredicateName('f' + std::to_string(i)),
                          2));
    out.parent_links[i] = f;
  }
  // Witness edges and TGP markers.
  for (auto [pred, ri] : tgp_rule) {
    BDDFC_ASSIGN_OR_RETURN(
        PredId e, sig->AddPredicate(
                      sig->FreshPredicateName(
                          "e_" + sig->PredicateName(pred)),
                      2));
    out.witness_edge.emplace(ri, e);
    BDDFC_ASSIGN_OR_RETURN(
        PredId m, sig->AddPredicate(
                      sig->FreshPredicateName(
                          "m_" + sig->PredicateName(pred)),
                      1));
    out.tgp_marker.emplace(pred, m);
  }

  // Lazily-created monadic encodings Q_ī.
  auto monadic = [&](PredId q,
                     const std::vector<int>& idx) -> Result<PredId> {
    auto key = std::make_pair(q, idx);
    auto it = out.monadic.find(key);
    if (it != out.monadic.end()) return it->second;
    std::string name = "q_" + sig->PredicateName(q);
    for (int i : idx) name += '_' + std::to_string(i);
    BDDFC_ASSIGN_OR_RETURN(PredId p,
                           sig->AddPredicate(sig->FreshPredicateName(name), 1));
    out.monadic.emplace(key, p);
    return p;
  };

  // Translate each rule under every parent-index assignment.
  for (size_t ri = 0; ri < theory.rules().size(); ++ri) {
    const Rule& r = theory.rules()[ri];
    std::vector<TermId> body_vars = r.BodyVariables();
    if (body_vars.empty()) {
      return Status::FailedPrecondition("rule '" + r.label +
                                        "' has no body variables");
    }
    // Guard: first body atom containing all body variables; leading
    // variable y is its rightmost variable (paper's renaming convention).
    const Atom* guard = nullptr;
    for (const Atom& a : r.body) {
      bool all = std::all_of(body_vars.begin(), body_vars.end(),
                             [&](TermId v) {
                               return std::find(a.args.begin(), a.args.end(),
                                                v) != a.args.end();
                             });
      if (all) {
        guard = &a;
        break;
      }
    }
    if (guard == nullptr) {
      return Status::Internal("guard vanished for rule '" + r.label + "'");
    }
    TermId y = guard->args.back();

    std::vector<TermId> others;
    for (TermId v : body_vars) {
      if (v != y) others.push_back(v);
    }
    size_t combos = 1;
    for (size_t i = 0; i < others.size(); ++i) {
      combos *= static_cast<size_t>(max_arity);
      if (combos > kMaxCombos) {
        return Status::ResourceExhausted(
            "too many parent-index assignments for rule '" + r.label + "'");
      }
    }

    for (size_t combo = 0; combo < combos; ++combo) {
      // Decode the assignment others[i] -> index in 1..max_arity.
      std::unordered_map<TermId, int> idx_of;
      size_t rest = combo;
      for (TermId v : others) {
        idx_of[v] = 1 + static_cast<int>(rest % max_arity);
        rest /= max_arity;
      }
      auto index_of = [&](TermId v) { return v == y ? 0 : idx_of[v]; };

      // Translated body.
      std::vector<Atom> body;
      for (TermId v : others) {
        body.push_back(Atom(out.parent_links[idx_of[v]], {v, y}));
      }
      bool combo_ok = true;
      for (const Atom& a : r.body) {
        if (tgps.count(a.pred)) {
          // TGP atom R(w_1..w_{k-1}, c): parent links + marker.
          TermId c = a.args.back();
          for (size_t p = 0; p + 1 < a.args.size(); ++p) {
            body.push_back(Atom(out.parent_links[static_cast<int>(p) + 1],
                                {a.args[p], c}));
          }
          body.push_back(Atom(out.tgp_marker.at(a.pred), {c}));
        } else if (a.args.empty()) {
          body.push_back(a);  // 0-ary atoms survive unchanged
        } else {
          std::vector<int> idx;
          for (TermId w : a.args) idx.push_back(index_of(w));
          Result<PredId> q = monadic(a.pred, idx);
          if (!q.ok()) return q.status();
          body.push_back(Atom(std::move(q).value(), {y}));
        }
        if (!combo_ok) break;
      }
      if (!combo_ok) continue;

      if (r.IsDatalog()) {
        const Atom& h = r.head[0];
        Rule nr;
        nr.body = body;
        nr.label = r.label + "@" + std::to_string(combo);
        if (h.args.empty()) {
          nr.head.push_back(h);
        } else {
          std::vector<int> idx;
          for (TermId w : h.args) idx.push_back(index_of(w));
          BDDFC_ASSIGN_OR_RETURN(PredId q, monadic(h.pred, idx));
          nr.head.push_back(Atom(q, {y}));
        }
        BDDFC_RETURN_NOT_OK(out.theory.AddRule(std::move(nr)));
        continue;
      }

      // TGD head R(w_1..w_{k-1}, z).
      const Atom& h = r.head[0];
      TermId z = h.args.back();
      PredId e = out.witness_edge.at(static_cast<int>(ri));
      {
        Rule create;
        create.body = body;
        create.head.push_back(Atom(e, {y, z}));
        create.label = r.label + "@" + std::to_string(combo) + "-e";
        BDDFC_RETURN_NOT_OK(out.theory.AddRule(std::move(create)));
      }
      {
        Rule mark;
        mark.body = body;
        mark.body.push_back(Atom(e, {y, z}));
        mark.head.push_back(Atom(out.tgp_marker.at(h.pred), {z}));
        mark.label = r.label + "@" + std::to_string(combo) + "-m";
        BDDFC_RETURN_NOT_OK(out.theory.AddRule(std::move(mark)));
      }
      // Parent bookkeeping for the new element — the (♦) rules.
      for (size_t p = 0; p + 1 < h.args.size(); ++p) {
        TermId w = h.args[p];
        Rule link;
        if (w == y) {
          link.body.push_back(Atom(e, {y, z}));
        } else {
          link.body.push_back(Atom(out.parent_links[idx_of[w]], {w, y}));
          link.body.push_back(Atom(e, {y, z}));
        }
        link.head.push_back(
            Atom(out.parent_links[static_cast<int>(p) + 1], {w, z}));
        link.label = r.label + "@" + std::to_string(combo) + "-f" +
                     std::to_string(p + 1);
        BDDFC_RETURN_NOT_OK(out.theory.AddRule(std::move(link)));
      }
    }
  }

  // Transfer rules between monadic encodings of the same predicate (step
  // vii): once Q holds of x_1..x_l, every element seeing those parents
  // knows it.
  std::vector<std::pair<std::pair<PredId, std::vector<int>>, PredId>> entries(
      out.monadic.begin(), out.monadic.end());
  for (const auto& [src_key, src_pred] : entries) {
    for (const auto& [dst_key, dst_pred] : entries) {
      if (src_key.first != dst_key.first || src_pred == dst_pred) continue;
      const std::vector<int>& si = src_key.second;
      const std::vector<int>& di = dst_key.second;
      // y = var 0, z = var 1, element p = var 2+p.
      TermId yv = MakeVar(0);
      TermId zv = MakeVar(1);
      bool z_is_y = false;
      for (size_t p = 0; p < si.size(); ++p) {
        if (si[p] == 0 && di[p] == 0) z_is_y = true;
      }
      TermId zz = z_is_y ? yv : zv;
      Rule transfer;
      transfer.body.push_back(Atom(src_pred, {yv}));
      for (size_t p = 0; p < si.size(); ++p) {
        TermId ep = MakeVar(static_cast<int32_t>(2 + p));
        if (si[p] == 0) ep = yv;
        if (di[p] == 0) ep = zz;
        if (si[p] > 0) {
          transfer.body.push_back(Atom(out.parent_links[si[p]], {ep, yv}));
        }
        if (di[p] > 0) {
          transfer.body.push_back(Atom(out.parent_links[di[p]], {ep, zz}));
        }
      }
      transfer.head.push_back(Atom(dst_pred, {zz}));
      transfer.label = "transfer";
      // Degenerate transfers whose head variable never occurs in the body
      // cannot arise: z appears in some F(e, z) or equals y.
      BDDFC_RETURN_NOT_OK(out.theory.AddRule(std::move(transfer)));
    }
  }

  return out;
}

}  // namespace bddfc
