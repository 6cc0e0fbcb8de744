#include "bddfc/reductions/reductions.h"

#include <algorithm>
#include <string>

namespace bddfc {

namespace {

/// Largest variable index used in a theory plus one (for fresh variables).
int32_t FreshVarBase(const Theory& t) { return t.MaxVariableIndex(); }

}  // namespace

Result<HiddenQuery> HideQuery(const Theory& theory,
                              const ConjunctiveQuery& query) {
  SignaturePtr sig = theory.signature_ptr();
  HiddenQuery out(sig);
  BDDFC_ASSIGN_OR_RETURN(
      PredId f, sig->AddPredicate(sig->FreshPredicateName("f_hidden"), 2));
  out.f = f;
  for (const Rule& r : theory.rules()) {
    BDDFC_RETURN_NOT_OK(out.theory.AddRule(r));
  }
  std::vector<TermId> vars = query.Variables();
  int32_t next = FreshVarBase(theory);
  for (TermId v : vars) next = std::max(next, DecodeVar(v) + 1);
  Rule hide;
  hide.label = "hide-query";
  hide.body = query.atoms;
  if (!vars.empty()) {
    hide.head.push_back(Atom(f, {vars[0], MakeVar(next)}));
  } else {
    // Fully ground query: the head is ∃z F(z, z).
    hide.head.push_back(Atom(f, {MakeVar(next), MakeVar(next)}));
  }
  BDDFC_RETURN_NOT_OK(out.theory.AddRule(std::move(hide)));
  return out;
}

Result<Theory> SingleHeadify(const Theory& theory) {
  SignaturePtr sig = theory.signature_ptr();
  Theory out(sig);
  int join_counter = 0;
  for (const Rule& r : theory.rules()) {
    if (r.head.size() == 1) {
      BDDFC_RETURN_NOT_OK(out.AddRule(r));
      continue;
    }
    if (r.IsDatalog()) {
      for (const Atom& h : r.head) {
        Rule split;
        split.body = r.body;
        split.head.push_back(h);
        split.label = r.label + "#" + std::to_string(&h - r.head.data());
        BDDFC_RETURN_NOT_OK(out.AddRule(std::move(split)));
      }
      continue;
    }
    // Multi-head TGD: join predicate over the distinct head variables.
    std::vector<TermId> head_vars = r.HeadVariables();
    BDDFC_ASSIGN_OR_RETURN(
        PredId join,
        sig->AddPredicate(
            sig->FreshPredicateName("join" + std::to_string(join_counter++)),
            static_cast<int>(head_vars.size())));
    Rule create;
    create.body = r.body;
    create.head.push_back(Atom(join, head_vars));
    create.label = r.label + "-join";
    BDDFC_RETURN_NOT_OK(out.AddRule(std::move(create)));
    for (const Atom& h : r.head) {
      Rule project;
      project.body.push_back(Atom(join, head_vars));
      project.head.push_back(h);
      project.label = r.label + "-proj";
      BDDFC_RETURN_NOT_OK(out.AddRule(std::move(project)));
    }
  }
  return out;
}

Result<Theory> BinarizeHeads(const Theory& theory) {
  SignaturePtr sig = theory.signature_ptr();
  Theory out(sig);
  int counter = 0;
  for (const Rule& r : theory.rules()) {
    if (!r.IsExistential()) {
      BDDFC_RETURN_NOT_OK(out.AddRule(r));
      continue;
    }
    std::vector<TermId> existentials = r.ExistentialVariables();
    std::vector<TermId> body_vars = r.BodyVariables();
    // Frontier variables used in the head.
    std::vector<TermId> frontier;
    for (TermId v : r.HeadVariables()) {
      if (std::find(body_vars.begin(), body_vars.end(), v) !=
          body_vars.end()) {
        frontier.push_back(v);
      }
    }
    if (frontier.size() > 1) {
      return Status::FailedPrecondition(
          "BinarizeHeads needs at most one frontier variable per TGD head "
          "(Theorem 3 form); rule '" + r.label + "' has " +
          std::to_string(frontier.size()));
    }
    if (r.head.size() == 1 && r.head[0].args.size() <= 2 &&
        existentials.size() <= 1) {
      BDDFC_RETURN_NOT_OK(out.AddRule(r));  // already binary-headed
      continue;
    }
    if (body_vars.empty()) {
      return Status::FailedPrecondition(
          "BinarizeHeads needs a nonempty body (rule '" + r.label + "')");
    }
    TermId y = frontier.empty() ? body_vars[0] : frontier[0];
    // One binary TGD per existential variable...
    std::vector<Atom> collectors;
    for (TermId z : existentials) {
      BDDFC_ASSIGN_OR_RETURN(
          PredId rz,
          sig->AddPredicate(
              sig->FreshPredicateName("rphi" + std::to_string(counter++)),
              2));
      Rule tgd;
      tgd.body = r.body;
      tgd.head.push_back(Atom(rz, {y, z}));
      tgd.label = r.label + "-bin";
      BDDFC_RETURN_NOT_OK(out.AddRule(std::move(tgd)));
      collectors.push_back(Atom(rz, {y, z}));
    }
    // ... plus the datalog rule reassembling Φ(y, z̄).
    for (const Atom& h : r.head) {
      Rule assemble;
      assemble.body = r.body;
      for (const Atom& c : collectors) assemble.body.push_back(c);
      assemble.head.push_back(h);
      assemble.label = r.label + "-asm";
      BDDFC_RETURN_NOT_OK(out.AddRule(std::move(assemble)));
    }
  }
  return out;
}

Result<Theory> NormalizeSpade5(const Theory& theory) {
  SignaturePtr sig = theory.signature_ptr();
  Theory out(sig);
  int counter = 0;

  auto fresh_tgp = [&](const std::string& stem) -> Result<PredId> {
    return sig->AddPredicate(
        sig->FreshPredicateName(stem + std::to_string(counter++)), 2);
  };

  for (const Rule& r : theory.rules()) {
    if (!r.IsExistential()) {
      BDDFC_RETURN_NOT_OK(out.AddRule(r));
      continue;
    }
    if (r.head.size() != 1) {
      return Status::FailedPrecondition(
          "NormalizeSpade5 needs single-head TGDs; apply SingleHeadify "
          "first (rule '" + r.label + "')");
    }
    const Atom& h = r.head[0];
    if (h.args.size() > 2) {
      return Status::FailedPrecondition(
          "NormalizeSpade5 needs heads of arity <= 2; apply BinarizeHeads "
          "first (rule '" + r.label + "')");
    }
    std::vector<TermId> existentials = r.ExistentialVariables();
    std::vector<TermId> body_vars = r.BodyVariables();
    if (body_vars.empty()) {
      return Status::FailedPrecondition(
          "NormalizeSpade5 needs nonempty bodies (rule '" + r.label + "')");
    }

    if (existentials.size() == 2) {
      // Head R(z1, z2): chain two auxiliary TGPs (the §5.3-style trick).
      TermId z1 = h.args[0], z2 = h.args[1];
      BDDFC_ASSIGN_OR_RETURN(PredId a1, fresh_tgp("aux"));
      BDDFC_ASSIGN_OR_RETURN(PredId a2, fresh_tgp("aux"));
      Rule first;
      first.body = r.body;
      first.head.push_back(Atom(a1, {body_vars[0], z1}));
      first.label = r.label + "-n1";
      BDDFC_RETURN_NOT_OK(out.AddRule(std::move(first)));
      Rule second;
      second.body.push_back(Atom(a1, {body_vars[0], z1}));
      second.head.push_back(Atom(a2, {z1, z2}));
      second.label = r.label + "-n2";
      BDDFC_RETURN_NOT_OK(out.AddRule(std::move(second)));
      Rule datalog;
      datalog.body.push_back(Atom(a2, {z1, z2}));
      datalog.head.push_back(h);
      datalog.label = r.label + "-nd";
      BDDFC_RETURN_NOT_OK(out.AddRule(std::move(datalog)));
      continue;
    }

    // Single existential variable z.
    TermId z = existentials[0];
    // Anchor: the frontier variable occurring in the head, else the first
    // body variable (heads like u(z), R(z, z), R(c, z) have none).
    bool anchor_found = false;
    TermId anchor = body_vars[0];
    for (TermId t : h.args) {
      if (IsVar(t) && t != z) {
        anchor = t;
        anchor_found = true;
      }
    }
    (void)anchor_found;
    BDDFC_ASSIGN_OR_RETURN(PredId aux, fresh_tgp("tgp"));
    Rule tgd;
    tgd.body = r.body;
    tgd.head.push_back(Atom(aux, {anchor, z}));
    tgd.label = r.label + "-n";
    BDDFC_RETURN_NOT_OK(out.AddRule(std::move(tgd)));
    // Datalog projection back to the original head. Its variables are among
    // {anchor, z} plus constants, so the body Atom(aux, ...) binds them all.
    Rule datalog;
    datalog.body.push_back(Atom(aux, {anchor, z}));
    datalog.head.push_back(h);
    datalog.label = r.label + "-p";
    BDDFC_RETURN_NOT_OK(out.AddRule(std::move(datalog)));
  }
  return out;
}

namespace {

/// Builds the ternary chain for one wide atom. Returns the replacement
/// atoms; `next_var` supplies fresh link variables.
std::vector<Atom> ChainAtoms(const std::vector<PredId>& cells, PredId final_p,
                             const std::vector<TermId>& args,
                             int32_t* next_var) {
  std::vector<Atom> out;
  TermId prev = -1;
  for (size_t i = 0; i < cells.size(); ++i) {
    TermId link = MakeVar((*next_var)++);
    if (i == 0) {
      out.push_back(Atom(cells[i], {args[0], args[1], link}));
    } else {
      out.push_back(Atom(cells[i], {prev, args[i + 1], link}));
    }
    prev = link;
  }
  out.push_back(Atom(final_p, {prev, args.back()}));
  return out;
}

}  // namespace

Result<TernaryReduction> TernarizeTheory(const Theory& theory) {
  SignaturePtr sig = theory.signature_ptr();
  TernaryReduction out(sig);

  // Chain predicates per wide predicate.
  std::unordered_map<PredId, ChainEncoding> enc;
  for (PredId p = 0; p < sig->num_predicates(); ++p) {
    int k = sig->arity(p);
    if (k <= 3) continue;
    std::vector<PredId> cells;
    for (int i = 0; i + 2 < k; ++i) {
      BDDFC_ASSIGN_OR_RETURN(
          PredId cell,
          sig->AddPredicate(sig->FreshPredicateName(
                                sig->PredicateName(p) + "_c" +
                                std::to_string(i)),
                            3));
      cells.push_back(cell);
    }
    BDDFC_ASSIGN_OR_RETURN(
        PredId fin, sig->AddPredicate(
                        sig->FreshPredicateName(sig->PredicateName(p) + "_t"),
                        2));
    ChainEncoding encoding;
    encoding.cells = cells;
    encoding.final_pred = fin;
    out.chains.emplace(p, encoding);
    enc.emplace(p, std::move(encoding));
  }
  if (enc.empty()) {
    for (const Rule& r : theory.rules()) {
      BDDFC_RETURN_NOT_OK(out.theory.AddRule(r));
    }
    return out;
  }

  for (const Rule& r : theory.rules()) {
    if (r.head.size() != 1) {
      return Status::FailedPrecondition(
          "TernarizeTheory needs single-head rules (rule '" + r.label +
          "'); apply SingleHeadify first");
    }
    int32_t next_var = FreshVarBase(theory);

    // Rewrite the body: wide atoms become chains over fresh ∀-variables.
    std::vector<Atom> body;
    for (const Atom& a : r.body) {
      auto it = enc.find(a.pred);
      if (it == enc.end()) {
        body.push_back(a);
        continue;
      }
      for (Atom& c : ChainAtoms(it->second.cells, it->second.final_pred,
                                a.args, &next_var)) {
        body.push_back(std::move(c));
      }
    }

    const Atom& h = r.head[0];
    auto it = enc.find(h.pred);
    if (it == enc.end()) {
      Rule nr;
      nr.body = std::move(body);
      nr.head.push_back(h);
      nr.label = r.label;
      BDDFC_RETURN_NOT_OK(out.theory.AddRule(std::move(nr)));
      continue;
    }

    // Wide head: cascade of rules, each creating the next list cell
    // existentially (the Theorem 4 example's shape).
    std::vector<Atom> chain = ChainAtoms(it->second.cells,
                                         it->second.final_pred, h.args,
                                         &next_var);
    std::vector<Atom> accumulated = body;
    for (size_t i = 0; i < chain.size(); ++i) {
      Rule step;
      step.body = accumulated;
      step.head.push_back(chain[i]);
      step.label = r.label + "-t" + std::to_string(i);
      BDDFC_RETURN_NOT_OK(out.theory.AddRule(std::move(step)));
      accumulated.push_back(chain[i]);
    }
  }
  return out;
}

Structure TernarizeInstance(const TernaryReduction& reduction,
                            const Structure& instance) {
  Structure out(instance.signature_ptr());
  Signature& sig = out.mutable_sig();
  instance.ForEachFact([&](PredId p, TupleRef row) {
    auto it = reduction.chains.find(p);
    if (it == reduction.chains.end()) {
      out.AddFact(p, row);
      return;
    }
    const ChainEncoding& enc = it->second;
    TermId prev = -1;
    for (size_t i = 0; i < enc.cells.size(); ++i) {
      TermId link = sig.AddNull("cell");
      if (i == 0) {
        out.AddFact(enc.cells[i], {row[0], row[1], link});
      } else {
        out.AddFact(enc.cells[i], {prev, row[i + 1], link});
      }
      prev = link;
    }
    out.AddFact(enc.final_pred, {prev, row.back()});
  });
  return out;
}

}  // namespace bddfc
