#include "bddfc/workload/generators.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

namespace bddfc {

Structure RandomGraph(SignaturePtr sig, int nodes, int edges, uint64_t seed,
                      int num_relations) {
  Rng rng(seed);
  std::vector<PredId> rels;
  for (int i = 0; i < num_relations; ++i) {
    rels.push_back(std::move(sig->AddPredicate('e' + std::to_string(i), 2))
                       .ValueOrDie());
  }
  Structure s(sig);
  std::vector<TermId> elems;
  elems.reserve(nodes);
  for (int i = 0; i < nodes; ++i) elems.push_back(sig->AddNull("v"));
  for (int i = 0; i < edges; ++i) {
    PredId p = rels[rng.Uniform(rels.size())];
    TermId from = elems[rng.Uniform(nodes)];
    TermId to = elems[rng.Uniform(nodes)];
    s.AddFact(p, {from, to});
  }
  return s;
}

ConjunctiveQuery PathQuery(PredId pred, int k) {
  ConjunctiveQuery q;
  for (int i = 0; i < k; ++i) {
    q.atoms.push_back(Atom(pred, {MakeVar(i), MakeVar(i + 1)}));
  }
  return q;
}

ConjunctiveQuery StarQuery(PredId pred, int k) {
  ConjunctiveQuery q;
  for (int i = 1; i <= k; ++i) {
    q.atoms.push_back(Atom(pred, {MakeVar(0), MakeVar(i)}));
  }
  return q;
}

ConjunctiveQuery CycleQuery(PredId pred, int k) {
  ConjunctiveQuery q;
  for (int i = 0; i < k; ++i) {
    q.atoms.push_back(Atom(pred, {MakeVar(i), MakeVar((i + 1) % k)}));
  }
  return q;
}

Theory RandomLinearTheory(SignaturePtr sig, int preds, int rules,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<PredId> ps;
  for (int i = 0; i < preds; ++i) {
    ps.push_back(std::move(sig->AddPredicate('p' + std::to_string(i), 2))
                     .ValueOrDie());
  }
  Theory theory(sig);
  for (int i = 0; i < rules; ++i) {
    PredId body = ps[rng.Uniform(ps.size())];
    PredId head = ps[rng.Uniform(ps.size())];
    TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2);
    Rule r;
    r.body.push_back(Atom(body, {x, y}));
    switch (rng.Uniform(3)) {
      case 0:  // existential successor
        r.head.push_back(Atom(head, {y, z}));
        break;
      case 1:  // swap
        r.head.push_back(Atom(head, {y, x}));
        break;
      default:  // copy
        r.head.push_back(Atom(head, {x, y}));
        break;
    }
    Status st = theory.AddRule(std::move(r));
    assert(st.ok());
    (void)st;
  }
  return theory;
}

Theory RandomGuardedTheory(SignaturePtr sig, int max_arity, int rules,
                           uint64_t seed) {
  assert(max_arity >= 2);
  Rng rng(seed);
  // A pool of predicates of arities 1..max_arity.
  std::vector<PredId> pool;
  for (int a = 1; a <= max_arity; ++a) {
    for (int i = 0; i < 2; ++i) {
      pool.push_back(std::move(sig->AddPredicate(
                                   'g' + std::to_string(a) + "_" +
                                       std::to_string(i),
                                   a))
                         .ValueOrDie());
    }
  }
  Theory theory(sig);
  for (int i = 0; i < rules; ++i) {
    // Guard: a widest predicate over distinct variables x0..x_{a-1}.
    PredId guard = pool[pool.size() - 1 - rng.Uniform(2)];
    int ga = sig->arity(guard);
    Rule r;
    std::vector<TermId> guard_vars;
    for (int v = 0; v < ga; ++v) guard_vars.push_back(MakeVar(v));
    r.body.push_back(Atom(guard, guard_vars));
    // Optional side atom over a subset of the guard variables.
    if (rng.Uniform(2) == 0) {
      PredId side = pool[rng.Uniform(pool.size())];
      int sa = sig->arity(side);
      std::vector<TermId> args;
      for (int v = 0; v < sa; ++v) {
        args.push_back(guard_vars[rng.Uniform(guard_vars.size())]);
      }
      r.body.push_back(Atom(side, args));
    }
    // Head: existential or datalog over guard variables + one fresh.
    PredId head = pool[rng.Uniform(pool.size())];
    int ha = sig->arity(head);
    std::vector<TermId> args;
    bool existential = rng.Uniform(2) == 0;
    for (int v = 0; v < ha; ++v) {
      if (existential && v == ha - 1) {
        args.push_back(MakeVar(ga));  // fresh witness
      } else {
        args.push_back(guard_vars[rng.Uniform(guard_vars.size())]);
      }
    }
    r.head.push_back(Atom(head, args));
    Status st = theory.AddRule(std::move(r));
    assert(st.ok());
    (void)st;
  }
  return theory;
}

Theory RandomAcyclicBinaryTheory(SignaturePtr sig, int preds, int tgds,
                                 int datalog_rules, uint64_t seed) {
  assert(preds >= 2);
  Rng rng(seed);
  std::vector<PredId> ps;
  for (int i = 0; i < preds; ++i) {
    ps.push_back(std::move(sig->AddPredicate('b' + std::to_string(i), 2))
                     .ValueOrDie());
  }
  Theory theory(sig);
  // TGDs only point "up" the predicate order => weakly acyclic => BDD-ish
  // and the chase terminates on every instance.
  for (int i = 0; i < tgds; ++i) {
    size_t b = rng.Uniform(ps.size() - 1);
    size_t h = b + 1 + rng.Uniform(ps.size() - b - 1);
    Rule r;
    r.body.push_back(Atom(ps[b], {MakeVar(0), MakeVar(1)}));
    r.head.push_back(Atom(ps[h], {MakeVar(1), MakeVar(2)}));
    Status st = theory.AddRule(std::move(r));
    assert(st.ok());
    (void)st;
  }
  for (int i = 0; i < datalog_rules; ++i) {
    // p(x, y), q(y, z) -> r(x, z) with r at least as high in the predicate
    // order as p and q — normal dependency edges then never point below a
    // special edge's source, keeping the theory weakly acyclic.
    size_t b1 = rng.Uniform(ps.size());
    size_t b2 = rng.Uniform(ps.size());
    size_t lo = std::max(b1, b2);
    size_t h = lo + rng.Uniform(ps.size() - lo);
    Rule r;
    r.body.push_back(Atom(ps[b1], {MakeVar(0), MakeVar(1)}));
    r.body.push_back(Atom(ps[b2], {MakeVar(1), MakeVar(2)}));
    r.head.push_back(Atom(ps[h], {MakeVar(0), MakeVar(2)}));
    Status st = theory.AddRule(std::move(r));
    assert(st.ok());
    (void)st;
  }
  return theory;
}

}  // namespace bddfc
