#include "bddfc/testing/scenario.h"

#include <string>
#include <utility>
#include <vector>

#include "bddfc/parser/parser.h"
#include "bddfc/parser/printer.h"
#include "bddfc/workload/generators.h"

namespace bddfc {

namespace {

/// Predicates of the signature with arity >= 1 (fact/query candidates).
std::vector<PredId> NonNullaryPredicates(const Signature& sig) {
  std::vector<PredId> out;
  for (PredId p = 0; p < sig.num_predicates(); ++p) {
    if (sig.arity(p) >= 1) out.push_back(p);
  }
  return out;
}

std::vector<PredId> BinaryPredicates(const Signature& sig) {
  std::vector<PredId> out;
  for (PredId p = 0; p < sig.num_predicates(); ++p) {
    if (sig.arity(p) == 2) out.push_back(p);
  }
  return out;
}

/// Adds `num_facts` random facts over fresh constants c0..c_{num_consts-1}.
void AddRandomFacts(Scenario* s, Rng* rng, int num_consts, int num_facts) {
  std::vector<TermId> consts;
  consts.reserve(num_consts);
  for (int i = 0; i < num_consts; ++i) {
    consts.push_back(s->sig->AddConstant('c' + std::to_string(i)));
  }
  std::vector<PredId> preds = NonNullaryPredicates(*s->sig);
  if (preds.empty()) return;
  for (int i = 0; i < num_facts; ++i) {
    PredId p = preds[rng->Uniform(preds.size())];
    std::vector<TermId> args;
    args.reserve(s->sig->arity(p));
    for (int a = 0; a < s->sig->arity(p); ++a) {
      args.push_back(consts[rng->Uniform(consts.size())]);
    }
    s->instance.AddFact(p, args);
  }
}

/// Attaches 1–3 Boolean queries: path/star/cycle over a binary predicate
/// when one exists, a single fresh-variable atom otherwise; occasionally
/// one variable is pinned to an instance constant.
void AddRandomQueries(Scenario* s, Rng* rng) {
  std::vector<PredId> preds = NonNullaryPredicates(*s->sig);
  std::vector<PredId> binary = BinaryPredicates(*s->sig);
  if (preds.empty()) return;
  int num_queries = 1 + static_cast<int>(rng->Uniform(3));
  for (int qi = 0; qi < num_queries; ++qi) {
    ConjunctiveQuery q;
    uint64_t shape = rng->Uniform(4);
    if (!binary.empty() && shape < 3) {
      PredId p = binary[rng->Uniform(binary.size())];
      int k = 1 + static_cast<int>(rng->Uniform(3));
      q = shape == 0 ? PathQuery(p, k)
          : shape == 1 ? StarQuery(p, k)
                       : CycleQuery(p, k);
    } else {
      PredId p = preds[rng->Uniform(preds.size())];
      std::vector<TermId> args;
      for (int a = 0; a < s->sig->arity(p); ++a) args.push_back(MakeVar(a));
      q.atoms.push_back(Atom(p, std::move(args)));
    }
    // Pin one variable to a constant now and then: constants exercise the
    // rewriter's applicability conditions and the hom filters.
    const std::vector<TermId>& domain = s->instance.Domain();
    if (!domain.empty() && rng->Uniform(4) == 0) {
      std::vector<TermId> vars = q.Variables();
      if (!vars.empty()) {
        TermId victim = vars[rng->Uniform(vars.size())];
        TermId value = domain[rng->Uniform(domain.size())];
        for (Atom& a : q.atoms) {
          for (TermId& t : a.args) {
            if (t == victim) t = value;
          }
        }
      }
    }
    s->queries.push_back(std::move(q));
  }
}

}  // namespace

const std::vector<std::string>& ScenarioFamilies() {
  static const std::vector<std::string> kFamilies = {
      "acyclic-binary", "guarded", "linear", "graph-datalog"};
  return kFamilies;
}

Scenario GenerateScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.seed = seed;
  size_t family = rng.Uniform(ScenarioFamilies().size());
  s.family = ScenarioFamilies()[family];
  switch (family) {
    case 0: {  // weakly acyclic, binary: chase terminates on every instance
      int preds = 3 + static_cast<int>(rng.Uniform(3));
      int tgds = 2 + static_cast<int>(rng.Uniform(4));
      int datalog = 1 + static_cast<int>(rng.Uniform(4));
      s.theory =
          RandomAcyclicBinaryTheory(s.sig, preds, tgds, datalog, rng.Next());
      AddRandomFacts(&s, &rng, 3 + static_cast<int>(rng.Uniform(3)),
                     3 + static_cast<int>(rng.Uniform(6)));
      break;
    }
    case 1: {  // guarded, arity up to 3
      int max_arity = 2 + static_cast<int>(rng.Uniform(2));
      int rules = 3 + static_cast<int>(rng.Uniform(4));
      s.theory = RandomGuardedTheory(s.sig, max_arity, rules, rng.Next());
      AddRandomFacts(&s, &rng, 2 + static_cast<int>(rng.Uniform(3)),
                     3 + static_cast<int>(rng.Uniform(5)));
      break;
    }
    case 2: {  // linear (always BDD; the chase may diverge)
      int preds = 3 + static_cast<int>(rng.Uniform(3));
      int rules = 4 + static_cast<int>(rng.Uniform(5));
      s.theory = RandomLinearTheory(s.sig, preds, rules, rng.Next());
      AddRandomFacts(&s, &rng, 2 + static_cast<int>(rng.Uniform(3)),
                     3 + static_cast<int>(rng.Uniform(5)));
      break;
    }
    default: {  // plain-datalog graph closure (terminating, null elements)
      int num_relations = 1 + static_cast<int>(rng.Uniform(2));
      int nodes = 5 + static_cast<int>(rng.Uniform(6));
      int edges = 6 + static_cast<int>(rng.Uniform(10));
      s.instance =
          RandomGraph(s.sig, nodes, edges, rng.Next(), num_relations);
      s.theory = Theory(s.sig);
      std::vector<PredId> rels = BinaryPredicates(*s.sig);
      TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2);
      PredId closed = rels[rng.Uniform(rels.size())];
      Status st = s.theory.AddRule(
          Rule({Atom(closed, {x, y}), Atom(closed, {y, z})},
               {Atom(closed, {x, z})}));
      (void)st;
      if (rels.size() > 1 && rng.Uniform(2) == 0) {
        PredId from = rels[0], to = rels[1];
        st = s.theory.AddRule(Rule({Atom(from, {x, y})}, {Atom(to, {x, y})}));
        (void)st;
      }
      break;
    }
  }
  AddRandomQueries(&s, &rng);
  return s;
}

std::string ScenarioToText(const Scenario& s) {
  return ToProgramText(s.theory, &s.instance, &s.queries);
}

Result<Scenario> ParseScenario(std::string_view text, std::string family,
                               uint64_t seed) {
  BDDFC_ASSIGN_OR_RETURN(Program p, ParseProgram(text));
  Scenario s(p.theory.signature_ptr());
  s.theory = std::move(p.theory);
  s.instance = std::move(p.instance);
  s.queries = std::move(p.queries);
  s.family = std::move(family);
  s.seed = seed;
  return s;
}

Result<Scenario> CloneScenario(const Scenario& s) {
  return ParseScenario(ScenarioToText(s), s.family, s.seed);
}

}  // namespace bddfc
