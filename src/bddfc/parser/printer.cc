#include "bddfc/parser/printer.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

namespace bddfc {

namespace {

/// Variable renderer: stable V<k> names per statement.
class VarNamer {
 public:
  std::string Name(TermId v) {
    auto [it, inserted] = names_.emplace(v, 'V' + std::to_string(next_));
    if (inserted) ++next_;
    return it->second;
  }

 private:
  std::unordered_map<TermId, std::string> names_;
  int next_ = 0;
};

/// True iff `name` lexes back as a plain predicate/constant identifier:
/// leading lowercase letter, digit or '_', identifier characters throughout,
/// and not the 'exists' keyword.
bool IsPlainIdent(const std::string& name) {
  if (name.empty() || name == "exists") return false;
  unsigned char c0 = static_cast<unsigned char>(name[0]);
  if (!(std::islower(c0) || std::isdigit(c0) || name[0] == '_')) return false;
  for (char c : name) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (!(std::isalnum(uc) || c == '_' || c == '\'')) return false;
  }
  return true;
}

/// Renders a predicate/constant name, quoting it when its spelling would
/// otherwise lex as a variable, keyword or garbage (round-trip safety for
/// programmatically interned names like "Foo" or "exists").
std::string NameText(const std::string& name) {
  if (IsPlainIdent(name)) return name;
  std::string s = "\"";
  for (char c : name) {
    if (c == '"' || c == '\\') s += '\\';
    s += c;
  }
  return s + "\"";
}

std::string AtomText(const Atom& a, const Signature& sig, VarNamer* namer) {
  std::string s = NameText(sig.PredicateName(a.pred));
  if (a.args.empty()) return s;
  s += "(";
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (i) s += ", ";
    s += IsVar(a.args[i]) ? namer->Name(a.args[i])
                          : NameText(sig.ConstantName(a.args[i]));
  }
  return s + ")";
}

std::string AtomListText(const std::vector<Atom>& atoms, const Signature& sig,
                         VarNamer* namer) {
  std::string s;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i) s += ", ";
    s += AtomText(atoms[i], sig, namer);
  }
  return s;
}

}  // namespace

std::string RuleToProgramText(const Rule& rule, const Signature& sig) {
  VarNamer namer;
  std::string s = AtomListText(rule.body, sig, &namer);
  s += " -> ";
  std::vector<TermId> ex = rule.ExistentialVariables();
  if (!ex.empty()) {
    s += "exists ";
    for (size_t i = 0; i < ex.size(); ++i) {
      if (i) s += ", ";
      s += namer.Name(ex[i]);
    }
    s += ": ";
  }
  s += AtomListText(rule.head, sig, &namer);
  return s + ".";
}

std::string ToProgramText(const Theory& theory, const Structure* instance,
                          const std::vector<ConjunctiveQuery>* queries) {
  const Signature& sig = theory.sig();
  std::string out;
  for (const Rule& r : theory.rules()) {
    out += RuleToProgramText(r, sig);
    out += "\n";
  }
  if (instance != nullptr) {
    // Facts print in sorted rendered order, not PredId/row insertion order:
    // internal id numbering differs between a signature and its reparse, so
    // a canonical order is what makes Print ∘ Parse ∘ Print a fixpoint.
    std::vector<std::string> fact_lines;
    instance->ForEachFact([&](PredId p, TupleRef row) {
      VarNamer namer;
      fact_lines.push_back(AtomText(Atom(p, row), sig, &namer) + ".\n");
    });
    std::sort(fact_lines.begin(), fact_lines.end());
    for (const std::string& line : fact_lines) out += line;
  }
  if (queries != nullptr) {
    for (const ConjunctiveQuery& q : *queries) {
      VarNamer namer;
      out += "?- " + AtomListText(q.atoms, sig, &namer) + ".\n";
    }
  }
  return out;
}

}  // namespace bddfc
