#include "bddfc/core/atom.h"

namespace bddfc {

std::string TermToString(const Signature& sig, TermId t) {
  if (IsVar(t)) return '?' + std::to_string(DecodeVar(t));
  return sig.ConstantName(t);
}

std::string Atom::ToString(const Signature& sig) const {
  std::string s = sig.PredicateName(pred);
  s += "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i) s += ", ";
    s += TermToString(sig, args[i]);
  }
  s += ")";
  return s;
}

}  // namespace bddfc
