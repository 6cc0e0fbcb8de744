#include "bddfc/core/theory.h"

#include <algorithm>

namespace bddfc {

Status Theory::AddRule(Rule rule) {
  BDDFC_RETURN_NOT_OK(rule.Validate(*sig_));
  if (rule.label.empty()) {
    rule.label = 'r' + std::to_string(rules_.size());
  }
  rules_.push_back(std::move(rule));
  return Status::OK();
}

std::unordered_set<PredId> Theory::TgpCandidates() const {
  std::unordered_set<PredId> tgps;
  for (const Rule& r : rules_) {
    if (r.IsExistential()) {
      for (const Atom& h : r.head) tgps.insert(h.pred);
    }
  }
  return tgps;
}

bool Theory::IsSpade5Normal() const {
  std::unordered_set<PredId> tgps = TgpCandidates();
  for (const Rule& r : rules_) {
    if (r.IsExistential()) {
      if (r.head.size() != 1) return false;
      const Atom& h = r.head[0];
      if (h.args.size() != 2) return false;
      std::vector<TermId> ex = r.ExistentialVariables();
      if (ex.size() != 1) return false;
      // Witness must be the second argument; first argument must be a
      // body (frontier) variable.
      if (h.args[1] != ex[0]) return false;
      if (!IsVar(h.args[0]) || h.args[0] == ex[0]) return false;
    } else {
      for (const Atom& h : r.head) {
        if (tgps.count(h.pred)) return false;
      }
    }
  }
  return true;
}

bool Theory::IsSingleHead() const {
  return std::all_of(rules_.begin(), rules_.end(),
                     [](const Rule& r) { return r.IsSingleHead(); });
}

int Theory::MaxBodyVariables() const {
  int m = 0;
  for (const Rule& r : rules_) {
    m = std::max(m, static_cast<int>(r.BodyVariables().size()));
  }
  return m;
}

int32_t Theory::MaxVariableIndex() const {
  int32_t m = 0;
  auto scan = [&](const std::vector<Atom>& atoms) {
    for (const Atom& a : atoms) {
      for (TermId t : a.args) {
        if (IsVar(t)) m = std::max(m, DecodeVar(t) + 1);
      }
    }
  };
  for (const Rule& r : rules_) {
    scan(r.body);
    scan(r.head);
  }
  return m;
}

std::string Theory::ToString() const {
  std::string s;
  for (const Rule& r : rules_) {
    s += r.ToString(*sig_);
    s += ".\n";
  }
  return s;
}

}  // namespace bddfc
