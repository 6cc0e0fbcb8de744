#include "bddfc/core/signature.h"

#include <algorithm>
#include <charconv>

namespace bddfc {

Result<PredId> Signature::AddPredicate(std::string_view name, int arity) {
  int32_t existing = pred_names_.Find(name);
  if (existing >= 0) {
    if (predicates_[existing].arity != arity) {
      return ArityConflict(name, arity, predicates_[existing].arity);
    }
    return existing;
  }
  if (arity < 0) {
    return Status::InvalidArgument("negative arity for predicate '" +
                                   std::string(name) + "'");
  }
  PredId id = pred_names_.Intern(name);
  PredicateInfo info;
  info.arity = arity;
  predicates_.push_back(std::move(info));
  return id;
}

Status Signature::ArityConflict(std::string_view name, int arity, int was) {
  return Status::AlreadyExists("predicate '" + std::string(name) +
                               "' redeclared with arity " +
                               std::to_string(arity) + " (was " +
                               std::to_string(was) + ")");
}

PredId Signature::AddColorPredicate(int hue, int lightness) {
  std::string name = FreshPredicateName(
      "K_h" + std::to_string(hue) + "_l" + std::to_string(lightness));
  PredId id = pred_names_.Intern(name);
  PredicateInfo info;
  info.arity = 1;
  info.is_color = true;
  info.hue = hue;
  info.lightness = lightness;
  predicates_.push_back(std::move(info));
  return id;
}

TermId Signature::AddConstant(std::string_view name) {
  bool inserted = false;
  const TermId id = const_names_.Intern(name, &inserted);
  if (inserted) constants_.push_back(ConstantInfo{});
  return id;
}

TermId Signature::AddNull(std::string_view hint) {
  // "_<hint>" once, then each candidate counter value is written after it
  // in place; the hints in use are a few characters, so the name stays on
  // the stack.
  constexpr size_t kDigits = 20;  // any int64_t
  char stack[64];
  std::string heap;
  char* buf = stack;
  if (1 + hint.size() + kDigits > sizeof(stack)) {
    heap.resize(1 + hint.size() + kDigits);
    buf = heap.data();
  }
  buf[0] = '_';
  std::copy(hint.begin(), hint.end(), buf + 1);
  char* digits = buf + 1 + hint.size();
  while (true) {
    const char* end =
        std::to_chars(digits, digits + kDigits, null_counter_++).ptr;
    bool inserted = false;
    const TermId id = const_names_.Intern(
        std::string_view(buf, static_cast<size_t>(end - buf)), &inserted);
    if (inserted) {
      ConstantInfo info;
      info.is_null = true;
      constants_.push_back(info);
      return id;
    }
  }
}

Result<PredId> Signature::FindPredicate(std::string_view name) const {
  int32_t id = pred_names_.Find(name);
  if (id < 0) {
    return Status::NotFound("unknown predicate '" + std::string(name) + "'");
  }
  return id;
}

Result<TermId> Signature::FindConstant(std::string_view name) const {
  int32_t id = const_names_.Find(name);
  if (id < 0) {
    return Status::NotFound("unknown constant '" + std::string(name) + "'");
  }
  return id;
}

std::string Signature::FreshPredicateName(std::string_view stem) const {
  std::string name(stem);
  int suffix = 0;
  while (pred_names_.Contains(name)) {
    name = std::string(stem) + "_" + std::to_string(suffix++);
  }
  return name;
}

int Signature::MaxArity() const {
  int m = 0;
  for (const auto& p : predicates_) m = std::max(m, p.arity);
  return m;
}

void Signature::RollbackTo(const Mark& mark) {
  if (mark.num_predicates >= 0 &&
      mark.num_predicates < static_cast<int>(predicates_.size())) {
    pred_names_.TruncateTo(mark.num_predicates);
    predicates_.resize(static_cast<size_t>(mark.num_predicates));
  }
  if (mark.num_constants >= 0 &&
      mark.num_constants < static_cast<int>(constants_.size())) {
    const_names_.TruncateTo(mark.num_constants);
    constants_.resize(static_cast<size_t>(mark.num_constants));
  }
  null_counter_ = mark.null_counter;
}

bool Signature::IsBinary() const {
  return std::all_of(predicates_.begin(), predicates_.end(),
                     [](const PredicateInfo& p) { return p.arity <= 2; });
}

}  // namespace bddfc
