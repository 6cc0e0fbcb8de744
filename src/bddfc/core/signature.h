// Signature: predicate and constant tables shared by structures and theories.

#ifndef BDDFC_CORE_SIGNATURE_H_
#define BDDFC_CORE_SIGNATURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bddfc/base/interner.h"
#include "bddfc/base/status.h"
#include "bddfc/core/term.h"

namespace bddfc {

/// Metadata for one predicate symbol (its name lives in the Signature's
/// name table: Signature::PredicateName).
struct PredicateInfo {
  int arity = 0;
  /// True for the color predicates K_h^l introduced by colorings (Def. 6).
  bool is_color = false;
  /// Hue h and lightness l when is_color (Def. 6); -1 otherwise.
  int hue = -1;
  int lightness = -1;
};

/// Metadata for one constant (domain element); its name lives in the
/// Signature's name table (Signature::ConstantName).
struct ConstantInfo {
  /// True when the constant is a labeled null invented by the chase
  /// (an element of C_non); named signature constants (C_con) are false.
  bool is_null = false;
};

/// A finite relational signature: predicates with arities plus constants.
///
/// Signatures are mutable (the chase invents labeled nulls; reductions and
/// colorings add predicates) and shared via shared_ptr between the theory,
/// database instances and derived structures.
class Signature {
 public:
  Signature() = default;

  /// Adds (or finds) a predicate. Returns ArityConflict if it exists with
  /// a different arity.
  Result<PredId> AddPredicate(std::string_view name, int arity);

  /// The error for predicate `name` used with `arity` when it has arity
  /// `was`.
  static Status ArityConflict(std::string_view name, int arity, int was);

  /// Adds a fresh color predicate K_h^l. The generated name encodes (h, l).
  PredId AddColorPredicate(int hue, int lightness);

  /// Adds (or finds) a named signature constant.
  TermId AddConstant(std::string_view name);

  /// Invents a fresh labeled null named "_<hint><k>", with k the next
  /// value of a counter that skips names already taken (a declared
  /// constant "_n0" makes the first default null "_n1").
  TermId AddNull(std::string_view hint = "n");

  /// Returns the id of predicate `name`, or error if absent.
  Result<PredId> FindPredicate(std::string_view name) const;

  /// Returns the id of constant `name`, or error if absent.
  Result<TermId> FindConstant(std::string_view name) const;

  /// Generates a fresh predicate name starting with `stem` that does not
  /// collide with any existing predicate.
  std::string FreshPredicateName(std::string_view stem) const;

  const PredicateInfo& predicate(PredId p) const { return predicates_[p]; }
  const ConstantInfo& constant(TermId c) const { return constants_[c]; }

  int num_predicates() const { return static_cast<int>(predicates_.size()); }
  int num_constants() const { return static_cast<int>(constants_.size()); }

  int arity(PredId p) const { return predicates_[p].arity; }
  const std::string& PredicateName(PredId p) const {
    return pred_names_.NameOf(p);
  }
  const std::string& ConstantName(TermId c) const {
    return const_names_.NameOf(c);
  }
  bool IsNull(TermId c) const { return constants_[c].is_null; }
  bool IsColor(PredId p) const { return predicates_[p].is_color; }

  /// Maximum arity over all predicates (0 when empty).
  int MaxArity() const;

  /// True iff every predicate has arity <= 2 (the paper's binary signatures,
  /// §2.7: binary relations, unary relations and constants).
  bool IsBinary() const;

  /// Opaque position in the predicate/constant tables, for RollbackTo.
  struct Mark {
    int num_predicates = 0;
    int num_constants = 0;
    int64_t null_counter = 0;
  };
  Mark TakeMark() const {
    return Mark{num_predicates(), num_constants(), null_counter_};
  }

  /// Forgets every predicate and constant added after `mark` and restores
  /// the null counter, so a rerun invents byte-identical ids and names.
  /// This is the supervisor's attempt-isolation hook: an aborted chase
  /// attempt's labeled nulls must not shift the retry's TermIds. Callers
  /// must have discarded every structure/atom referencing the rolled-back
  /// ids (the aborted attempt's result is dropped before the rollback).
  void RollbackTo(const Mark& mark);

 private:
  std::vector<PredicateInfo> predicates_;
  std::vector<ConstantInfo> constants_;
  Interner pred_names_;
  Interner const_names_;
  int64_t null_counter_ = 0;
};

using SignaturePtr = std::shared_ptr<Signature>;

}  // namespace bddfc

#endif  // BDDFC_CORE_SIGNATURE_H_
