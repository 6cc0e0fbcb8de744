// Natural colorings (§2.4, Def. 6–7; §4, Def. 13–14).
//
// A coloring adds one unary color atom K_h^l(e) per element: the hue h
// separates elements that are close (within P_m) in the predecessor order,
// the lightness l records the isomorphism type of C ↾ (P(e) ∪ C_con). For
// forests — the shape of every skeleton by Lemma 3 — hue = depth mod (m+2)
// realizes Def. 14's first condition, and the lightness is computed from a
// canonical encoding of the local atoms around (e, parent(e), constants),
// read off a per-null index of incident facts in one linear pass.

#ifndef BDDFC_TYPES_COLORING_H_
#define BDDFC_TYPES_COLORING_H_

#include <unordered_map>
#include <vector>

#include "bddfc/base/status.h"
#include "bddfc/core/structure.h"

namespace bddfc {

/// A colored copy C̄ of a structure C.
struct Coloring {
  Structure colored;
  /// The base predicates Σ (everything that existed before coloring,
  /// excluding pre-existing colors).
  std::vector<PredId> base_predicates;
  /// The color predicates added by this coloring.
  std::vector<PredId> color_predicates;
  /// Color assigned to each element.
  std::unordered_map<TermId, PredId> color_of;
  int num_hues = 0;
  int num_lightnesses = 0;

  explicit Coloring(SignaturePtr sig) : colored(std::move(sig)) {}
};

/// Builds a natural coloring of `c` with hue window m (Def. 14). Requires
/// the labeled nulls of `c` to form a forest under binary atoms (Lemma 3
/// guarantees this for skeletons); fails with FailedPrecondition otherwise.
Result<Coloring> NaturalColoring(const Structure& c, int m);

/// Checks Def. 14 on an arbitrary coloring: distinct hues within each
/// P_m(e), and isomorphic C ↾ (P(e) ∪ C_con) for same-colored elements
/// (judged by ReferenceLightnesses). Used by tests; NaturalColoring's
/// output satisfies it by construction.
bool IsNaturalColoring(const Coloring& coloring, const Structure& c, int m);

/// The reference lightness of each element of c.Domain(), in order: the
/// isomorphism type of C ↾ (P(e) ∪ C_con), numbered by first appearance.
/// Brute force — one scan of every fact of `c` per element, so O(|domain| ·
/// |facts|) — and independent of NaturalColoring's incident index, which
/// must assign exactly these lightness ids. For checks and tests only.
std::vector<int> ReferenceLightnesses(const Structure& c);

}  // namespace bddfc

#endif  // BDDFC_TYPES_COLORING_H_
