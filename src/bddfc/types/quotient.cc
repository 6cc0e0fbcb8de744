#include "bddfc/types/quotient.h"

#include <cassert>
#include <vector>

namespace bddfc {

Quotient BuildQuotient(const Structure& c, const TypePartition& partition) {
  Quotient out(c.signature_ptr());
  assert(partition.elements.size() == partition.class_id.size());

  // Assign one quotient element per class: the named constant itself for
  // singleton constant classes, a fresh null otherwise. `image_of` is q_n
  // as a dense array over C's elements, for the fact images below.
  std::vector<TermId> class_elem(partition.num_classes, -1);
  std::vector<TermId> image_of;
  for (size_t i = 0; i < partition.elements.size(); ++i) {
    TermId e = partition.elements[i];
    int cls = partition.class_id[i];
    if (class_elem[cls] < 0) {
      if (!c.sig().IsNull(e)) {
        class_elem[cls] = e;
      } else {
        class_elem[cls] = out.structure.mutable_sig().AddNull("q");
      }
      out.representative.emplace(class_elem[cls], e);
    } else {
      assert(c.sig().IsNull(e) &&
             "named constants must form singleton classes");
    }
    out.projection.emplace(e, class_elem[cls]);
    if (static_cast<size_t>(e) >= image_of.size()) image_of.resize(e + 1, -1);
    image_of[e] = class_elem[cls];
  }

  // Relations: images of C's facts under the projection (joint
  // witnesses), one batch per relation in ascending predicate order, so
  // rows and Domain() order are those of one AddFact per fact.
  std::vector<TermId> image;
  for (PredId p = 0; p < c.NumStoredPredicates(); ++p) {
    const RowsView rows = c.Rows(p);
    image.resize(rows.size() * rows.arity());
    for (size_t i = 0; i < image.size(); ++i) {
      const TermId t = rows.data()[i];
      assert(static_cast<size_t>(t) < image_of.size() && image_of[t] >= 0);
      image[i] = image_of[t];
    }
    out.structure.AppendRows(p, image.data(), rows.size());
  }
  // Classes of isolated elements still become domain elements.
  for (TermId e : class_elem) out.structure.AddDomainElement(e);
  return out;
}

bool IsRefinementOf(const TypePartition& finer, const TypePartition& coarser) {
  if (finer.elements != coarser.elements) return false;
  std::unordered_map<int, int> image;  // finer class -> coarser class
  for (size_t i = 0; i < finer.elements.size(); ++i) {
    auto [it, inserted] =
        image.emplace(finer.class_id[i], coarser.class_id[i]);
    if (!inserted && it->second != coarser.class_id[i]) return false;
  }
  return true;
}

}  // namespace bddfc
