#include "bddfc/types/quotient.h"

#include <cassert>
#include <vector>

namespace bddfc {

Quotient BuildQuotient(const Structure& c, const TypePartition& partition) {
  Quotient out(c.signature_ptr());
  assert(partition.elements.size() == partition.class_id.size());

  // Assign one quotient element per class: the named constant itself for
  // singleton constant classes, a fresh null otherwise.
  std::vector<TermId> class_elem(partition.num_classes, -1);
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
  }

  // Relations: images of C's facts under the projection (joint witnesses).
  c.ForEachFact([&](PredId p, TupleRef row) {
    std::vector<TermId> image;
    image.reserve(row.size());
    for (TermId t : row) {
      auto it = out.projection.find(t);
      assert(it != out.projection.end());
      image.push_back(it->second);
    }
    out.structure.AddFact(p, image);
  });
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
