#include "bddfc/eval/answers.h"

#include <algorithm>
#include <cassert>

#include "bddfc/eval/exec.h"
#include "bddfc/eval/match.h"
#include "bddfc/eval/plan.h"

namespace bddfc {

namespace {

/// Collects answer tuples of `query` over `s`, skipping tuples that bind a
/// labeled null. Plan-backed: the plan is compiled once and each answer
/// position reads a constant or a slot of the executor's blocks. The
/// answer set is sorted and deduplicated by the callers, so the executor's
/// enumeration order is immaterial.
void CollectAnswers(const Structure& s, const ConjunctiveQuery& query,
                    std::vector<std::vector<TermId>>* out) {
  const QueryPlan plan = CompilePlan(s, query.atoms);
  // Per answer position: the slot holding its value, or -1 for a constant.
  std::vector<int> slots;
  slots.reserve(query.answer_vars.size());
  for (TermId v : query.answer_vars) {
    if (IsConst(v)) {
      slots.push_back(-1);
      continue;
    }
    auto it = std::find(plan.slot_vars.begin(), plan.slot_vars.end(), v);
    assert(it != plan.slot_vars.end() &&
           "answer variable missing from the body");
    slots.push_back(static_cast<int>(it - plan.slot_vars.begin()));
  }
  ExecutePlan(s, plan, nullptr, {}, [&](const SlotBlock& blk) {
    for (size_t r = 0; r < blk.num_rows; ++r) {
      const TermId* row = blk.rows + r * blk.width;
      std::vector<TermId> tuple;
      tuple.reserve(slots.size());
      for (size_t i = 0; i < slots.size(); ++i) {
        const TermId value =
            slots[i] < 0 ? query.answer_vars[i] : row[slots[i]];
        if (s.sig().IsNull(value)) break;  // not a database value
        tuple.push_back(value);
      }
      if (tuple.size() == slots.size()) out->push_back(std::move(tuple));
    }
    return true;
  });
}

void SortUnique(std::vector<std::vector<TermId>>* answers) {
  std::sort(answers->begin(), answers->end());
  answers->erase(std::unique(answers->begin(), answers->end()),
                 answers->end());
}

}  // namespace

CertainAnswersResult CertainAnswers(const Theory& theory,
                                    const Structure& instance,
                                    const ConjunctiveQuery& query,
                                    const ChaseOptions& chase_options) {
  assert(!query.answer_vars.empty() &&
         "use Satisfies() for Boolean queries");
  CertainAnswersResult out;
  ChaseResult chase = RunChase(theory, instance, chase_options);
  CollectAnswers(chase.structure, query, &out.answers);
  SortUnique(&out.answers);
  out.complete = chase.fixpoint_reached;
  if (!chase.status.ok()) out.status = chase.status;
  return out;
}

CertainAnswersResult CertainAnswersViaRewriting(
    const Theory& theory, const Structure& instance,
    const ConjunctiveQuery& query, const RewriteOptions& options) {
  assert(!query.answer_vars.empty());
  CertainAnswersResult out;
  RewriteResult rw = RewriteQuery(theory, query, options);
  for (const ConjunctiveQuery& disjunct : rw.rewriting) {
    CollectAnswers(instance, disjunct, &out.answers);
  }
  SortUnique(&out.answers);
  out.complete = rw.status.ok();
  if (!rw.status.ok()) out.status = rw.status;
  return out;
}

}  // namespace bddfc
