#include "bddfc/chase/skeleton.h"

#include <algorithm>
#include <deque>

namespace bddfc {

Skeleton SkeletonOf(const Theory& theory, const Structure& instance,
                    const ChaseResult& chase) {
  Skeleton out(chase.structure.signature_ptr());
  out.tgps = theory.TgpCandidates();

  // Atoms of D.
  instance.ForEachFact([&](PredId p, TupleRef row) {
    out.structure.AddFact(p, row);
  });
  // TGP atoms of the chase.
  chase.structure.ForEachFact([&](PredId p, TupleRef row) {
    if (out.tgps.count(p)) out.structure.AddFact(p, row);
  });
  // Every chase element belongs to S (Def. 12), even if it carries only
  // flesh atoms.
  for (TermId e : chase.structure.Domain()) {
    out.structure.AddDomainElement(e);
  }
  return out;
}

SkeletonAnalysis AnalyzeSkeleton(const Structure& s) {
  SkeletonAnalysis out;
  const Signature& sig = s.sig();

  // Collect null-to-null edges and degrees (all incident skeleton atoms).
  std::unordered_map<TermId, std::vector<TermId>> children;
  std::unordered_map<TermId, std::unordered_set<TermId>> parents;
  std::unordered_map<TermId, int> degree;
  // Per (relation, element): number of distinct non-constant predecessors,
  // for the Def. 11 / Lemma 3(ii) check.
  std::unordered_map<TermId, std::unordered_map<PredId, std::unordered_set<TermId>>>
      pred_by_rel;

  std::vector<TermId> nulls;
  for (TermId e : s.Domain()) {
    if (sig.IsNull(e)) nulls.push_back(e);
  }

  s.ForEachFact([&](PredId p, TupleRef row) {
    for (TermId t : row) {
      if (sig.IsNull(t)) ++degree[t];
    }
    if (row.size() == 2 && sig.IsNull(row[0]) && sig.IsNull(row[1]) &&
        row[0] != row[1]) {
      children[row[0]].push_back(row[1]);
      parents[row[1]].insert(row[0]);
      pred_by_rel[row[1]][p].insert(row[0]);
    }
  });

  out.indegree_at_most_one = true;
  for (TermId e : nulls) {
    auto it = parents.find(e);
    if (it == parents.end()) {
      out.roots.push_back(e);
      continue;
    }
    if (it->second.size() > 1) out.indegree_at_most_one = false;
    out.parent.emplace(e, *it->second.begin());
  }
  for (auto& [e, rels] : pred_by_rel) {
    (void)e;
    for (auto& [rel, preds] : rels) {
      (void)rel;
      if (preds.size() > 1) out.indegree_at_most_one = false;
    }
  }

  for (auto& [e, d] : degree) {
    (void)e;
    out.max_degree = std::max(out.max_degree, d);
  }

  // Acyclicity via Kahn's algorithm on null-to-null edges.
  std::unordered_map<TermId, int> indeg;
  for (TermId e : nulls) indeg[e] = 0;
  for (auto& [from, tos] : children) {
    (void)from;
    for (TermId to : tos) ++indeg[to];
  }
  std::deque<TermId> queue;
  for (TermId e : nulls) {
    if (indeg[e] == 0) queue.push_back(e);
  }
  size_t visited = 0;
  while (!queue.empty()) {
    TermId e = queue.front();
    queue.pop_front();
    ++visited;
    auto it = children.find(e);
    if (it != children.end()) {
      for (TermId to : it->second) {
        if (--indeg[to] == 0) queue.push_back(to);
      }
    }
  }
  out.acyclic = visited == nulls.size();
  out.is_forest = out.acyclic && out.indegree_at_most_one;

  if (out.is_forest) {
    // BFS depths from roots.
    std::deque<std::pair<TermId, int>> bfs;
    for (TermId r : out.roots) bfs.emplace_back(r, 0);
    while (!bfs.empty()) {
      auto [e, d] = bfs.front();
      bfs.pop_front();
      auto [it, inserted] = out.depth.emplace(e, d);
      (void)it;
      if (!inserted) continue;
      auto ch = children.find(e);
      if (ch != children.end()) {
        for (TermId c : ch->second) bfs.emplace_back(c, d + 1);
      }
    }
  }
  return out;
}

}  // namespace bddfc
