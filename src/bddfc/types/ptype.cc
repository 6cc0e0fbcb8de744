#include "bddfc/types/ptype.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bddfc/chase/skeleton.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"

namespace bddfc {

struct TypeOracle::Impl {
  const Structure& a;
  const Structure& b;
  TypeOracleOptions options;

  /// Ungoverned oracles fall back to a local (limitless) context so the
  /// pattern loop has one code path.
  ExecutionContext local_ctx;
  ExecutionContext* ctx = nullptr;
  size_t charged_bytes = 0;  // incident-index estimate, released in ~Impl

  std::vector<char> in_theta;   // indexed by PredId
  bool const_only_ok = true;    // constant-only atoms of A hold in B
  std::vector<TermId> a_nulls;
  /// Atoms of A (over Θ) incident to each null: (pred, row).
  std::unordered_map<TermId, std::vector<std::pair<PredId, uint32_t>>>
      incident;
  mutable size_t patterns_checked = 0;

  Impl(const Structure& a_, const Structure& b_,
       const TypeOracleOptions& opts)
      : a(a_), b(b_), options(opts) {
    ctx = options.context != nullptr ? options.context : &local_ctx;
    assert(a.signature_ptr().get() == b.signature_ptr().get() &&
           "type oracle requires a shared signature");
    in_theta.assign(a.sig().num_predicates(), 0);
    if (options.predicates.empty()) {
      std::fill(in_theta.begin(), in_theta.end(), 1);
    } else {
      for (PredId p : options.predicates) in_theta[p] = 1;
    }
    for (PredId p = 0; p < a.sig().num_predicates(); ++p) {
      if (!in_theta[p]) continue;
      const RowsView rows = a.Rows(p);
      for (uint32_t r = 0; r < rows.size(); ++r) {
        bool has_null = false;
        const TupleRef row = rows[r];
        std::unordered_set<TermId> elems(row.begin(), row.end());
        for (TermId t : elems) {
          if (a.sig().IsNull(t)) {
            incident[t].emplace_back(p, r);
            has_null = true;
          }
        }
        if (!has_null && !b.Contains(p, row)) const_only_ok = false;
      }
    }
    for (TermId e : a.Domain()) {
      if (a.sig().IsNull(e)) a_nulls.push_back(e);
    }
    // Account the incident index (the oracle's dominant allocation) for
    // the oracle's lifetime when a governor is attached.
    if (options.context != nullptr) {
      for (const auto& [e, rows] : incident) {
        (void)e;
        charged_bytes += 64 + rows.size() * sizeof(rows[0]);
      }
      ctx->memory().Charge(charged_bytes);
    }
  }

  ~Impl() {
    if (charged_bytes != 0) ctx->memory().Release(charged_bytes);
  }

  /// Builds the canonical query of A ↾ (S ∪ C_con) over Θ, with the
  /// elements of S as variables. Returns the atom list; vars are indexed by
  /// position of the element in S.
  std::vector<Atom> PatternQuery(const std::vector<TermId>& s) const {
    std::unordered_map<TermId, TermId> var_of;
    for (size_t i = 0; i < s.size(); ++i) {
      var_of.emplace(s[i], MakeVar(static_cast<int32_t>(i)));
    }
    std::vector<Atom> atoms;
    std::unordered_set<int64_t> seen_rows;
    for (TermId e : s) {
      auto it = incident.find(e);
      if (it == incident.end()) continue;
      for (auto [pred, row] : it->second) {
        if (!seen_rows.insert((int64_t(pred) << 32) | row).second) continue;
        const TupleRef args = a.Tuple({pred, row});
        Atom atom;
        atom.pred = pred;
        atom.args.reserve(args.size());
        bool inside = true;
        for (TermId t : args) {
          auto vit = var_of.find(t);
          if (vit != var_of.end()) {
            atom.args.push_back(vit->second);
          } else if (!a.sig().IsNull(t)) {
            atom.args.push_back(t);  // named constant context
          } else {
            inside = false;  // atom leaves S ∪ C_con
            break;
          }
        }
        if (inside) atoms.push_back(std::move(atom));
      }
    }
    return atoms;
  }

  mutable bool budget_hit = false;

  /// Checks all patterns S (subsets of A's nulls) against the target: with
  /// `pinned` >= 0, S always contains `pinned` and the canonical query is
  /// evaluated with pinned ↦ eb; with `pinned` < 0, S starts empty and the
  /// query is evaluated unpinned. `extra_budget` bounds the nulls added on
  /// top of the pin.
  bool PatternsHold(TermId pinned, TermId eb, int extra_budget) const {
    Matcher matcher(b);
    std::vector<TermId> s;
    if (pinned >= 0) s.push_back(pinned);
    std::vector<size_t> stack;  // indexes into a_nulls (combination DFS)
    auto check_current = [&]() {
      if (ctx->ShouldStop("ptype patterns")) {
        budget_hit = true;  // governor trip: answers become inconclusive
        return false;
      }
      ++patterns_checked;
      if (patterns_checked >= options.max_patterns) {
        budget_hit = true;
        return false;
      }
      std::vector<Atom> q = PatternQuery(s);
      Binding pin;
      if (pinned >= 0) pin.emplace(MakeVar(0), eb);
      return matcher.Exists(q, pin);
    };
    if (!check_current()) return false;

    size_t next = 0;
    while (true) {
      if (static_cast<int>(stack.size()) < extra_budget &&
          next < a_nulls.size()) {
        TermId cand = a_nulls[next];
        // Skip the pin and candidates with no Θ-atoms at all: an isolated
        // variable never constrains satisfaction.
        if (cand != pinned && incident.count(cand)) {
          stack.push_back(next);
          s.push_back(cand);
          if (!check_current()) return false;
          next = next + 1;
          continue;
        }
        ++next;
        continue;
      }
      if (stack.empty()) break;
      next = stack.back() + 1;
      stack.pop_back();
      s.pop_back();
    }
    return true;
  }
};

TypeOracle::TypeOracle(const Structure& a, const Structure& b,
                       const TypeOracleOptions& options)
    : impl_(std::make_unique<Impl>(a, b, options)) {}

TypeOracle::~TypeOracle() {
  // Bridge the oracle's run-scoped tally into the registry once, at the
  // end of its life (a moved-from oracle has no impl and publishes nothing).
  if (impl_ == nullptr) return;
  // The run's registry, resolved through the context the oracle was built
  // with (callers keep it alive for the oracle's lifetime).
  obs::MetricsRegistry& reg = impl_->ctx->metrics_registry();
  if (reg.enabled()) {
    reg.GetCounter("bddfc.ptype.oracles")->Add(1);
    reg.GetCounter("bddfc.ptype.patterns_checked")->Add(
        impl_->patterns_checked);
  }
}
TypeOracle::TypeOracle(TypeOracle&&) noexcept = default;
TypeOracle& TypeOracle::operator=(TypeOracle&&) noexcept = default;

bool TypeOracle::TypeContained(TermId ea, TermId eb) const {
  const Impl& im = *impl_;
  if (!im.const_only_ok) return false;
  if (!im.a.sig().IsNull(ea)) {
    // Named constant: the query y = ea (allowed by Def. 3) forces eb == ea.
    // The remaining queries fold y into the constant context, leaving
    // unpinned patterns over at most n-1 nulls.
    if (eb != ea) return false;
    return im.PatternsHold(-1, -1, im.options.num_variables - 1);
  }
  return im.PatternsHold(ea, eb, im.options.num_variables - 1);
}

size_t TypeOracle::patterns_checked() const {
  return impl_->patterns_checked;
}

bool TypeOracle::budget_exhausted() const { return impl_->budget_hit; }

int TypePartition::ClassOf(TermId e) const {
  for (size_t i = 0; i < elements.size(); ++i) {
    if (elements[i] == e) return class_id[i];
  }
  return -1;
}

Result<TypePartition> ExactPtpPartition(const Structure& c, int n,
                                        const std::vector<PredId>& predicates,
                                        size_t max_patterns,
                                        ExecutionContext* context) {
  obs::TraceSpan span(&ContextTracer(context), "ptype.exact_partition");
  TypeOracleOptions opts;
  opts.num_variables = n;
  opts.predicates = predicates;
  opts.max_patterns = max_patterns;
  opts.context = context;
  TypeOracle oracle(c, c, opts);

  TypePartition out;
  out.n = n;
  out.elements = c.Domain();
  out.class_id.assign(out.elements.size(), -1);
  std::vector<TermId> reps;
  for (size_t i = 0; i < out.elements.size(); ++i) {
    TermId e = out.elements[i];
    int found = -1;
    for (size_t r = 0; r < reps.size(); ++r) {
      if (!c.sig().IsNull(e) || !c.sig().IsNull(reps[r])) {
        if (e == reps[r]) found = static_cast<int>(r);
        continue;
      }
      if (oracle.TypeContained(e, reps[r]) &&
          oracle.TypeContained(reps[r], e)) {
        found = static_cast<int>(r);
        break;
      }
    }
    if (found < 0) {
      found = static_cast<int>(reps.size());
      reps.push_back(e);
    }
    out.class_id[i] = found;
    if (oracle.budget_exhausted()) {
      // Inconclusive containments make the whole partition unusable, so no
      // partial result is returned. Record the trip on the governor (a
      // governed trip is already latched; RecordExhaustion keeps it).
      std::string detail = "type partition exceeded max_patterns=" +
                           std::to_string(max_patterns);
      if (context != nullptr) {
        return context->RecordExhaustion(ResourceKind::kPatterns,
                                         std::move(detail));
      }
      return Status::ResourceExhausted(std::move(detail));
    }
  }
  out.num_classes = static_cast<int>(reps.size());
  return out;
}

namespace {

/// Neighborhood canonicalization for BallPartition.
struct BallCanon {
  const Structure& c;
  const std::vector<char>& in_theta;

  /// Undirected adjacency among nulls: neighbor -> concatenated edge labels.
  std::unordered_map<TermId, std::map<TermId, std::string>> adj;
  /// Per-element local label: unary atoms + links to named constants.
  std::unordered_map<TermId, std::string> label;

  BallCanon(const Structure& s, const std::vector<char>& theta)
      : c(s), in_theta(theta) {
    c.ForEachFact([&](PredId p, TupleRef row) {
      if (!in_theta[p]) return;
      std::string pname = std::to_string(p);
      if (row.size() == 1) {
        label[row[0]] += "u" + pname + ";";
        return;
      }
      if (row.size() != 2) return;  // BallPartition targets binary structures
      bool n0 = c.sig().IsNull(row[0]);
      bool n1 = c.sig().IsNull(row[1]);
      if (n0 && n1) {
        if (row[0] == row[1]) {
          label[row[0]] += "l" + pname + ";";  // self-loop as a label
        } else {
          adj[row[0]][row[1]] += ">" + pname + ";";
          adj[row[1]][row[0]] += "<" + pname + ";";
        }
      } else if (n0) {
        label[row[0]] += "c>" + pname + "," + std::to_string(row[1]) + ";";
      } else if (n1) {
        label[row[1]] += "c<" + pname + "," + std::to_string(row[0]) + ";";
      }
    });
    for (auto& [e, l] : label) {
      (void)e;
      l = SortSegments(l);
    }
  }

  static std::string SortSegments(const std::string& s) {
    std::vector<std::string> parts;
    std::string cur;
    for (char ch : s) {
      cur += ch;
      if (ch == ';') {
        parts.push_back(cur);
        cur.clear();
      }
    }
    std::sort(parts.begin(), parts.end());
    std::string out;
    for (auto& p : parts) out += p;
    return out;
  }

  std::string LabelOf(TermId e) const {
    auto it = label.find(e);
    return it == label.end() ? std::string() : it->second;
  }

  std::unordered_map<TermId, int> Ball(TermId e, int r) const {
    std::unordered_map<TermId, int> dist = {{e, 0}};
    std::deque<TermId> q = {e};
    while (!q.empty()) {
      TermId u = q.front();
      q.pop_front();
      if (dist[u] == r) continue;
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (auto& [v, lbl] : it->second) {
        (void)lbl;
        if (!dist.count(v)) {
          dist[v] = dist[u] + 1;
          q.push_back(v);
        }
      }
    }
    return dist;
  }

  bool BallIsTree(const std::unordered_map<TermId, int>& ball) const {
    size_t edges = 0;
    for (auto& [u, d] : ball) {
      (void)d;
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (auto& [v, lbl] : it->second) {
        (void)lbl;
        if (ball.count(v)) ++edges;
      }
    }
    edges /= 2;
    return edges + 1 == ball.size();
  }

  std::string TreeCanon(TermId e, const std::unordered_map<TermId, int>& ball,
                        TermId parent) const {
    std::vector<std::string> children;
    auto it = adj.find(e);
    if (it != adj.end()) {
      for (auto& [v, lbl] : it->second) {
        if (v == parent || !ball.count(v)) continue;
        children.push_back("(" + lbl + TreeCanon(v, ball, e) + ")");
      }
    }
    std::sort(children.begin(), children.end());
    std::string s = '[' + LabelOf(e) + ']';
    for (auto& ch : children) s += ch;
    return s;
  }

  std::string WlCanon(TermId e,
                      const std::unordered_map<TermId, int>& ball) const {
    std::unordered_map<TermId, std::string> color;
    for (auto& [u, d] : ball) {
      (void)d;
      color[u] = LabelOf(u);
    }
    for (size_t round = 0; round < ball.size(); ++round) {
      std::unordered_map<TermId, std::string> next;
      for (auto& [u, cu] : color) {
        std::vector<std::string> neigh;
        auto it = adj.find(u);
        if (it != adj.end()) {
          for (auto& [v, lbl] : it->second) {
            if (ball.count(v)) neigh.push_back(lbl + "|" + color[v]);
          }
        }
        std::sort(neigh.begin(), neigh.end());
        std::string combined = cu + "#";
        for (auto& x : neigh) combined += x + "&";
        next[u] =
            std::to_string(HashRange(combined.begin(), combined.end()));
      }
      color = std::move(next);
    }
    std::vector<std::string> all;
    for (auto& [u, cu] : color) {
      (void)u;
      all.push_back(cu);
    }
    std::sort(all.begin(), all.end());
    std::string s = "WL:" + color[e] + "/";
    for (auto& x : all) s += x + ",";
    return s;
  }

  std::string Canon(TermId e, int radius) const {
    auto ball = Ball(e, radius);
    if (BallIsTree(ball)) return "T:" + TreeCanon(e, ball, -1);
    return WlCanon(e, ball);
  }
};

}  // namespace

TypePartition AncestorPathPartition(const Structure& c, int n,
                                    const std::vector<PredId>& predicates) {
  std::vector<char> in_theta(c.sig().num_predicates(), 0);
  if (predicates.empty()) {
    std::fill(in_theta.begin(), in_theta.end(), 1);
  } else {
    for (PredId p : predicates) in_theta[p] = 1;
  }
  BallCanon canon(c, in_theta);
  SkeletonAnalysis forest = AnalyzeSkeleton(c);

  TypePartition out;
  out.n = n;
  out.elements = c.Domain();
  out.class_id.assign(out.elements.size(), -1);
  std::unordered_map<std::string, int> key_to_class;
  for (size_t i = 0; i < out.elements.size(); ++i) {
    TermId e = out.elements[i];
    std::string key;
    if (!c.sig().IsNull(e)) {
      key = "const:" + std::to_string(e);  // Remark 1: singletons
    } else {
      key = canon.LabelOf(e);
      TermId cur = e;
      for (int step = 1; step < n; ++step) {
        auto pit = forest.parent.find(cur);
        if (pit == forest.parent.end()) {
          key += "^ROOT";
          break;
        }
        TermId parent = pit->second;
        auto ait = canon.adj.find(cur);
        std::string edge;
        if (ait != canon.adj.end()) {
          auto eit = ait->second.find(parent);
          if (eit != ait->second.end()) edge = eit->second;
        }
        key += "^" + edge + "|" + canon.LabelOf(parent);
        cur = parent;
      }
    }
    auto [it, inserted] =
        key_to_class.emplace(std::move(key), out.num_classes);
    if (inserted) ++out.num_classes;
    out.class_id[i] = it->second;
  }
  return out;
}

TypePartition BallPartition(const Structure& c, int n,
                            const std::vector<PredId>& predicates) {
  std::vector<char> in_theta(c.sig().num_predicates(), 0);
  if (predicates.empty()) {
    std::fill(in_theta.begin(), in_theta.end(), 1);
  } else {
    for (PredId p : predicates) in_theta[p] = 1;
  }
  BallCanon canon(c, in_theta);

  TypePartition out;
  out.n = n;
  out.elements = c.Domain();
  out.class_id.assign(out.elements.size(), -1);
  std::unordered_map<std::string, int> key_to_class;
  for (size_t i = 0; i < out.elements.size(); ++i) {
    TermId e = out.elements[i];
    std::string key;
    if (!c.sig().IsNull(e)) {
      key = "const:" + std::to_string(e);  // Remark 1: singletons
    } else {
      key = canon.Canon(e, n - 1);
    }
    auto [it, inserted] =
        key_to_class.emplace(std::move(key), out.num_classes);
    if (inserted) ++out.num_classes;
    out.class_id[i] = it->second;
  }
  return out;
}

}  // namespace bddfc
