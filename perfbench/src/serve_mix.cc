// serve-mix: an in-process ReasoningServer driven through Handle() by a
// closed loop of clients over shared tenants. One job is a fixed batch of
// requests: about 90% QUERY (2-3 atom Boolean CQs), 5% REWRITE (each with
// a query no earlier REWRITE used, so it misses the memo) and 5% LOAD
// (half re-loads in a variant spelling that must hit the cache, half fresh
// theories that must compile). The cache holds the tenants plus four, so
// fresh theories evict each other while the hot tenant artifacts stay.
// job_s serves the batch with one client, job_t4_s with four.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/parser/parser.h"
#include "bddfc/serve/server.h"
#include "bddfc/workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using bddfc::Rng;
using bddfc::serve::ReasoningServer;
using bddfc::serve::Request;
using bddfc::serve::Response;

constexpr size_t kTenants = 8;
constexpr size_t kFreshTheories = 12;
constexpr size_t kQueriesPerTenant = 48;
constexpr size_t kClients = 4;

struct Sizes {
  size_t chains, chain_len, batch;
};
Sizes SizesFor(bool tiny) {
  return tiny ? Sizes{2, 5, 200} : Sizes{4, 64, 1000};
}

/// One theory: chains under transitive closure, with marks that propagate
/// backwards along edges. Its closure size does not depend on the seed.
struct Theory {
  std::string text, variant;  ///< two spellings of one theory
  std::vector<std::string> constants;
  size_t facts = 0;  ///< facts after the chase (the oracle)
};

Theory MakeTheory(const std::string& prefix, const Sizes& sz, Rng& rng) {
  Theory t;
  const size_t n = sz.chains * (sz.chain_len + 1);
  std::vector<size_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.Uniform(i)]);
  for (size_t i = 0; i < n; ++i) {
    t.constants.push_back(prefix + std::to_string(ids[i]));
  }
  std::vector<std::string> facts;
  for (size_t c = 0; c < sz.chains; ++c) {
    const size_t base = c * (sz.chain_len + 1);
    for (size_t i = 0; i < sz.chain_len; ++i) {
      facts.push_back("e(" + t.constants[base + i] + ", " +
                      t.constants[base + i + 1] + ").");
    }
    if (c % 2 == 0) facts.push_back("m(" + t.constants[base + sz.chain_len] + ").");
  }
  for (size_t i = facts.size(); i > 1; --i) {
    std::swap(facts[i - 1], facts[rng.Uniform(i)]);
  }
  const std::string rules =
      "e(X, Y), e(Y, Z) -> e(X, Z).\n"
      "e(X, Y), m(Y) -> m(X).\n";
  t.text = rules;
  for (const std::string& f : facts) t.text += f + "\n";
  t.variant = "% variant spelling\n";
  for (auto it = facts.rbegin(); it != facts.rend(); ++it) {
    t.variant += "  " + *it + "\n";
  }
  t.variant += rules;
  return t;
}

struct Tenant {
  std::string session;
  Theory theory;
  /// Query bodies with their one-shot oracle answers.
  std::vector<std::pair<std::string, bool>> queries;
  uint64_t key = 0;
};

/// The generated inputs and their oracle answers.
struct Fixture {
  Sizes sizes;
  std::vector<Tenant> tenants;
  std::vector<Theory> fresh;
};

std::string QueryText(size_t shape, const std::string& a, const std::string& b) {
  switch (shape % 4) {
    case 0: return "e(" + a + ", X), e(X, " + b + ")";
    case 1: return "e(" + a + ", X), m(X)";
    case 2: return "e(" + a + ", X), e(X, Y), m(Y)";
    default: return "e(X, " + a + "), e(" + a + ", Y), e(Y, " + b + ")";
  }
}

Fixture Generate(uint64_t seed, bool tiny) {
  Fixture fx;
  fx.sizes = SizesFor(tiny);
  Rng rng(Rng::Mix(seed, 4));
  for (size_t t = 0; t < kTenants; ++t) {
    Tenant tn;
    tn.session = "tenant" + std::to_string(t);
    tn.theory = MakeTheory("t" + std::to_string(t) + "n", fx.sizes, rng);
    const std::vector<std::string>& cs = tn.theory.constants;
    for (size_t q = 0; q < kQueriesPerTenant; ++q) {
      tn.queries.emplace_back(QueryText(q, cs[rng.Uniform(cs.size())],
                                        cs[rng.Uniform(cs.size())]),
                              false);
    }
    fx.tenants.push_back(std::move(tn));
  }
  for (size_t f = 0; f < kFreshTheories; ++f) {
    fx.fresh.push_back(MakeTheory("f" + std::to_string(f) + "n", fx.sizes, rng));
  }
  return fx;
}

/// One-shot oracle: ParseProgram + RunChase + Satisfies, the CLI path.
std::string ComputeOracle(Fixture& fx) {
  auto chase = [](Theory& t, std::vector<std::pair<std::string, bool>>* qs) {
    bddfc::Result<bddfc::Program> p = bddfc::ParseProgram(t.text);
    if (!p.ok()) return "oracle parse: " + p.status().ToString();
    bddfc::ChaseResult r =
        bddfc::RunChase(p.value().theory, p.value().instance);
    if (!r.status.ok() || !r.fixpoint_reached) return std::string("oracle chase");
    t.facts = r.structure.NumFacts();
    for (auto& [text, answer] : *qs) {
      bddfc::Result<bddfc::ConjunctiveQuery> q =
          bddfc::ParseQuery(text, p.value().instance.signature_ptr().get());
      if (!q.ok()) return "oracle query parse: " + text;
      answer = bddfc::Satisfies(r.structure, q.value());
    }
    return std::string();
  };
  std::vector<std::pair<std::string, bool>> none;
  for (Tenant& t : fx.tenants) {
    std::string why = chase(t.theory, &t.queries);
    if (!why.empty()) return why;
  }
  for (Theory& t : fx.fresh) {
    std::string why = chase(t, &none);
    if (!why.empty()) return why;
  }
  return {};
}

bddfc::serve::ServerOptions MakeServerOptions(bool tracing) {
  bddfc::serve::ServerOptions opts;
  // Four slots beyond the tenants: fresh theories evict each other (one
  // returns only after kFreshTheories - 1 others), while a tenant artifact
  // would have to go unqueried for hundreds of requests to be evicted.
  opts.cache_capacity = kTenants + 4;
  // No server byte budget and no request deadline. The accounted total
  // drifts upward with cold compiles (it does not fall back to the cached
  // artifacts' bytes), so under a budget the mix ends up shed. A request
  // context inherits the server root's start time, so a deadline counts
  // from server start and every request fails once the server is older.
  opts.memory_limit_bytes = 0;
  opts.request_deadline_ms = 0;
  // Closure theories are not UCQ-rewritable, so a REWRITE runs to its
  // budget; this one keeps a cold rewrite near the cost of a compile.
  opts.rewrite.max_depth = 4;
  opts.rewrite.max_queries = 200;
  opts.tracing = tracing;
  opts.trace_capacity = size_t{1} << 16;
  return opts;
}

/// Parses "key=<hex> facts=<n> ..." from a LOAD response.
bool ParseLoad(const std::string& body, uint64_t* key, size_t* facts,
               bool* hit) {
  if (body.rfind("key=", 0) != 0 ||
      !bddfc::serve::KeyFromHex(body.substr(4, 16), key)) {
    return false;
  }
  const size_t f = body.find(" facts=");
  if (f == std::string::npos) return false;
  *facts = std::strtoull(body.c_str() + f + 7, nullptr, 10);
  *hit = body.find("cached=hit") != std::string::npos;
  return true;
}

struct Op {
  enum Kind { kQuery, kRewrite, kLoadVariant, kLoadFresh } kind = kQuery;
  size_t tenant = 0;
  size_t index = 0;     ///< query index (kQuery) or fresh theory (kLoadFresh)
  std::string payload;  ///< rewrite query text (kRewrite)
};

/// Draws batches of the mix. REWRITE queries and fresh theories advance
/// across batches, so no REWRITE repeats within a run of realistic length
/// and a fresh theory returns only after the others evicted it.
class Mix {
 public:
  Mix(const Fixture& fx, uint64_t seed) : fx_(fx), seed_(seed) {}

  /// Every fresh theory loaded once, every tenant query once and four
  /// REWRITEs per tenant, in a fixed order.
  std::vector<Op> EveryKind() {
    std::vector<Op> ops;
    for (size_t f = 0; f < kFreshTheories; ++f) {
      ops.push_back(Op{Op::kLoadFresh, f % kTenants, f, {}});
    }
    for (size_t t = 0; t < kTenants; ++t) {
      for (size_t q = 0; q < kQueriesPerTenant; ++q) {
        ops.push_back(Op{Op::kQuery, t, q, {}});
      }
      for (int r = 0; r < 4; ++r) ops.push_back(Rewrite(t));
      ops.push_back(Op{Op::kLoadVariant, t, 0, {}});
    }
    return ops;
  }

  /// A batch with exactly 90% QUERY, 5% REWRITE, 2.5% variant LOAD and
  /// 2.5% fresh LOAD, so every batch does the same amount of work; the
  /// seed picks tenants and queries and the order.
  std::vector<Op> NextBatch() {
    Rng rng(Rng::Mix(seed_, 1000 + batches_++));
    const size_t n = fx_.sizes.batch;
    const size_t loads = n / 40, rewrites = n / 20;
    std::vector<Op> ops;
    for (size_t i = 0; i < n; ++i) {
      const size_t tenant = rng.Uniform(kTenants);
      if (i < loads) {
        ops.push_back(Op{Op::kLoadFresh, tenant, 0, {}});
      } else if (i < 2 * loads) {
        ops.push_back(Op{Op::kLoadVariant, tenant, 0, {}});
      } else if (i < 2 * loads + rewrites) {
        ops.push_back(Rewrite(tenant));
      } else {
        ops.push_back(
            Op{Op::kQuery, tenant, rng.Uniform(kQueriesPerTenant), {}});
      }
    }
    for (size_t i = n; i > 1; --i) std::swap(ops[i - 1], ops[rng.Uniform(i)]);
    // Fresh theories in request order, so each returns only after all the
    // others were loaded since, and so evicted it.
    for (Op& op : ops) {
      if (op.kind == Op::kLoadFresh) op.index = fresh_++ % kFreshTheories;
    }
    return ops;
  }

 private:
  /// The tenant's next REWRITE query: one shape per pass over its
  /// constants, so the first 2 x |constants| of them are all distinct.
  Op Rewrite(size_t tenant) {
    const std::vector<std::string>& cs = fx_.tenants[tenant].theory.constants;
    const size_t i = rewrites_[tenant]++;
    const std::string& c = cs[i % cs.size()];
    return Op{Op::kRewrite, tenant, 0,
              (i / cs.size()) % 2 == 0 ? "e(" + c + ", X), m(X)"
                                       : "e(X, " + c + "), e(" + c + ", Y)"};
  }

  const Fixture& fx_;
  uint64_t seed_;
  uint64_t batches_ = 0;
  std::vector<size_t> rewrites_ = std::vector<size_t>(kTenants);
  size_t fresh_ = 0;
};

struct Outcome {
  double ms = 0;
  bool load_hit = false;
  std::string error;  ///< empty when the response checked out
};

Response Timed(ReasoningServer& server, const Request& r, double* ms) {
  Stopwatch sw;
  Response resp = server.Handle(r);
  *ms += sw.Seconds() * 1000;
  return resp;
}

Outcome Execute(ReasoningServer& server, const Fixture& fx, const Op& op) {
  Outcome out;
  const Tenant& tn = fx.tenants[op.tenant];
  auto load = [&](const Theory& t, bool variant, uint64_t want_key) {
    Request r;
    r.kind = Request::Kind::kLoad;
    r.tenant = tn.session;
    r.payload = variant ? t.variant : t.text;
    const Response resp = Timed(server, r, &out.ms);
    uint64_t key = 0;
    size_t facts = 0;
    if (!resp.ok() || !ParseLoad(resp.body, &key, &facts, &out.load_hit) ||
        facts != t.facts || (want_key != 0 && key != want_key)) {
      out.error = "LOAD answered '" + resp.body + "'";
    }
  };
  if (op.kind == Op::kLoadVariant) {
    load(tn.theory, true, tn.key);
    return out;
  }
  if (op.kind == Op::kLoadFresh) {
    load(fx.fresh[op.index], false, 0);
    return out;
  }
  Request r;
  r.kind = op.kind == Op::kQuery ? Request::Kind::kQuery
                                 : Request::Kind::kRewrite;
  r.tenant = tn.session;
  r.key = tn.key;
  r.payload = op.kind == Op::kQuery ? tn.queries[op.index].first : op.payload;
  Response resp = Timed(server, r, &out.ms);
  if (resp.status.code() == bddfc::StatusCode::kNotFound) {
    // The tenant's artifact was evicted: re-load it and ask again.
    load(tn.theory, false, tn.key);
    resp = Timed(server, r, &out.ms);
  }
  const bool ok =
      resp.ok() &&
      (op.kind == Op::kQuery
           ? resp.body == (tn.queries[op.index].second ? "true" : "false")
           : resp.body.rfind("disjuncts=", 0) == 0);
  if (!ok) out.error = r.payload + " answered '" + resp.body + "'";
  return out;
}

/// Serves one batch with `clients` concurrent clients in a closed loop:
/// each client sends the next unsent request once its previous one is
/// answered. Returns the batch's wall time.
double ServeBatch(ReasoningServer& server, const Fixture& fx,
                  const std::vector<Op>& ops, size_t clients,
                  std::vector<Outcome>* outcomes) {
  outcomes->assign(ops.size(), Outcome{});
  std::atomic<size_t> next{0};
  Stopwatch sw;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < ops.size(); i = next++) {
        (*outcomes)[i] = Execute(server, fx, ops[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return sw.Seconds();
}

void CountOutcomes(const std::vector<Outcome>& outcomes, Report& report) {
  for (const Outcome& out : outcomes) {
    if (!out.error.empty() && report.failed() == 0) {
      report.Note("first failed request: " + out.error);
    }
    report.Count(out.error.empty());
  }
}

/// The first LOAD of every tenant: learns the artifact keys.
std::string LoadTenants(ReasoningServer& server, Fixture& fx) {
  for (Tenant& tn : fx.tenants) {
    Request r;
    r.kind = Request::Kind::kLoad;
    r.tenant = tn.session;
    r.payload = tn.theory.text;
    const Response resp = server.Handle(r);
    size_t facts = 0;
    bool hit = false;
    if (!resp.ok() || !ParseLoad(resp.body, &tn.key, &facts, &hit) ||
        facts != tn.theory.facts) {
      return "first LOAD of " + tn.session + ": " + resp.body;
    }
  }
  return {};
}

/// Request latencies by kind, and throughput, across batches.
struct Latencies {
  std::vector<double> query, rewrite, compile;
  size_t requests = 0;
  double wall_s = 0;

  void Add(const std::vector<Op>& ops, const std::vector<Outcome>& out,
           double wall) {
    for (size_t i = 0; i < ops.size(); ++i) {
      switch (ops[i].kind) {
        case Op::kQuery: query.push_back(out[i].ms); break;
        case Op::kRewrite: rewrite.push_back(out[i].ms); break;
        case Op::kLoadFresh:
          if (!out[i].load_hit) compile.push_back(out[i].ms);
          break;
        case Op::kLoadVariant: break;
      }
    }
    requests += ops.size();
    wall_s += wall;
  }
};

/// Per-layer figures measured outside the server on the tenants' inputs:
/// ParseProgram, ParseQuery and a one-shot Satisfies against the chase.
/// Returns the median Satisfies time in ms.
double OneShotLayers(const Fixture& fx, Report& report) {
  std::vector<double> program_ms, query_us, satisfies_us;
  for (const Tenant& tn : fx.tenants) {
    Stopwatch sw;
    bddfc::Result<bddfc::Program> p = bddfc::ParseProgram(tn.theory.text);
    program_ms.push_back(sw.Seconds() * 1000);
    if (!p.ok()) continue;
    const bddfc::ChaseResult r =
        bddfc::RunChase(p.value().theory, p.value().instance);
    for (const auto& [text, answer] : tn.queries) {
      Stopwatch qs;
      bddfc::Result<bddfc::ConjunctiveQuery> q =
          bddfc::ParseQuery(text, p.value().instance.signature_ptr().get());
      query_us.push_back(qs.Seconds() * 1e6);
      if (!q.ok()) continue;
      Stopwatch es;
      const bool sat = bddfc::Satisfies(r.structure, q.value());
      satisfies_us.push_back(es.Seconds() * 1e6);
      if (sat != answer) report.Fail("one-shot answer changed for " + text);
    }
  }
  report.Set("parser.program_ms", Median(program_ms), program_ms.size());
  report.Set("parser.query_us", Median(query_us), query_us.size());
  report.Set("eval.satisfies_us", Median(satisfies_us), satisfies_us.size());
  return Median(satisfies_us) / 1000;
}

}  // namespace

std::string ServeMixInputs(const Options& o) {
  const Fixture fx = Generate(o.seed, o.tiny);
  std::string out;
  for (const Tenant& tn : fx.tenants) {
    out += "% " + tn.session + "\n" + tn.theory.text + tn.theory.variant;
    for (const auto& [text, answer] : tn.queries) out += "?- " + text + ".\n";
  }
  for (const Theory& t : fx.fresh) out += "% fresh\n" + t.text;
  return out;
}

void RunServeMix(const Options& o, Report& report) {
  // Set-up: generation, the one-shot oracle, a server and the first LOAD
  // of every tenant, repeated; the median is setup_s. Then one warm-up
  // batch at 4 clients. The memory probe instead ends with one pass over
  // every kind of request at one client: a random mix, or more clients
  // (whose allocator arenas grow with thread timing), would make the peak
  // vary.
  std::vector<double> setup_s;
  Fixture fx;
  std::unique_ptr<ReasoningServer> server;
  std::optional<Mix> mix;
  std::vector<double> t1, t4;
  Latencies lat;
  auto serve = [&](ReasoningServer& srv, size_t clients) {
    const std::vector<Op> ops = mix->NextBatch();
    std::vector<Outcome> outcomes;
    const double wall = ServeBatch(srv, fx, ops, clients, &outcomes);
    CountOutcomes(outcomes, report);
    if (clients == kClients) lat.Add(ops, outcomes, wall);
    return wall;
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch sw;
    server.reset();
    fx = Generate(o.seed, o.tiny);
    mix.emplace(fx, o.seed);
    std::string why = ComputeOracle(fx);
    if (why.empty()) {
      server = std::make_unique<ReasoningServer>(MakeServerOptions(false));
      why = LoadTenants(*server, fx);
    }
    if (!why.empty()) {
      report.Fail(why);
      return;
    }
    if (o.memory_probe) {
      std::vector<Outcome> outcomes;
      ServeBatch(*server, fx, mix->EveryKind(), 1, &outcomes);
      return;
    }
    setup_s.push_back(sw.Seconds());
  }
  serve(*server, kClients);
  lat = Latencies{};

  Stopwatch run;
  if (!o.trace) {
    do {
      t1.push_back(serve(*server, 1));
      t4.push_back(serve(*server, kClients));
    } while (run.Seconds() < o.seconds);
    report.SetMedian("setup_s", setup_s);
    report.SetMedian("job_s", t1);
    report.SetMedian("job_t4_s", t4);
    MeasurePeakRss(o, report);
    return;
  }

  // Traced run: untraced 4-client batches give the request latencies, one
  // batch on a tracing server gives the span split.
  do {
    t4.push_back(serve(*server, kClients));
  } while (run.Seconds() < o.seconds);
  const bddfc::obs::MetricsSnapshot totals = server->ServerSnapshot();
  auto counter = [&](const char* name) { return CounterValue(totals, name); };

  ReasoningServer traced(MakeServerOptions(true));
  if (std::string why = LoadTenants(traced, fx); !why.empty()) {
    report.Fail(why);
    return;
  }
  for (const Tenant& tn : fx.tenants) traced.GetSession(tn.session).tracer.Reset();
  const std::vector<Op> traced_ops = mix->NextBatch();
  std::vector<Outcome> traced_out;
  const double traced_wall =
      ServeBatch(traced, fx, traced_ops, kClients, &traced_out);
  CountOutcomes(traced_out, report);
  report.Set("trace.job_s", traced_wall, 1);
  report.Set("trace.overhead", traced_wall / Median(t4) - 1);
  double query_ms = 0, compile_ms = 0, rewrite_ms = 0;
  size_t queries = 0, compiles = 0, rewrites = 0;
  for (const Tenant& tn : fx.tenants) {
    const bddfc::obs::Tracer& tracer = traced.GetSession(tn.session).tracer;
    if (tracer.overwritten_events() != 0) {
      report.Note("session trace ring overflowed");
    }
    const SpanTotals s = SummarizeTrace(tracer.ExportChromeJson());
    query_ms += s.Ms("serve.query");
    queries += s.Count("serve.query");
    compile_ms += s.Ms("serve.compile");
    compiles += s.Count("serve.compile");
    rewrite_ms += s.Ms("serve.rewrite");
    rewrites += s.Count("serve.rewrite");
  }

  const double satisfies_ms = OneShotLayers(fx, report);
  const double per_query_ms = queries > 0 ? query_ms / queries : 0;
  report.Set("serve.query_ms", per_query_ms, queries);
  report.Set("serve.query_wait_ms", per_query_ms - satisfies_ms, queries);
  report.Set("serve.compile_ms", compiles > 0 ? compile_ms / compiles : 0,
             compiles);
  report.Set("rewrite.cold_ms", rewrites > 0 ? rewrite_ms / rewrites : 0,
             rewrites);
  const double all_rewrites = std::max(counter("bddfc.serve.rewrites"), 1.0);
  report.Set("rewrite.hom_checks",
             counter("bddfc.rewrite.hom_checks") / all_rewrites);
  report.Set("rewrite.candidates",
             counter("bddfc.rewrite.candidates") / all_rewrites);
  const double hits = counter("bddfc.serve.cache_hits");
  const double misses = counter("bddfc.serve.cache_misses");
  report.Set("serve.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  report.Set("serve.evictions", counter("bddfc.serve.evictions"));
  report.Set("serve.shed", counter("bddfc.serve.shed"));
  report.Set("serve.qps", lat.requests / std::max(lat.wall_s, 1e-9),
             lat.requests);
  report.Set("serve.query_p50_ms", Median(lat.query), lat.query.size());
  if (lat.query.size() < 1000) {
    report.Note("serve.query_p99_ms has fewer than ten samples beyond it");
  }
  report.Set("serve.query_p99_ms", Quantile(lat.query, 0.99), lat.query.size());
  report.Set("serve.compile_p50_ms", Median(lat.compile), lat.compile.size());
  report.Set("serve.rewrite_p50_ms", Median(lat.rewrite), lat.rewrite.size());
}

}  // namespace perfbench
