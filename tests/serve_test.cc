// Tests for the multi-tenant reasoning server (serve/): artifact cache
// identity and single-flight, read-only artifacts under concurrent queries
// and rewrites, per-session metrics/fault isolation and the
// session-sums == server-totals reconciliation invariant, admission
// control, the wire protocol, and the socket daemon's drain.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bddfc/base/faults.h"
#include "bddfc/base/timescale.h"
#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/parser/parser.h"
#include "bddfc/serve/daemon.h"
#include "bddfc/serve/protocol.h"
#include "bddfc/serve/server.h"

namespace bddfc {
namespace {

using serve::ArtifactCache;
using serve::KeyFromHex;
using serve::KeyToHex;
using serve::ReasoningServer;
using serve::Request;
using serve::Response;
using serve::ServerOptions;

constexpr char kTheoryA[] =
    "e(a, b).\n"
    "e(b, c).\n"
    "e(c, d).\n"
    "e(X, Y), e(Y, Z) -> e(X, Z).\n"
    "e(a, d) -> top(a).\n";

// Same theory, different spelling: reordered facts, noise whitespace and
// comments. Must land on the same artifact key as kTheoryA.
constexpr char kTheoryAVariant[] =
    "% a comment\n"
    "  e(c, d).\n"
    "e(a, b).   e(b, c).\n"
    "e(X, Y), e(Y, Z) -> e(X, Z).\n"
    "e(a, d) -> top(a).\n";

constexpr char kTheoryB[] =
    "p(x, y).\n"
    "p(y, z).\n"
    "p(X, Y), p(Y, Z) -> p(X, Z).\n";

constexpr char kTheoryC[] =
    "q(m, n).\n"
    "q(X, Y) -> q(Y, X).\n";

Request Load(const std::string& tenant, const std::string& theory) {
  Request r;
  r.kind = Request::Kind::kLoad;
  r.tenant = tenant;
  r.payload = theory;
  return r;
}

Request Query(const std::string& tenant, uint64_t key,
              const std::string& body) {
  Request r;
  r.kind = Request::Kind::kQuery;
  r.tenant = tenant;
  r.key = key;
  r.payload = body;
  return r;
}

uint64_t KeyOf(const Response& load_response) {
  EXPECT_TRUE(load_response.ok()) << load_response.status.ToString();
  EXPECT_EQ(load_response.body.rfind("key=", 0), 0u) << load_response.body;
  uint64_t key = 0;
  EXPECT_TRUE(KeyFromHex(load_response.body.substr(4, 16), &key));
  return key;
}

uint64_t Counter(ReasoningServer& server, const char* name) {
  for (const auto& p : server.ServerSnapshot().counters) {
    if (p.name == name) return p.value;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Artifact cache identity, hits, eviction.
// ---------------------------------------------------------------------------

TEST(ServeCacheTest, EquivalentSpellingsHitOneArtifact) {
  ServerOptions options;
  options.tracing = true;
  ReasoningServer server(options);

  const uint64_t key1 = KeyOf(server.Handle(Load("t1", kTheoryA)));
  const uint64_t key2 = KeyOf(server.Handle(Load("t1", kTheoryAVariant)));
  EXPECT_EQ(key1, key2);
  EXPECT_EQ(server.cache().size(), 1u);

  EXPECT_EQ(Counter(server, "bddfc.serve.compiles"), 1u);
  EXPECT_EQ(Counter(server, "bddfc.serve.cache_misses"), 1u);
  EXPECT_EQ(Counter(server, "bddfc.serve.cache_hits"), 1u);

  // The trace ring proves the hit skipped recompilation: exactly one
  // serve.compile span for two LOADs.
  const std::string trace = server.GetSession("t1").tracer.ExportChromeJson();
  const std::string needle =
      "\"name\":\"serve.compile\",\"cat\":\"bddfc\",\"ph\":\"B\"";
  size_t count = 0;
  for (size_t pos = trace.find(needle); pos != std::string::npos;
       pos = trace.find(needle, pos + needle.size())) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(ServeCacheTest, QueryAnswersMatchOneShotRun) {
  ReasoningServer server{ServerOptions{}};
  const uint64_t key = KeyOf(server.Handle(Load("t1", kTheoryA)));

  // Independent one-shot baseline over the same program text.
  auto program = ParseProgram(kTheoryA);
  ASSERT_TRUE(program.ok());
  const ChaseResult chase =
      RunChase(program.value().theory, program.value().instance, {});
  ASSERT_TRUE(chase.fixpoint_reached);

  const std::vector<std::string> bodies = {"e(a, d)", "top(a)", "e(d, a)",
                                           "top(b)", "e(a, X), e(X, d)"};
  for (const std::string& body : bodies) {
    auto q = ParseQuery(body, program.value().instance.signature_ptr().get());
    ASSERT_TRUE(q.ok()) << body;
    const std::string want =
        Satisfies(chase.structure, q.value()) ? "true" : "false";
    // Ask twice: an answer does not depend on the queries before it.
    for (int round = 0; round < 2; ++round) {
      const Response r = server.Handle(Query("t1", key, body));
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_EQ(r.body, want) << body << " ask " << round;
    }
  }
}

TEST(ServeCacheTest, UnknownArtifactIsNotFound) {
  ReasoningServer server{ServerOptions{}};
  const Response r = server.Handle(Query("t1", 0xdeadbeef, "e(a, b)"));
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(Counter(server, "bddfc.serve.unknown_artifact"), 1u);
}

TEST(ServeCacheTest, NonSaturatingTheoryIsRejected) {
  ServerOptions options;
  options.compile.max_rounds = 3;
  ReasoningServer server(options);
  // Divergent existential chain: never saturates within 3 rounds.
  const Response r = server.Handle(
      Load("t1", "e(a, b).\ne(X, Y) -> exists Z: e(Y, Z).\n"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.cache().size(), 0u);
  EXPECT_EQ(Counter(server, "bddfc.serve.load_failures"), 1u);
}

TEST(ServeCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  ServerOptions options;
  options.cache_capacity = 2;
  ReasoningServer server(options);

  const uint64_t key_a = KeyOf(server.Handle(Load("t1", kTheoryA)));
  const uint64_t key_b = KeyOf(server.Handle(Load("t1", kTheoryB)));
  const uint64_t key_c = KeyOf(server.Handle(Load("t1", kTheoryC)));
  EXPECT_NE(key_a, key_b);
  EXPECT_NE(key_b, key_c);
  EXPECT_EQ(server.cache().size(), 2u);
  EXPECT_EQ(Counter(server, "bddfc.serve.evictions"), 1u);

  // A was least recently used; its bytes were released with it.
  EXPECT_EQ(server.cache().Find(key_a), nullptr);
  EXPECT_NE(server.cache().Find(key_b), nullptr);
  const Response r = server.Handle(Query("t1", key_a, "e(a, d)"));
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
}

TEST(ServeCacheTest, AccountantHoldsOnlyCachedArtifactBytes) {
  // Regression: a compile's chase charged every fact to the request
  // context, which rolls up to the server accountant, and nothing released
  // it, so the server's used bytes grew with every compile until it shed
  // every request. Once the requests are done, only the cache's charge for
  // the admitted artifact may remain, whatever was compiled and evicted.
  ServerOptions options;
  options.cache_capacity = 1;
  options.compile.max_rounds = 16;
  ReasoningServer server(options);
  for (int len = 3; len <= 8; ++len) {
    std::string theory = "e(X, Y), e(Y, Z) -> e(X, Z).\n";
    for (int i = 0; i < len; ++i) {
      theory += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
                ").\n";
    }
    KeyOf(server.Handle(Load("t1", theory)));
  }
  const Response diverged = server.Handle(
      Load("t1", "e(a, b).\ne(X, Y) -> exists Z: e(Y, Z).\n"));
  EXPECT_EQ(diverged.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Counter(server, "bddfc.serve.compiles"), 6u);
  EXPECT_EQ(Counter(server, "bddfc.serve.load_failures"), 1u);
  EXPECT_EQ(Counter(server, "bddfc.serve.evictions"), 5u);
  EXPECT_EQ(server.cache().size(), 1u);
  EXPECT_GT(server.cache().charged_bytes(), 0u);
  EXPECT_EQ(server.memory().used(), server.cache().charged_bytes());
}

TEST(ServeCacheTest, ArtifactChargeIsTheStructuresAccountedBytes) {
  // The cache charges what the compile's chase charged for the structure
  // (Structure::ApproxAccountedBytes), plus the canonical text and a fixed
  // overhead, not a per-fact constant of its own.
  ReasoningServer server{ServerOptions{}};
  const uint64_t key = KeyOf(server.Handle(Load("t1", kTheoryA)));
  const std::shared_ptr<const serve::Artifact> a = server.cache().Find(key);
  ASSERT_NE(a, nullptr);
  const size_t expected = a->canonical_text.size() +
                          a->structure.ApproxAccountedBytes() + 4096;
  EXPECT_EQ(a->bytes, expected);
  EXPECT_EQ(server.cache().charged_bytes(), expected);
}

TEST(ServeCacheTest, ConcurrentLoadsSingleFlight) {
  ReasoningServer server{ServerOptions{}};
  constexpr int kThreads = 8;
  std::vector<uint64_t> keys(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      keys[t] = KeyOf(
          server.Handle(Load("t" + std::to_string(t % 2), kTheoryA)));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(keys[t], keys[0]);
  // Exactly one chase ran no matter how the eight LOADs interleaved.
  EXPECT_EQ(Counter(server, "bddfc.serve.compiles"), 1u);
  EXPECT_EQ(server.cache().size(), 1u);
}

// ---------------------------------------------------------------------------
// Read-only artifacts: queries and rewrites, fresh names included, never
// write the artifact's signature, and no answer depends on another query.
// ---------------------------------------------------------------------------

TEST(ServeSignatureTest, ConcurrentQueriesKeepArtifactSignatureStable) {
  ReasoningServer server{ServerOptions{}};
  const uint64_t key = KeyOf(server.Handle(Load("t1", kTheoryA)));
  auto artifact = server.cache().Find(key);
  ASSERT_NE(artifact, nullptr);
  const Signature& sig = artifact->theory.sig();
  const int preds_before = sig.num_predicates();
  const int consts_before = sig.num_constants();

  constexpr int kThreads = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        // Every query names thread-unique fresh names (a predicate and a
        // constant) that the artifact's signature lacks; the read-only
        // parse must answer without interning them.
        const std::string fresh = "zz" + std::to_string(t) + "_" +
                                  std::to_string(i);
        const Response neg = server.Handle(
            Query("t1", key, "e(a, " + fresh + "), " + fresh + "(a)"));
        const Response pos = server.Handle(Query("t1", key, "e(a, d)"));
        if (!neg.ok() || neg.body != "false") wrong.fetch_add(1);
        if (!pos.ok() || pos.body != "true") wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  // A query name that leaked into the signature would grow the tables.
  EXPECT_EQ(sig.num_predicates(), preds_before);
  EXPECT_EQ(sig.num_constants(), consts_before);
}

TEST(ServeSignatureTest, QueryWithTrailingInputIsRejectedAndInternsNothing) {
  ReasoningServer server{ServerOptions{}};
  const uint64_t key = KeyOf(server.Handle(Load("t1", kTheoryA)));
  auto artifact = server.cache().Find(key);
  ASSERT_NE(artifact, nullptr);
  const Signature& sig = artifact->theory.sig();
  const int preds_before = sig.num_predicates();
  const int consts_before = sig.num_constants();

  // A missing comma: the second atom, with its fresh names, must not be
  // dropped into an answer to a different query.
  const Response r = server.Handle(Query("t1", key, "e(a, d) zz(fresh)"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
      << r.status.ToString();
  EXPECT_NE(r.status.message().find("'zz'"), std::string::npos)
      << r.status.ToString();
  EXPECT_EQ(sig.num_predicates(), preds_before);
  EXPECT_EQ(sig.num_constants(), consts_before);
  // On the wire the refusal is an ERR line.
  std::string output;
  serve::ServeBuffer(
      server, "QUERY t1 " + KeyToHex(key) + " 17\ne(a, d) zz(fresh)\n",
      &output);
  EXPECT_EQ(output.rfind("ERR InvalidArgument", 0), 0u) << output;
  EXPECT_EQ(sig.num_constants(), consts_before);
}

TEST(ServeSignatureTest, RewriteIsMemoizedPerArtifact) {
  ServerOptions options;
  options.rewrite.max_depth = 4;
  options.rewrite.max_queries = 200;
  ReasoningServer server(options);
  const uint64_t key = KeyOf(server.Handle(Load("t1", kTheoryA)));

  Request r;
  r.kind = Request::Kind::kRewrite;
  r.tenant = "t1";
  r.key = key;
  r.payload = "top(X)";
  const Response first = server.Handle(r);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_EQ(first.body.rfind("disjuncts=", 0), 0u) << first.body;
  const Response second = server.Handle(r);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.body, second.body);
  EXPECT_EQ(Counter(server, "bddfc.serve.rewrites"), 2u);
}

// A closure theory whose rewritings keep the query's constants.
constexpr char kClosure[] =
    "e(X, Y), e(Y, Z) -> e(X, Z).\n"
    "r(X, Y) -> e(X, Y).\n"
    "e(a, b).\n"
    "e(b, c).\n";

Request Rewrite(const std::string& tenant, uint64_t key,
                const std::string& body) {
  Request r = Query(tenant, key, body);
  r.kind = Request::Kind::kRewrite;
  return r;
}

/// Small rewriting budgets: closure theories are not UCQ-rewritable, so a
/// REWRITE runs to its budget.
ServerOptions SmallRewriteBudget() {
  ServerOptions options;
  options.rewrite.max_depth = 3;
  options.rewrite.max_queries = 100;
  return options;
}

TEST(ServeSignatureTest, RewriteOfUnknownNamesAnswersItsOwnQuery) {
  // Query-local ids of different queries coincide, so a memo keyed by ids
  // would answer the second query of each pair with the first's rewriting.
  struct Case {
    const char* first;
    const char* second;
    const char* names;  ///< what the second answer must mention
  };
  const Case cases[] = {{"e(zz, X)", "e(yy, X)", "yy"},
                        {"p(X), e(X, b)", "q(X), e(X, b)", "q("}};
  for (const Case& c : cases) {
    ReasoningServer shared(SmallRewriteBudget());
    const uint64_t key = KeyOf(shared.Handle(Load("t1", kClosure)));
    ASSERT_TRUE(shared.Handle(Rewrite("t1", key, c.first)).ok());
    const Response got = shared.Handle(Rewrite("t1", key, c.second));
    ReasoningServer fresh(SmallRewriteBudget());
    const Response want = fresh.Handle(
        Rewrite("t1", KeyOf(fresh.Handle(Load("t1", kClosure))), c.second));
    ASSERT_TRUE(want.ok()) << want.status.ToString();
    EXPECT_EQ(got.body, want.body) << c.second;
    EXPECT_NE(got.body.find(c.names), std::string::npos) << got.body;
    // Asked again, the same bytes.
    EXPECT_EQ(shared.Handle(Rewrite("t1", key, c.second)).body, want.body);
  }
}

TEST(ServeSignatureTest, ColdRewritesAndQueriesOnOneArtifactMatchSerial) {
  // Eight threads mix cold REWRITEs of distinct queries, over known names
  // and fresh ones, with QUERYs on one artifact; no request waits for
  // another's rewriting, and every answer is the serial one.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  const char* known[] = {"a", "b", "c", "d"};
  std::vector<std::vector<Request>> work(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int n = t * kPerThread + i;
      const std::string fresh = "u" + std::to_string(n);
      const std::string c1 = known[n % 4];
      const std::string c2 = n % 2 == 0 ? known[(n / 4) % 4] : fresh;
      work[t].push_back(
          Rewrite("t1", 0,
                  n % 3 == 0 ? "e(" + c1 + ", X), e(X, " + c2 + ")"
                             : "e(" + c2 + ", X), top(" + c1 + ")"));
      work[t].push_back(Query("t1", 0, "e(a, d)"));
      work[t].push_back(Query("t1", 0, "e(" + c1 + ", " + c2 + ")"));
      work[t].push_back(Query("t1", 0, fresh + "(" + c1 + ")"));
    }
  }
  auto answer = [](ReasoningServer& server, Request r, uint64_t key) {
    r.key = key;
    const Response resp = server.Handle(r);
    return resp.status.ToString() + "|" + resp.body;
  };

  ReasoningServer serial(SmallRewriteBudget());
  const uint64_t serial_key = KeyOf(serial.Handle(Load("t1", kTheoryA)));
  std::vector<std::vector<std::string>> want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (const Request& r : work[t]) {
      want[t].push_back(answer(serial, r, serial_key));
    }
  }

  ReasoningServer server(SmallRewriteBudget());
  const uint64_t key = KeyOf(server.Handle(Load("t1", kTheoryA)));
  const Signature& sig = server.cache().Find(key)->theory.sig();
  const int preds_before = sig.num_predicates();
  const int consts_before = sig.num_constants();
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Request& r : work[t]) got[t].push_back(answer(server, r, key));
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(got, want);
  // A rewriting keeps its query's fresh constant.
  for (int t = 0; t < kThreads; ++t) {
    for (size_t j = 0; j < work[t].size(); j += 4) {
      const std::string fresh = "u" + std::to_string(t * kPerThread + j / 4);
      if (work[t][j].payload.find(fresh) != std::string::npos) {
        EXPECT_NE(got[t][j].find(fresh), std::string::npos) << got[t][j];
      }
    }
  }
  EXPECT_EQ(sig.num_predicates(), preds_before);
  EXPECT_EQ(sig.num_constants(), consts_before);
}

// ---------------------------------------------------------------------------
// Session isolation and reconciliation.
// ---------------------------------------------------------------------------

TEST(ServeSessionTest, SessionSumsEqualServerTotalsUnderConcurrency) {
  // The process-global registry must stay untouched: serving threads all
  // publish through their request-scoped registries.
  const size_t global_before =
      obs::MetricsRegistry::Global().Snapshot().counters.size();

  ReasoningServer server{ServerOptions{}};
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t % 3);
      const char* theory = t % 2 == 0 ? kTheoryA : kTheoryB;
      const uint64_t key = KeyOf(server.Handle(Load(tenant, theory)));
      for (int i = 0; i < 20; ++i) {
        server.Handle(Query(tenant, key,
                            t % 2 == 0 ? "e(a, d)" : "p(x, z)"));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::map<std::string, uint64_t> sums;
  for (const std::string& tenant : server.Tenants()) {
    for (const auto& p : server.SessionSnapshot(tenant).counters) {
      sums[p.name] += p.value;
    }
  }
  std::map<std::string, uint64_t> totals;
  for (const auto& p : server.ServerSnapshot().counters) {
    totals[p.name] = p.value;
  }
  EXPECT_EQ(sums, totals);
  EXPECT_EQ(totals["bddfc.serve.requests"], kThreads * 21u);

  EXPECT_EQ(obs::MetricsRegistry::Global().Snapshot().counters.size(),
            global_before);
}

TEST(ServeSessionTest, ConcurrentAnswersAreByteIdenticalToSerial) {
  // The same request list, served concurrently and serially on fresh
  // servers, must produce identical response bodies.
  std::vector<Request> requests;
  for (int i = 0; i < 40; ++i) {
    requests.push_back(Query('t' + std::to_string(i % 3), 0,
                             i % 2 == 0 ? "e(a, d)" : "e(d, a)"));
  }

  auto run = [&](bool concurrent) {
    ReasoningServer server{ServerOptions{}};
    const uint64_t key = KeyOf(server.Handle(Load("t0", kTheoryA)));
    std::vector<std::string> bodies(requests.size());
    auto serve_one = [&](size_t i) {
      Request r = requests[i];
      r.key = key;
      bodies[i] = server.Handle(r).body;
    };
    if (concurrent) {
      std::vector<std::thread> threads;
      for (size_t i = 0; i < requests.size(); ++i) {
        threads.emplace_back(serve_one, i);
      }
      for (std::thread& t : threads) t.join();
    } else {
      for (size_t i = 0; i < requests.size(); ++i) serve_one(i);
    }
    return bodies;
  };

  EXPECT_EQ(run(/*concurrent=*/true), run(/*concurrent=*/false));
}

TEST(ServeSessionTest, ParserFaultPlansAreSessionScoped) {
  ReasoningServer server{ServerOptions{}};
  // Arm a parser fault in tenant A's session only.
  FaultSpec spec;
  spec.site = faults::kParserParse;
  spec.schedule = FaultSchedule::kAfterN;
  spec.n = 0;
  server.GetSession("a").faults.Arm(spec);

  const Response in_a = server.Handle(Load("a", kTheoryA));
  EXPECT_FALSE(in_a.ok());
  EXPECT_EQ(in_a.status.code(), StatusCode::kInternal);
  EXPECT_GE(server.GetSession("a").faults.FireCount(faults::kParserParse),
            1u);

  // The same LOAD from tenant B parses fine: A's chaos never leaks.
  const Response in_b = server.Handle(Load("b", kTheoryA));
  EXPECT_TRUE(in_b.ok()) << in_b.status.ToString();
  EXPECT_EQ(server.GetSession("b").faults.FireCount(faults::kParserParse),
            0u);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(ServeAdmissionTest, ShedsWhenServerBudgetIsExhausted) {
  ServerOptions options;
  options.memory_limit_bytes = 1 << 20;
  ReasoningServer server(options);
  const uint64_t key = KeyOf(server.Handle(Load("t1", kTheoryA)));

  // Push the server accountant over budget the way a full cache would.
  server.memory().Charge(2 << 20);
  const Response shed = server.Handle(Query("t1", key, "e(a, d)"));
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Counter(server, "bddfc.serve.shed"), 1u);
  // Counted identically on the session, preserving reconciliation.
  uint64_t session_shed = 0;
  for (const auto& p : server.SessionSnapshot("t1").counters) {
    if (p.name == "bddfc.serve.shed") session_shed = p.value;
  }
  EXPECT_EQ(session_shed, 1u);

  // Health and metrics still answer while shedding.
  Request health;
  health.kind = Request::Kind::kHealth;
  EXPECT_TRUE(server.Handle(health).ok());

  server.memory().Release(2 << 20);
  const Response after = server.Handle(Query("t1", key, "e(a, d)"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.body, "true");
}

TEST(ServeAdmissionTest, RequestDeadlineTripsTheCompile) {
  ServerOptions options;
  options.request_deadline_ms = 1e-6;
  ReasoningServer server(options);
  const Response r = server.Handle(Load("t1", kTheoryA));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
}

TEST(ServeAdmissionTest, RequestDeadlineCountsFromTheRequest) {
  // Regression: request deadlines used to count from server start, so
  // every request failed once the server was older than
  // request_deadline_ms.
  ServerOptions options;
  options.request_deadline_ms = ScaledMs(200);
  ReasoningServer server(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(ScaledMs(300)));
  const Response r = server.Handle(Load("t1", kTheoryA));
  EXPECT_TRUE(r.ok()) << r.status.ToString();
}

TEST(ServeCacheTest, CompileThreadsShardTheChaseWithTheSameArtifact) {
  // CompileOptions::threads (bddfc-serve --threads=N) reaches the chase:
  // at four threads the compile's chase.shard tasks run under pool.task
  // spans (a one-thread fan-out opens none), and the artifact — key, fact
  // count, rounds, answers — equals the one-thread compile's. The spans
  // of the layers below the chase (plan.exec, pool.task) land in the
  // session's trace too.
  auto spans = [](ReasoningServer& server, const std::string& name) {
    const std::string trace =
        server.GetSession("t1").tracer.ExportChromeJson();
    const std::string needle = "\"name\":\"" + name + "\"";
    size_t count = 0;
    for (size_t pos = trace.find(needle); pos != std::string::npos;
         pos = trace.find(needle, pos + needle.size())) {
      ++count;
    }
    return count;
  };
  const std::vector<std::string> bodies = {"e(a, d)", "top(a)", "e(d, a)",
                                           "e(a, X), e(X, d)"};
  std::map<size_t, std::vector<std::string>> outputs;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ServerOptions options;
    options.tracing = true;
    options.compile.threads = threads;
    ReasoningServer server(options);
    const Response loaded = server.Handle(Load("t1", kTheoryA));
    const uint64_t key = KeyOf(loaded);
    outputs[threads].push_back(loaded.body);
    for (const std::string& body : bodies) {
      const Response r = server.Handle(Query("t1", key, body));
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      outputs[threads].push_back(r.body);
    }
    EXPECT_GT(spans(server, "plan.exec"), 0u) << threads << " threads";
    EXPECT_GT(spans(server, "chase.shard"), 0u) << threads << " threads";
    if (threads == 1) {
      EXPECT_EQ(spans(server, "pool.task"), 0u);
    } else {
      EXPECT_GT(spans(server, "pool.task"), 0u);
    }
  }
  EXPECT_EQ(outputs[4], outputs[1]);
}

// ---------------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, ServesFramedRequestStream) {
  ReasoningServer server{ServerOptions{}};
  const std::string theory = kTheoryA;
  std::string input = "HEALTH\n";
  input += "LOAD t1 " + std::to_string(theory.size()) + "\n" + theory;
  std::string output;
  EXPECT_EQ(serve::ServeBuffer(server, input, &output), 2u);
  EXPECT_EQ(output.rfind("OK 2\nok", 0), 0u) << output;
  EXPECT_NE(output.find("key="), std::string::npos);

  // Reuse the reported key for a framed QUERY, then QUIT ends the stream.
  const size_t key_pos = output.find("key=") + 4;
  const std::string hex = output.substr(key_pos, 16);
  std::string input2 = "QUERY t1 " + hex + " 7\ne(a, d)\nQUIT\nHEALTH\n";
  std::string output2;
  EXPECT_EQ(serve::ServeBuffer(server, input2, &output2), 1u);
  EXPECT_EQ(output2, "OK 4\ntrue");

  // Malformed lines answer ERR without killing the stream.
  std::string output3;
  EXPECT_EQ(serve::ServeBuffer(server, "NONSENSE x\nHEALTH\n", &output3), 2u);
  EXPECT_EQ(output3.rfind("ERR InvalidArgument", 0), 0u) << output3;
  EXPECT_NE(output3.find("OK 2\nok"), std::string::npos);

  // The end of the input ends an unterminated last line.
  std::string output4;
  EXPECT_EQ(serve::ServeBuffer(server, "HEALTH\nHEALTH", &output4), 2u);
  EXPECT_EQ(output4, "OK 2\nokOK 2\nok");
}

TEST(ServeProtocolTest, MetricsAndHttpFallback) {
  ReasoningServer server{ServerOptions{}};
  KeyOf(server.Handle(Load("t1", kTheoryA)));

  std::string output;
  serve::ServeBuffer(server, "METRICS t1\nMETRICS\n", &output);
  EXPECT_NE(output.find("bddfc.serve.requests 1"), std::string::npos);

  EXPECT_TRUE(serve::LooksLikeHttp("GET /metrics HTTP/1.1\r\n"));
  EXPECT_FALSE(serve::LooksLikeHttp("LOAD t1 10\n"));
  const std::string health = serve::HandleHttp(server, "GET /healthz HTTP/1.0");
  EXPECT_EQ(health.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(health.find("\r\n\r\nok"), std::string::npos);
  const std::string metrics =
      serve::HandleHttp(server, "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("bddfc.serve.requests"), std::string::npos);
  const std::string missing = serve::HandleHttp(server, "GET /nope HTTP/1.0");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404", 0), 0u);

  // A stream that opens with "GET " gets the HTTP answer and nothing more.
  std::string http;
  EXPECT_EQ(serve::ServeBuffer(server, "GET /healthz HTTP/1.0\r\n\r\nHEALTH\n",
                               &http),
            1u);
  EXPECT_EQ(http, health);
}

TEST(ServeProtocolTest, OverlongHeaderLineIsRefusedAndEndsTheStream) {
  // Terminated or not, a header line over the cap gets one error and ends
  // the stream, as it closes a connection.
  ReasoningServer server{ServerOptions{}};
  const std::string overlong(serve::kMaxRequestLineBytes + 1, 'x');
  for (const std::string& input :
       {overlong + "\nHEALTH\n", overlong, "HEALTH\n" + overlong}) {
    std::string output;
    const size_t served = serve::ServeBuffer(server, input, &output);
    const size_t err = output.find("ERR InvalidArgument ");
    ASSERT_NE(err, std::string::npos) << served;
    EXPECT_NE(output.find("request line exceeds 4096 bytes", err),
              std::string::npos);
    EXPECT_EQ(output.find("ERR", err + 1), std::string::npos);
    EXPECT_EQ(served, input.rfind("HEALTH", 0) == 0 ? 2u : 1u);
  }
}

TEST(ServeProtocolTest, OversizedPayloadIsRefusedUnread) {
  ServerOptions options;
  options.memory_limit_bytes = 1 << 20;
  ReasoningServer server(options);
  std::string output;
  EXPECT_EQ(serve::ServeBuffer(server, "LOAD t1 2000000\nHEALTH\n", &output),
            1u);
  EXPECT_EQ(output.rfind("ERR InvalidArgument ", 0), 0u) << output;
  EXPECT_NE(output.find("payload of 2000000 bytes exceeds the server memory "
                        "limit of 1048576 bytes"),
            std::string::npos)
      << output;
  // A payload within the limit that the input cuts short is truncated.
  std::string cut;
  EXPECT_EQ(serve::ServeBuffer(server, "LOAD t1 100\ne(a, b).\n", &cut), 1u);
  EXPECT_EQ(cut, serve::FormatResponse(Response{
                     Status::InvalidArgument("truncated payload"),
                     "truncated payload"}));
}

// ---------------------------------------------------------------------------
// Socket daemon: bind, serve, drain.
// ---------------------------------------------------------------------------

/// A daemon serving `server` on an ephemeral loopback port until the
/// harness goes out of scope.
class DaemonHarness {
 public:
  explicit DaemonHarness(ReasoningServer& server) {
    daemon_.port = 0;
    daemon_.bound_port = &port_;
    loop_ = std::thread([this, &server] {
      const Status st = serve::Serve(server, daemon_, stop_);
      EXPECT_TRUE(st.ok()) << st.ToString();
    });
    while (port_.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~DaemonHarness() {
    stop_.store(true);
    loop_.join();
  }

  /// A connected client socket whose sends and receives give up after two
  /// seconds, so a daemon that never answers fails the test instead of
  /// hanging it.
  int Connect() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_.load());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

 private:
  serve::DaemonOptions daemon_;
  std::atomic<bool> stop_{false};
  std::atomic<uint16_t> port_{0};
  std::thread loop_;
};

/// Sends `data` as far as the peer accepts it (a peer that closes early
/// ends the send).
void SendAsFarAsAccepted(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

/// Reads until the peer closes the connection. *closed is false when the
/// receive timed out first.
std::string ReadUntilClosed(int fd, bool* closed) {
  std::string got;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      got.append(chunk, static_cast<size_t>(n));
      continue;
    }
    *closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    return got;
  }
}

TEST(ServeDaemonTest, SocketRoundTripAndGracefulDrain) {
  ReasoningServer server{ServerOptions{}};
  std::atomic<bool> stop{false};
  std::atomic<uint16_t> port{0};
  serve::DaemonOptions daemon;
  daemon.port = 0;
  daemon.bound_port = &port;
  std::thread loop([&] {
    const Status st = serve::Serve(server, daemon, stop);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  while (port.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port.load());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string theory = kTheoryA;
  const std::string wire = "HEALTH\nLOAD t1 " +
                           std::to_string(theory.size()) + "\n" + theory +
                           "QUIT\n";
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::string got;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    got.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(got.rfind("OK 2\nok", 0), 0u) << got;
  EXPECT_NE(got.find("key="), std::string::npos);

  stop.store(true);
  loop.join();
  // The drained LOAD folded into the server totals before Serve returned
  // (HEALTH bypasses admission and is not an accounted request).
  EXPECT_EQ(Counter(server, "bddfc.serve.requests"), 1u);
}

TEST(ServeDaemonTest, HalfClosedStreamGetsServeBuffersAnswers) {
  // A client that sends a stream and closes its side gets the bytes
  // ServeBuffer answers the same stream with, end-of-input rules included.
  const std::string stream = "HEALTH\nNONSENSE\nHEALTH";
  ReasoningServer reference{ServerOptions{}};
  std::string want;
  ASSERT_EQ(serve::ServeBuffer(reference, stream, &want), 3u);

  ReasoningServer server{ServerOptions{}};
  DaemonHarness daemon(server);
  const int fd = daemon.Connect();
  SendAsFarAsAccepted(fd, stream);
  ::shutdown(fd, SHUT_WR);
  bool closed = false;
  const std::string got = ReadUntilClosed(fd, &closed);
  ::close(fd);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(closed);
}

TEST(ServeDaemonTest, OverlongRequestLineIsRefusedAndClosed) {
  ReasoningServer server{ServerOptions{}};
  DaemonHarness daemon(server);
  const int fd = daemon.Connect();
  SendAsFarAsAccepted(fd, std::string(size_t{1} << 20, 'x'));  // no newline
  bool closed = false;
  const std::string got = ReadUntilClosed(fd, &closed);
  ::close(fd);
  EXPECT_EQ(got.rfind("ERR InvalidArgument ", 0), 0u) << got;
  EXPECT_TRUE(closed);

  // The daemon keeps serving other connections.
  const int health = daemon.Connect();
  SendAsFarAsAccepted(health, "HEALTH\nQUIT\n");
  const std::string answer = ReadUntilClosed(health, &closed);
  ::close(health);
  EXPECT_EQ(answer, "OK 2\nok");
}

TEST(ServeDaemonTest, PayloadBeyondTheMemoryLimitIsRefusedUnread) {
  ReasoningServer server{ServerOptions{}};
  ASSERT_LT(server.options().memory_limit_bytes, size_t{999999999});
  DaemonHarness daemon(server);
  const int fd = daemon.Connect();
  // Only the header: the refusal must not wait for the payload.
  SendAsFarAsAccepted(fd, "LOAD t1 999999999\n");
  bool closed = false;
  const std::string got = ReadUntilClosed(fd, &closed);
  ::close(fd);
  EXPECT_EQ(got.rfind("ERR InvalidArgument ", 0), 0u) << got;
  EXPECT_NE(got.find("memory limit"), std::string::npos) << got;
  EXPECT_TRUE(closed);
}

}  // namespace
}  // namespace bddfc
