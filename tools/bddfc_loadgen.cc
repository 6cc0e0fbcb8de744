// bddfc_loadgen: mixed-tenant load generator and correctness harness for
// bddfc-serve (EXPERIMENTS.md E18).
//
// Replays a deterministic stream of LOAD / QUERY / REWRITE requests from
// T tenants against a ReasoningServer — in-process by default (the same
// Handle() the daemon's socket loop calls), or over TCP with --connect.
// Beyond latency (p50/p99/QPS) it CHECKS the serving contract and exits
// nonzero on any violation:
//
//   * every QUERY answer is byte-identical to a one-shot run (local
//     ParseProgram + RunChase + Satisfies oracle, computed up front);
//   * equivalent spellings of a theory land on one artifact key;
//   * cache hits skip recompilation: the compiles counter equals the
//     number of distinct theories, and with --trace the per-session
//     rings contain exactly that many serve.compile spans;
//   * per-session counter sums reconcile with the server totals — the
//     no-cross-session-leakage invariant (in-process mode).
//
// Flags are strict (base/flags.h): a bad flag, a zero count or a --connect
// that is not HOST:PORT with a port in 1..65535 exits 2.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bddfc/base/flags.h"
#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/parser/parser.h"
#include "bddfc/serve/protocol.h"
#include "bddfc/serve/server.h"
#include "bddfc/workload/generators.h"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using bddfc::ChaseOptions;
using bddfc::ChaseResult;
using bddfc::ConjunctiveQuery;
using bddfc::ParseProgram;
using bddfc::ParseQuery;
using bddfc::Program;
using bddfc::Result;
using bddfc::Rng;
using bddfc::RunChase;
using bddfc::Satisfies;
using bddfc::Status;
using bddfc::serve::FormatResponse;
using bddfc::serve::KeyFromHex;
using bddfc::serve::ReasoningServer;
using bddfc::serve::Request;
using bddfc::serve::Response;
using bddfc::serve::ServerOptions;

// ---------------------------------------------------------------------------
// Workload: per-tenant chain-closure theories with known certain answers.

struct TenantWorkload {
  std::string tenant;
  /// Two spellings of one theory (reordered facts, comments) — must land
  /// on the same artifact key.
  std::string theory, theory_variant;
  /// Query texts with oracle answers (computed by a one-shot local run).
  std::vector<std::pair<std::string, bool>> queries;
  std::string rewrite_query;
};

std::string Const(int t, int i) {
  return 'n' + std::to_string(t) + "_" + std::to_string(i);
}

/// A chain n_0 -> ... -> n_len under transitive closure, plus a `top`
/// marker derived from the full-span edge. Tenants differ in chain length
/// and constant names, so theories (and artifact keys) differ per tenant.
TenantWorkload MakeWorkload(int t) {
  TenantWorkload w;
  w.tenant = "tenant" + std::to_string(t);
  const int len = 4 + t % 5;
  std::vector<std::string> facts;
  for (int i = 0; i < len; ++i) {
    facts.push_back("e(" + Const(t, i) + ", " + Const(t, i + 1) + ").");
  }
  const std::string rules =
      "e(X, Y), e(Y, Z) -> e(X, Z).\n"
      "e(" + Const(t, 0) + ", " + Const(t, len) + ") -> top(" +
      Const(t, 0) + ").\n";
  for (const std::string& f : facts) w.theory += f + "\n";
  w.theory += rules;
  // Same theory, different spelling: facts reversed, noise whitespace and
  // a comment. Canonicalization must collapse both to one key.
  w.theory_variant = "% tenant " + std::to_string(t) + " (variant)\n";
  for (auto it = facts.rbegin(); it != facts.rend(); ++it) {
    w.theory_variant += "  " + *it + "\n";
  }
  w.theory_variant += rules;

  // Query payloads are bare CQ bodies (what ParseQuery accepts).
  w.queries = {
      {"e(" + Const(t, 0) + ", " + Const(t, len) + ")", true},
      {"e(" + Const(t, len) + ", " + Const(t, 0) + ")", false},
      {"top(" + Const(t, 0) + ")", true},
      {"top(" + Const(t, 1) + ")", false},
      {"e(" + Const(t, 1) + ", X), e(X, " + Const(t, len) + ")", len >= 3},
  };
  w.rewrite_query = "top(X)";
  return w;
}

/// Replaces every oracle bit with the answer of a one-shot local run —
/// the independent baseline the served answers must match byte-for-byte.
bool ComputeOracle(TenantWorkload* w, const ChaseOptions& copts) {
  Result<Program> program = ParseProgram(w->theory);
  if (!program.ok()) {
    std::fprintf(stderr, "oracle parse failed for %s: %s\n",
                 w->tenant.c_str(), program.status().ToString().c_str());
    return false;
  }
  const ChaseResult chase =
      RunChase(program.value().theory, program.value().instance, copts);
  if (!chase.status.ok() || !chase.fixpoint_reached) {
    std::fprintf(stderr, "oracle chase failed for %s\n", w->tenant.c_str());
    return false;
  }
  for (auto& [text, expected] : w->queries) {
    Result<ConjunctiveQuery> q =
        ParseQuery(text, program.value().instance.signature_ptr().get());
    if (!q.ok()) {
      std::fprintf(stderr, "oracle query parse failed: %s\n", text.c_str());
      return false;
    }
    const bool sat = Satisfies(chase.structure, q.value());
    if (sat != expected) {
      // The hand-written expectation disagrees with the machine oracle —
      // trust the oracle (it IS the one-shot baseline), but say so.
      std::fprintf(stderr, "note: oracle overrides expectation for %s\n",
                   text.c_str());
      expected = sat;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Transports: in-process Handle() or a framed TCP client.

class Transport {
 public:
  virtual ~Transport() = default;
  virtual Response Roundtrip(const Request& request) = 0;
};

class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(ReasoningServer& server) : server_(server) {}
  Response Roundtrip(const Request& request) override {
    return server_.Handle(request);
  }

 private:
  ReasoningServer& server_;
};

#if !defined(_WIN32)
class SocketTransport : public Transport {
 public:
  static std::unique_ptr<SocketTransport> Connect(const std::string& host,
                                                  uint16_t port) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                      &res) != 0 ||
        res == nullptr) {
      return nullptr;
    }
    const int fd = ::socket(res->ai_family, res->ai_socktype, 0);
    const bool ok =
        fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) == 0;
    ::freeaddrinfo(res);
    if (!ok) {
      if (fd >= 0) ::close(fd);
      return nullptr;
    }
    return std::unique_ptr<SocketTransport>(new SocketTransport(fd));
  }

  ~SocketTransport() override {
    (void)!::write(fd_, "QUIT\n", 5);
    ::close(fd_);
  }

  Response Roundtrip(const Request& request) override {
    std::string wire;
    switch (request.kind) {
      case Request::Kind::kLoad:
        wire = "LOAD " + request.tenant + " " +
               std::to_string(request.payload.size()) + "\n" +
               request.payload;
        break;
      case Request::Kind::kQuery:
      case Request::Kind::kRewrite:
        wire = std::string(request.kind == Request::Kind::kQuery ? "QUERY "
                                                                 : "REWRITE ") +
               request.tenant + " " + bddfc::serve::KeyToHex(request.key) +
               " " + std::to_string(request.payload.size()) + "\n" +
               request.payload;
        break;
      case Request::Kind::kMetrics:
        wire = request.tenant.empty() ? "METRICS\n"
                                      : "METRICS " + request.tenant + "\n";
        break;
      case Request::Kind::kHealth:
        wire = "HEALTH\n";
        break;
    }
    if (!SendAll(wire)) return Fail("send failed");

    // Read "OK <n>" / "ERR <code> <n>", then exactly n body bytes.
    std::string header;
    if (!ReadLine(&header)) return Fail("read failed");
    size_t nbytes = 0;
    Status status = Status::OK();
    if (header.rfind("OK ", 0) == 0) {
      nbytes = std::strtoull(header.c_str() + 3, nullptr, 10);
    } else if (header.rfind("ERR ", 0) == 0) {
      const size_t sp = header.find(' ', 4);
      if (sp == std::string::npos) return Fail("bad ERR header");
      status = Status(bddfc::StatusCode::kUnknown, header.substr(4, sp - 4));
      nbytes = std::strtoull(header.c_str() + sp + 1, nullptr, 10);
    } else {
      return Fail("bad response header: " + header);
    }
    std::string body;
    while (body.size() < nbytes) {
      const size_t want = std::min<size_t>(4096, nbytes - body.size());
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, want, 0);
      if (n <= 0) return Fail("short body");
      body.append(chunk, static_cast<size_t>(n));
    }
    return Response{status, std::move(body)};
  }

 private:
  explicit SocketTransport(int fd) : fd_(fd) {}

  static Response Fail(std::string msg) {
    return Response{Status::Internal(msg), std::move(msg)};
  }

  bool SendAll(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* out) {
    out->clear();
    char c;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return true;
      *out += c;
    }
    return false;
  }

  int fd_;
};
#endif  // !_WIN32

// ---------------------------------------------------------------------------
// The replay.

struct WorkerResult {
  std::vector<double> latencies_ms;
  size_t requests = 0;
  size_t mismatches = 0;
  size_t sheds = 0;
  size_t errors = 0;
};

void RunWorker(Transport& transport, const std::vector<TenantWorkload>& pool,
               int worker, size_t requests, uint64_t seed,
               std::map<std::string, uint64_t>* keys, std::mutex* keys_mu,
               WorkerResult* out) {
  Rng rng(Rng::Mix(seed, static_cast<uint64_t>(worker)));
  const TenantWorkload& home = pool[worker % pool.size()];

  auto timed = [&](const Request& r) {
    const auto start = std::chrono::steady_clock::now();
    Response resp = transport.Roundtrip(r);
    out->latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
    ++out->requests;
    if (resp.status.code() == bddfc::StatusCode::kResourceExhausted) {
      ++out->sheds;
    } else if (!resp.ok()) {
      ++out->errors;
    }
    return resp;
  };

  auto load = [&](const TenantWorkload& w, bool variant) -> uint64_t {
    Request r;
    r.kind = Request::Kind::kLoad;
    r.tenant = home.tenant;  // the REQUESTER's session, not the theory's
    r.payload = variant ? w.theory_variant : w.theory;
    const Response resp = timed(r);
    if (!resp.ok()) return 0;
    uint64_t key = 0;
    if (resp.body.rfind("key=", 0) != 0 ||
        !KeyFromHex(resp.body.substr(4, 16), &key)) {
      ++out->mismatches;
      return 0;
    }
    std::lock_guard<std::mutex> lock(*keys_mu);
    auto [it, inserted] = keys->emplace(w.tenant, key);
    if (!inserted && it->second != key) {
      // Equivalent spellings must map to one artifact key.
      ++out->mismatches;
    }
    return key;
  };

  uint64_t home_key = load(home, false);
  size_t issued = 1;
  while (issued < requests) {
    const uint64_t dice = rng.Uniform(10);
    if (dice < 2 || home_key == 0) {
      // Re-LOAD (sometimes the variant spelling): an expected cache hit.
      home_key = load(home, rng.Uniform(2) == 1);
      ++issued;
      continue;
    }
    // Occasionally work against another tenant's theory to mix sessions.
    const TenantWorkload& target =
        dice == 9 ? pool[rng.Uniform(pool.size())] : home;
    uint64_t key = home_key;
    if (&target != &home) {
      key = load(target, false);
      ++issued;
      if (issued >= requests || key == 0) continue;
    }
    Request r;
    r.tenant = home.tenant;
    r.key = key;
    if (dice == 8) {
      r.kind = Request::Kind::kRewrite;
      r.payload = target.rewrite_query;
      timed(r);
    } else {
      const auto& [text, expected] =
          target.queries[rng.Uniform(target.queries.size())];
      r.kind = Request::Kind::kQuery;
      r.payload = text;
      const Response resp = timed(r);
      if (resp.ok() && resp.body != (expected ? "true" : "false")) {
        ++out->mismatches;
        std::fprintf(stderr, "MISMATCH %s %s: served %s, oracle %s\n",
                     home.tenant.c_str(), text.c_str(), resp.body.c_str(),
                     expected ? "true" : "false");
      }
    }
    ++issued;
  }
}

// ---------------------------------------------------------------------------

std::map<std::string, uint64_t> CounterMap(const bddfc::obs::MetricsSnapshot& s) {
  std::map<std::string, uint64_t> out;
  for (const auto& p : s.counters) out[p.name] = p.value;
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bddfc_loadgen [--tenants=N] [--workers=N] "
               "[--requests=N] [--seed=N] [--trace] [--json=PATH] "
               "[--connect=HOST:PORT]\n"
               "  --requests is per worker; total = workers * requests\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  size_t tenants = 8;
  size_t workers = 8;
  size_t requests = 150;
  uint64_t seed = 42;
  bool trace = false;
  std::string json_out;
  std::string connect;
  bddfc::FlagSet flags("bddfc_loadgen");
  flags.Count("--tenants", &tenants, 1);
  flags.Count("--workers", &workers, 1);
  flags.Count("--requests", &requests, 1);
  flags.Count("--seed", &seed);
  flags.Bool("--trace", &trace);
  flags.String("--json", &json_out);
  flags.String("--connect", &connect);
  if (!flags.Parse(argc, argv)) return Usage();
  std::string connect_host;
  uint64_t connect_port = 0;
  if (!connect.empty()) {
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        !bddfc::ParseUnsigned(std::string_view(connect).substr(colon + 1),
                              &connect_port) ||
        connect_port == 0 || connect_port > 65535) {
      std::fprintf(stderr,
                   "bddfc_loadgen: --connect: '%s' is not HOST:PORT with a "
                   "port in 1..65535\n",
                   connect.c_str());
      return Usage();
    }
    connect_host = connect.substr(0, colon);
  }

  ServerOptions options;
  options.tracing = trace;
  // Transitive closure is not UCQ-rewritable, so REWRITE runs to its
  // budget; keep it small so rewrites measure serving overhead, not the
  // rewriter's divergence bound. (Memoized per artifact after the first.)
  options.rewrite.max_depth = 4;
  options.rewrite.max_queries = 200;
  std::vector<TenantWorkload> pool;
  ChaseOptions oracle_opts;
  oracle_opts.max_rounds = options.compile.max_rounds;
  oracle_opts.max_facts = options.compile.max_facts;
  for (size_t t = 0; t < tenants; ++t) {
    pool.push_back(MakeWorkload(static_cast<int>(t)));
    if (!ComputeOracle(&pool.back(), oracle_opts)) return 1;
  }

  const bool in_process = connect_host.empty();
  std::unique_ptr<ReasoningServer> server;
  if (in_process) server = std::make_unique<ReasoningServer>(options);

  std::vector<std::unique_ptr<Transport>> transports;
  for (size_t w = 0; w < workers; ++w) {
    if (in_process) {
      transports.push_back(std::make_unique<InProcessTransport>(*server));
    } else {
#if defined(_WIN32)
      std::fprintf(stderr, "--connect is not supported on this platform\n");
      return 1;
#else
      auto t = SocketTransport::Connect(
          connect_host, static_cast<uint16_t>(connect_port));
      if (t == nullptr) {
        std::fprintf(stderr, "cannot connect to %s\n", connect.c_str());
        return 1;
      }
      transports.push_back(std::move(t));
#endif
    }
  }

  std::map<std::string, uint64_t> keys;
  std::mutex keys_mu;
  std::vector<WorkerResult> results(workers);
  std::vector<std::thread> threads;
  const auto wall_start = std::chrono::steady_clock::now();
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      RunWorker(*transports[w], pool, static_cast<int>(w), requests, seed,
                &keys, &keys_mu, &results[w]);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  // Latency digest.
  std::vector<double> lat;
  size_t total = 0, mismatches = 0, sheds = 0, errors = 0;
  for (const WorkerResult& r : results) {
    lat.insert(lat.end(), r.latencies_ms.begin(), r.latencies_ms.end());
    total += r.requests;
    mismatches += r.mismatches;
    sheds += r.sheds;
    errors += r.errors;
  }
  std::sort(lat.begin(), lat.end());
  auto pct = [&](double p) {
    if (lat.empty()) return 0.0;
    return lat[std::min(lat.size() - 1,
                        static_cast<size_t>(p * (lat.size() - 1)))];
  };
  const double p50 = pct(0.50), p99 = pct(0.99);
  const double qps = wall_s > 0 ? total / wall_s : 0;

  // Contract checks (in-process mode only; a remote server's totals
  // include other clients' traffic).
  bool reconciled = true;
  uint64_t compiles = 0, cache_hits = 0;
  size_t compile_spans = 0;
  if (in_process) {
    const auto server_counters = CounterMap(server->ServerSnapshot());
    std::map<std::string, uint64_t> session_sums;
    size_t span_count = 0;
    for (const std::string& tenant : server->Tenants()) {
      for (const auto& [name, value] :
           CounterMap(server->SessionSnapshot(tenant))) {
        session_sums[name] += value;
      }
      if (trace) {
        const std::string json =
            server->GetSession(tenant).tracer.ExportChromeJson();
        static const std::string kNeedle =
            "\"name\":\"serve.compile\",\"cat\":\"bddfc\",\"ph\":\"B\"";
        for (size_t pos = json.find(kNeedle); pos != std::string::npos;
             pos = json.find(kNeedle, pos + kNeedle.size())) {
          ++span_count;
        }
      }
    }
    if (session_sums != server_counters) {
      reconciled = false;
      std::fprintf(stderr,
                   "RECONCILE FAILED: session counter sums != server "
                   "totals\n");
      for (const auto& [name, value] : server_counters) {
        const uint64_t s = session_sums.count(name) ? session_sums[name] : 0;
        if (s != value) {
          std::fprintf(stderr, "  %s: sessions=%llu server=%llu\n",
                       name.c_str(), static_cast<unsigned long long>(s),
                       static_cast<unsigned long long>(value));
        }
      }
    }
    auto counter = [&](const char* name) {
      auto it = server_counters.find(name);
      return it == server_counters.end() ? uint64_t{0} : it->second;
    };
    compiles = counter("bddfc.serve.compiles");
    cache_hits = counter("bddfc.serve.cache_hits");
    compile_spans = span_count;
    // One compile per distinct theory; every other LOAD was a cache hit.
    if (compiles != keys.size()) {
      std::fprintf(stderr,
                   "CACHE FAILED: %llu compiles for %zu distinct theories\n",
                   static_cast<unsigned long long>(compiles), keys.size());
      reconciled = false;
    }
    if (cache_hits == 0) {
      std::fprintf(stderr, "CACHE FAILED: no cache hits recorded\n");
      reconciled = false;
    }
    if (trace && compile_spans != compiles) {
      std::fprintf(stderr,
                   "TRACE FAILED: %zu serve.compile spans for %llu "
                   "compiles\n",
                   compile_spans, static_cast<unsigned long long>(compiles));
      reconciled = false;
    }
  }

  std::printf(
      "mode=%s tenants=%zu workers=%zu requests=%zu wall_s=%.3f qps=%.0f\n"
      "p50_ms=%.3f p99_ms=%.3f sheds=%zu errors=%zu mismatches=%zu\n",
      in_process ? "inprocess" : "socket", tenants, workers, total, wall_s,
      qps, p50, p99, sheds, errors, mismatches);
  if (in_process) {
    std::printf("compiles=%llu cache_hits=%llu reconciled=%s%s\n",
                static_cast<unsigned long long>(compiles),
                static_cast<unsigned long long>(cache_hits),
                reconciled ? "true" : "false",
                trace ? (" compile_spans=" + std::to_string(compile_spans))
                            .c_str()
                      : "");
  }

  if (!json_out.empty()) {
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"mode\": \"%s\", \"tenants\": %zu, \"workers\": %zu, "
        "\"requests\": %zu, \"qps\": %.0f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"sheds\": %zu, \"mismatches\": %zu, "
        "\"compiles\": %llu, \"cache_hits\": %llu, \"reconciled\": %s}",
        in_process ? "inprocess" : "socket", tenants, workers, total, qps,
        p50, p99, sheds, mismatches,
        static_cast<unsigned long long>(compiles),
        static_cast<unsigned long long>(cache_hits),
        reconciled ? "true" : "false");
    const std::string json =
        "{\n  \"bench\": \"serve\",\n  \"experiment\": \"E18\",\n"
        "  \"workload\": \"chain-closure tenants=" + std::to_string(tenants) +
        " seed=" + std::to_string(seed) + "\",\n  \"rows\": [\n" + row +
        "\n  ]\n}\n";
    if (!bddfc::obs::WriteArtifact(json_out, json)) return 1;
  }

  return (mismatches == 0 && reconciled) ? 0 : 1;
}
