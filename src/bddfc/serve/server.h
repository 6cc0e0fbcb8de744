// bddfc-serve: the multi-tenant reasoning server (DESIGN.md §2.15).
//
// ReasoningServer is the transport-independent core of the daemon: an
// in-process Handle(Request) -> Response API the socket loop (daemon.h),
// the load generator and the tests all drive the same way. Each request:
//
//   1. resolves (or creates) the tenant's Session;
//   2. passes admission control — concurrent-request cap and server-wide
//      memory budget; a shed request is answered immediately with
//      kResourceExhausted and counted on the session AND the server
//      (equally, so the reconciliation invariant holds for sheds too);
//   3. runs under its own ExecutionContext: a child of the server root
//      (its accountant carves the request's allowance out of the
//      server-wide budget) with a request deadline, carrying a RunContext
//      that points engines at a request-scoped MetricsRegistry and the
//      session's trace ring, with the session's fault registry attached;
//   4. dispatches: LOAD compiles/fetches an artifact (artifact_cache.h),
//      QUERY/REWRITE read a cached artifact, which no request writes or
//      locks (artifact_cache.h);
//   5. folds the request registry's snapshot into the session's
//      cumulative registry and the server totals.
//
// Determinism: artifacts are compiled from canonical text with
// artifact-owned signatures and queried through a parse that interns
// nothing, so the response to any request is a pure function of (artifact
// key, request payload) — byte-identical across thread interleavings and
// equal to a one-shot CLI run over the same canonical program.

#ifndef BDDFC_SERVE_SERVER_H_
#define BDDFC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/status.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"
#include "bddfc/serve/artifact_cache.h"
#include "bddfc/serve/session.h"

namespace bddfc::serve {

/// Server-wide knobs (one per daemon).
struct ServerOptions {
  /// Server-wide accounted byte budget (0 = unlimited). Cached artifacts
  /// and in-flight requests charge against it.
  size_t memory_limit_bytes = size_t{256} << 20;
  /// Artifact cache capacity (entries).
  size_t cache_capacity = 64;
  /// Concurrent in-flight requests before load-shedding (0 = unlimited).
  size_t max_concurrent = 64;
  /// Per-request deadline (0 = none). Requests may lower, never raise it.
  double request_deadline_ms = 30000;
  /// Per-request child accountant cap (0 = only the server budget governs).
  size_t request_memory_limit_bytes = 0;
  /// Compile budgets (forwarded to the chase).
  CompileOptions compile;
  /// Rewriter budgets for REWRITE requests.
  RewriteOptions rewrite;
  /// Record per-session trace rings (serve.compile / chase spans).
  bool tracing = false;
  size_t trace_capacity = size_t{1} << 14;
};

/// One parsed request.
struct Request {
  enum class Kind {
    kLoad,     ///< compile (or fetch) a theory; payload = program text
    kQuery,    ///< Boolean certain answer; payload = CQ body text
    kRewrite,  ///< UCQ rewriting; payload = CQ body text
    kMetrics,  ///< metrics export; tenant "" = server totals
    kHealth,   ///< liveness probe
  };
  Kind kind = Kind::kHealth;
  std::string tenant;
  /// Artifact key (hex from LOAD's response) for kQuery / kRewrite.
  uint64_t key = 0;
  std::string payload;
  /// Request deadline override in ms; 0 = the server default.
  double deadline_ms = 0;
};

/// One response. `body` is the protocol payload ("true", "key=... ...",
/// an error message, or a metrics export).
struct Response {
  Status status = Status::OK();
  std::string body;
  bool ok() const { return status.ok(); }
};

class ReasoningServer {
 public:
  explicit ReasoningServer(const ServerOptions& options);

  ReasoningServer(const ReasoningServer&) = delete;
  ReasoningServer& operator=(const ReasoningServer&) = delete;

  /// Serves one request. Thread-safe; blocks for the request's duration.
  Response Handle(const Request& request);

  /// The tenant's session, created on first use.
  Session& GetSession(const std::string& tenant);
  /// Snapshot of one session's cumulative registry (empty snapshot for an
  /// unknown tenant).
  obs::MetricsSnapshot SessionSnapshot(const std::string& tenant);
  /// Tenants with sessions, sorted.
  std::vector<std::string> Tenants();

  /// Server-total registry (per-request snapshots folded in, plus the
  /// serve.* counters).
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot ServerSnapshot() const { return metrics_.Snapshot(); }
  /// The /metrics export body (text exposition of the server snapshot).
  std::string MetricsText() const { return ServerSnapshot().ToText(); }

  ArtifactCache& cache() { return cache_; }
  /// The server-wide accountant (cache charges + in-flight requests);
  /// admission sheds while it is over budget.
  MemoryAccountant& memory() { return root_ctx_.memory(); }
  const ServerOptions& options() const { return options_; }
  /// Requests currently in flight (admission-accepted, not yet folded).
  size_t active_requests() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  Response Dispatch(const Request& request, ExecutionContext* ctx,
                    obs::MetricsRegistry& req_metrics);

  ServerOptions options_;
  /// Root of every request context: owns the server-wide accountant.
  ExecutionContext root_ctx_;
  ArtifactCache cache_;
  obs::MetricsRegistry metrics_;

  std::mutex sessions_mu_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;

  std::atomic<size_t> active_{0};
};

}  // namespace bddfc::serve

#endif  // BDDFC_SERVE_SERVER_H_
