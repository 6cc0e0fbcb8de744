// Compiled-theory artifact cache (DESIGN.md §2.15).
//
// The daemon's unit of reuse: a theory submitted by any tenant is parsed,
// canonicalized (ToProgramText — sorted facts, stable rule order, quoted
// names), hashed, and compiled ONCE into an Artifact: a fresh re-parse of
// the canonical text (so interned TermIds are a function of the canonical
// form, never of the submission's spelling or fact order) plus its
// saturated chase. Subsequent loads of the same theory — from any tenant,
// in any equivalent spelling — hit the cache and skip the chase entirely.
//
// Concurrency:
//   * lookups and LRU bookkeeping are under one cache mutex (never held
//     across a compile);
//   * compiles are single-flight: concurrent first loads of one key elect
//     one compiling request, the rest block on its completion and share
//     the result — the chase never runs twice for one key;
//   * query-time signature mutation is confined per artifact (see
//     Artifact::mu): each artifact owns its Signature outright, so two
//     sessions querying DIFFERENT artifacts never contend, and two
//     sessions querying the SAME artifact serialize the
//     mark → parse → evaluate → rollback critical section that keeps the
//     artifact's signature byte-stable. (The pre-serve bug: Mark /
//     RollbackTo on a signature shared across concurrent requests rolls
//     back the other request's interned ids mid-evaluation.)
//
// Memory: each admitted artifact charges its estimated bytes to the
// server accountant and releases them on eviction, so the LRU and the
// server-wide memory budget govern the same pool. A compile's chase
// charges the request context while it runs and releases that charge on
// every exit, so between requests the server accountant holds exactly
// charged_bytes().

#ifndef BDDFC_SERVE_ARTIFACT_CACHE_H_
#define BDDFC_SERVE_ARTIFACT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/status.h"
#include "bddfc/chase/chase.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/parser/parser.h"
#include "bddfc/rewrite/rewriter.h"

namespace bddfc::serve {

/// 64-bit FNV-1a of the canonical program text — the cache key. Stable
/// across platforms and runs (pure function of the bytes).
uint64_t CanonicalHash(std::string_view canonical_text);

/// Lowercase-hex rendering of a cache key (the wire spelling).
std::string KeyToHex(uint64_t key);
/// Parses a hex key; false on malformed input.
bool KeyFromHex(std::string_view hex, uint64_t* out);

/// One compiled theory. Immutable after admission except through
/// EvalBoolean/RewriteFor, which serialize on `mu` and restore the
/// signature before returning.
struct Artifact {
  /// Canonical program text (rules + facts; no queries) — what the key
  /// hashes and what byte-identity comparisons replay.
  std::string canonical_text;
  uint64_t key = 0;
  /// Re-parsed from canonical_text with an artifact-owned Signature
  /// (copy-on-admit): no other artifact, session or caller holds this
  /// signature, so query-time interning stays private to `mu`.
  Program program;
  /// The saturated chase of the program (fixpoint reached — partial
  /// chases are never admitted).
  ChaseResult chase;
  size_t rounds = 0;
  /// Accounted estimate charged to the server accountant while cached.
  size_t bytes = 0;

  /// Serializes query-time signature mutation (see file comment).
  std::mutex mu;

  explicit Artifact(Program p)
      : program(std::move(p)), chase(program.instance.signature_ptr()) {}

  /// Boolean certain answer: Chase(D, T) ⊨ Q. Parses `query_text` against
  /// the artifact signature under a mark, evaluates, rolls back — the
  /// signature (and therefore canonical_text and every cached id) is
  /// byte-identical before and after, for any interleaving of callers.
  Result<bool> EvalBoolean(const std::string& query_text);

  /// UCQ rewriting of `query_text` under this artifact's theory: returns
  /// "disjuncts=<n> complete=<0|1>" plus one canonical rendered line per
  /// disjunct. Memoized by the query's canonical key (rewriting is the
  /// expensive path); the same mark/rollback discipline applies.
  Result<std::string> RewriteFor(const std::string& query_text,
                                 const RewriteOptions& opts);

 private:
  /// Rewriting memo: canonical query key → rendered result. Guarded by mu.
  std::map<std::string, std::string> rewrite_memo_;
};

/// Budgets a compile runs under (forwarded to RunChase).
struct CompileOptions {
  size_t max_rounds = 256;
  size_t max_facts = 1 << 20;
  size_t threads = 1;
};

/// LRU cache of Artifacts keyed by canonical hash, with single-flight
/// compilation. Thread-safe.
class ArtifactCache {
 public:
  /// `capacity` caps the artifact count (>=1); `accountant` (not owned,
  /// may be null) is charged/released as artifacts are admitted/evicted.
  ArtifactCache(size_t capacity, MemoryAccountant* accountant);
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  struct Outcome {
    Status status = Status::OK();
    std::shared_ptr<Artifact> artifact;  ///< null iff !status.ok()
    bool hit = false;       ///< served from cache (no compile ran)
    bool compiled = false;  ///< THIS call ran the compile
    size_t evicted = 0;     ///< artifacts evicted by this admission
  };

  /// Parses `program_text` (chaos-site faults route through `ctx`'s
  /// registry), canonicalizes, and returns the cached artifact or
  /// compiles and admits it. `ctx` governs the compile (deadline /
  /// memory / cancellation); `metrics` receives the serve.compile_ms
  /// histogram sample on a compile. A chase that fails or stops short of
  /// fixpoint is NOT admitted — the error returns to this caller and the
  /// next load retries.
  Outcome GetOrCompile(const std::string& program_text, ExecutionContext* ctx,
                       obs::MetricsRegistry& metrics,
                       const CompileOptions& copts);

  /// The cached artifact for `key`, bumping its LRU slot; null when absent.
  std::shared_ptr<Artifact> Find(uint64_t key);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Total bytes currently charged for cached artifacts.
  size_t charged_bytes() const;

 private:
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<Artifact> artifact;
  };
  struct Entry {
    std::shared_ptr<Artifact> artifact;
    uint64_t last_used = 0;
  };

  /// Compiles canonical_text into an admitted artifact (called by the
  /// single-flight winner, outside cache_mu_).
  Outcome Compile(uint64_t key, const std::string& canonical_text,
                  ExecutionContext* ctx, obs::MetricsRegistry& metrics,
                  const CompileOptions& copts);

  /// Inserts under cache_mu_, evicting LRU entries past capacity.
  /// Returns the number evicted.
  size_t Admit(uint64_t key, std::shared_ptr<Artifact> artifact);

  const size_t capacity_;
  MemoryAccountant* const accountant_;

  mutable std::mutex cache_mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  uint64_t tick_ = 0;

  /// Taken before cache_mu_ when both are held (GetOrCompile's re-check).
  std::mutex inflight_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Inflight>> inflight_;
};

}  // namespace bddfc::serve

#endif  // BDDFC_SERVE_ARTIFACT_CACHE_H_
