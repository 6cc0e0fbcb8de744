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
//   * an admitted artifact is read-only: the cache hands it out const,
//     QUERY and REWRITE parse against its signature without interning
//     (parser.h), and no request writes its theory, structure or
//     signature. Requests on one artifact therefore take no lock; only the
//     REWRITE memo has one, held for a lookup or an insert.
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
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/status.h"
#include "bddfc/core/structure.h"
#include "bddfc/core/theory.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/rewrite/rewriter.h"

namespace bddfc::serve {

/// 64-bit FNV-1a of the canonical program text — the cache key. Stable
/// across platforms and runs (pure function of the bytes).
uint64_t CanonicalHash(std::string_view canonical_text);

/// Lowercase-hex rendering of a cache key (the wire spelling).
std::string KeyToHex(uint64_t key);
/// Parses a hex key; false on malformed input.
bool KeyFromHex(std::string_view hex, uint64_t* out);

/// Rendered REWRITE answers by the query's CanonicalKey. Thread-safe; the
/// lock is held for one lookup or one insert, never across a rewriting.
class RewriteMemo {
 public:
  std::optional<std::string> Find(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bodies_.find(key);
    if (it == bodies_.end()) return std::nullopt;
    return it->second;
  }
  /// Stores `body` unless `key` has one, and returns the stored body: the
  /// first insert wins.
  std::string Insert(const std::string& key, std::string body) {
    std::lock_guard<std::mutex> lock(mu_);
    return bodies_.try_emplace(key, std::move(body)).first->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> bodies_;
};

/// One compiled theory, read-only once admitted (see file comment).
struct Artifact {
  /// Canonical program text (rules + facts; no queries) — what the key
  /// hashes and what byte-identity comparisons replay.
  std::string canonical_text;
  uint64_t key = 0;
  /// The rules of canonical_text's re-parse, over a signature the
  /// artifact owns with `structure` (read by REWRITE).
  Theory theory;
  /// The saturated chase of that re-parse (fixpoint reached — partial
  /// chases are never admitted); read by QUERY and LOAD's facts=.
  Structure structure;
  size_t rounds = 0;
  /// Accounted estimate charged to the server accountant while cached.
  size_t bytes = 0;

  Artifact(Theory t, Structure s)
      : theory(std::move(t)), structure(std::move(s)) {}

  /// Boolean certain answer: Chase(D, T) ⊨ Q. A query naming a symbol the
  /// signature lacks is false without evaluation: no stored fact holds it.
  Result<bool> EvalBoolean(const std::string& query_text) const;

  /// UCQ rewriting of `query_text` under this artifact's theory: returns
  /// "disjuncts=<n> complete=<0|1>" plus one canonical rendered line per
  /// disjunct. Memoized by the query's canonical key over known names; a
  /// query naming an unknown symbol is rewritten and rendered in a private
  /// copy of the signature and not memoized, since its query-local ids
  /// name other symbols in other queries.
  Result<std::string> RewriteFor(const std::string& query_text,
                                 const RewriteOptions& opts) const;

 private:
  mutable RewriteMemo memo_;
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
    std::shared_ptr<const Artifact> artifact;  ///< null iff !status.ok()
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
  std::shared_ptr<const Artifact> Find(uint64_t key);

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
    std::shared_ptr<const Artifact> artifact;
  };
  struct Entry {
    std::shared_ptr<const Artifact> artifact;
    uint64_t last_used = 0;
  };

  /// Compiles canonical_text into an admitted artifact (called by the
  /// single-flight winner, outside cache_mu_).
  Outcome Compile(uint64_t key, const std::string& canonical_text,
                  ExecutionContext* ctx, obs::MetricsRegistry& metrics,
                  const CompileOptions& copts);

  /// Inserts under cache_mu_, evicting LRU entries past capacity.
  /// Returns the number evicted.
  size_t Admit(uint64_t key, std::shared_ptr<const Artifact> artifact);

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
