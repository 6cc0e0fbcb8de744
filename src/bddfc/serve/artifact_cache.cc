#include "bddfc/serve/artifact_cache.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/trace.h"
#include "bddfc/parser/parser.h"
#include "bddfc/parser/printer.h"

namespace bddfc::serve {

uint64_t CanonicalHash(std::string_view canonical_text) {
  // FNV-1a, 64-bit: not cryptographic, but stable, fast, and collisions
  // across a cache of tens of theories are astronomically unlikely.
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : canonical_text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string KeyToHex(uint64_t key) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, key);
  return hex;
}

bool KeyFromHex(std::string_view hex, uint64_t* out) {
  // Hex digits of either case only: no sign, prefix or space.
  uint64_t v = 0;
  const char* end = hex.data() + hex.size();
  if (hex.empty() || hex.size() > 16 ||
      std::from_chars(hex.data(), end, v, 16).ptr != end) {
    return false;
  }
  *out = v;
  return true;
}

namespace {

/// True when `q` holds a query-local id: a predicate or constant past
/// `sig`'s tables, so a name `sig` lacks.
bool NamesUnknownSymbol(const ConjunctiveQuery& q, const Signature& sig) {
  for (const Atom& a : q.atoms) {
    if (a.pred >= sig.num_predicates()) return true;
    for (TermId t : a.args) {
      if (IsConst(t) && t >= sig.num_constants()) return true;
    }
  }
  return false;
}

/// The REWRITE body for `q` under `theory`, rendered through `sig`, which
/// names every id of `q`.
Result<std::string> RewriteBody(const Theory& theory,
                                const ConjunctiveQuery& q,
                                const SignaturePtr& sig,
                                const RewriteOptions& opts) {
  RewriteResult rr = RewriteQuery(theory, q, opts);
  if (!rr.status.ok() && rr.status.code() != StatusCode::kUnknown) {
    return rr.status;
  }
  std::string body = "disjuncts=" + std::to_string(rr.rewriting.size()) +
                     " complete=" + (rr.status.ok() ? "1" : "0");
  std::string rendered = ToProgramText(Theory(sig), nullptr, &rr.rewriting);
  if (!rendered.empty()) {
    body += "\n";
    if (rendered.back() == '\n') rendered.pop_back();
    body += rendered;
  }
  return body;
}

}  // namespace

Result<bool> Artifact::EvalBoolean(const std::string& query_text) const {
  Result<ConjunctiveQuery> q = ParseQuery(query_text, structure.sig());
  if (!q.ok()) return q.status();
  if (NamesUnknownSymbol(q.value(), structure.sig())) return false;
  return Satisfies(structure, q.value());
}

Result<std::string> Artifact::RewriteFor(const std::string& query_text,
                                         const RewriteOptions& opts) const {
  Result<ConjunctiveQuery> q = ParseQuery(query_text, theory.sig());
  if (!q.ok()) return q.status();
  if (NamesUnknownSymbol(q.value(), theory.sig())) {
    // The interning parse gives the copy the query's names at the ids the
    // read-only parse chose; the rules' ids are a prefix of the copy's.
    auto local = std::make_shared<Signature>(theory.sig());
    Result<ConjunctiveQuery> named = ParseQuery(query_text, local.get());
    return RewriteBody(theory, named.value(), local, opts);
  }
  const std::string memo_key = q.value().CanonicalKey();
  if (std::optional<std::string> hit = memo_.Find(memo_key)) return *hit;
  // Two identical cold REWRITEs may both get here and both rewrite; they
  // render the same bytes, and the first insert wins.
  Result<std::string> body =
      RewriteBody(theory, q.value(), theory.signature_ptr(), opts);
  if (!body.ok()) return body;
  return memo_.Insert(memo_key, std::move(body).value());
}

ArtifactCache::ArtifactCache(size_t capacity, MemoryAccountant* accountant)
    : capacity_(capacity < 1 ? 1 : capacity), accountant_(accountant) {}

ArtifactCache::~ArtifactCache() {
  if (accountant_ == nullptr) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (auto& [key, e] : entries_) accountant_->Release(e.artifact->bytes);
}

std::shared_ptr<const Artifact> ArtifactCache::Find(uint64_t key) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = ++tick_;
  return it->second.artifact;
}

size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return entries_.size();
}

size_t ArtifactCache::charged_bytes() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  size_t total = 0;
  for (const auto& [key, e] : entries_) total += e.artifact->bytes;
  return total;
}

ArtifactCache::Outcome ArtifactCache::GetOrCompile(
    const std::string& program_text, ExecutionContext* ctx,
    obs::MetricsRegistry& metrics, const CompileOptions& copts) {
  Outcome out;

  // Parse the submission as-is (cheap; the chaos site routes through the
  // session registry attached to ctx) and canonicalize. Equivalent
  // spellings — reordered facts, whitespace, renamed variables — print
  // identically, so they share one key and one artifact.
  Result<Program> submitted =
      ParseProgram(program_text, nullptr,
                   ctx != nullptr ? ctx->fault_registry() : nullptr);
  if (!submitted.ok()) {
    out.status = submitted.status();
    return out;
  }
  const std::string canonical = ToProgramText(
      submitted.value().theory, &submitted.value().instance, nullptr);
  const uint64_t key = CanonicalHash(canonical);

  if (std::shared_ptr<const Artifact> cached = Find(key)) {
    out.artifact = std::move(cached);
    out.hit = true;
    return out;
  }

  // Single-flight: first loser-free requester for this key compiles;
  // everyone else blocks on the inflight slot and shares the result.
  std::shared_ptr<Inflight> flight;
  bool is_leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    // Re-check under the lock (order: inflight_mu_, then cache_mu_). A
    // leader admits before it erases its in-flight slot, so a request that
    // missed above just before the admit, and got here just after the
    // erase, finds the artifact instead of compiling it a second time.
    if (std::shared_ptr<const Artifact> cached = Find(key)) {
      out.artifact = std::move(cached);
      out.hit = true;
      return out;
    }
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      flight = std::make_shared<Inflight>();
      inflight_.emplace(key, flight);
      is_leader = true;
    } else {
      flight = it->second;
    }
  }

  if (!is_leader) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    out.status = flight->status;
    out.artifact = flight->artifact;
    // A shared compile is a hit from this request's perspective: it ran
    // no chase of its own.
    out.hit = out.status.ok();
    return out;
  }

  out = Compile(key, canonical, ctx, metrics, copts);
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->status = out.status;
    flight->artifact = out.artifact;
    flight->done = true;
  }
  flight->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(key);
  }
  return out;
}

ArtifactCache::Outcome ArtifactCache::Compile(uint64_t key,
                                              const std::string& canonical,
                                              ExecutionContext* ctx,
                                              obs::MetricsRegistry& metrics,
                                              const CompileOptions& copts) {
  Outcome out;
  obs::TraceSpan span(&ContextTracer(ctx), "serve.compile");
  const auto start = std::chrono::steady_clock::now();

  // Re-parse the canonical text into a fresh signature the artifact owns:
  // interned ids become a pure function of the canonical form, and no
  // caller-visible signature is shared with the artifact.
  Result<Program> reparsed =
      ParseProgram(canonical, nullptr,
                   ctx != nullptr ? ctx->fault_registry() : nullptr);
  if (!reparsed.ok()) {
    out.status = reparsed.status();
    return out;
  }
  Program program = std::move(reparsed).value();

  ChaseOptions chase_opts;
  chase_opts.max_rounds = copts.max_rounds;
  chase_opts.max_facts = copts.max_facts;
  chase_opts.threads = copts.threads;
  chase_opts.context = ctx;
  ChaseResult chase = RunChase(program.theory, program.instance, chase_opts);
  // The chase charged its facts to the request context, which rolls up to
  // the server accountant. An admitted artifact is accounted by the cache
  // (artifact->bytes below), so the request's charge goes back on every
  // exit, as the pipeline does with its chase prefixes.
  if (ctx != nullptr) {
    ctx->memory().Release(chase.structure.ApproxAccountedBytes());
  }
  if (!chase.status.ok()) {
    out.status = chase.status;
    return out;
  }
  if (!chase.fixpoint_reached) {
    out.status = Status(StatusCode::kResourceExhausted,
                        "theory did not saturate within the compile budget");
    return out;
  }

  auto artifact = std::make_shared<Artifact>(std::move(program.theory),
                                             std::move(chase.structure));
  artifact->canonical_text = canonical;
  artifact->key = key;
  artifact->rounds = chase.rounds_run;
  // Accounted estimate: canonical bytes plus exactly what the chase
  // charged for its structure (released above) plus fixed overhead.
  artifact->bytes =
      canonical.size() + artifact->structure.ApproxAccountedBytes() + 4096;
  if (accountant_ != nullptr) accountant_->Charge(artifact->bytes);

  out.evicted = Admit(key, artifact);
  out.artifact = std::move(artifact);
  out.compiled = true;
  span.set_detail("facts " +
                  std::to_string(out.artifact->structure.NumFacts()));
  metrics.GetHistogram("bddfc.serve.compile_ms")
      ->Record(static_cast<uint64_t>(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count()));
  return out;
}

size_t ArtifactCache::Admit(uint64_t key,
                            std::shared_ptr<const Artifact> artifact) {
  size_t evicted = 0;
  std::lock_guard<std::mutex> lock(cache_mu_);
  entries_[key] = Entry{std::move(artifact), ++tick_};
  while (entries_.size() > capacity_) {
    auto lru = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) lru = it;
    }
    if (accountant_ != nullptr) {
      accountant_->Release(lru->second.artifact->bytes);
    }
    entries_.erase(lru);
    ++evicted;
  }
  return evicted;
}

}  // namespace bddfc::serve
