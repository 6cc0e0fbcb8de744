#include "bddfc/serve/server.h"

#include <chrono>

#include "bddfc/base/run_context.h"

namespace bddfc::serve {

ReasoningServer::ReasoningServer(const ServerOptions& options)
    : options_(options),
      cache_(options.cache_capacity, &root_ctx_.memory()) {
  root_ctx_.SetMemoryLimitBytes(options_.memory_limit_bytes);
  metrics_.set_enabled(true);
}

Session& ReasoningServer::GetSession(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(tenant);
  if (it == sessions_.end()) {
    it = sessions_
             .emplace(tenant, std::make_unique<Session>(
                                  tenant, options_.tracing,
                                  options_.trace_capacity))
             .first;
  }
  return *it->second;
}

obs::MetricsSnapshot ReasoningServer::SessionSnapshot(
    const std::string& tenant) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(tenant);
  return it == sessions_.end() ? obs::MetricsSnapshot{}
                               : it->second->metrics.Snapshot();
}

std::vector<std::string> ReasoningServer::Tenants() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<std::string> out;
  for (const auto& [name, s] : sessions_) out.push_back(name);
  return out;
}

Response ReasoningServer::Handle(const Request& request) {
  // Introspection requests bypass admission: they must answer even (and
  // especially) when the server is saturated.
  if (request.kind == Request::Kind::kHealth) {
    return Response{Status::OK(), "ok"};
  }
  if (request.kind == Request::Kind::kMetrics) {
    return Response{Status::OK(),
                    request.tenant.empty()
                        ? MetricsText()
                        : SessionSnapshot(request.tenant).ToText()};
  }

  Session& session = GetSession(request.tenant);

  // Admission control: shed on the concurrency cap or an over-budget
  // server accountant, counting the shed identically on the session and
  // the server so the reconciliation invariant covers sheds too.
  const size_t active = active_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const bool over_concurrency =
      options_.max_concurrent != 0 && active > options_.max_concurrent;
  const bool over_memory = root_ctx_.memory().OverBudget();
  if (over_concurrency || over_memory) {
    active_.fetch_sub(1, std::memory_order_acq_rel);
    session.metrics.GetCounter("bddfc.serve.shed")->Add(1);
    metrics_.GetCounter("bddfc.serve.shed")->Add(1);
    return Response{
        Status::ResourceExhausted(over_concurrency
                                      ? "server overloaded (concurrency cap)"
                                      : "server overloaded (memory budget)"),
        "shed"};
  }
  session.requests.fetch_add(1, std::memory_order_relaxed);

  // The request's execution contract: a child of the server root (bytes
  // carve out of the server budget; a latched trip stays on the child),
  // a request deadline, a RunContext pointing engines at the
  // request-scoped registry and the session ring, and the session's
  // fault registry.
  obs::MetricsRegistry req_metrics;
  req_metrics.set_enabled(true);
  std::unique_ptr<ExecutionContext> ctx =
      root_ctx_.CreateChild(options_.request_memory_limit_bytes);
  double deadline = options_.request_deadline_ms;
  if (request.deadline_ms > 0 &&
      (deadline == 0 || request.deadline_ms < deadline)) {
    deadline = request.deadline_ms;
  }
  if (deadline > 0) ctx->SetDeadlineAfterMs(deadline);
  RunContext rc;
  rc.metrics = &req_metrics;
  rc.tracer = &session.tracer;
  ctx->SetRunContext(&rc);
  ctx->SetFaultRegistry(&session.faults);

  const auto start = std::chrono::steady_clock::now();
  Response response = Dispatch(request, ctx.get(), req_metrics);

  req_metrics.GetCounter("bddfc.serve.requests")->Add(1);
  if (!response.ok()) {
    req_metrics.GetCounter("bddfc.serve.errors")->Add(1);
  }
  req_metrics.GetHistogram("bddfc.serve.request_ms")
      ->Record(static_cast<uint64_t>(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count()));

  // Double-fold: the request registry flows into the session's cumulative
  // registry and the server totals. Per-session sums therefore equal the
  // server's for every counter name, by construction.
  const obs::MetricsSnapshot snap = req_metrics.Snapshot();
  session.metrics.MergeFrom(snap);
  metrics_.MergeFrom(snap);

  active_.fetch_sub(1, std::memory_order_acq_rel);
  return response;
}

Response ReasoningServer::Dispatch(const Request& request,
                                   ExecutionContext* ctx,
                                   obs::MetricsRegistry& req_metrics) {
  switch (request.kind) {
    case Request::Kind::kLoad: {
      ArtifactCache::Outcome got =
          cache_.GetOrCompile(request.payload, ctx, req_metrics,
                              options_.compile);
      req_metrics.GetCounter("bddfc.serve.loads")->Add(1);
      if (!got.status.ok()) {
        req_metrics.GetCounter("bddfc.serve.load_failures")->Add(1);
        return Response{got.status, got.status.message()};
      }
      req_metrics
          .GetCounter(got.hit ? "bddfc.serve.cache_hits"
                              : "bddfc.serve.cache_misses")
          ->Add(1);
      if (got.compiled) {
        req_metrics.GetCounter("bddfc.serve.compiles")->Add(1);
      }
      if (got.evicted != 0) {
        req_metrics.GetCounter("bddfc.serve.evictions")->Add(got.evicted);
      }
      return Response{
          Status::OK(),
          "key=" + KeyToHex(got.artifact->key) +
              " facts=" + std::to_string(got.artifact->structure.NumFacts()) +
              " rounds=" + std::to_string(got.artifact->rounds) +
              (got.hit ? " cached=hit" : " cached=miss")};
    }
    case Request::Kind::kQuery:
    case Request::Kind::kRewrite: {
      std::shared_ptr<const Artifact> artifact = cache_.Find(request.key);
      if (artifact == nullptr) {
        req_metrics.GetCounter("bddfc.serve.unknown_artifact")->Add(1);
        return Response{Status::NotFound("unknown artifact " +
                                         KeyToHex(request.key)),
                        "unknown artifact"};
      }
      if (request.kind == Request::Kind::kQuery) {
        req_metrics.GetCounter("bddfc.serve.queries")->Add(1);
        obs::TraceSpan span(&ctx->tracer(), "serve.query");
        Result<bool> answer = artifact->EvalBoolean(request.payload);
        if (!answer.ok()) {
          return Response{answer.status(), answer.status().message()};
        }
        return Response{Status::OK(), answer.value() ? "true" : "false"};
      }
      req_metrics.GetCounter("bddfc.serve.rewrites")->Add(1);
      obs::TraceSpan span(&ctx->tracer(), "serve.rewrite");
      RewriteOptions opts = options_.rewrite;
      opts.context = ctx;
      Result<std::string> body = artifact->RewriteFor(request.payload, opts);
      if (!body.ok()) {
        return Response{body.status(), body.status().message()};
      }
      return Response{Status::OK(), body.value()};
    }
    case Request::Kind::kMetrics:
    case Request::Kind::kHealth:
      break;  // handled before admission
  }
  return Response{Status::InvalidArgument("unhandled request kind"),
                  "bad request"};
}

}  // namespace bddfc::serve
