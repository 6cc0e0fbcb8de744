#include "bddfc/base/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bddfc/obs/trace.h"

namespace bddfc {

size_t DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Status ParallelFor(size_t n, size_t threads,
                   const std::function<Status(size_t, size_t)>& fn,
                   ExecutionContext* ctx) {
  // The caller's innermost span and its tracer: every task re-parents
  // there, whichever thread runs it.
  const bool traced = threads > 1;
  const uint64_t parent = obs::Tracer::CurrentSpanId();
  obs::Tracer* const tracer = obs::Tracer::CurrentTracer();
  std::vector<Status> statuses(n);
  std::atomic<size_t> cursor{0};
  std::atomic<bool> stopped{false};
  auto drain = [&](size_t worker) {
    for (size_t i; (i = cursor.fetch_add(1, std::memory_order_relaxed)) < n;) {
      if (ctx != nullptr && ctx->Exhausted()) {
        // The first worker to stop records the call's one check.
        if (!stopped.exchange(true, std::memory_order_relaxed)) {
          statuses[i] = ctx->CheckPoint("ParallelFor");
        }
        return;
      }
      if (traced) {
        obs::TraceSpan span(tracer, "pool.task", parent);
        statuses[i] = fn(i, worker);
      } else {
        statuses[i] = fn(i, worker);
      }
    }
  };
  {
    // jthreads join on every exit from this block, before the state they
    // read goes out of scope.
    std::vector<std::jthread> helpers;
    for (size_t w = 1; w < std::min(threads, n); ++w) {
      helpers.emplace_back(drain, w);
    }
    drain(0);
  }
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

}  // namespace bddfc
