// Fork-join fan-out: ParallelFor is the one way the library runs work on
// several threads (the sharded chase round, the rewriter's probe batches).
//
// The library is exception-free: a task reports failure through the
// Status it returns. Each index's Status lands in its own slot and the
// call returns the first non-OK one in index order, so a run's outcome
// does not depend on thread scheduling. Callers get determinism the same
// way: task i writes results[i], and the caller folds the slots in index
// order after the call.
//
// Each call is a self-contained fork-join: the caller and at most
// threads - 1 std::threads, started and joined inside the call, take
// indexes from one atomic cursor in ascending order. Nothing outlives the
// call — no queues, no idle workers, no shutdown. Each of these workers
// has a number, and fn learns which worker runs its index, so a caller
// can keep one output slot per worker instead of one per index.

#ifndef BDDFC_BASE_PARALLEL_H_
#define BDDFC_BASE_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "bddfc/base/governor.h"
#include "bddfc/base/status.h"

namespace bddfc {

/// A reasonable default thread count: hardware concurrency, at least 1.
size_t DefaultThreads();

/// Runs fn(i, worker) for every i in [0, n) on min(threads, n) workers —
/// the caller (worker 0) plus at most threads - 1 threads started and
/// joined here (workers 1, 2, ...) — and returns the first non-OK Status
/// in index order. A worker runs one index at a time, so fn may write
/// slot `worker` of a per-worker array without a lock; which worker gets
/// which index depends on scheduling, except at one worker, which runs
/// every index in ascending order.
///
/// Governance: with a non-null `ctx`, a thread checks ctx->Exhausted()
/// before it runs an index. Once the context has tripped (deadline,
/// memory, cancellation, fault), the thread takes no more indexes, so
/// later indexes never start; tasks in flight observe the same context at
/// their own check-points. The first thread to stop records one
/// ctx->CheckPoint() at the index it took, so a tripped call adds exactly
/// one to cancel_checks at any thread count, and its trip status takes
/// part in the first-non-OK rule.
///
/// Tracing: at threads <= 1 tasks run on the caller with no span. Above
/// one thread every task runs under a "pool.task" span whose parent is
/// the caller's innermost span at entry, recorded to that span's tracer,
/// so a fan-out's task spans nest under the span that started it even
/// when they run on other threads.
Status ParallelFor(size_t n, size_t threads,
                   const std::function<Status(size_t, size_t)>& fn,
                   ExecutionContext* ctx = nullptr);

}  // namespace bddfc

#endif  // BDDFC_BASE_PARALLEL_H_
