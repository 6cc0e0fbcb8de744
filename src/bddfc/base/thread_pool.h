// Fixed-size thread pool for fanning out independent work items.
//
// The library is exception-free: tasks report failure through the Status
// they return, and the pool aggregates per-task statuses deterministically
// (indexed by submission order, scanned in that order by Wait), so a run's
// outcome does not depend on thread scheduling. A pool constructed with
// one thread executes tasks inline on Wait(), making `threads = 1` an
// exact serial baseline with no thread startup cost.
//
// Work distribution: each worker owns a deque. Submit(shard_hint, task)
// pins a task's home queue by hint (e.g. the chase hashes its anchor
// predicate/chunk, so one relation's scan stays on one worker while it
// lasts); the hint-less Submit round-robins. A worker drains its own queue
// first and, when empty, steals from the back of the longest victim queue
// — so one hot shard's backlog spreads instead of serializing the round.
// All queue state sits under the single pool mutex: tasks are chase-round
// scans and rewrite batches, far coarser than the lock, and the simple
// scheme is trivially TSan-clean.

#ifndef BDDFC_BASE_THREAD_POOL_H_
#define BDDFC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/status.h"

namespace bddfc {

/// A fixed set of worker threads draining per-worker work queues with
/// stealing.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (clamped to >= 1). With exactly one
  /// thread no worker is spawned; tasks run inline in Wait().
  explicit ThreadPool(size_t num_threads);

  /// Attaches a cancellation token: once it flips, queued tasks are
  /// drained without running (their slot records ResourceExhausted) while
  /// in-flight tasks keep running until their own cooperative check-points
  /// observe the same token. Call before submitting a batch.
  void SetCancelToken(CancelToken token) { cancel_ = std::move(token); }

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task on the next queue round-robin. The returned Status is
  /// recorded under the task's submission index for deterministic
  /// aggregation in Wait(). The submitting thread's innermost span id and
  /// its tracer are captured here and the task runs under a "pool.task"
  /// span parented to it in that tracer, so a fan-out's per-task spans nest
  /// under the span that submitted them, in the same ring, even though
  /// they execute on worker threads.
  void Submit(std::function<Status()> task);

  /// Like Submit, but homes the task on queue `shard_hint % num_threads`:
  /// tasks sharing a hint run in submission order on one worker unless
  /// stolen, which keeps a shard's scan cache-warm while still letting
  /// idle workers steal the backlog of a skewed shard.
  void Submit(size_t shard_hint, std::function<Status()> task);

  /// Blocks until every submitted task has finished and returns the first
  /// non-OK Status in submission order (OK when all succeeded). Resets the
  /// aggregation state so the pool can be reused for another batch.
  Status Wait();

  size_t num_threads() const { return num_threads_; }

  /// Tasks executed by stealing (taken from a queue other than the
  /// runner's own) since construction. For tests and scheduling stats.
  size_t steal_count() const;

  /// A reasonable default worker count: hardware concurrency, at least 1.
  static size_t DefaultThreads();

 private:
  void WorkerLoop(size_t worker);
  /// Pops and runs one task for `worker` (own queue first, then the back
  /// of the longest victim queue); returns false when all queues are empty.
  bool RunOneLocked(std::unique_lock<std::mutex>& lock, size_t worker);

  const size_t num_threads_;
  CancelToken cancel_;  // drained tasks short-circuit once cancelled
  std::atomic<size_t> round_robin_{0};  // hint source for hint-less Submit
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  struct QueuedTask {
    size_t index;
    uint64_t parent_span;  // submitting thread's span id (0 = none)
    obs::Tracer* tracer;   // that span's tracer (null = none)
    std::function<Status()> fn;
  };
  std::vector<std::deque<QueuedTask>> queues_;  // one per worker
  size_t queued_ = 0;                           // tasks across all queues
  size_t steals_ = 0;
  std::vector<Status> statuses_;  // indexed by submission order
  size_t next_index_ = 0;
  size_t in_flight_ = 0;  // queued + currently running tasks
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in [0, n) on `threads` workers and returns the
/// first non-OK Status in index order. With threads <= 1 the loop runs
/// inline. Callers get determinism by writing results[i] from task i.
///
/// With a non-null `ctx`, the fan-out is governed: tasks not yet started
/// when the context trips (deadline, memory, cancellation) are skipped —
/// their slot records the context's ResourceExhausted — and in-flight
/// tasks are expected to observe the same context at their own
/// check-points. The inline (threads <= 1) path honors the same contract.
Status ParallelFor(size_t n, size_t threads,
                   const std::function<Status(size_t)>& fn,
                   ExecutionContext* ctx = nullptr);

}  // namespace bddfc

#endif  // BDDFC_BASE_THREAD_POOL_H_
