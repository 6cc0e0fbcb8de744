#include "bddfc/base/thread_pool.h"

#include <algorithm>

namespace bddfc {

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(std::max<size_t>(1, num_threads)),
      queues_(num_threads_) {
  if (num_threads_ == 1) return;  // inline mode: no workers
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) {
    // Inline mode: run queued-but-unstarted tasks here so destruction
    // drains the queue exactly like the worker shutdown path below.
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    while (RunOneLocked(lock, 0)) {
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<Status()> task) {
  // Round-robin keeps hint-less batches balanced across queues.
  Submit(round_robin_.fetch_add(1, std::memory_order_relaxed),
         std::move(task));
}

void ThreadPool::Submit(size_t shard_hint, std::function<Status()> task) {
  const uint64_t parent = obs::Tracer::CurrentSpanId();
  obs::Tracer* const tracer = obs::Tracer::CurrentTracer();
  {
    std::unique_lock<std::mutex> lock(mu_);
    queues_[shard_hint % num_threads_].push_back(
        {next_index_++, parent, tracer, std::move(task)});
    statuses_.emplace_back();  // slot for this task's Status
    ++queued_;
    ++in_flight_;
  }
  work_ready_.notify_one();
}

bool ThreadPool::RunOneLocked(std::unique_lock<std::mutex>& lock,
                              size_t worker) {
  if (queued_ == 0) return false;
  QueuedTask qt;
  if (!queues_[worker].empty()) {
    qt = std::move(queues_[worker].front());
    queues_[worker].pop_front();
  } else {
    // Steal from the back of the longest victim queue: the victim keeps
    // its oldest (cache-warm) work, the thief takes the newest backlog.
    size_t victim = worker;
    size_t longest = 0;
    for (size_t i = 0; i < queues_.size(); ++i) {
      if (queues_[i].size() > longest) {
        longest = queues_[i].size();
        victim = i;
      }
    }
    qt = std::move(queues_[victim].back());
    queues_[victim].pop_back();
    ++steals_;
  }
  --queued_;
  if (cancel_.cancelled()) {
    // Drain without running: the batch unwinds as fast as the in-flight
    // tasks reach their own cooperative check-points.
    statuses_[qt.index] = Status::ResourceExhausted("cancelled before start");
    if (--in_flight_ == 0) batch_done_.notify_all();
    return true;
  }
  lock.unlock();
  Status st;
  {
    // Re-parent the task's spans under the span that submitted it, in
    // that span's ring.
    obs::TraceSpan span(qt.tracer, "pool.task", qt.parent_span);
    st = qt.fn();
  }
  lock.lock();
  statuses_[qt.index] = std::move(st);
  if (--in_flight_ == 0) batch_done_.notify_all();
  return true;
}

void ThreadPool::WorkerLoop(size_t worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return shutdown_ || queued_ > 0; });
    if (queued_ == 0) {
      if (shutdown_) return;
      continue;
    }
    RunOneLocked(lock, worker);
  }
}

Status ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (workers_.empty()) {
    while (RunOneLocked(lock, 0)) {
    }
  } else {
    batch_done_.wait(lock, [this] { return in_flight_ == 0; });
  }
  Status first;
  for (Status& st : statuses_) {
    if (first.ok() && !st.ok()) first = st;
  }
  statuses_.clear();
  next_index_ = 0;
  return first;
}

size_t ThreadPool::steal_count() const {
  std::unique_lock<std::mutex> lock(mu_);
  return steals_;
}

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Status ParallelFor(size_t n, size_t threads,
                   const std::function<Status(size_t)>& fn,
                   ExecutionContext* ctx) {
  if (threads <= 1 || n <= 1) {
    Status first;
    for (size_t i = 0; i < n; ++i) {
      if (ctx != nullptr && ctx->Exhausted()) {
        Status st = ctx->CheckPoint("ParallelFor");
        if (first.ok() && !st.ok()) first = std::move(st);
        break;
      }
      Status st = fn(i);
      if (first.ok() && !st.ok()) first = std::move(st);
    }
    return first;
  }
  ThreadPool pool(std::min(threads, n));
  if (ctx != nullptr) pool.SetCancelToken(ctx->cancel_token());
  for (size_t i = 0; i < n; ++i) {
    pool.Submit([&fn, ctx, i] {
      if (ctx != nullptr && ctx->Exhausted()) {
        return ctx->CheckPoint("ParallelFor");
      }
      return fn(i);
    });
  }
  return pool.Wait();
}

}  // namespace bddfc
