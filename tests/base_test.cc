// Tests for the base utilities: Status, Result, Interner, hashing and the
// thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bddfc/base/interner.h"
#include "bddfc/base/status.h"
#include "bddfc/base/thread_pool.h"

namespace bddfc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  } cases[] = {
      {Status::InvalidArgument("a"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("b"), StatusCode::kNotFound, "NotFound"},
      {Status::AlreadyExists("c"), StatusCode::kAlreadyExists,
       "AlreadyExists"},
      {Status::ResourceExhausted("d"), StatusCode::kResourceExhausted,
       "ResourceExhausted"},
      {Status::FailedPrecondition("e"), StatusCode::kFailedPrecondition,
       "FailedPrecondition"},
      {Status::Unimplemented("f"), StatusCode::kUnimplemented,
       "Unimplemented"},
      {Status::Internal("g"), StatusCode::kInternal, "Internal"},
      {Status::Unknown("h"), StatusCode::kUnknown, "Unknown"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(std::string(StatusCodeName(c.code)), c.name);
    EXPECT_NE(c.status.ToString().find(c.name), std::string::npos);
  }
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValueTransfers) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 3);
}

Status FailThrough() { return Status::Internal("inner"); }

Status UsesReturnNotOk() {
  BDDFC_RETURN_NOT_OK(FailThrough());
  return Status::OK();
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> UsesAssignOrReturn(int x) {
  BDDFC_ASSIGN_OR_RETURN(int h, Half(x));
  return h + 1;
}

TEST(ResultTest, MacrosPropagateErrors) {
  EXPECT_EQ(UsesReturnNotOk().code(), StatusCode::kInternal);
  Result<int> ok = UsesAssignOrReturn(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 3);
  EXPECT_EQ(UsesAssignOrReturn(3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(InternerTest, InternIsIdempotentAndDense) {
  Interner in;
  int32_t a = in.Intern("alpha");
  int32_t b = in.Intern("beta");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(in.Intern("alpha"), a);
  EXPECT_EQ(in.size(), 2);
  EXPECT_EQ(in.NameOf(a), "alpha");
  EXPECT_EQ(in.Find("beta"), b);
  EXPECT_EQ(in.Find("gamma"), -1);
  EXPECT_TRUE(in.Contains("alpha"));
  EXPECT_FALSE(in.Contains("gamma"));
}

TEST(InternerTest, SurvivesManyInsertions) {
  Interner in;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.Intern("s" + std::to_string(i)), i);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.Find("s" + std::to_string(i)), i);
  }
}

TEST(InternerTest, FindInternsNothing) {
  Interner in;
  EXPECT_EQ(in.Find("alpha"), -1);
  EXPECT_EQ(in.size(), 0);
  bool inserted = false;
  EXPECT_EQ(in.Intern("alpha", &inserted), 0);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(in.Intern("alpha", &inserted), 0);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(in.Find("beta"), -1);
  EXPECT_FALSE(in.Contains("beta"));
  EXPECT_EQ(in.size(), 1);
}

TEST(InternerTest, TruncateAcrossTableGrowthRestoresEveryId) {
  Interner in;
  for (int i = 0; i < 5; ++i) in.Intern("keep" + std::to_string(i));
  // Past the mark, enough names to double the table several times.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.Intern("s" + std::to_string(i)), 5 + i);
  }
  in.TruncateTo(5);
  EXPECT_EQ(in.size(), 5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.Find("s" + std::to_string(i)), -1) << i;
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(in.Find("keep" + std::to_string(i)), i);
  }
  // Re-interning in another order hands out the freed ids in that order.
  for (int i = 999; i >= 0; --i) {
    EXPECT_EQ(in.Intern("s" + std::to_string(i)), 5 + (999 - i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.NameOf(in.Find("s" + std::to_string(i))),
              "s" + std::to_string(i));
  }
  in.TruncateTo(0);
  EXPECT_EQ(in.size(), 0);
  EXPECT_EQ(in.Find("keep0"), -1);
  EXPECT_EQ(in.Intern("keep0"), 0);
}

TEST(HashTest, HashRangeIsOrderSensitive) {
  std::vector<int> a = {1, 2, 3};
  std::vector<int> b = {3, 2, 1};
  EXPECT_NE(HashRange(a.begin(), a.end()), HashRange(b.begin(), b.end()));
  EXPECT_EQ(HashRange(a.begin(), a.end()), HashRange(a.begin(), a.end()));
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(64);
    for (size_t i = 0; i < hits.size(); ++i) {
      pool.Submit([&hits, i] {
        ++hits[i];
        return Status::OK();
      });
    }
    EXPECT_TRUE(pool.Wait().ok());
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, WaitAggregatesFirstFailureInSubmissionOrder) {
  ThreadPool pool(4);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([i] {
      if (i == 7) return Status::InvalidArgument("seven");
      if (i == 21) return Status::Internal("twenty-one");
      return Status::OK();
    });
  }
  Status st = pool.Wait();
  // Deterministic regardless of completion order: the earliest submitted
  // failure wins.
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "seven");
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 3; ++batch) {
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] {
        ++count;
        return Status::OK();
      });
    }
    EXPECT_TRUE(pool.Wait().ok());
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ThreadPoolTest, WaitOnEmptyPoolIsOk) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.Wait().ok());
  ThreadPool inline_pool(1);
  EXPECT_TRUE(inline_pool.Wait().ok());
}

TEST(ThreadPoolTest, DestructionDrainsQueuedWork) {
  // Work still queued when the pool is destroyed must run, not leak: the
  // destructor drains the queue before joining. Submit far more tasks
  // than threads and destroy without calling Wait().
  for (size_t threads : {2u, 8u}) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(threads);
      for (int i = 0; i < 200; ++i) {
        pool.Submit([&count] {
          ++count;
          return Status::OK();
        });
      }
      // No Wait(): destruction races the workers for the queue.
    }
    EXPECT_EQ(count.load(), 200) << "threads " << threads;
  }
}

TEST(ThreadPoolTest, InlinePoolDestructionRunsQueuedWork) {
  // A 1-thread pool has no workers at all — queued tasks normally run
  // inline in Wait(), so the destructor is the only thing left to run
  // them when Wait() was never called.
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] {
        ++count;
        return Status::OK();
      });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ShardHintedBacklogIsStolenByIdleWorkers) {
  // Home every task on one queue: the other workers' queues are empty,
  // so any work they do must come from stealing. Each task sleeps long
  // enough that one worker cannot drain the backlog alone before the
  // others wake up.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit(/*shard_hint=*/0, [&count] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++count;
      return Status::OK();
    });
  }
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(count.load(), 64);
  EXPECT_GT(pool.steal_count(), 0u);
}

TEST(ThreadPoolTest, ShardHintsSpreadAcrossQueuesDeterministically) {
  // Different hints land on different home queues; every task still runs
  // exactly once and statuses aggregate in submission order.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(48);
  for (size_t i = 0; i < hits.size(); ++i) {
    pool.Submit(/*shard_hint=*/i, [&hits, i] {
      ++hits[i];
      return i == 17 ? Status::Internal("seventeen") : Status::OK();
    });
  }
  Status st = pool.Wait();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ParallelForCoversTheRangeAndOrdersStatuses) {
  for (size_t threads : {1u, 4u}) {
    std::vector<int> out(100, 0);
    Status st = ParallelFor(out.size(), threads, [&out](size_t i) {
      out[i] = static_cast<int>(i) + 1;
      return i == 13 ? Status::Unknown("thirteen") : Status::OK();
    });
    EXPECT_EQ(st.code(), StatusCode::kUnknown);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) + 1);
    }
  }
}

}  // namespace
}  // namespace bddfc
