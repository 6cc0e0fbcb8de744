// Tests for the base utilities: Status, Result, Interner, hashing and
// ParallelFor.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bddfc/base/interner.h"
#include "bddfc/base/parallel.h"
#include "bddfc/base/status.h"

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
    EXPECT_EQ(in.Intern('s' + std::to_string(i)), i);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.Find('s' + std::to_string(i)), i);
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
    EXPECT_EQ(in.Intern('s' + std::to_string(i)), 5 + i);
  }
  in.TruncateTo(5);
  EXPECT_EQ(in.size(), 5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.Find('s' + std::to_string(i)), -1) << i;
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(in.Find("keep" + std::to_string(i)), i);
  }
  // Re-interning in another order hands out the freed ids in that order.
  for (int i = 999; i >= 0; --i) {
    EXPECT_EQ(in.Intern('s' + std::to_string(i)), 5 + (999 - i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.NameOf(in.Find('s' + std::to_string(i))),
              's' + std::to_string(i));
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

// The ThreadPoolTest suite keeps the name it had when a thread pool ran
// the library's fan-out; its tests now cover ParallelFor, which replaced
// the pool.

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  // Every index runs exactly once at every thread count, including more
  // threads than indexes.
  for (size_t n : {1u, 3u, 64u}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      std::vector<std::atomic<int>> hits(n);
      Status st = ParallelFor(n, threads, [&hits](size_t i, size_t) {
        ++hits[i];
        return Status::OK();
      });
      EXPECT_TRUE(st.ok()) << "n " << n << " threads " << threads;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " n " << n << " threads " << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, EachWorkerRunsOneIndexAtATime) {
  // fn learns the worker that runs its index: a number below
  // min(threads, n) that runs one index at a time, so a caller's
  // per-worker slots need no lock. One thread is worker 0, running every
  // index in ascending order.
  for (size_t n : {3u, 64u}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      const size_t workers = std::min(threads, n);
      std::vector<std::atomic<int>> busy(workers);
      std::vector<size_t> worker_of(n, workers);
      std::vector<size_t> order;
      std::mutex order_mu;
      std::atomic<int> overlaps{0};
      Status st = ParallelFor(n, threads, [&](size_t i, size_t worker) {
        if (worker >= workers) return Status::Internal("worker out of range");
        if (busy[worker].exchange(1) != 0) ++overlaps;
        worker_of[i] = worker;
        {
          std::lock_guard<std::mutex> lock(order_mu);
          order.push_back(i);
        }
        std::this_thread::yield();
        busy[worker].store(0);
        return Status::OK();
      });
      const std::string where =
          "n " + std::to_string(n) + " threads " + std::to_string(threads);
      EXPECT_TRUE(st.ok()) << where << ": " << st.ToString();
      EXPECT_EQ(overlaps.load(), 0) << where;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_LT(worker_of[i], workers) << where << " index " << i;
      }
      if (threads == 1) {
        std::vector<size_t> ascending(n);
        for (size_t i = 0; i < n; ++i) ascending[i] = i;
        EXPECT_EQ(order, ascending) << where;
        EXPECT_EQ(worker_of, std::vector<size_t>(n, 0)) << where;
      }
    }
  }
}

TEST(ThreadPoolTest, WaitAggregatesFirstFailureInSubmissionOrder) {
  // Whatever the completion order, the failure at the lowest index wins.
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    Status st = ParallelFor(32, threads, [](size_t i, size_t) {
      if (i == 7) return Status::InvalidArgument("seven");
      if (i == 21) return Status::Internal("twenty-one");
      return Status::OK();
    });
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "threads " << threads;
    EXPECT_EQ(st.message(), "seven") << "threads " << threads;
  }
}

TEST(ThreadPoolTest, WaitOnEmptyPoolIsOk) {
  // An empty range is OK and calls fn never, at every thread count.
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::atomic<int> calls{0};
    Status st = ParallelFor(0, threads, [&calls](size_t, size_t) {
      ++calls;
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << "threads " << threads;
    EXPECT_EQ(calls.load(), 0) << "threads " << threads;
  }
}

TEST(ThreadPoolTest, ParallelForCoversTheRangeAndOrdersStatuses) {
  // Failing tasks do not stop the others, and the failure at the lowest
  // index is the one returned.
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<int> out(100, 0);
    Status st = ParallelFor(out.size(), threads, [&out](size_t i, size_t) {
      out[i] = static_cast<int>(i) + 1;
      if (i == 13) return Status::Unknown("thirteen");
      if (i == 71) return Status::Internal("seventy-one");
      return Status::OK();
    });
    EXPECT_EQ(st.code(), StatusCode::kUnknown) << "threads " << threads;
    EXPECT_EQ(st.message(), "thirteen") << "threads " << threads;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) + 1);
    }
  }
}

}  // namespace
}  // namespace bddfc
