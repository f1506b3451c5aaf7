#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace cvcp {
namespace {

TEST(ExecutionContextTest, ZeroResolvesToHardwareConcurrency) {
  ExecutionContext context;
  EXPECT_EQ(context.threads, 0);
  EXPECT_GE(context.ResolvedThreads(), 1);
}

TEST(ExecutionContextTest, PositiveThreadsPassThrough) {
  ExecutionContext context;
  context.threads = 7;
  EXPECT_EQ(context.ResolvedThreads(), 7);
}

TEST(ExecutionContextTest, SerialForcesOneThread) {
  EXPECT_EQ(ExecutionContext::Serial().threads, 1);
  EXPECT_EQ(ExecutionContext::Serial().ResolvedThreads(), 1);
}

TEST(PlanBudgetTest, NestedSharesBudgetMultiplicativelyOnNarrowOuterLoops) {
  ExecutionContext exec;
  exec.threads = 8;
  const NestedBudget plan = PlanBudget(exec, /*outer_size=*/2);
  EXPECT_EQ(plan.outer.threads, 2);
  EXPECT_EQ(plan.inner.threads, 4);  // 2 lanes x 4 cells = the budget
}

TEST(PlanBudgetTest, WideOuterLoopsTakeTheWholeBudget) {
  ExecutionContext exec;
  exec.threads = 8;
  const NestedBudget plan = PlanBudget(exec, /*outer_size=*/50);
  EXPECT_EQ(plan.outer.threads, 8);
  EXPECT_EQ(plan.inner.threads, 1);
}

TEST(PlanBudgetTest, NestedCeilRoundsTheInnerShareUp) {
  ExecutionContext exec;
  exec.threads = 8;
  const NestedBudget plan = PlanBudget(exec, /*outer_size=*/3);
  EXPECT_EQ(plan.outer.threads, 3);
  EXPECT_EQ(plan.inner.threads, 3);  // ceil(8 / 3); never underfilled
}

TEST(PlanBudgetTest, NestedSerialBudgetStaysSerialEverywhere) {
  const NestedBudget plan =
      PlanBudget(ExecutionContext::Serial(), /*outer_size=*/100);
  EXPECT_EQ(plan.outer.threads, 1);
  EXPECT_EQ(plan.inner.threads, 1);
  // An empty or one-iteration outer loop still gets one lane, which
  // hands the whole budget inside.
  ExecutionContext exec;
  exec.threads = 6;
  for (size_t outer_size : {size_t{0}, size_t{1}}) {
    const NestedBudget single = PlanBudget(exec, outer_size);
    EXPECT_EQ(single.outer.threads, 1) << outer_size;
    EXPECT_EQ(single.inner.threads, 6) << outer_size;
  }
}

TEST(PlanBudgetTest, ReturnsResolvedCountsForZeroThreadBudget) {
  ExecutionContext exec;  // 0 = all hardware threads
  const int budget = exec.ResolvedThreads();
  for (size_t outer_size : {size_t{1}, size_t{2}, size_t{1'000'000}}) {
    const NestedBudget plan = PlanBudget(exec, outer_size);
    EXPECT_GE(plan.outer.threads, 1) << outer_size;
    EXPECT_GE(plan.inner.threads, 1) << outer_size;
    EXPECT_GE(plan.outer.threads * plan.inner.threads, budget) << outer_size;
  }
}

TEST(FirstErrorTrackerTest, TracksTheMinimumFailingIndex) {
  FirstErrorTracker tracker(100);
  EXPECT_FALSE(tracker.ShouldSkip(99));  // no failure yet
  tracker.Record(40);
  EXPECT_TRUE(tracker.ShouldSkip(41));
  EXPECT_FALSE(tracker.ShouldSkip(40));  // the failure itself
  EXPECT_FALSE(tracker.ShouldSkip(10));  // below: already claimed, runs
  tracker.Record(70);  // higher failure never raises the minimum
  EXPECT_TRUE(tracker.ShouldSkip(41));
  tracker.Record(5);
  EXPECT_TRUE(tracker.ShouldSkip(6));
  EXPECT_FALSE(tracker.ShouldSkip(5));
}

TEST(FirstErrorTrackerTest, SkipsNothingUnderConcurrentRecords) {
  // Records from many pool tasks must settle on the global minimum.
  FirstErrorTracker tracker(1000);
  ExecutionContext exec;
  exec.threads = 8;
  ParallelFor(exec, 1000, [&](size_t i) {
    if (i % 7 == 3) tracker.Record(i);
  });
  EXPECT_FALSE(tracker.ShouldSkip(3));
  EXPECT_TRUE(tracker.ShouldSkip(4));
}

TEST(ThreadPoolTest, SubmitReturnsFutureWithValue) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2);
  auto future = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, RunsManyTasksToCompletion) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ExceptionsSurfaceThroughFuture) {
  ThreadPool pool(1);
  auto future = pool.Submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SharedPoolHasAtLeastOneWorker) {
  EXPECT_GE(ThreadPool::Shared().num_threads(), 1);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ExecutionContext exec;
    exec.threads = threads;
    std::vector<int> visits(100, 0);
    ParallelFor(exec, visits.size(), [&](size_t i) { ++visits[i]; });
    for (size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i], 1) << "index " << i << ", threads " << threads;
    }
  }
}

TEST(ParallelForTest, EmptyAndSingleIterationWork) {
  ExecutionContext exec;
  exec.threads = 4;
  int calls = 0;
  ParallelFor(exec, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(exec, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, ResultsMatchSerialForAnyThreadCount) {
  std::vector<double> serial(257);
  ParallelFor(ExecutionContext::Serial(), serial.size(),
              [&](size_t i) { serial[i] = static_cast<double>(i * i) / 3.0; });
  for (int threads : {2, 3, 16}) {
    ExecutionContext exec;
    exec.threads = threads;
    std::vector<double> parallel(serial.size());
    ParallelFor(exec, parallel.size(), [&](size_t i) {
      parallel[i] = static_cast<double>(i * i) / 3.0;
    });
    EXPECT_EQ(parallel, serial) << "threads " << threads;
  }
}

TEST(ParallelForTest, NestedParallelForCompletesWithoutDeadlock) {
  ExecutionContext exec;
  exec.threads = 4;
  std::vector<int> sums(8, 0);
  ParallelFor(exec, sums.size(), [&](size_t i) {
    // The inner loop's lanes queue on the same pool its caller runs on;
    // help-while-waiting (waiters execute queued tasks instead of
    // blocking) is what makes this deadlock-free even when every worker
    // is itself inside an outer iteration.
    int sum = 0;
    std::mutex mu;
    // determinism: reduction(nested-test-int-sum)
    ParallelFor(exec, 10, [&](size_t j) {
      std::lock_guard<std::mutex> lock(mu);
      sum += static_cast<int>(j);
    });
    sums[i] = sum;
  });
  for (int sum : sums) EXPECT_EQ(sum, 45);
}

// Help-while-waiting stress: three nesting levels, every level wider than
// the budget, at budgets 1, 2, and 8 — far more queued lanes than pool
// workers. Any blocking wait in the scheduler would deadlock here (a
// hung test run is the failure mode); the counts prove every innermost
// iteration ran exactly once.
TEST(ParallelForTest, DeeplyNestedFanOutsCompleteAtEveryBudget) {
  for (int threads : {1, 2, 8}) {
    ExecutionContext exec;
    exec.threads = threads;
    constexpr size_t kOuter = 6, kMid = 5, kInner = 7;
    std::vector<int> visits(kOuter * kMid * kInner, 0);
    ParallelFor(exec, kOuter, [&](size_t i) {
      ParallelFor(exec, kMid, [&](size_t j) {
        ParallelFor(exec, kInner, [&](size_t k) {
          ++visits[(i * kMid + j) * kInner + k];
        });
      });
    });
    for (size_t v = 0; v < visits.size(); ++v) {
      EXPECT_EQ(visits[v], 1) << "slot " << v << ", threads " << threads;
    }
  }
}

// The same stress through the budget planner, the way the harness nests:
// outer lanes get PlanBudget's outer context, their bodies the inner
// share. Narrow outer (2) x wide inner (32) is exactly the shape the
// multiplicative plan exists for.
TEST(ParallelForTest, NestedPolicyBudgetsComposeWithoutDeadlock) {
  for (int threads : {1, 2, 8}) {
    ExecutionContext exec;
    exec.threads = threads;
    const NestedBudget plan = PlanBudget(exec, /*outer_size=*/2);
    std::vector<int> visits(2 * 32, 0);
    ParallelFor(plan.outer, 2, [&](size_t i) {
      ParallelFor(plan.inner, 32, [&](size_t j) { ++visits[i * 32 + j]; });
    });
    for (size_t v = 0; v < visits.size(); ++v) {
      EXPECT_EQ(visits[v], 1) << "slot " << v << ", threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, HelpWhileWaitingRunsPostedTasksOnTheCallingThread) {
  // A 1-worker pool whose worker is pinned by a long task: the only way
  // the posted tasks can finish before the pin is released is the caller
  // executing them itself inside HelpWhileWaiting.
  ThreadPool pool(1);
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  pool.Post([&] {
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  // Only post the counted tasks once the worker is provably inside the
  // pin task, so no thread but the caller can run them — and the caller
  // adopting the pin task (which only the worker may finish) is ruled
  // out.
  while (!pinned.load()) std::this_thread::yield();
  constexpr int kTasks = 16;
  for (int i = 0; i < kTasks; ++i) {
    pool.Post([&done, &pool] {
      done.fetch_add(1, std::memory_order_relaxed);
      pool.NotifyCompletion();
    });
  }
  pool.HelpWhileWaiting(
      [&done] { return done.load(std::memory_order_relaxed) == kTasks; });
  EXPECT_EQ(done.load(), kTasks);
  release.store(true);
}

TEST(ThreadPoolTest, TryRunOneTaskReportsAnEmptyQueue) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.TryRunOneTask());
}

TEST(ParallelForTest, BodyExceptionPropagates) {
  ExecutionContext exec;
  exec.threads = 4;
  EXPECT_THROW(ParallelFor(exec, 16,
                           [&](size_t i) {
                             if (i == 7) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, MoreThreadsThanIterationsIsFine) {
  ExecutionContext exec;
  exec.threads = 32;
  std::vector<int> visits(3, 0);
  ParallelFor(exec, visits.size(), [&](size_t i) { ++visits[i]; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 3);
}

}  // namespace
}  // namespace cvcp
