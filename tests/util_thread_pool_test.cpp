// Property and regression tests for the exception-propagating ThreadPool
// and the parallelMap fan-out beside it (util/thread_pool.h).
//
// The pool's contract under stress: every task runs exactly once; group
// waits (parallelFor / parallelMap) terminate even when tasks throw, and
// rethrow the lowest-index exception after the whole group has finished;
// a group started inside a worker runs inline instead of deadlocking. The
// randomized sequences are seeded, so a failure replays deterministically.
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dsct {
namespace {

TEST(ThreadPoolProperty, RandomizedSubmitWaitRunsEveryTaskExactlyOnce) {
  // Seeded random mixes of parallelFor groups and re-entrant nested groups.
  // Each task owns one slot of `runs`, so "exactly once" is checkable, and
  // the whole sequence must finish inside a generous wall-clock bound (a
  // deadlock would hang it forever).
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Stopwatch watch;
    ThreadPool pool(static_cast<std::size_t>(rng.uniformInt(1, 12)));
    constexpr int kSlots = 1500;
    std::vector<std::atomic<int>> runs(kSlots);
    int next = 0;
    while (next < kSlots) {
      switch (rng.uniformInt(0, 1)) {
        case 0: {  // group wait
          const int count = std::min(kSlots - next, rng.uniformInt(1, 64));
          const int base = next;
          next += count;
          pool.parallelFor(static_cast<std::size_t>(count),
                           [&runs, base](std::size_t k) {
                             ++runs[base + static_cast<int>(k)];
                           });
          break;
        }
        default: {  // nested groups: inner parallelFor from inside a worker
          const int outer = rng.uniformInt(1, 4);
          const int inner = rng.uniformInt(1, 8);
          if (next + outer * inner > kSlots) continue;
          const int base = next;
          next += outer * inner;
          pool.parallelFor(
              static_cast<std::size_t>(outer), [&](std::size_t g) {
                pool.parallelFor(
                    static_cast<std::size_t>(inner), [&](std::size_t c) {
                      ++runs[base + static_cast<int>(g) * inner +
                             static_cast<int>(c)];
                    });
              });
          break;
        }
      }
    }
    for (int i = 0; i < kSlots; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "slot " << i;
    }
    EXPECT_LT(watch.elapsedSeconds(), 60.0) << "sequence took suspiciously "
                                               "long — livelock?";
  }
}

TEST(ThreadPoolRegression, ThrowingTaskPropagatesInsteadOfHangingTheWaiter) {
  // Regression for the silent-swallow failure mode: a task that throws must
  // still decrement the group counter, so the waiter returns — and it must
  // receive the exception rather than a silent success.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(64,
                                [](std::size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives the throw and stays fully usable.
  const auto out =
      pool.parallelMap(16, [](std::size_t i) { return static_cast<int>(i); });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ThreadPoolProperty, AllTasksRunExactlyOnceEvenWhenSomeThrow) {
  // An exception cancels nothing: siblings may reference the caller's stack,
  // so the waiter must not return (or rethrow) before every task ran.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> runs(200);
  EXPECT_THROW(pool.parallelFor(200,
                                [&runs](std::size_t i) {
                                  ++runs[i];
                                  if (i % 17 == 3) {
                                    throw std::invalid_argument("x");
                                  }
                                }),
               std::invalid_argument);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPoolProperty, LowestIndexExceptionWinsDeterministically) {
  // Multiple tasks throw; which finishes first depends on scheduling, but
  // the waiter must always see the lowest index's exception.
  ThreadPool pool(8);
  for (int rep = 0; rep < 25; ++rep) {
    try {
      pool.parallelFor(48, [](std::size_t i) {
        if (i % 5 == 2) {
          throw std::runtime_error("e" + std::to_string(i));
        }
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "e2");
    }
  }
}

TEST(ThreadPoolProperty, ParallelMapStillExactAfterExceptionRounds) {
  // Interleave throwing and clean rounds on one pool: results of the clean
  // rounds stay exact and ordered.
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    if (round % 2 == 1) {
      EXPECT_THROW(pool.parallelFor(20,
                                    [](std::size_t i) {
                                      if (i == 0) throw std::logic_error("r");
                                    }),
                   std::logic_error);
      continue;
    }
    const auto out = pool.parallelMap(
        40, [round](std::size_t i) { return 100 * round + static_cast<int>(i); });
    ASSERT_EQ(out.size(), 40u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], 100 * round + static_cast<int>(i));
    }
  }
}

TEST(ThreadPoolProperty, HugeGroupFromOutsideCompletesInIndexOrder) {
  // 100,000 indices from a non-worker thread, far more than the workers
  // can drain while the caller queues them: the queue takes the whole
  // group, runs every index once and returns the results in index order.
  ThreadPool pool(2);
  constexpr std::size_t kIndices = 100000;
  ASSERT_FALSE(pool.insideWorker());
  std::vector<std::atomic<int>> runs(kIndices);
  const std::vector<std::size_t> out =
      pool.parallelMap(kIndices, [&runs](std::size_t i) {
        ++runs[i];
        return 3 * i + 1;
      });
  ASSERT_EQ(out.size(), kIndices);
  for (std::size_t i = 0; i < kIndices; ++i) {
    ASSERT_EQ(out[i], 3 * i + 1) << "index " << i;
    ASSERT_EQ(runs[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(pool.groupsRun(), 1u);
}

TEST(ThreadPoolParallelMap, NullPoolRunsInlineInIndexOrder) {
  // Without a pool the helper is a plain loop on the calling thread: the
  // indices run in order, and an exception stops it, so the one rethrown is
  // the lowest throwing index's.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> visited;
  const std::vector<int> out =
      parallelMap(nullptr, 6, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        visited.push_back(i);
        return 10 * static_cast<int>(i);
      });
  EXPECT_EQ(out, (std::vector<int>{0, 10, 20, 30, 40, 50}));
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));

  visited.clear();
  try {
    parallelMap(nullptr, 8, [&](std::size_t i) -> int {
      visited.push_back(i);
      if (i == 3 || i == 5) throw std::runtime_error("e" + std::to_string(i));
      return 0;
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "e3");
  }
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPoolParallelMap, PoolRunsOnlyGroupsOfMoreThanOneIndex) {
  // With a pool, a group of two or more indices goes to the workers and
  // is counted; a single index runs inline on the caller, uncounted. The
  // results are index-ordered either way.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<int> single = parallelMap(&pool, 1, [&](std::size_t) {
    return std::this_thread::get_id() == caller ? 1 : 0;
  });
  EXPECT_EQ(single, std::vector<int>{1});
  EXPECT_EQ(pool.groupsRun(), 0u);
  EXPECT_TRUE(parallelMap(&pool, 0, [](std::size_t) { return 1; }).empty());
  EXPECT_EQ(pool.groupsRun(), 0u);

  // int, not bool: workers write neighbouring slots concurrently, which a
  // bit-packed std::vector<bool> cannot take.
  const std::vector<int> onWorkers = parallelMap(
      &pool, 16, [&](std::size_t) { return pool.insideWorker() ? 1 : 0; });
  EXPECT_EQ(onWorkers, std::vector<int>(16, 1));
  EXPECT_EQ(pool.groupsRun(), 1u);

  // A group started inside a worker runs inline there and is not counted.
  pool.parallelFor(4, [&](std::size_t) {
    const std::vector<int> inner =
        parallelMap(&pool, 8, [](std::size_t k) { return static_cast<int>(k); });
    EXPECT_EQ(inner.back(), 7);
  });
  EXPECT_EQ(pool.groupsRun(), 2u);
}

}  // namespace
}  // namespace dsct
