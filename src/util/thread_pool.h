// Fixed-size thread pool used to parallelise experiment replications and
// the profile-evaluation fan-outs.
//
// Design notes (Core Guidelines CP.*): work fans out only as index groups
// (parallelFor / parallelMap) whose tasks are plain std::function<void()>
// values moved into a mutex-protected queue; no shared mutable state
// escapes to callers, and parallelMap derives independent outputs per index
// so callers never need their own synchronisation. The free parallelMap
// below is the one fan-out for callers whose pool may be null.
//
// Group waits are counter-based and exception-safe: every task decrements
// the group counter even when it throws, the throwing task's exception is
// captured into a std::exception_ptr (the lowest-index one wins,
// deterministically), and the waiter rethrows only after *all* tasks of the
// group have finished. A throwing task therefore can neither hang the
// waiter on the counter nor let still-running siblings outlive the caller's
// stack frame (they may reference it by capture).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/check.h"

namespace dsct {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Groups this pool has handed to its workers so far. A group started
  /// inside a worker runs inline and is not counted.
  std::size_t groupsRun() const {
    return groupsRun_.load(std::memory_order_relaxed);
  }

  /// True when the calling thread is one of this pool's workers. Blocking on
  /// queued work from inside a worker would deadlock (the blocked worker is
  /// the one the queue needs), so re-entrant helpers must run inline instead.
  bool insideWorker() const { return currentPool() == this; }

  /// Run fn(i) for i in [0, n) on the pool and wait for every index to
  /// finish. fn must be callable concurrently from multiple threads. Safe to
  /// call from inside one of this pool's own workers (runs inline). If one
  /// or more tasks throw, the wait still completes — every task runs exactly
  /// once — and the exception thrown by the lowest index is rethrown to the
  /// caller afterwards.
  template <typename Fn>
  void parallelFor(std::size_t n, Fn fn) {
    if (n == 0) return;
    if (insideWorker()) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    groupsRun_.fetch_add(1, std::memory_order_relaxed);
    struct Group {
      std::mutex mutex;
      std::condition_variable done;
      std::size_t remaining;
      std::size_t errorIndex;
      std::exception_ptr error;
    };
    auto group = std::make_shared<Group>();
    group->remaining = n;
    group->errorIndex = n;
    for (std::size_t i = 0; i < n; ++i) {
      enqueue([group, fn, i] {
        std::exception_ptr err;
        try {
          fn(i);
        } catch (...) {
          err = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(group->mutex);
        if (err != nullptr && i < group->errorIndex) {
          group->errorIndex = i;
          group->error = err;
        }
        if (--group->remaining == 0) group->done.notify_all();
      });
    }
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(group->mutex);
      group->done.wait(lock, [&group] { return group->remaining == 0; });
      // Take ownership out of the group: the last worker may still be
      // releasing its Group reference after the notify, and the waiter —
      // not a worker — must perform the exception object's final release
      // (the caller reads it after rethrow).
      error = std::move(group->error);
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

  /// Apply fn(i) for i in [0, n) in parallel; returns results in index
  /// order. Built on parallelFor, so it shares its re-entrancy and
  /// exception-propagation contract. The result type must be
  /// default-constructible (slots are preallocated so workers never share a
  /// growing container).
  template <typename Fn>
  auto parallelMap(std::size_t n, Fn fn)
      -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
    using R = std::invoke_result_t<Fn, std::size_t>;
    std::vector<R> out(n);
    parallelFor(n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  /// The pool owning the current thread, or nullptr off the worker threads
  /// (thread-local; defined in thread_pool.cpp).
  static const ThreadPool*& currentPool();

  void enqueue(std::function<void()> task);

  void workerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;  ///< queue became non-empty / stopping
  bool stopping_ = false;
  std::atomic<std::size_t> groupsRun_{0};
};

/// fn(i) for i in [0, n), results in index order: on `pool` when one is
/// given and n > 1, otherwise inline on the calling thread in index order,
/// where an exception stops the loop (it is then the lowest index's). The
/// order of the results never depends on which path ran.
template <typename Fn>
auto parallelMap(ThreadPool* pool, std::size_t n, Fn fn)
    -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
  if (pool != nullptr && n > 1) return pool->parallelMap(n, std::move(fn));
  std::vector<std::invoke_result_t<Fn, std::size_t>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
  return out;
}

}  // namespace dsct
