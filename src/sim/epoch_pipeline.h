// Background solve lane for the serving loop's double-buffered epochs.
//
// One worker thread (a PR 4 bounded-queue ThreadPool of size 1) runs epoch
// solves off the driver thread: while epoch k's schedule executes on the
// simulated cluster, epoch k+1's solve is already in flight. The driver
// always drains the returned future before reusing any of the referenced
// state — deadlines are enforced by the cooperative CancelToken inside the
// SolveContext, never by abandoning the future — so at most one background
// solve exists at a time and shared resources (the LP warm-start slot, the
// solver worker pool) are never touched from two threads at once.
#pragma once

#include <future>

#include "core/solver_api.h"
#include "sched/types.h"
#include "util/thread_pool.h"

namespace dsct::sim {

class AsyncSolvePipeline {
 public:
  AsyncSolvePipeline();

  /// Run `solver.solve(inst, context)` on the pipeline thread. The caller
  /// must keep `solver`, `inst`, and `context` (including the CancelToken
  /// that `context.cancel` points at) alive until the future is drained;
  /// exceptions thrown by the solve propagate out of `future::get()`.
  std::future<SolveOutcome> submit(const Solver& solver, const Instance& inst,
                                   const SolveContext& context);

 private:
  ThreadPool pool_;
};

}  // namespace dsct::sim
