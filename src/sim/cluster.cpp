#include "sim/cluster.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/check.h"

namespace dsct::sim {

namespace {

/// A task's finish on its machine; min-heap by (time, machine, sequence).
struct Finish {
  double time;
  int machine;
  long sequence;
  int task;
  double flops;
  bool interrupted;
};

struct Later {
  bool operator()(const Finish& a, const Finish& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.machine != b.machine) return a.machine > b.machine;
    return a.sequence > b.sequence;
  }
};

}  // namespace

double FaultContext::cutSeconds(int machine) const {
  if (energyCutSeconds.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  DSCT_CHECK(machine >= 0 &&
             machine < static_cast<int>(energyCutSeconds.size()));
  return energyCutSeconds[static_cast<std::size_t>(machine)];
}

ExecutionResult executeSchedule(const Instance& inst,
                                const IntegralSchedule& schedule,
                                const FaultContext& faults) {
  DSCT_CHECK(schedule.numTasks() == inst.numTasks());
  ExecutionResult result;
  result.executions.assign(static_cast<std::size_t>(inst.numTasks()), {});
  result.machineBusySeconds.assign(
      static_cast<std::size_t>(inst.numMachines()), 0.0);

  // Seed per-task records (dropped tasks keep floor accuracy).
  for (int j = 0; j < inst.numTasks(); ++j) {
    TaskExecution& exec = result.executions[static_cast<std::size_t>(j)];
    exec.task = j;
    exec.accuracy = inst.task(j).accuracy.value(0.0);
  }

  // Walk each machine's timeline back to back from local 0 and queue every
  // task that starts before its machine stops.
  std::priority_queue<Finish, std::vector<Finish>, Later> finishes;
  long sequence = 0;
  const bool traceActive = faults.traceActive();
  for (int r = 0; r < inst.numMachines(); ++r) {
    const int tr = traceActive ? faults.traceMachine(r) : r;
    // First crash at or after the epoch start, in local time; a machine
    // already down at the offset interrupts everything at local 0, and
    // everything from the crash to the end of the timeline is lost (the
    // machine rejoins only at the next epoch's replan). Battery exhaustion
    // (FaultContext::energyCutSeconds) cuts with identical semantics at
    // the earlier of the two instants.
    const double traceCrash =
        traceActive ? faults.trace->nextCrashAt(tr, faults.timeOffset) -
                          faults.timeOffset
                    : std::numeric_limits<double>::infinity();
    const double crashLocal = std::min(traceCrash, faults.cutSeconds(r));
    double clock = 0.0;
    for (const ScheduledTask& e : schedule.timeline(r)) {
      const double execStart = clock;
      const double execEnd = execStart + e.duration;
      clock = execEnd;
      TaskExecution& exec = result.executions[static_cast<std::size_t>(e.task)];
      exec.machine = r;
      if (execStart >= crashLocal) {
        exec.interrupted = true;
        ++result.interruptions;
        continue;
      }
      exec.start = execStart;
      const bool cut = execEnd > crashLocal;
      const double finish = cut ? crashLocal : execEnd;
      // Straggler windows shrink delivered FLOPs, not the occupied slot.
      // The loss is subtracted from the scheduled duration rather than
      // re-deriving it from finish - execStart, so a task untouched by any
      // fault gets exactly duration · speed.
      const double occupied = cut ? finish - execStart : e.duration;
      const double lost =
          traceActive ? faults.trace->slowdownLossSeconds(
                            tr, faults.timeOffset + execStart,
                            faults.timeOffset + finish)
                      : 0.0;
      const double flops =
          std::max(0.0, lost > 0.0 ? occupied - lost : occupied) *
          inst.machine(r).speed;
      finishes.push({finish, r, sequence++, e.task, flops, cut});
    }
  }

  // Energy is summed in (finish time, machine, push order), so equal finish
  // times on different machines always add up in the same order.
  double energy = 0.0;
  while (!finishes.empty()) {
    const Finish f = finishes.top();
    finishes.pop();
    TaskExecution& exec = result.executions[static_cast<std::size_t>(f.task)];
    exec.finish = f.time;
    exec.flops = f.flops;
    exec.executed = true;
    if (f.interrupted) {
      exec.interrupted = true;
      ++result.interruptions;
    }
    exec.accuracy = inst.task(f.task).accuracy.value(f.flops);
    const double busy = exec.finish - exec.start;
    result.machineBusySeconds[static_cast<std::size_t>(f.machine)] += busy;
    energy += busy * inst.machine(f.machine).power();
    result.makespan = std::max(result.makespan, f.time);
    if (f.time > inst.task(f.task).deadline + 1e-9) {
      exec.deadlineMet = false;
      ++result.deadlineMisses;
    }
  }

  result.totalEnergy = energy;
  for (const TaskExecution& exec : result.executions) {
    result.totalAccuracy += exec.accuracy;
  }
  return result;
}

}  // namespace dsct::sim
