#include "sched/slack_engine.h"

#include "util/check.h"

namespace dsct {

SlackEngine::SlackEngine(const Instance& inst,
                         const FractionalSchedule& schedule)
    : inst_(inst), schedule_(schedule) {
  const std::size_t n = static_cast<std::size_t>(inst.numTasks());
  const std::size_t m = static_cast<std::size_t>(inst.numMachines());
  trees_.resize(m);
  // Version 0 marks "never built / never memoised"; the first bump to 1
  // happens in rebuildMachine, so fresh memo slots can never alias a live
  // version.
  machineVersion_.assign(m, 1);
  treeVersion_.assign(m, 0);
  memoVersion_.assign(n * m, 0);
  memo_.assign(n * m, 0.0);
  leafBuffer_.resize(n);
}

void SlackEngine::rebuildMachine(int machine) {
  // Same prefix summation the scratch scan performs, so the leaves carry
  // exactly the scan's values; suffixMin over them is then exact.
  double prefix = 0.0;
  for (int i = 0; i < inst_.numTasks(); ++i) {
    prefix += schedule_.at(i, machine);
    leafBuffer_[static_cast<std::size_t>(i)] =
        inst_.task(i).deadline - prefix;
  }
  trees_[static_cast<std::size_t>(machine)].assign(leafBuffer_);
  treeVersion_[static_cast<std::size_t>(machine)] =
      machineVersion_[static_cast<std::size_t>(machine)];
  ++counters_.rebuilds;
}

double SlackEngine::slack(int task, int machine) {
  ++counters_.queries;
  const std::size_t r = static_cast<std::size_t>(machine);
  const std::size_t idx =
      static_cast<std::size_t>(task) *
          static_cast<std::size_t>(inst_.numMachines()) +
      r;
  if (memoVersion_[idx] == machineVersion_[r]) {
    ++counters_.hits;
    return memo_[idx];
  }
  if (treeVersion_[r] != machineVersion_[r]) rebuildMachine(machine);
  const double min = trees_[r].suffixMin(static_cast<std::size_t>(task));
  // The scratch scan returns a literal 0.0 the moment a running minimum
  // drops to or below zero; mirror that (it also normalises −0.0).
  const double value = min <= 0.0 ? 0.0 : min;
  memo_[idx] = value;
  memoVersion_[idx] = machineVersion_[r];
  return value;
}

void SlackEngine::onTransfer(int growMachine, int shrinkMachine) {
  ++machineVersion_[static_cast<std::size_t>(growMachine)];
  ++counters_.invalidations;
  if (shrinkMachine != growMachine) {
    ++machineVersion_[static_cast<std::size_t>(shrinkMachine)];
    ++counters_.invalidations;
  }
}

}  // namespace dsct
