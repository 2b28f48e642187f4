// The deterministic cell partitioner (src/shard/partitioner.h): coverage,
// clamping, balance and determinism.
#include "shard/partitioner.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_support.h"

namespace dsct::shard {
namespace {

Partition makePartition(const Instance& inst, int cells,
                        std::uint64_t seed = 0) {
  PartitionOptions options;
  options.cells = cells;
  options.seed = seed;
  return partitionInstance(inst, options);
}

void expectCoverage(const Instance& inst, const Partition& part) {
  ASSERT_EQ(static_cast<int>(part.machineCell.size()), inst.numMachines());
  ASSERT_EQ(static_cast<int>(part.taskCell.size()), inst.numTasks());
  for (const int c : part.machineCell) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, part.cells);
  }
  for (const int c : part.taskCell) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, part.cells);
  }
  // Every cell owns at least one machine (the clamp's contract).
  std::vector<int> machines(static_cast<std::size_t>(part.cells), 0);
  for (const int c : part.machineCell) ++machines[static_cast<std::size_t>(c)];
  for (const int count : machines) EXPECT_GE(count, 1);
}

TEST(ShardPartitioner, EveryMachineAndTaskInExactlyOneCell) {
  const Instance inst = testing::randomInstance(11, 40, 8);
  const Partition part = makePartition(inst, 4);
  EXPECT_EQ(part.cells, 4);
  expectCoverage(inst, part);
  // machinesOf/tasksOf are the inverse maps, ascending.
  const auto machines = part.machinesOf();
  const auto tasks = part.tasksOf();
  int machineTotal = 0;
  int taskTotal = 0;
  for (int c = 0; c < part.cells; ++c) {
    EXPECT_TRUE(std::is_sorted(machines[c].begin(), machines[c].end()));
    EXPECT_TRUE(std::is_sorted(tasks[c].begin(), tasks[c].end()));
    for (const int r : machines[c]) EXPECT_EQ(part.machineCell[r], c);
    for (const int j : tasks[c]) EXPECT_EQ(part.taskCell[j], c);
    machineTotal += static_cast<int>(machines[c].size());
    taskTotal += static_cast<int>(tasks[c].size());
  }
  EXPECT_EQ(machineTotal, inst.numMachines());
  EXPECT_EQ(taskTotal, inst.numTasks());
}

TEST(ShardPartitioner, CellCountClampsToMachines) {
  const Instance inst = testing::randomInstance(5, 12, 3);
  EXPECT_EQ(makePartition(inst, 0).cells, 1);
  EXPECT_EQ(makePartition(inst, -4).cells, 1);
  EXPECT_EQ(makePartition(inst, 3).cells, 3);
  const Partition clamped = makePartition(inst, 64);
  EXPECT_EQ(clamped.cells, 3);
  expectCoverage(inst, clamped);
}

TEST(ShardPartitioner, DeterministicBitForBit) {
  const Instance inst = testing::randomInstance(7, 60, 10);
  const Partition a = makePartition(inst, 5, 99);
  const Partition b = makePartition(inst, 5, 99);
  EXPECT_EQ(a.machineCell, b.machineCell);
  EXPECT_EQ(a.taskCell, b.taskCell);
  EXPECT_EQ(a.cellSpeed, b.cellSpeed);
  EXPECT_EQ(a.cellFmax, b.cellFmax);
}

TEST(ShardPartitioner, SpeedBalancedAcrossCells) {
  // LPT over machine speeds: no cell's throughput may dwarf another's.
  const Instance inst = testing::randomInstance(3, 80, 16);
  const Partition part = makePartition(inst, 4);
  const double maxSpeed =
      *std::max_element(part.cellSpeed.begin(), part.cellSpeed.end());
  const double minSpeed =
      *std::min_element(part.cellSpeed.begin(), part.cellSpeed.end());
  EXPECT_GT(minSpeed, 0.0);
  // 16 uniform machines over 4 cells: LPT lands within a small factor.
  EXPECT_LE(maxSpeed, 2.0 * minSpeed);
}

TEST(ShardPartitioner, RelativeLoadBalancedAcrossCells) {
  const Instance inst = testing::randomInstance(13, 100, 12);
  const Partition part = makePartition(inst, 4);
  std::vector<double> relLoad;
  for (int c = 0; c < part.cells; ++c) {
    ASSERT_GT(part.cellSpeed[c], 0.0);
    relLoad.push_back(part.cellFmax[c] / part.cellSpeed[c]);
  }
  const double maxLoad = *std::max_element(relLoad.begin(), relLoad.end());
  const double minLoad = *std::min_element(relLoad.begin(), relLoad.end());
  // Least-loaded-first task routing keeps the spread tight; the bound is
  // loose (one large task can tilt a cell) but catches gross imbalance.
  EXPECT_LE(maxLoad, 3.0 * (minLoad + 1e-9) + 1.0);
}

TEST(ShardPartitioner, DistinctSeedsStayValid) {
  const Instance inst = testing::randomInstance(17, 30, 9);
  for (const std::uint64_t seed : {0ull, 1ull, 42ull, 1234567ull}) {
    expectCoverage(inst, makePartition(inst, 3, seed));
  }
}

}  // namespace
}  // namespace dsct::shard
