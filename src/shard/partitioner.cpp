#include "shard/partitioner.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace dsct::shard {

namespace {

/// splitmix64: a cheap stateless mixer, deterministic across platforms.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<std::vector<int>> Partition::machinesOf() const {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(cells));
  for (std::size_t r = 0; r < machineCell.size(); ++r) {
    out[static_cast<std::size_t>(machineCell[r])].push_back(
        static_cast<int>(r));
  }
  return out;
}

std::vector<std::vector<int>> Partition::tasksOf() const {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(cells));
  for (std::size_t j = 0; j < taskCell.size(); ++j) {
    out[static_cast<std::size_t>(taskCell[j])].push_back(static_cast<int>(j));
  }
  return out;
}

Partition partitionInstance(const Instance& inst,
                            const PartitionOptions& options) {
  const int m = inst.numMachines();
  const int n = inst.numTasks();
  Partition part;
  part.cells = std::clamp(options.cells, 1, std::max(1, m));
  const std::size_t k = static_cast<std::size_t>(part.cells);
  part.machineCell.assign(static_cast<std::size_t>(m), 0);
  part.taskCell.assign(static_cast<std::size_t>(n), 0);
  part.cellSpeed.assign(k, 0.0);
  part.cellFmax.assign(k, 0.0);
  if (m == 0) return part;

  // --- machines: LPT onto the cell with the least total speed ---
  // Stable order: speed descending, seeded hash then index on ties, so equal
  // fleets partition identically run to run (and differently across seeds).
  std::vector<int> order(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) order[static_cast<std::size_t>(r)] = r;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double sa = inst.machine(a).speed;
    const double sb = inst.machine(b).speed;
    if (sa != sb) return sa > sb;
    const std::uint64_t ha =
        mix(options.seed ^ static_cast<std::uint64_t>(a) * 0x100000001b3ULL);
    const std::uint64_t hb =
        mix(options.seed ^ static_cast<std::uint64_t>(b) * 0x100000001b3ULL);
    if (ha != hb) return ha < hb;
    return a < b;
  });
  for (const int r : order) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < k; ++c) {
      if (part.cellSpeed[c] < part.cellSpeed[best]) best = c;
    }
    part.machineCell[static_cast<std::size_t>(r)] = static_cast<int>(best);
    part.cellSpeed[best] += inst.machine(r).speed;
  }

  // --- tasks: deadline order onto the least relatively loaded cell ---
  // Relative load = assigned fmax / cell speed, so fast cells absorb
  // proportionally more work and every cell's solve sees a similar ratio of
  // demand to capacity.
  const auto relLoad = [&](std::size_t c) {
    return part.cellSpeed[c] > 0.0
               ? part.cellFmax[c] / part.cellSpeed[c]
               : std::numeric_limits<double>::infinity();
  };
  for (int j = 0; j < n; ++j) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < k; ++c) {
      if (relLoad(c) < relLoad(best)) best = c;
    }
    part.taskCell[static_cast<std::size_t>(j)] = static_cast<int>(best);
    part.cellFmax[best] += inst.task(j).fmax();
  }
  return part;
}

}  // namespace dsct::shard
