#include "sched/refine_profile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace dsct {

namespace {

constexpr double kPsiTol = 1e-12;
/// Smallest energy (J) a transfer may move; a donor or grower below it is
/// skipped.
constexpr double kMinTransfer = 1e-10;

/// Sort key of one pair while the plan is built: ψ, then the creation index
/// as (global segment, machine).
struct PlanKey {
  double psi;
  std::uint32_t segment;  ///< firstSeg[j] + k
  std::uint32_t machine;
};

/// The walk order: non-increasing ψ, then increasing creation index, which
/// orders pairs by (task, segment, machine).
bool walksBefore(const PlanKey& a, const PlanKey& b) {
  if (a.psi != b.psi) return a.psi > b.psi;
  if (a.segment != b.segment) return a.segment < b.segment;
  return a.machine < b.machine;
}

/// Ordered set over the positions [0, size]: a 64-ary bitset hierarchy in
/// which bit i of level l + 1 marks "word i of level l is non-zero". Updates
/// and predecessor queries touch one word per level.
class LiveSet {
 public:
  explicit LiveSet(std::uint32_t size) {
    // Capacity size + 1 so prevBelow(size) — "start above the last
    // position" — indexes a real word.
    std::size_t bits = static_cast<std::size_t>(size) + 1;
    do {
      bits = (bits + 63) / 64;
      levels_.emplace_back(bits, 0);
    } while (bits > 1);
  }

  void insert(std::uint32_t i) {
    for (std::vector<std::uint64_t>& level : levels_) {
      std::uint64_t& word = level[i >> 6];
      const bool wasEmpty = word == 0;
      word |= bit(i);
      if (!wasEmpty) return;
      i >>= 6;
    }
  }

  void erase(std::uint32_t i) {
    for (std::vector<std::uint64_t>& level : levels_) {
      std::uint64_t& word = level[i >> 6];
      word &= ~bit(i);
      if (word != 0) return;
      i >>= 6;
    }
  }

  /// Largest member strictly below `q`, or -1 when there is none.
  std::int64_t prevBelow(std::uint32_t q) const {
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const std::uint64_t below = levels_[l][q >> 6] & (bit(q) - 1);
      if (below != 0) {
        std::uint32_t i = (q & ~63u) | highest(below);
        while (l-- > 0) i = (i << 6) | highest(levels_[l][i]);
        return i;
      }
      q >>= 6;
    }
    return -1;
  }

 private:
  static std::uint64_t bit(std::uint32_t i) {
    return std::uint64_t{1} << (i & 63);
  }
  static std::uint32_t highest(std::uint64_t word) {
    return static_cast<std::uint32_t>(63 - std::countl_zero(word));
  }

  std::vector<std::vector<std::uint64_t>> levels_;  ///< level 0 = positions
};

}  // namespace

RefinePlan buildRefinePlan(const Instance& inst,
                           std::span<const SegmentJob> sortedSegments) {
  RefinePlan plan;
  const int n = inst.numTasks();
  const auto m = static_cast<std::size_t>(inst.numMachines());
  plan.firstSeg.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<RefinePair> segments;  // per global segment; machine unset
  for (int j = 0; j < n; ++j) {
    const PiecewiseLinearAccuracy& acc = inst.task(j).accuracy;
    plan.firstSeg[static_cast<std::size_t>(j) + 1] =
        plan.firstSeg[static_cast<std::size_t>(j)] +
        static_cast<std::size_t>(acc.numSegments());
    for (int k = 0; k < acc.numSegments(); ++k) {
      const AccuracySegment seg = acc.segment(k);
      segments.push_back({j, k, -1, seg.slope, 0.0, seg.fLo, seg.fHi});
    }
  }
  const std::size_t numSegments = segments.size();
  DSCT_CHECK_MSG(sortedSegments.size() == numSegments,
                 "refine plan needs the instance's " << numSegments
                                                     << " segment jobs, got "
                                                     << sortedSegments.size());
  const std::size_t numPairs = numSegments * m;
  DSCT_CHECK_MSG(numPairs < std::numeric_limits<std::uint32_t>::max(),
                 "refine pair count " << numPairs << " exceeds 32 bits");

  // One stream per machine: the segments in slope order, scaled by E_r.
  // Multiplying by a positive constant is monotone in IEEE arithmetic, so
  // each stream is already in ψ order, except inside a run of distinct
  // slopes that round to one ψ; those runs are re-sorted by creation index.
  std::vector<PlanKey> keys(numPairs);
  for (std::size_t r = 0; r < m; ++r) {
    const double e = inst.machine(static_cast<int>(r)).efficiency;
    PlanKey* const stream = keys.data() + r * numSegments;
    for (std::size_t i = 0; i < numSegments; ++i) {
      const SegmentJob& job = sortedSegments[i];
      const std::size_t g =
          plan.firstSeg[static_cast<std::size_t>(job.task)] +
          static_cast<std::size_t>(job.position);
      stream[i] = {segments[g].slope * e, static_cast<std::uint32_t>(g),
                   static_cast<std::uint32_t>(r)};
    }
    for (std::size_t lo = 0; lo < numSegments;) {
      std::size_t hi = lo + 1;
      while (hi < numSegments && stream[hi].psi == stream[lo].psi) ++hi;
      if (!std::is_sorted(stream + lo, stream + hi, walksBefore)) {
        std::sort(stream + lo, stream + hi, walksBefore);
      }
      lo = hi;
    }
    DSCT_DCHECK(std::is_sorted(stream, stream + numSegments, walksBefore));
  }

  // Merge the streams pairwise: ⌈log₂ m⌉ passes over 16-byte keys.
  std::vector<PlanKey> merged(numPairs);
  for (std::size_t width = numSegments; width < numPairs; width *= 2) {
    for (std::size_t lo = 0; lo < numPairs; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, numPairs);
      const std::size_t hi = std::min(lo + 2 * width, numPairs);
      std::merge(keys.data() + lo, keys.data() + mid, keys.data() + mid,
                 keys.data() + hi, merged.data() + lo, walksBefore);
    }
    keys.swap(merged);
  }

  plan.pairs.resize(numPairs);
  plan.position.resize(numPairs);
  for (std::size_t q = 0; q < numPairs; ++q) {
    const PlanKey& key = keys[q];
    RefinePair& pr = plan.pairs[q];
    pr = segments[key.segment];
    pr.machine = static_cast<int>(key.machine);
    pr.psi = key.psi;
    plan.position[static_cast<std::size_t>(key.segment) * m + key.machine] =
        static_cast<std::uint32_t>(q);
  }
  return plan;
}

RefinePlan buildRefinePlan(const Instance& inst) {
  std::vector<SegmentJob> segments = makeSegmentJobs(inst.tasks());
  sortSegmentJobs(segments);
  return buildRefinePlan(inst, segments);
}

RefineStats refineProfile(const Instance& inst, FractionalSchedule& schedule,
                          const RefineOptions& options) {
  return refineProfile(inst, buildRefinePlan(inst), schedule, options);
}

RefineStats refineProfile(const Instance& inst, const RefinePlan& plan,
                          FractionalSchedule& schedule,
                          const RefineOptions& options) {
  RefineStats stats;
  const int n = inst.numTasks();
  const int m = inst.numMachines();
  const std::vector<double>* caps = options.machineEnergyCaps;
  DSCT_CHECK_MSG(caps == nullptr || caps->size() == static_cast<std::size_t>(m),
                 "machineEnergyCaps has " << caps->size() << " entries for "
                     << m << " machines");
  if (n == 0) return stats;
  const std::vector<RefinePair>& pairs = plan.pairs;
  const std::vector<std::size_t>& firstSeg = plan.firstSeg;
  const std::vector<std::uint32_t>& position = plan.position;
  DSCT_DCHECK(firstSeg.size() == static_cast<std::size_t>(n) + 1);
  DSCT_DCHECK(position.size() ==
              firstSeg.back() * static_cast<std::size_t>(m));
  const auto numPairs = static_cast<std::uint32_t>(pairs.size());

  // Current FLOP allocation per task, updated incrementally.
  std::vector<double> flops(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    flops[static_cast<std::size_t>(j)] = schedule.flops(inst, j);
  }

  SlackEngine slackEngine(inst, schedule);

  // Per-machine energy draw, tracked incrementally when caps are active so
  // growth never pushes a machine past its battery charge.
  std::vector<double> machineEnergy;
  if (caps != nullptr) {
    machineEnergy = schedule.machineLoads();
    for (int r = 0; r < m; ++r) {
      machineEnergy[static_cast<std::size_t>(r)] *= inst.machine(r).power();
    }
  }

  // Joules a pair could give up right now, or −∞ when it holds no time on
  // its machine or no FLOPs inside its segment.
  const auto donorEnergy = [&](const RefinePair& pr) {
    constexpr double kNone = -std::numeric_limits<double>::infinity();
    const double t = schedule.at(pr.task, pr.machine);
    if (t <= 1e-12) return kNone;
    const Machine& ms = inst.machine(pr.machine);
    const double usedInSeg = std::clamp(
        flops[static_cast<std::size_t>(pr.task)] - pr.fLo, 0.0,
        pr.fHi - pr.fLo);
    if (usedInSeg <= 1e-12) return kNone;
    return std::min(usedInSeg / ms.efficiency, t * ms.power());
  };

  // Live donors (DESIGN.md §19): the positions whose pair passes every donor
  // guard. A transfer only changes its two tasks' time and FLOPs, so
  // re-testing those tasks' pairs keeps the set exact.
  LiveSet live(numPairs);
  const auto retest = [&](int task) {
    const std::size_t begin =
        firstSeg[static_cast<std::size_t>(task)] * static_cast<std::size_t>(m);
    const std::size_t end = firstSeg[static_cast<std::size_t>(task) + 1] *
                            static_cast<std::size_t>(m);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t q = position[i];
      if (donorEnergy(pairs[q]) > kMinTransfer) {
        live.insert(q);
      } else {
        live.erase(q);
      }
    }
  };
  for (int j = 0; j < n; ++j) retest(j);

  for (stats.rounds = 0; stats.rounds < options.maxRounds; ++stats.rounds) {
    if (stopRequested(options.cancel)) break;
    long transfersThisRound = 0;
    for (std::uint32_t p = 0; p < numPairs; ++p) {
      const RefinePair& grow = pairs[p];
      if (grow.slope <= 0.0) continue;  // flat segments can only donate
      const Machine& mr = inst.machine(grow.machine);
      const double fj = flops[static_cast<std::size_t>(grow.task)];
      // Fill at most to the end of this segment; earlier (steeper) segments
      // were already offered growth by higher-ψ pairs, so the realised
      // marginal gain is at least grow.slope per TFLOP (concavity).
      const double growFlops = grow.fHi - fj;
      if (growFlops <= 1e-12) continue;
      const double slack = slackEngine.slack(grow.task, grow.machine);
      double eAdd = std::min(growFlops / mr.efficiency,
                             std::max(0.0, slack) * mr.power());
      if (caps != nullptr) {
        eAdd = std::min(
            eAdd, std::max(0.0, (*caps)[static_cast<std::size_t>(
                                    grow.machine)] -
                                    machineEnergy[static_cast<std::size_t>(
                                        grow.machine)]));
      }
      if (eAdd <= kMinTransfer) continue;

      // Walk live donors from the cheapest ψ upward (paper line 9's reverse
      // iteration); stop once donors are no cheaper than the grower. Every
      // live donor is a transfer, since eAdd > kMinTransfer here.
      for (std::int64_t q = live.prevBelow(numPairs);
           q > static_cast<std::int64_t>(p) && eAdd > kMinTransfer;
           q = live.prevBelow(static_cast<std::uint32_t>(q))) {
        const RefinePair& shrink = pairs[static_cast<std::size_t>(q)];
        if (shrink.psi >= grow.psi - kPsiTol) break;
        const double tShrink = schedule.at(shrink.task, shrink.machine);
        const Machine& ms = inst.machine(shrink.machine);
        const double eTransfer = std::min(eAdd, donorEnergy(shrink));
        DSCT_DCHECK(eTransfer > kMinTransfer);

        schedule.add(grow.task, grow.machine, eTransfer / mr.power());
        flops[static_cast<std::size_t>(grow.task)] +=
            eTransfer * mr.efficiency;
        schedule.set(shrink.task, shrink.machine,
                     std::max(0.0, tShrink - eTransfer / ms.power()));
        flops[static_cast<std::size_t>(shrink.task)] -=
            eTransfer * ms.efficiency;
        retest(grow.task);
        if (shrink.task != grow.task) retest(shrink.task);

        slackEngine.onTransfer(grow.machine, shrink.machine);
        if (caps != nullptr) {
          machineEnergy[static_cast<std::size_t>(grow.machine)] += eTransfer;
          machineEnergy[static_cast<std::size_t>(shrink.machine)] -=
              eTransfer;
        }

        eAdd -= eTransfer;
        stats.energyMoved += eTransfer;
        ++stats.transfers;
        ++transfersThisRound;
      }
    }
    if (transfersThisRound == 0) break;
  }
  stats.slack = slackEngine.counters();
  return stats;
}

}  // namespace dsct
